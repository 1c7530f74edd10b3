"""Vectorised float ↔ fixed-point conversion.

The central operation is :func:`quantize`, which maps a float array onto
the fixed-point grid of a :class:`~repro.fixed.format.FixedPointFormat`
using its rounding and overflow modes and returns floats that are exactly
representable in that format.  :func:`to_raw`/:func:`from_raw` expose the
underlying scaled-integer (bit-pattern) view used by the SoC simulator's
memory buffers.

All operations are whole-array numpy; raw values are ``int64``.  The
round/saturate pipeline is the hottest loop in the C-simulation twin
(every kernel casts its accumulator and its result stream), so it is
written single-pass: the scale, round and saturate stages all mutate one
scratch buffer instead of allocating a temporary each.  :func:`quantize_`
is the in-place variant used by the kernels on accumulators they own.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fixed.format import FixedPointFormat, Overflow, Rounding

__all__ = ["quantize", "quantize_", "to_raw", "from_raw",
           "quantization_error"]

#: Magnitude guard before the float → int64 cast (one bit of headroom).
_INT64_LIMIT = float(2**62)

#: Largest integer magnitude exactly representable in float64.  Raw
#: bounds inside ±2**53 are exact, so clipping the rounded (integral)
#: floats against them matches the int64 clip bit for bit.
_FLOAT_EXACT_INT = 2**53


def _round_inplace(scaled: np.ndarray, mode: Rounding) -> None:
    """Round real-valued *scaled* (value / lsb) to integral floats, in place.

    Bit-identical to the naive expressions (``floor(x + 0.5)`` etc.): each
    mode performs the same float64 operations, only without intermediate
    allocations.
    """
    if mode is Rounding.TRN:
        np.floor(scaled, out=scaled)
    elif mode is Rounding.RND:
        # Round half toward +inf: floor(x + 0.5).
        scaled += 0.5
        np.floor(scaled, out=scaled)
    elif mode is Rounding.RND_CONV:
        # numpy's rint is round-half-to-even (convergent).
        np.rint(scaled, out=scaled)
    elif mode is Rounding.RND_ZERO:
        # Round half toward zero: for x >= 0 this is ceil(x - 0.5) and
        # floor(x + 0.5) == -ceil(-x - 0.5) for x < 0, so operate on the
        # magnitude and restore the sign (round-to-nearest is
        # sign-symmetric, so the results match the two-branch form).
        neg = np.signbit(scaled)
        np.fabs(scaled, out=scaled)
        scaled -= 0.5
        np.ceil(scaled, out=scaled)
        np.negative(scaled, out=scaled, where=neg)
    else:
        raise ValueError(f"unknown rounding mode: {mode!r}")


def _overflow_inplace(raw: np.ndarray, fmt: FixedPointFormat) -> None:
    """Apply the format's overflow behaviour to integer raw values, in place."""
    lo, hi = fmt.raw_min, fmt.raw_max
    if fmt.overflow in (Overflow.SAT, Overflow.SAT_SYM):
        np.clip(raw, lo, hi, out=raw)
    elif fmt.overflow is Overflow.WRAP:
        span = 2**fmt.width
        raw -= lo
        np.mod(raw, span, out=raw)
        raw += lo
    else:
        raise ValueError(f"unknown overflow mode: {fmt.overflow!r}")


def _scale_guard_round_inplace(scaled: np.ndarray,
                               fmt: FixedPointFormat) -> None:
    """Stages shared by every conversion: pre-cast guard + rounding.

    *scaled* already holds ``value / lsb`` and is mutated in place.
    Values too far outside the grid to survive the int64 cast saturate
    (SAT) or are wrapped via fmod (WRAP), exactly as hardware with the
    matching overflow mode would treat them.
    """
    if fmt.overflow is Overflow.WRAP:
        # fmod is only needed for astronomically scaled values; skip the
        # masking entirely on the (overwhelmingly common) in-range path.
        span = float(2**fmt.width)
        big = np.abs(scaled) >= _INT64_LIMIT
        if big.any():
            np.fmod(scaled, span, out=scaled, where=big)
    else:
        np.clip(scaled, -_INT64_LIMIT, _INT64_LIMIT, out=scaled)
    _round_inplace(scaled, fmt.rounding)


def _within_range(values: np.ndarray, fmt: FixedPointFormat) -> bool:
    """Whether every value lies inside *fmt*'s representable range, on a
    format whose raw bounds are exact floats (NaN and infinities never
    do).  Rounding then lands every value on an in-range raw word, so
    the overflow stage and the int64 round trip are the identity and
    scale → round (→ unscale) alone is the whole conversion.  Two
    reductions, where the full pipeline makes several passes."""
    if fmt.raw_max > _FLOAT_EXACT_INT or -fmt.raw_min > _FLOAT_EXACT_INT:
        return False
    return bool(values.min(initial=np.inf) >= fmt.min_value
                and values.max(initial=-np.inf) <= fmt.max_value)


def to_raw(values: np.ndarray, fmt: FixedPointFormat,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantize float *values* to the raw scaled-integer representation.

    The result is an ``int64`` array holding ``round(value / lsb)`` after
    rounding and overflow handling; multiplying by ``fmt.lsb`` recovers the
    representable float (see :func:`from_raw`).  Pass a preallocated
    ``int64`` *out* array to avoid the result allocation.

    Non-finite inputs are rejected: silicon has no NaN, and letting one
    through would corrupt the wraparound arithmetic silently.
    """
    arr = np.asarray(values, dtype=np.float64)
    in_range = _within_range(arr, fmt)
    if not in_range and not np.isfinite(arr).all():
        raise ValueError("cannot quantize non-finite values")
    # asarray keeps 0-d results as ndarrays so the in-place stages work
    # for scalar inputs too.
    scaled = np.asarray(np.divide(arr, fmt.lsb))
    if in_range:
        _round_inplace(scaled, fmt.rounding)
    else:
        _scale_guard_round_inplace(scaled, fmt)
    if out is None:
        raw = scaled.astype(np.int64)
    else:
        if out.shape != scaled.shape or out.dtype != np.int64:
            raise ValueError(
                f"out must be int64 with shape {scaled.shape}, "
                f"got {out.dtype} {out.shape}"
            )
        np.copyto(out, scaled, casting="unsafe")
        raw = out
    if not in_range:
        _overflow_inplace(raw, fmt)
    return raw


def from_raw(raw: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Convert raw scaled-integer values back to floats (``raw * lsb``)."""
    return np.asarray(raw, dtype=np.float64) * fmt.lsb


def quantize(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Project float *values* onto *fmt*'s grid, returning floats.

    Equivalent to assigning a ``double`` to an ``ac_fixed<W, I>`` variable
    in the generated HLS C++ and reading it back.
    """
    # np.array always copies, so quantize_ never mutates the caller's data.
    return quantize_(np.array(values, dtype=np.float64), fmt)


def quantize_(values: np.ndarray, fmt: FixedPointFormat,
              raw_out: Optional[np.ndarray] = None) -> np.ndarray:
    """In-place :func:`quantize`: mutates and returns *values*.

    *values* must be a writeable ``float64`` ndarray the caller owns —
    the kernels use this on freshly-computed accumulators so the cast
    onto the result grid allocates a single int64 scratch array instead
    of a full float temporary per stage.

    ``raw_out`` optionally supplies that int64 scratch (same shape as
    *values*): the compiled executor reuses one persistent buffer per
    step so the steady-state path performs no allocation at all.  It is
    ignored on the float-clip fast path, which needs no integer detour.
    """
    if not isinstance(values, np.ndarray) or values.dtype != np.float64:
        raise TypeError("quantize_ needs a float64 ndarray "
                        f"(got {type(values).__name__})")
    in_range = _within_range(values, fmt)
    if not in_range and not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    np.divide(values, fmt.lsb, out=values)
    if in_range:
        _round_inplace(values, fmt.rounding)
        np.multiply(values, fmt.lsb, out=values)
        return values
    if (fmt.overflow is not Overflow.WRAP
            and fmt.raw_max <= _FLOAT_EXACT_INT
            and -fmt.raw_min <= _FLOAT_EXACT_INT):
        # Saturating formats whose raw bounds fit the float64 mantissa
        # never need the int64 detour: the rounded values are integral
        # floats and the bounds are exactly representable, so a float
        # clip saturates bit-identically (and out-of-cast-range inputs
        # hit the same bound the int64 guard would send them to).
        _round_inplace(values, fmt.rounding)
        np.clip(values, float(fmt.raw_min), float(fmt.raw_max), out=values)
        np.multiply(values, fmt.lsb, out=values)
        return values
    _scale_guard_round_inplace(values, fmt)
    if raw_out is None:
        raw = values.astype(np.int64)
    else:
        if raw_out.shape != values.shape or raw_out.dtype != np.int64:
            raise ValueError(
                f"raw_out must be int64 with shape {values.shape}, "
                f"got {raw_out.dtype} {raw_out.shape}"
            )
        # copyto(unsafe) is the same C-level float→int64 cast astype
        # performs (pinned by the golden-vector tests).
        np.copyto(raw_out, values, casting="unsafe")
        raw = raw_out
    _overflow_inplace(raw, fmt)
    np.multiply(raw, fmt.lsb, out=values)
    return values


def quantization_error(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Per-element error introduced by quantizing *values* into *fmt*."""
    arr = np.asarray(values, dtype=np.float64)
    return quantize(arr, fmt) - arr
