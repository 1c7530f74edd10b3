"""Bit-exact graph compiler for :class:`~repro.hls.model.HLSModel`.

The hls4ml flow never executes the network as written: activations become
on-fabric lookup tables and each layer synthesises to one fused
multiply–accumulate–requantize pipeline.  This module applies the same
rewrites to the C-simulation twin — but only where the rewrite is
*provably* bit-identical to the naive kernel-by-kernel execution.
(Batch-norm folding is a rewrite of the design itself, done at
conversion by :func:`repro.hls.passes.fuse.fuse_batchnorm`; a batch-norm
kernel left in the design runs as its naive kernel here.)

* **Activation LUTs** — a kernel input stream on an ``ac_fixed<W, I>``
  grid with ``W ≤ 16`` carries at most 65,536 distinct raw words, so
  ``quantize(act(dequantize(raw)))`` is enumerated exhaustively by
  running the *original kernel* over every representable input value.
  The gather is then bit-exact by construction — the same argument
  hls4ml uses for its on-chip tables.

* **Fused MAC + requantize** — when the accumulator cast is provably a
  no-op (grid fine enough and range wide enough for every achievable
  accumulator, or a truncation that cannot move a value across a result
  rounding boundary), the GEMM runs against weights pre-scaled by the
  result format's ``1/lsb`` and emits raw result words in a single
  rounding pass; a following activation LUT gathers straight from those
  words, so the intermediate stream never materialises.

* **Per-tap conv GEMMs over zero-edged streams** — a conv is ``k``
  BLAS GEMMs, one per tap, over the flattened rows of its operand with
  zero edge rows around every frame, accumulating into a buffer
  pre-filled with the bias.  The operand's producer writes that layout
  straight into its own output, and a concat feeding only the conv is
  never built: the conv contracts each operand against its slice of the
  input channels (split-K).  A cast-free nearest-neighbour up-sample
  read only by a ``same`` conv is never built either: the conv reads the
  low-resolution stream once per output phase, with the taps that land
  on the same low-resolution row summed into one weight (polyphase).

* **Static arena planner** — extends the model's liveness plan into
  first-fit offset assignment inside one preallocated float64 arena:
  every lowered step writes into a precomputed view, and per-step
  scratch buffers are sized by the largest batch seen and reused, so
  the steady-state path performs no numpy array allocation.
  (BLAS-internal workspace is outside our control.)

Every rewrite either carries a proof obligation checked at compile time
or is exact by construction; when a check fails the kernel keeps its
naive ``forward`` (a :class:`_KernelStep`), so ``compile`` can never
change an output bit.  ``tests/test_compile.py`` pins the equivalences
with ``np.array_equal`` — including exhaustively over all raw words of
every LUT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fixed.format import FixedPointFormat, Overflow, Rounding
from repro.fixed.quantize import _round_inplace, quantize, quantize_
from repro.hls.kernels.activation import SoftmaxKernel
from repro.hls.kernels.base import HLSKernel
from repro.hls.kernels.linalg import Conv1DKernel, DenseKernel
from repro.hls.kernels.shape import (ConcatKernel, FlattenKernel,
                                     InputKernel, LinearKernel,
                                     MaxPoolKernel, ReshapeKernel,
                                     UpSampleKernel)

__all__ = ["CompileReport", "CompiledPlan", "compile_model",
           "MAX_LUT_BITS", "COMPILE_LEVELS", "check_compile_level"]

#: Valid ``HLSModel.compile(level=...)`` values: 0 runs the naive
#: executor, 2 installs the compiled plan.
COMPILE_LEVELS = (0, 2)

#: Largest input-stream width an exhaustive lookup table is built for
#: (2**16 = 65,536 float64 entries = 512 KiB per table).
MAX_LUT_BITS = 16

#: Exact-summation ceiling: sums of grid values are exact in float64 as
#: long as |sum| / grid_lsb stays within the 53-bit mantissa.  Every
#: fused accumulation is gated on this bound.
_EXACT_SUM_LIMIT = float(2**53)

#: int64-cast guard for raw-domain emits (one bit of headroom, matching
#: ``repro.fixed.quantize._INT64_LIMIT``).
_RAW_GUARD = float(2**62)

#: Grid widths whose raw values round-trip exactly through float64 —
#: the idempotent-requantization window (same constant as the model's
#: planning pass).
_EXACT_GRID_WIDTH = 52


def check_compile_level(level) -> int:
    """*level*, or ``ValueError`` naming :data:`COMPILE_LEVELS`."""
    if level not in COMPILE_LEVELS:
        raise ValueError(f"compile level must be 0 or 2, got {level!r}")
    return level


def _dgemm():
    """scipy's BLAS ``dgemm``.

    A plan with a conv step first calls this when it is built or
    unpickled, so the import never lands inside a step's time; dense-only
    plans never import scipy, and the f2py object (which cannot be
    pickled) is never stored on a plan that worker processes receive by
    pickle.
    """
    from scipy.linalg.blas import dgemm
    return dgemm


# ----------------------------------------------------------------------
# Proof helpers
# ----------------------------------------------------------------------
def _max_abs(fmt: FixedPointFormat) -> float:
    """Largest |value| an in-range stream on *fmt*'s grid can carry."""
    return max(abs(fmt.min_value), abs(fmt.max_value))


def _mac_bound(w2: np.ndarray, bias: Optional[np.ndarray],
               in_max: float) -> float:
    """Worst-case |accumulator| of ``x @ w2 + bias`` over in-range x.

    ``max_j ( Σ_i |W_ij| · in_max + |b_j| )`` — the classic interval
    bound; padding zeros in convolutions only shrink it.
    """
    col = np.abs(w2).sum(axis=0) * in_max
    if bias is not None:
        col = col + np.abs(bias)
    return float(col.max()) if col.size else 0.0


def _phase_taps(w: np.ndarray, s: int,
                pl: int) -> List[List[Tuple[int, np.ndarray]]]:
    """Per output phase of a conv (taps ``w``, ``pl`` zero rows on the
    left) that reads an ``s``-fold nearest-neighbour up-sample:
    ``[(low-res row offset, summed tap weights)]``.

    Output ``t = s·q + r`` reads up-sampled row ``t + j − pl`` through
    tap ``j``, which repeats low-res row ``q + ⌊(r + j − pl)/s⌋`` — also
    for the zero edges, which up-sample to zero edges.  The taps of one
    phase that land on the same low-res row merge into one weight.
    """
    phases = []
    for r in range(s):
        merged: Dict[int, np.ndarray] = {}
        for j in range(w.shape[0]):
            d = (r + j - pl) // s
            merged[d] = merged[d] + w[j] if d in merged else w[j]
        phases.append(sorted(merged.items()))
    return phases


def _grid(values) -> float:
    """Largest power of two every entry of *values* is an integer
    multiple of (``inf`` when all are zero)."""
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    v = v[v != 0.0]
    if not v.size:
        return float("inf")
    mant, exp = np.frexp(v)  # v = mant · 2**exp, mant·2**53 an integer
    ints = (mant * 2.0**53).astype(np.int64)
    return float(((ints & -ints) * np.exp2(exp - 53.0)).min())


def _cast_identity(fmt: FixedPointFormat, prod_frac: int,
                   bound: float) -> bool:
    """True when quantizing exact sums on the ``2**-prod_frac`` grid with
    ``|value| ≤ bound`` into *fmt* provably changes nothing: the target
    grid is at least as fine and the range covers the bound (so neither
    rounding nor overflow can act)."""
    if fmt.fractional < prod_frac:
        return False
    return bound <= fmt.max_value and -bound >= fmt.min_value


def _accum_cast_skippable(accum: FixedPointFormat, result: FixedPointFormat,
                          prod_frac: int, bound: float) -> bool:
    """True when the accumulator cast cannot change the *result* cast's
    outcome and may be elided.

    Two provable cases:

    * identity — the accumulator grid is finer than the product grid and
      wide enough for the bound (no rounding, no overflow);
    * harmless truncation — the accumulator rounds ``TRN`` (truncate
      toward −∞) without saturating, and its grid contains every decision
      boundary of the result rounding.  Truncating onto a grid that
      contains the boundaries can never move a value across one, and a
      value landing exactly *on* a boundary resolves the same way the
      un-truncated value did for ``RND`` (ties toward +∞) and ``TRN``
      boundaries.  ``RND_CONV``/``RND_ZERO`` ties break non-monotonically,
      so only the identity case applies to them.
    """
    if _cast_identity(accum, prod_frac, bound):
        return True
    if accum.rounding is not Rounding.TRN:
        return False
    if not (bound <= accum.max_value and -bound >= accum.min_value):
        return False  # the truncation would also saturate / wrap
    if bound / accum.lsb > _EXACT_SUM_LIMIT:
        return False  # truncated values would leave the exact window
    if result.rounding is Rounding.RND:
        return accum.fractional >= result.fractional + 1
    if result.rounding is Rounding.TRN:
        return accum.fractional >= result.fractional
    return False


def _build_lut(kernel: HLSKernel, in_fmt: FixedPointFormat) -> np.ndarray:
    """Exhaustive output table of an element-wise kernel, indexed by
    ``raw - in_fmt.raw_min``.

    Built by running the *original* ``forward`` (honouring its planned
    ``requantize`` flag) over every representable input value, so the
    gather is bit-exact by construction.
    """
    raw = np.arange(in_fmt.raw_min, in_fmt.raw_max + 1, dtype=np.int64)
    values = raw.astype(np.float64) * in_fmt.lsb
    table = kernel.forward([values[np.newaxis, :]])
    return np.ascontiguousarray(table[0], dtype=np.float64)


def _check_index(idx: np.ndarray, size: int) -> None:
    """``IndexError`` unless every entry of the ``intp`` array *idx* is
    in ``[0, size)``: one ``max`` over the words read unsigned, where a
    negative index reads as a huge one.

    This is the check ``take(mode="raise")`` makes, without the
    temporary copy of ``out`` that mode gathers through: after it,
    ``mode="wrap"`` is the identity on every index and writes ``out``
    directly.
    """
    if idx.size and idx.view(np.uintp).max() >= size:
        raise IndexError(f"gather index out of range [0, {size})")


def _lut_span_ok(fmt: FixedPointFormat) -> bool:
    return (fmt.raw_max - fmt.raw_min + 1) <= (1 << MAX_LUT_BITS)


def _overflow_free(in_fmt: FixedPointFormat,
                   out_fmt: FixedPointFormat) -> bool:
    """True when casting any in-range *in_fmt* grid value into *out_fmt*
    provably cannot overflow, so the cast's int64 detour (whose only job
    is the overflow arithmetic) may be replaced by pure float
    scale-round-unscale.

    Every rounding mode moves the scaled value by strictly less than one
    raw unit, so ``±1`` of slack on the scaled range bounds covers all of
    them.  Restricted to widths whose raw values are exact in float64.
    """
    if (in_fmt.width > _EXACT_GRID_WIDTH
            or out_fmt.width > _EXACT_GRID_WIDTH):
        return False
    return (in_fmt.max_value / out_fmt.lsb + 1.0 <= out_fmt.raw_max
            and in_fmt.min_value / out_fmt.lsb - 1.0 >= out_fmt.raw_min)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class CompileReport:
    """What the compiler did — and what it refused to do, with reasons."""

    level: int
    luts: List[str] = field(default_factory=list)
    fused: List[str] = field(default_factory=list)
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: per-frame float64 words of the static arena (0 when uncompiled)
    arena_words: int = 0

    def describe(self) -> str:
        lines = [f"compile level {self.level}: "
                 f"{len(self.luts)} LUTs, {len(self.fused)} fused MACs, "
                 f"arena {self.arena_words} words/frame"]
        for name, reason in sorted(self.fallbacks.items()):
            lines.append(f"  fallback {name}: {reason}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
class _Step:
    """One node of the compiled plan.

    ``run(ins, out)`` consumes producer streams and returns its output
    buffer; ``out`` is the preallocated contiguous arena view the planner
    assigned this step, which it must write into (and return).  Steps
    without a slot (naive kernels, aliases) get ``None``.
    A step whose stream a conv reads directly keeps ``pad`` zero rows
    before and after every frame (see :class:`_MACStep`); the plan hands
    every other consumer the view of the data rows.
    """

    #: True when the output is a view of the input (shares its slot)
    aliases_input = False
    #: True when the step allocates its own output (no arena slot)
    heap_output = False

    def __init__(self, name: str, inputs: Sequence[str],
                 out_shape: Tuple[int, ...]):
        self.name = name
        self.inputs = list(inputs)
        self.out_shape = tuple(int(d) for d in out_shape)
        #: naive kernel names this step replaces (fused steps list every
        #: kernel they absorbed) — lets profiling reports line compiled
        #: step times up against the naive per-kernel times.
        self.covers = [name]
        #: zero rows before/after each frame of the output buffer
        self.pad = (0, 0)
        #: per input: True when this step reads the producer's whole
        #: zero-edged buffer rather than its data rows
        self.reads_padded = [False] * len(self.inputs)
        self._scr: Dict[tuple, np.ndarray] = {}

    @property
    def slot_shape(self) -> Tuple[int, ...]:
        """Per-frame shape of the output buffer, edge rows included."""
        if self.pad == (0, 0):
            return self.out_shape
        return (sum(self.pad) + self.out_shape[0],) + self.out_shape[1:]

    def _scratch(self, tag: str, n: int, shape: Tuple[int, ...],
                 dtype=np.float64, zero: bool = False) -> np.ndarray:
        """The first *n* frames of a persistent buffer sized, like the
        arena, by the largest batch seen (not one per batch size)."""
        key = (tag, dtype)
        buf = self._scr.get(key)
        if buf is None or buf.shape[0] < n or buf.shape[1:] != shape:
            buf = (np.zeros if zero else np.empty)((n,) + tuple(shape), dtype)
            self._scr[key] = buf
        return buf[:n]

    def _out(self, out: np.ndarray):
        """``(buffer, data rows)`` of this call's output, edges zeroed
        (arena regions are shared, so on every call)."""
        pl, pr = self.pad
        if not (pl or pr):
            return out, out
        out[:, :pl] = 0.0
        out[:, pl + self.out_shape[0]:] = 0.0
        return out, out[:, pl:pl + self.out_shape[0]]

    def _cast(self, dst: np.ndarray, fmt: FixedPointFormat, fast: bool,
              tag: str = "raw") -> None:
        """In-place requantization of *dst* onto *fmt*.

        ``fast`` was proven at compile time (:func:`_overflow_free`):
        overflow cannot act, so scale → round → unscale in pure float64
        is bit-identical to the full quantizer — the int64 round trip is
        the identity on integral in-range values, and the overflow stage
        it exists to feed is a no-op.  This matters on strided views
        (concat slices), where the integer detour's modulo is the single
        most expensive pass of the naive cast.
        """
        if fast:
            np.multiply(dst, 1.0 / fmt.lsb, out=dst)
            _round_inplace(dst, fmt.rounding)
            np.multiply(dst, fmt.lsb, out=dst)
        else:
            raw = self._scratch(tag, dst.shape[0], dst.shape[1:], np.int64)
            quantize_(dst, fmt, raw_out=raw)

    def run(self, ins: List[np.ndarray],
            out: Optional[np.ndarray]) -> np.ndarray:
        raise NotImplementedError


class _KernelStep(_Step):
    """Unlowered kernel: the naive ``forward`` (always heap-allocated)."""

    heap_output = True

    def __init__(self, kernel: HLSKernel):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.kernel = kernel

    def run(self, ins, out):
        return self.kernel.forward(ins)


class _InputStep(_Step):
    """Entry quantization onto the input-stream grid, into the arena."""

    def __init__(self, kernel: InputKernel):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.fmt = kernel.config.result

    def run(self, ins, out):
        (x,) = ins
        n = x.shape[0]
        buf, dst = self._out(out)
        np.copyto(dst, x)
        raw = self._scratch("raw", n, self.out_shape, np.int64)
        quantize_(dst, self.fmt, raw_out=raw)
        return buf


class _LUTStep(_Step):
    """Element-wise activation as an O(1) integer-indexed gather."""

    def __init__(self, kernel: HLSKernel, in_fmt: FixedPointFormat,
                 table: np.ndarray):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.table = table
        self.raw_min = in_fmt.raw_min
        self.inv_lsb = 1.0 / in_fmt.lsb

    def absorb_cast(self, cast: tuple) -> bool:
        """Requantize the table itself: the consumer's operand cast then
        costs nothing at run time (exact by construction — the cast is
        applied to every value the gather can ever emit)."""
        self.table = quantize(self.table, cast[0])
        return True

    def run(self, ins, out):
        (x,) = ins
        n = x.shape[0]
        # x sits exactly on the producer grid, so x/lsb is an exact
        # integer and the truncating cast recovers the raw word.  Indices
        # are intp: np.take converts any other index type first.
        tmp = self._scratch("tmp", n, x.shape[1:])
        idx = self._scratch("idx", n, x.shape[1:], np.intp)
        np.multiply(x, self.inv_lsb, out=tmp)
        np.copyto(idx, tmp, casting="unsafe")
        idx -= self.raw_min
        buf, dst = self._out(out)
        _check_index(idx, len(self.table))
        self.table.take(idx, out=dst, mode="wrap")
        return buf


class _SoftmaxStep(_Step):
    """Softmax with the exp-binning composed into one raw-indexed table.

    ``z = x − max(x)`` is an exact difference of grid values, so its raw
    word indexes a table holding ``exp_table[bin(z)]`` for every
    representable ``z ≤ 0``; the normalising division and the result cast
    run the identical float ops the naive kernel performs.
    """

    def __init__(self, kernel: SoftmaxKernel, in_fmt: FixedPointFormat):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.kernel = kernel
        self.inv_lsb = 1.0 / in_fmt.lsb
        self.zmin = in_fmt.raw_min - in_fmt.raw_max
        zraw = np.arange(self.zmin, 1, dtype=np.int64)
        z = zraw.astype(np.float64) * in_fmt.lsb
        # Replicate the naive binning expression op for op.
        scale = kernel.table_size / (2 * kernel.table_range)
        z += kernel.table_range
        z *= scale
        np.floor(z, out=z)
        idx = z.astype(np.int64)
        np.clip(idx, 0, kernel.table_size - 1, out=idx)
        self.table = np.ascontiguousarray(kernel.exp_table[idx])

    def run(self, ins, out):
        (x,) = ins
        n = x.shape[0]
        buf, dst = self._out(out)
        z = self._scratch("z", n, x.shape[1:])
        idx = self._scratch("idx", n, x.shape[1:], np.intp)
        np.subtract(x, np.max(x, axis=-1, keepdims=True), out=z)
        np.multiply(z, self.inv_lsb, out=z)
        np.copyto(idx, z, casting="unsafe")
        idx -= self.zmin
        _check_index(idx, len(self.table))
        self.table.take(idx, out=dst, mode="wrap")
        dst /= dst.sum(axis=-1, keepdims=True)
        raw = self._scratch("raw", n, self.out_shape, np.int64)
        quantize_(dst, self.kernel.config.result, raw_out=raw)
        return buf


class _MACStep(_Step):
    """Fused dense/conv + bias + requantize (+ activation gather).

    ``mode='raw'``: the accumulator cast was proven elidable, so the GEMM
    contracts weights pre-scaled by ``1/lsb(result)`` (an exact power-of-2
    scaling) and one rounding pass yields the raw result words directly;
    a fused activation table gathers from those words, otherwise a single
    multiply by ``lsb`` emits the value-domain stream.

    ``mode='naive'``: the classic accum-cast → result-cast pipeline.

    A conv runs one BLAS GEMM per tap and operand over the flattened
    rows of the operand's zero-edged buffer (``P = T + k − 1`` rows per
    frame), accumulating in place into a buffer pre-filled with the
    bias: output row ``f·P + t`` is frame ``f``'s position ``t``, and the
    ``k − 1`` rows between frames hold partial sums of the same terms.
    A concat folded into the conv arrives as several operands, each
    contracting its own slice of the input channels (split-K).

    ``conv['up'] = (i, s)``: operand ``i`` is the low-resolution stream
    of an ``s``-fold up-sample folded into the conv.  Its merged taps
    (:func:`_phase_taps`) accumulate, phase by phase, into bias-filled
    scratch over its own zero-edged rows; the phases are then written
    interleaved into the accumulator's data rows in place of the bias
    fill, and the other operands' taps add on.

    When the output buffer has the accumulator's row pitch (the consumer
    conv has this conv's ``k``), the epilogue runs over every computed
    row straight into the buffer's flat rows and re-zeroes its edge rows
    after: no strided view, so no gather through a temporary copy.
    """

    def __init__(self, *, name: str, inputs: Sequence[str],
                 out_shape: Tuple[int, ...], mac_shape: Tuple[int, ...],
                 weight: np.ndarray, bias: Optional[np.ndarray],
                 accum: FixedPointFormat, result: FixedPointFormat,
                 mode: str, conv: Optional[dict] = None,
                 splits: Sequence[Tuple[int, int]] = (),
                 act_table: Optional[np.ndarray] = None):
        super().__init__(name, inputs, out_shape)
        self.mac_shape = tuple(mac_shape)  # per-frame shape of the MAC output
        self.mode = mode
        self.result = result
        self.accum = accum
        self.conv = conv  # {'k', 'pad', 'up', 'formulation'}
        self.act_table = act_table

        if mode == "raw":
            scale = 1.0 / result.lsb  # exact power of two
            self.round_op = ("rint" if result.rounding is Rounding.RND_CONV
                             else "floor")
            offset = 0.5 if result.rounding is Rounding.RND else 0.0
            # For floor-rounded fused gathers the table-index origin
            # (−raw_min, an exact integer) folds straight into the bias
            # add: floor(x − lo) == floor(x) − lo.  rint's half-to-even
            # ties are not shift-invariant, so RND_CONV keeps the
            # separate subtraction.
            self.idx_folded = (act_table is not None
                              and self.round_op == "floor")
            if self.idx_folded:
                offset -= result.raw_min
            w_eff = weight * scale
            if bias is not None:
                self.badd = np.ascontiguousarray(bias * scale + offset)
            else:
                self.badd = offset if offset else None
        else:
            w_eff = weight
            self.badd = None if bias is None else np.ascontiguousarray(bias)
            self.round_op = None
            self.idx_folded = False
        if conv is None:
            self.w_eff = np.ascontiguousarray(w_eff)
        else:
            # per operand: its zero rows before/after each frame, and its
            # GEMMs as (phase, row offset, weights), the (channels,
            # filters) weights stored transposed, i.e. Fortran-ordered as
            # BLAS reads them
            pl, pr = conv["pad"]
            self.in_pads: List[Tuple[int, int]] = []
            self.w_taps: List[List[tuple]] = []
            for i, (a, b) in enumerate(splits):
                w = w_eff[:, a:b]
                if conv["up"] is not None and conv["up"][0] == i:
                    s = conv["up"][1]
                    ql = -(-pl // s)
                    self.in_pads.append((ql, -(-pr // s)))
                    gemms = [(r, ql + d, v) for r, phase in
                             enumerate(_phase_taps(w, s, pl))
                             for d, v in phase]
                else:
                    self.in_pads.append((pl, pr))
                    gemms = [(0, j, w[j]) for j in range(conv["k"])]
                self.w_taps.append([(r, e, np.ascontiguousarray(v).T)
                                    for r, e, v in gemms])
        #: overflow op on the raw words (None when the bound proves the
        #: words in range)
        self.overflow: Optional[Overflow] = None
        #: set by _build_mac_step when the truncating int cast provably
        #: equals the floor (non-negative folded index, or a saturating
        #: clamp that absorbs the off-by-one on negative non-integers)
        self.trunc_ok = False

    def absorb_cast(self, cast: tuple) -> bool:
        """Fold a consumer's operand cast into the fused activation
        table (exact: the cast is applied to every value the gather can
        emit).  Refused without a table — the raw emit path would need a
        second rounding pass."""
        if self.act_table is None:
            return False
        self.act_table = quantize(self.act_table, cast[0])
        return True

    # -- GEMM ----------------------------------------------------------
    def _dense(self, x: np.ndarray, n: int):
        acc = self._scratch("acc", n, self.mac_shape)
        if x.ndim > 2 and x.flags.c_contiguous:
            np.matmul(x.reshape(-1, x.shape[-1]), self.w_eff,
                      out=acc.reshape(-1, acc.shape[-1]))
        else:
            np.matmul(x, self.w_eff, out=acc)
        if self.badd is not None:
            acc += self.badd
        return acc

    def _conv(self, ins: List[np.ndarray], n: int):
        """Per-tap GEMMs; returns (valid outputs, every computed row)."""
        k = self.conv["k"]
        t, f = self.mac_shape
        p = t + k - 1
        acc = self._scratch("acc", n, (p, f))
        rows_out = acc.reshape(n * p, f)[:n * p - (k - 1)]
        fill = 0.0 if self.badd is None else self.badd
        gemm = _dgemm()
        up = self.conv["up"]
        if up is None:
            rows_out[...] = fill
        else:
            i, s = up
            t_lo = t // s
            edges = sum(self.in_pads[i])
            # phase-major: phase r's frames are rows r·n … (r+1)·n − 1
            lo = self._scratch("phases", s * n, (t_lo + edges, f))
            lo[...] = fill
            lo = lo.reshape(s, n, t_lo + edges, f)
            self._taps(gemm, ins[i], i,
                       [ph.reshape(-1, f)[:n * (t_lo + edges) - edges]
                        for ph in lo])
            # output t = s·q + r is phase r's row q
            acc[:, :t].reshape(n, t_lo, s, f)[...] = \
                lo[:, :, :t_lo].transpose(1, 2, 0, 3)
            acc[:, t:] = fill
        for i, x in enumerate(ins):
            if up is None or i != up[0]:
                self._taps(gemm, x, i, [rows_out])
        return acc[:, :t], rows_out

    def _taps(self, gemm, x: np.ndarray, i: int,
              targets: List[np.ndarray]) -> None:
        """Accumulate operand *i*'s GEMMs in place into
        ``targets[phase]``, whose rows the operand's zero-edged rows
        cover from every row offset."""
        pl, pr = self.in_pads[i]
        if not self.reads_padded[i] and (pl or pr
                                         or not x.flags.c_contiguous):
            # the producer could not write this layout: copy into a
            # zero-edged buffer whose edges are never written
            xp = self._scratch(f"pad{i}", x.shape[0],
                               (pl + x.shape[1] + pr, x.shape[2]), zero=True)
            xp[:, pl:pl + x.shape[1]] = x
            x = xp
        rows = x.reshape(-1, x.shape[2])
        m = len(targets[0])
        for r, e, w in self.w_taps[i]:
            # Fortran view: BLAS accumulates in place
            gemm(1.0, w, rows[e:e + m].T, beta=1.0, c=targets[r].T,
                 overwrite_c=1)

    # -- full pipeline -------------------------------------------------
    def run(self, ins, out):
        n = ins[0].shape[0]
        if self.conv is None:
            self._epilogue(self._dense(ins[0], n), self._out(out)[1])
            return out
        acc, rows = self._conv(ins, n)
        if sum(self.pad) != self.conv["k"] - 1:
            self._epilogue(acc, self._out(out)[1])
            return out
        # The output has the accumulator's row pitch: every computed row
        # goes straight into the output's flat rows (frame f's row t onto
        # its data row, the rows between frames onto edge rows), and the
        # edge rows are zeroed after.
        pl = self.pad[0]
        self._epilogue(rows,
                       out.reshape(-1, rows.shape[-1])[pl:pl + len(rows)])
        self._out(out)
        return out

    def _epilogue(self, acc: np.ndarray, dst: np.ndarray) -> None:
        """Requantize (and gather) *acc* into *dst*, row for row."""
        n, shape = acc.shape[0], acc.shape[1:]
        if self.mode == "naive":
            raw = self._scratch("raw", n, shape, np.int64)
            quantize_(acc, self.accum, raw_out=raw)
            quantize_(acc, self.result, raw_out=raw)
            np.copyto(dst, acc)
            return

        # raw emit: acc holds value/lsb; one rounding pass (all of it
        # exact sums, edge and between-frame rows included).
        fmt = self.result
        fused = self.act_table is not None
        if self.round_op == "rint":
            np.rint(acc, out=acc)
        elif not (fused and self.trunc_ok):
            np.floor(acc, out=acc)
        # else: proven at build time that the truncating int cast below
        # gives the same index the floor would.
        if fused:
            # acc already holds the gather index when the origin shift
            # was folded into the bias add; otherwise shift here.
            ri = self._scratch("ri", n, shape, np.intp)
            np.copyto(ri, acc, casting="unsafe")
            if not self.idx_folded:
                ri -= fmt.raw_min
            if self.overflow is Overflow.WRAP:
                # Power-of-2 span: the AND on the origin-shifted word is
                # the wrap *and* the index clamp in one pass.
                ri &= (1 << fmt.width) - 1
            elif self.overflow is not None:
                np.clip(ri, 0, fmt.raw_max - fmt.raw_min, out=ri)
            else:
                # only the compile-time bound keeps the index in range
                _check_index(ri, len(self.act_table))
            self.act_table.take(ri, out=dst, mode="wrap")
            return
        if self.overflow is None:
            np.multiply(acc, fmt.lsb, out=dst)
            return
        ri = self._scratch("ri", n, shape, np.int64)
        np.copyto(ri, acc, casting="unsafe")
        self._apply_overflow(ri, fmt)
        np.multiply(ri, fmt.lsb, out=dst)

    def _apply_overflow(self, ri: np.ndarray, fmt: FixedPointFormat) -> None:
        if self.overflow is Overflow.WRAP:
            # Power-of-2 span: two's-complement AND == the mod, including
            # for negatives.
            ri -= fmt.raw_min
            ri &= (1 << fmt.width) - 1
            ri += fmt.raw_min
        else:
            np.clip(ri, fmt.raw_min, fmt.raw_max, out=ri)


class _ConcatStep(_Step):
    """Concat with per-operand casts: only operands whose grid differs
    from the result grid pay the quantization pass (quantization is
    element-wise, so casting slice-by-slice is bit-identical to casting
    the naive concatenation)."""

    def __init__(self, kernel: ConcatKernel,
                 in_fmts: List[FixedPointFormat]):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        fmt = kernel.config.result
        self.parts = []
        for (a, b), in_fmt in zip(kernel.channel_slices(), in_fmts):
            if not kernel.requantize:
                cast = None
            elif in_fmt == fmt and fmt.width <= _EXACT_GRID_WIDTH:
                cast = None  # idempotent — same proof as the planner
            else:
                cast = (fmt, _overflow_free(in_fmt, fmt))
            self.parts.append((a, b, cast))

    def run(self, ins, out):
        buf, dst = self._out(out)
        for x, (a, b, cast) in zip(ins, self.parts):
            part = dst[..., a:b]
            np.copyto(part, x)
            if cast is not None:
                self._cast(part, cast[0], cast[1], tag=f"raw{a}")
        return buf


class _CastOutMixin:
    """Steps that write a fresh output stream and can take over a
    sole consumer's operand cast (running it on their own contiguous
    output instead of the consumer's strided slice).  Bit-identical:
    quantization is element-wise, so casting before or after the copy
    into the concat slice is the same map."""

    def absorb_cast(self, cast: tuple) -> bool:
        if self.cast is not None:
            return False  # composing two casts is not a single cast
        self.cast = cast
        return True


class _MaxPoolStep(_CastOutMixin, _Step):
    """Window maximum as the element-wise max of strided slices."""

    def __init__(self, kernel: MaxPoolKernel, in_fmt: FixedPointFormat):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.pool = kernel.pool_size
        fmt = kernel.config.result
        self.cast = ((fmt, _overflow_free(in_fmt, fmt))
                     if kernel.requantize else None)

    def run(self, ins, out):
        (x,) = ins
        buf, dst = self._out(out)
        p = self.pool
        span = self.out_shape[0] * p
        np.maximum(x[:, 0:span:p], x[:, 1:span:p], out=dst)
        for j in range(2, p):
            np.maximum(dst, x[:, j:span:p], out=dst)
        if self.cast is not None:
            self._cast(dst, self.cast[0], self.cast[1])
        return buf


class _UpSampleStep(_CastOutMixin, _Step):
    def __init__(self, kernel: UpSampleKernel, in_fmt: FixedPointFormat):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.size = kernel.size
        fmt = kernel.config.result
        self.cast = ((fmt, _overflow_free(in_fmt, fmt))
                     if kernel.requantize else None)

    def run(self, ins, out):
        (x,) = ins
        n, t, c = x.shape
        buf, dst = self._out(out)
        # splitting the row axis is always a view, even of the data rows
        # of a zero-edged buffer
        dst.reshape(n, t, self.size, c)[:] = x[:, :, np.newaxis, :]
        if self.cast is not None:
            self._cast(dst, self.cast[0], self.cast[1])
        return buf


class _AliasStep(_Step):
    """Cast-free flatten/reshape/linear: the output *is* the input,
    reshaped — zero copies, the arena slot is shared."""

    aliases_input = True

    def __init__(self, kernel: HLSKernel):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)

    def run(self, ins, out):
        (x,) = ins
        return x.reshape((x.shape[0],) + self.out_shape)


class _CopyCastStep(_Step):
    """Flatten/reshape/linear whose result grid differs: copy + cast."""

    def __init__(self, kernel: HLSKernel, in_fmt: FixedPointFormat):
        super().__init__(kernel.name, kernel.input_names, kernel.output_shape)
        self.fmt = kernel.config.result
        self.fast = _overflow_free(in_fmt, self.fmt)

    def run(self, ins, out):
        (x,) = ins
        n = x.shape[0]
        buf, dst = self._out(out)
        np.copyto(dst, x.reshape((n,) + self.out_shape))
        self._cast(dst, self.fmt, self.fast)
        return buf


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
class CompiledPlan:
    """Executable rewrite of one model: steps + static arena layout."""

    def __init__(self, steps: List[_Step], report: CompileReport):
        self.steps = steps
        self.report = report
        self._dies_after = self._plan_liveness()
        self._in_rows = self._plan_inputs()
        self._slots: Dict[str, Tuple[int, int, Tuple[int, ...]]] = {}
        self.report.arena_words = self._plan_arena()
        self._arena: Optional[np.ndarray] = None
        self._capacity = 0
        self._views: Dict[int, Dict[str, np.ndarray]] = {}
        # What run() walks: each step with its operand fetches and the
        # streams that die after it.  The live-stream counts are a static
        # property of that schedule, so they are counted here once.
        self._schedule = list(zip(self.steps, self._in_rows,
                                  self._dies_after))
        self._peak_live = self._freed = live = 0
        for dies in self._dies_after:
            live += 1
            self._peak_live = max(self._peak_live, live)
            live -= len(dies)
            self._freed += len(dies)
        last = self.steps[-1]
        # arena-backed (or a view of an arena slot): run() hands the
        # caller an owned copy so the next run cannot mutate it.
        self._copy_out = last.name in self._slots or last.aliases_input
        self._import_blas()

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._import_blas()

    def _import_blas(self) -> None:
        """Import BLAS now if a conv step calls it, so no step's first
        call (and no span of a fresh worker) holds the import."""
        if any(getattr(step, "conv", None) for step in self.steps):
            _dgemm()

    # -- planning ------------------------------------------------------
    def _plan_liveness(self) -> List[List[str]]:
        last: Dict[str, int] = {}
        for idx, step in enumerate(self.steps):
            for dep in step.inputs:
                last[dep] = idx
        dies: List[List[str]] = [[] for _ in self.steps]
        for dep, idx in last.items():
            if dep != "__input__":
                dies[idx].append(dep)
        return dies

    def _plan_inputs(self) -> List[List[tuple]]:
        """Per step and input: ``(producer, rows)``; ``rows`` slices the
        data rows out of a zero-edged buffer (``None``: pass it whole)."""
        rows_of = {s.name: slice(s.pad[0], s.pad[0] + s.out_shape[0])
                   for s in self.steps if s.pad != (0, 0)}
        return [[(dep, None if whole else rows_of.get(dep))
                 for dep, whole in zip(s.inputs, s.reads_padded)]
                for s in self.steps]

    def held_bytes(self) -> int:
        """Bytes held between calls: the arena plus every step's
        scratch."""
        arena = 0 if self._arena is None else self._arena.nbytes
        return arena + sum(buf.nbytes for step in self.steps
                           for buf in step._scr.values())

    def _plan_arena(self) -> int:
        """First-fit static offset assignment over the liveness plan.

        Offsets are in per-frame float64 words; at run time slot ``s``
        occupies ``arena[off·cap : off·cap + n·size]`` (stream-major, so
        every view is contiguous).  Alias steps share their producer's
        slot via refcounting.
        """
        holes: List[List[int]] = [[0, 1 << 60]]
        high_water = 0
        region_of: Dict[str, Tuple[int, int]] = {}
        refs: Dict[Tuple[int, int], int] = {}
        out_name = self.steps[-1].name

        def alloc(size: int) -> int:
            for hole in holes:
                if hole[1] >= size:
                    off = hole[0]
                    hole[0] += size
                    hole[1] -= size
                    return off
            raise AssertionError("unbounded hole list exhausted")

        def release(off: int, size: int) -> None:
            holes.append([off, size])
            holes.sort()
            merged = [holes[0]]
            for h in holes[1:]:
                if merged[-1][0] + merged[-1][1] == h[0]:
                    merged[-1][1] += h[1]
                else:
                    merged.append(h)
            holes[:] = merged

        for idx, step in enumerate(self.steps):
            if step.aliases_input:
                src = step.inputs[0]
                if src in region_of:
                    region = region_of[src]
                    region_of[step.name] = region
                    refs[region] += 1
            elif not step.heap_output:
                size = int(np.prod(step.slot_shape))
                off = alloc(size)
                high_water = max(high_water, off + size)
                region = (off, size)
                region_of[step.name] = region
                refs[region] = 1
                self._slots[step.name] = (off, size, step.slot_shape)
            for dep in self._dies_after[idx]:
                if dep == out_name or dep not in region_of:
                    continue
                region = region_of[dep]
                refs[region] -= 1
                if refs[region] == 0:
                    release(*region)
        return high_water

    # -- execution -----------------------------------------------------
    def _ensure_views(self, n: int) -> Dict[str, np.ndarray]:
        views = self._views.get(n)
        if views is not None:
            return views
        if not self._slots:
            views = {}
        else:
            total = self.report.arena_words
            if self._arena is None or n > self._capacity:
                self._capacity = max(n, self._capacity)
                self._arena = np.empty(total * self._capacity)
                self._views.clear()
            cap = self._capacity
            views = {}
            for name, (off, size, shape) in self._slots.items():
                region = self._arena[off * cap: off * cap + n * size]
                views[name] = region.reshape((n,) + shape)
        self._views[n] = views
        return views

    def run(self, x: np.ndarray, profile: bool = False, tracer=None):
        """Execute the plan; returns ``(output, peak_live, freed, times)``.

        ``tracer`` is the observability hook (see
        :mod:`repro.obs.spans`): when given, every step records one
        wall-clock span named ``step.<name>`` carrying the naive kernels
        it covers — a pure observer, so outputs stay bit-identical.
        """
        views = self._ensure_views(x.shape[0])
        values: Dict[str, np.ndarray] = {"__input__": x}
        timed = profile or tracer is not None
        times: Optional[Dict[str, float]] = {} if profile else None
        for step, fetches, dies in self._schedule:
            ins = [values[dep] if rows is None else values[dep][:, rows]
                   for dep, rows in fetches]
            if timed:
                t0 = time.perf_counter()
            values[step.name] = step.run(ins, views.get(step.name))
            if timed:
                t1 = time.perf_counter()
                if profile:
                    times[step.name] = t1 - t0
                if tracer is not None:
                    tracer.record(f"step.{step.name}", wall_t0=t0,
                                  wall_t1=t1, covers=len(step.covers))
            for dep in dies:
                del values[dep]
        y = values[self.steps[-1].name]
        if self._copy_out:
            y = y.copy()
        return y, self._peak_live, self._freed, times


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _producer_fmt(model, name: str) -> FixedPointFormat:
    return model.get_kernel(name).config.result


def _push_cast_up(model, built: Dict[str, _Step],
                  consumers: Dict[str, List[HLSKernel]],
                  dep: str, cast: tuple, expect: HLSKernel) -> bool:
    """Try to absorb a concat operand *cast*, or an up-sample's own,
    into the producer chain of *dep* (whose sole consumer must be
    *expect*).

    Preference order: straight into a LUT / fused-MAC gather table
    (free), through a cast-free up-sample into *its* producer (repeats
    of cast values are the cast of the repeats), else locally into an
    up-sample/max-pool step's contiguous output.
    """
    prod = built.get(dep)
    if prod is None:
        return False
    cons = consumers.get(dep, [])
    if len(cons) != 1 or cons[0] is not expect:
        return False
    if isinstance(prod, (_LUTStep, _MACStep)):
        return prod.absorb_cast(cast)
    if isinstance(prod, _UpSampleStep) and prod.cast is None:
        up_kernel = model.get_kernel(prod.name)
        if _push_cast_up(model, built, consumers, prod.inputs[0], cast,
                         up_kernel):
            return True
        return prod.absorb_cast(cast)
    if isinstance(prod, _CastOutMixin):
        return prod.absorb_cast(cast)
    return False


def _fold_refusal(up: HLSKernel,
                  consumers: Dict[str, List[HLSKernel]]) -> Optional[str]:
    """Why up-sample *up* cannot fold into the conv that reads it: ``""``
    when no conv reads it, ``None`` when it may (its cast and the conv's
    exact-sum checks are decided later)."""
    readers = consumers.get(up.name, [])
    if len(readers) > 1:
        return "up-sample has a second reader"
    reader = readers[0] if readers else None
    if isinstance(reader, ConcatKernel):
        outs = consumers.get(reader.name, [])
        reader = outs[0] if len(outs) == 1 else None
    if not isinstance(reader, Conv1DKernel):
        return ""
    if reader.padding != "same":
        return "up-sample feeds a valid conv"
    wfmt = reader.config.weight
    if reader.kernel_size * _max_abs(wfmt) / wfmt.lsb > _EXACT_SUM_LIMIT:
        return "summed up-sample taps leave exact window"
    return None


def _build_mac_step(model, mac, *, consumers: Dict[str, List[HLSKernel]],
                    report: CompileReport, absorbed: set,
                    concat: Optional[_ConcatStep] = None,
                    up: Optional[_UpSampleStep] = None) -> Optional[_Step]:
    """Lower one Dense/Conv to a :class:`_MACStep`, fusing a following
    activation LUT when provable, and for a conv the cast-free *concat*
    that feeds it (split-K) and the cast-free up-sample *up* it reads
    (polyphase).  Returns ``None`` when an exact-sum precondition fails
    (caller falls back)."""
    in_fmt = _producer_fmt(model, mac.input_names[0])
    weight, bias = mac.weights["kernel"], mac.weights.get("bias")
    accum, result = mac.config.accum, mac.config.result

    conv = None
    inputs, splits = mac.input_names, [(0, int(mac.input_shapes[0][-1]))]
    if concat is not None:
        inputs, splits = concat.inputs, [(a, b) for a, b, _ in concat.parts]
    w2s = [mac.weight_matrix]
    if isinstance(mac, Conv1DKernel):
        k = mac.kernel_size
        pad = ((k - 1) // 2, k - 1 - (k - 1) // 2)
        conv = {"k": k, "pad": pad if mac.padding == "same" else (0, 0),
                "up": None, "formulation": "per_tap"}
        if up is not None:
            # Bound each output phase by its merged taps: |Wa + Wb| ≤
            # |Wa| + |Wb|, and every partial sum is a partial sum of them.
            i = inputs.index(up.name)
            a, b = splits[i]
            rest = np.concatenate([weight[:, :a], weight[:, b:]], axis=1)
            rest = rest.reshape(-1, weight.shape[2])
            w2s = [np.concatenate([rest] + [v for _, v in phase])
                   for phase in _phase_taps(weight[:, a:b], up.size, pad[0])]
            inputs = list(inputs)
            inputs[i] = up.inputs[0]
            conv["up"] = (i, up.size)
    bound = max(_mac_bound(w2, bias, _max_abs(in_fmt)) for w2 in w2s)
    prod_frac = in_fmt.fractional + mac.config.weight.fractional
    if bound / 2.0 ** (-prod_frac) > _EXACT_SUM_LIMIT:
        report.fallbacks[mac.name] = "accumulator exceeds exact-sum window"
        return None

    raw_ok = (
        _accum_cast_skippable(accum, result, prod_frac, bound)
        and result.rounding in (Rounding.RND, Rounding.TRN, Rounding.RND_CONV)
        and bound / result.lsb + 1.0 < _RAW_GUARD
    )
    mode = "raw" if raw_ok else "naive"

    act = None
    if mode == "raw":
        outs = consumers.get(mac.name, [])
        if (len(outs) == 1 and outs[0].supports_lut
                and _lut_span_ok(result)
                and result.width <= MAX_LUT_BITS):
            act = outs[0]

    act_table = _build_lut(act, result) if act is not None else None
    step = _MACStep(
        name=act.name if act is not None else mac.name,
        inputs=inputs,
        out_shape=act.output_shape if act is not None else mac.output_shape,
        mac_shape=mac.output_shape,
        weight=weight, bias=bias, accum=accum, result=result,
        mode=mode, conv=conv, splits=splits, act_table=act_table,
    )
    if mode == "raw":
        raw_bound = bound / result.lsb + 1.0
        in_range = (raw_bound <= result.raw_max
                    and -raw_bound >= result.raw_min)
        step.overflow = None if in_range else result.overflow
        span = float(1 << result.width)
        idx_max = raw_bound + span  # |folded index| before any shift
        if step.idx_folded:
            if step.overflow is None:
                # In-range raw word, origin already shifted: index >= 0,
                # truncation == floor.
                step.trunc_ok = True
            elif step.overflow is Overflow.WRAP:
                # Shift the folded index by a span multiple so it is
                # provably non-negative: floor commutes with the integer
                # shift and the wrap AND ignores it, so only the exact-
                # float gate on the larger magnitudes must still hold.
                shift = (float(raw_bound // span) + 2.0) * span
                fine = 2.0 ** (prod_frac - result.fractional)
                if (idx_max + shift) * fine <= _EXACT_SUM_LIMIT:
                    step.badd = (shift if step.badd is None
                                 else step.badd + shift)
                    step.trunc_ok = True
                    idx_max += shift
            else:
                # Saturating clamp to [0, span): on negative non-integers
                # truncation and floor differ by one but both land <= 0
                # and clip to the same bound.
                step.trunc_ok = True
    if conv is not None:
        # The conv pre-fills its accumulator with the bias, so every
        # partial sum of bias and taps, in any order, must be exact on
        # the common grid of the terms and the bias.
        scale = 1.0 / result.lsb if mode == "raw" else 1.0
        badd = 0.0 if step.badd is None else step.badd
        grid = min(2.0 ** -prod_frac * scale, _grid(badd))
        if (bound * scale + np.abs(badd).max()) / grid > _EXACT_SUM_LIMIT:
            report.fallbacks[mac.name] = "conv partial sums leave exact window"
            return None
    if mode == "raw":
        report.fused.append(mac.name)
    covers = [routing.name for routing in (up, concat) if routing is not None]
    covers.append(mac.name)
    if act is not None:
        covers.append(act.name)
        absorbed.add(act.name)
        report.luts.append(act.name)
    step.covers = covers
    return step


def compile_model(model) -> CompiledPlan:
    """Build the compiled plan for *model*: activation LUTs, fused
    MAC+requantize, per-tap conv GEMMs over zero-edged streams with
    cast-free concats and up-samples folded in, per-operand concat casts,
    lowered routing steps, all in one static arena.

    Nothing here is timed: compiling one model twice yields the same plan.
    """
    report = CompileReport(level=2)
    consumers: Dict[str, List[HLSKernel]] = {}
    for kernel in model.kernels:
        for dep in kernel.input_names:
            consumers.setdefault(dep, []).append(kernel)

    steps: List[_Step] = []
    built: Dict[str, _Step] = {}
    absorbed: set = set()
    concats: Dict[str, _ConcatStep] = {}  # folded into their conv
    # Up-samples that may fold into the conv reading them: built (so a
    # concat can push a cast through them) but placed only if they stay.
    ups: Dict[str, _UpSampleStep] = {}

    def place(step: _Step) -> None:
        steps.append(step)
        built[step.name] = step

    def place_ups(deps: Sequence[str], reason: str) -> None:
        for dep in deps:
            if dep in ups:
                report.fallbacks[dep] = reason
                place(ups.pop(dep))

    for kernel in model.kernels:
        if kernel.name in absorbed:
            continue
        step: Optional[_Step] = None

        if isinstance(kernel, InputKernel):
            step = _InputStep(kernel)

        elif isinstance(kernel, (DenseKernel, Conv1DKernel)):
            concat = concats.pop(kernel.input_names[0], None)
            operands = (concat.inputs if concat is not None
                        else kernel.input_names)
            held = [dep for dep in operands if dep in ups]
            # one up-sample folds; any other one is built
            place_ups(held[1:], "another up-sample folds into the conv")
            up = ups.pop(held[0]) if held else None
            step = _build_mac_step(model, kernel, consumers=consumers,
                                   report=report, absorbed=absorbed,
                                   concat=concat, up=up)
            if step is None:
                if up is not None:  # the naive conv reads the up-sample
                    report.fallbacks[up.name] = "its conv keeps its kernel"
                    place(up)
                if concat is not None:  # ... and the concat
                    place(concat)
                step = _KernelStep(kernel)

        elif kernel.supports_lut:
            in_fmt = _producer_fmt(model, kernel.input_names[0])
            if _lut_span_ok(in_fmt):
                step = _LUTStep(kernel, in_fmt, _build_lut(kernel, in_fmt))
                report.luts.append(kernel.name)
            else:
                report.fallbacks[kernel.name] = "input format too wide for LUT"
                step = _KernelStep(kernel)

        elif isinstance(kernel, SoftmaxKernel):
            in_fmt = _producer_fmt(model, kernel.input_names[0])
            if _lut_span_ok(in_fmt):
                step = _SoftmaxStep(kernel, in_fmt)
                report.luts.append(kernel.name)
            else:
                report.fallbacks[kernel.name] = "input format too wide for LUT"
                step = _KernelStep(kernel)

        elif isinstance(kernel, ConcatKernel):
            in_fmts = [_producer_fmt(model, d) for d in kernel.input_names]
            step = _ConcatStep(kernel, in_fmts)
            # Push operand casts down into sole-consumer producers —
            # into a gather table when possible (free), else onto a
            # contiguous producer output instead of this step's strided
            # channel slice.
            for i, dep in enumerate(kernel.input_names):
                a, b, cast = step.parts[i]
                if cast is not None and _push_cast_up(
                        model, built, consumers, dep, cast, kernel):
                    step.parts[i] = (a, b, None)
            # An up-sample that had to take an operand cast itself is
            # built.
            place_ups([dep for dep in kernel.input_names
                       if dep in ups and ups[dep].cast is not None],
                      "up-sample cast cannot be pushed up")
            # Cast-free and read by one conv only: never built, the conv
            # contracts each operand separately (split-K).
            outs = consumers.get(kernel.name, [])
            if (len(outs) == 1 and isinstance(outs[0], Conv1DKernel)
                    and all(cast is None for _, _, cast in step.parts)):
                concats[kernel.name] = step
                continue
            place_ups(kernel.input_names, "the concat it feeds keeps a cast")

        elif isinstance(kernel, MaxPoolKernel):
            step = _MaxPoolStep(
                kernel, _producer_fmt(model, kernel.input_names[0]))

        elif isinstance(kernel, UpSampleKernel):
            step = _UpSampleStep(
                kernel, _producer_fmt(model, kernel.input_names[0]))
            reason = _fold_refusal(kernel, consumers)
            if (reason is None and step.cast is not None
                    and _push_cast_up(model, built, consumers,
                                      kernel.input_names[0], step.cast,
                                      kernel)):
                step.cast = None
            if reason is None and step.cast is None:
                built[step.name] = step
                ups[step.name] = step
                continue
            if reason is None:
                reason = "up-sample cast cannot be pushed up"
            if reason:
                report.fallbacks[kernel.name] = reason

        elif isinstance(kernel, (FlattenKernel, ReshapeKernel, LinearKernel)):
            step = (_AliasStep(kernel) if not kernel.requantize
                    else _CopyCastStep(
                        kernel, _producer_fmt(model, kernel.input_names[0])))

        else:
            report.fallbacks[kernel.name] = (
                f"no lowering for kind {kernel.kind!r}")
            step = _KernelStep(kernel)

        place(step)
    assert not ups, f"up-samples neither folded nor built: {sorted(ups)}"

    # Fused steps absorbed downstream kernels that already had an entry
    # scheduled?  No: absorption is decided before the absorbed kernel is
    # reached (topological order), so `steps` is consistent.
    #
    # A conv reads each operand as the flattened rows of a buffer with
    # zero edge rows around every frame.  The first conv to claim a stream
    # sets its edges and the producer writes them in place; an operand
    # that cannot take the layout (naive kernel output, alias, another
    # conv's claim) is copied into the conv's own zero-edged scratch.
    claimed: Dict[str, tuple] = {}
    for step in steps:
        if not (isinstance(step, _MACStep) and step.conv):
            continue
        for i, dep in enumerate(step.inputs):
            prod = built.get(dep)
            if prod is None or prod.heap_output or prod.aliases_input:
                continue
            pad = step.in_pads[i]
            if claimed.setdefault(dep, pad) == pad:
                prod.pad = pad
                step.reads_padded[i] = True
    return CompiledPlan(steps, report)
