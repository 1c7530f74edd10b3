"""Fixed-point format descriptor mirroring Intel ``ac_fixed`` semantics.

``ac_fixed<W, I, S>`` has *W* total bits and *I* integer bits; for signed
types the sign bit is counted inside *I*.  The representable range is

* signed:   ``[-2**(I-1),  2**(I-1) - 2**-(W-I)]``
* unsigned: ``[0,          2**I     - 2**-(W-I)]``

with a quantum (least significant bit) of ``2**-(W-I)``.  *I* may exceed
*W* (coarse grids) or be negative (pure sub-unity fractions) exactly as in
the AC datatype library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property


class Rounding(enum.Enum):
    """Quantization (rounding) behaviour for the discarded LSBs.

    Mirrors the AC type quantization modes used by hls4ml/Intel HLS:

    * ``TRN`` — truncate toward negative infinity (the silicon default;
      drops the low bits of the two's-complement pattern).
    * ``RND`` — round to nearest, ties toward plus infinity (``AC_RND``).
    * ``RND_CONV`` — round to nearest, ties to even (convergent rounding,
      hls4ml's recommended mode for accumulation chains).
    * ``RND_ZERO`` — round to nearest, ties toward zero.
    """

    TRN = "TRN"
    RND = "RND"
    RND_CONV = "RND_CONV"
    RND_ZERO = "RND_ZERO"


class Overflow(enum.Enum):
    """Overflow behaviour when a value exceeds the representable range.

    * ``WRAP`` — two's-complement wraparound (the silicon default; this is
      what makes under-provisioned integer bits catastrophic, cf. the
      paper's ``ac_fixed<16,7>`` row in Table II).
    * ``SAT`` — saturate to the range limits (``AC_SAT``).
    * ``SAT_SYM`` — symmetric saturation: the negative limit is clamped to
      ``-max`` so the range is symmetric around zero.
    """

    WRAP = "WRAP"
    SAT = "SAT"
    SAT_SYM = "SAT_SYM"


@dataclass(frozen=True)
class FixedPointFormat:
    """An ``ac_fixed<width, integer, signed>`` format.

    Parameters
    ----------
    width:
        Total number of bits *W* (must be >= 1).
    integer:
        Integer bits *I*, sign bit included for signed formats.  May be
        negative or exceed ``width``, as in the AC library.
    signed:
        Whether the format is two's-complement signed (paper uses signed
        formats throughout).
    rounding, overflow:
        Behaviour of :func:`repro.fixed.quantize.quantize` for this format.
    """

    width: int
    integer: int
    signed: bool = True
    rounding: Rounding = field(default=Rounding.RND)
    overflow: Overflow = field(default=Overflow.SAT)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.width > 62:
            # raw values live in int64; one bit of headroom is kept for
            # rounding arithmetic.
            raise ValueError(f"width must be <= 62, got {self.width}")
        if self.signed and self.width < 1:
            raise ValueError("signed formats need at least 1 bit")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def fractional(self) -> int:
        """Number of fractional bits ``F = W - I`` (may be negative)."""
        return self.width - self.integer

    @cached_property
    def lsb(self) -> float:
        """The quantum: value of one least-significant bit, ``2**-F``."""
        return 2.0 ** (-self.fractional)

    @cached_property
    def raw_min(self) -> int:
        """Smallest raw (scaled-integer) value."""
        if not self.signed:
            return 0
        if self.overflow is Overflow.SAT_SYM:
            return -(2 ** (self.width - 1) - 1)
        return -(2 ** (self.width - 1))

    @cached_property
    def raw_max(self) -> int:
        """Largest raw (scaled-integer) value."""
        if self.signed:
            return 2 ** (self.width - 1) - 1
        return 2**self.width - 1

    @cached_property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.lsb

    @cached_property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.lsb

    @property
    def range(self) -> float:
        """Width of the representable interval."""
        return self.max_value - self.min_value

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def with_(self, **changes) -> "FixedPointFormat":
        """Return a copy with the given fields replaced."""
        kwargs = {
            "width": self.width,
            "integer": self.integer,
            "signed": self.signed,
            "rounding": self.rounding,
            "overflow": self.overflow,
        }
        kwargs.update(changes)
        return FixedPointFormat(**kwargs)

    @classmethod
    def for_range(
        cls,
        max_abs: float,
        width: int,
        signed: bool = True,
        margin_bits: int = 0,
        **kwargs,
    ) -> "FixedPointFormat":
        """Choose integer bits so values up to ``max_abs`` fit without overflow.

        This is the paper's layer-based precision rule: profile the maximum
        absolute value a layer produces and allocate
        ``I = ceil(log2(max_abs)) + 1`` integer bits (sign included), plus
        any safety ``margin_bits``.  See Section IV-D.
        """
        if max_abs < 0:
            raise ValueError(f"max_abs must be >= 0, got {max_abs}")
        import math

        if max_abs == 0:
            magnitude_bits = 0
        else:
            magnitude_bits = max(0, math.ceil(math.log2(max_abs + 1e-300)))
            # A value exactly on a power of two still needs the next bit
            # (e.g. max_abs = 4.0 → magnitude 3 bits would top out at 3.999…,
            # ceil(log2(4)) == 2, so bump by one).
            if 2.0**magnitude_bits <= max_abs:
                magnitude_bits += 1
        integer = magnitude_bits + (1 if signed else 0) + margin_bits
        return cls(width=width, integer=integer, signed=signed, **kwargs)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def spec(self) -> str:
        """The C++-style spelling, e.g. ``ac_fixed<16, 7, true>``."""
        return f"ac_fixed<{self.width}, {self.integer}, {'true' if self.signed else 'false'}>"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.spec()
