"""Bit-exact signed fixed-point arithmetic.

Q<t,i> notation: t total bits, i integer bits *including* the sign bit,
t - i fractional bits.  A QValue stores the two's-complement raw integer; the
represented real value is raw * 2^-frac_bits.

The multiply-accumulate path mirrors a fused hardware FMA: the bias is
preloaded at product scale (2x fractional bits), products are added to it
exactly as plain integers, and round_acc rounds the sum once on the way out
(round to nearest, ties to even) with saturation to the format.  With every
raw code inside Q<t,i>, a fan-in of n keeps that sum within
2t + bitlen(n - 1) + 1 signed bits, so a hardware accumulator of that width
never overflows.

All operations here are pure functions of their inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Bit-widths accepted silently; anything else in [4, 64] works but warns.
STANDARD_WIDTHS = (5, 8, 16, 32)
MIN_TOTAL_BITS = 4
MAX_TOTAL_BITS = 64


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_int(value, name: str) -> int:
    """value as an int; a numpy integer passes, while a bool, float, str or any
    other non-integer is a ConfigError naming name and value, never truncated."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: total bits and integer bits (sign included)."""

    total_bits: int
    int_bits: int

    def __post_init__(self):
        for name in ("total_bits", "int_bits"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not (MIN_TOTAL_BITS <= self.total_bits <= MAX_TOTAL_BITS):
            raise ConfigError(
                f"total_bits={self.total_bits} outside supported range "
                f"[{MIN_TOTAL_BITS}, {MAX_TOTAL_BITS}]"
            )
        if not (1 <= self.int_bits <= self.total_bits):
            raise ConfigError(
                f"int_bits={self.int_bits} must be in [1, total_bits={self.total_bits}]"
            )
        if self.total_bits not in STANDARD_WIDTHS:
            warnings.warn(
                f"nonstandard bit-width {self.total_bits} (standard set is "
                f"{STANDARD_WIDTHS}); accepted",
                stacklevel=3,   # past the dataclass __init__ to its caller
            )

    @property
    def frac_bits(self) -> int:
        return self.total_bits - self.int_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min * 2.0 ** -self.frac_bits

    @property
    def max_value(self) -> float:
        return self.raw_max * 2.0 ** -self.frac_bits

    @property
    def resolution(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** -self.frac_bits

    def __str__(self) -> str:
        return f"Q<{self.total_bits},{self.int_bits}>"


@dataclass(frozen=True)
class QValue:
    """A value stored in a QFormat: two's-complement raw integer + format."""

    raw: int
    fmt: QFormat

    def __post_init__(self):
        object.__setattr__(self, "raw", as_int(self.raw, "raw"))
        if not (self.fmt.raw_min <= self.raw <= self.fmt.raw_max):
            raise ValueError(f"raw {self.raw} does not fit in {self.fmt}")

    @property
    def value(self) -> float:
        """Represented real value (exact for total_bits <= 53)."""
        return self.raw * 2.0 ** -self.fmt.frac_bits


def round_half_even_shift(value, shift: int):
    """Arithmetic right shift by `shift` with round to nearest, ties to even.

    Branch-free in `value`, so one expression serves a Python int, an int64
    ndarray and an object ndarray alike.  Negative values use floor semantics
    for the remainder, so ties resolve on the true value, not the magnitude.
    """
    if shift <= 0:
        return value << -shift
    q = value >> shift
    return round_quotient(q, value - (q << shift), shift)


def round_quotient(q, r, shift: int):
    """Round q + r / 2^shift, with 0 <= r < 2^shift, to nearest, ties to even.

    The rounding step of round_half_even_shift for a value already split into
    its floor quotient q and remainder r by 2^shift.
    """
    if shift <= 0:
        return q
    # r > half rounds up; r == half rounds up exactly when q is odd.
    return q + ((r + (q & 1)) > (1 << (shift - 1)))


def saturate_raw(raw: int, fmt: QFormat) -> int:
    """Clamp a raw integer into the representable range of fmt."""
    if raw < fmt.raw_min:
        return fmt.raw_min
    if raw > fmt.raw_max:
        return fmt.raw_max
    return raw


def round_acc(acc: int, fmt: QFormat) -> int:
    """The single rounding point: a product-scale sum to a raw code of fmt,
    rounded to nearest (ties to even), then saturated."""
    return saturate_raw(round_half_even_shift(acc, fmt.frac_bits), fmt)


def quantize(x: float, fmt: QFormat) -> QValue:
    """Nearest representable value of x in fmt; ties to even, out-of-range saturates."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    # Power-of-two scaling of a binary float is exact, so round() sees the
    # true scaled value and its banker's rounding is the exact tie rule.  A
    # value past the rails (inf too, once |x| * 2^f overflows) is clamped to
    # just beyond them, which saturates.
    scaled = min(max(float(x) * (1 << fmt.frac_bits), fmt.raw_min - 1), fmt.raw_max + 1)
    return QValue(saturate_raw(round(scaled), fmt), fmt)


def dequantize(v: QValue) -> float:
    """raw * 2^-frac_bits (exact in binary64 for total_bits <= 53)."""
    return v.raw * 2.0 ** -v.fmt.frac_bits
