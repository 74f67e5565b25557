"""Bit-exact signed fixed-point arithmetic.

Q<t,i> notation: t total bits, i integer bits *including* the sign bit,
t - i fractional bits.  A QValue stores the two's-complement raw integer; the
represented real value is raw * 2^-frac_bits.

The multiply-accumulate path mirrors a fused hardware FMA: products are
accumulated exactly at product scale (2x fractional bits) in a widened
accumulator, and the result is rounded once on the way out (round to nearest,
ties to even) with saturation to the output format.  Guard bits on the
accumulator are sized from the worst-case number of accumulation steps so the
wide sum can never overflow within a declared layer size.

All operations here are pure functions of their inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ConfigError

# Bit-widths accepted silently; anything else in [4, 64] works but warns.
STANDARD_WIDTHS = (5, 8, 16, 32)
MIN_TOTAL_BITS = 4
MAX_TOTAL_BITS = 64

@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: total bits and integer bits (sign included)."""

    total_bits: int
    int_bits: int

    def __post_init__(self):
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
        if not (self.fmt.raw_min <= self.raw <= self.fmt.raw_max):
            raise ValueError(f"raw {self.raw} does not fit in {self.fmt}")

    @property
    def value(self) -> float:
        """Represented real value (exact for total_bits <= 53)."""
        return self.raw * 2.0 ** -self.fmt.frac_bits


def guard_bits_for(max_inputs: int) -> int:
    """Guard bits so max_inputs full-scale products plus a bias cannot overflow."""
    if max_inputs < 1:
        raise ConfigError(f"max_inputs must be >= 1, got {max_inputs}")
    return (max_inputs - 1).bit_length() + 1


@dataclass(frozen=True)
class WideAcc:
    """Accumulator at product scale: 2x frac_bits fractional bits, plus guard bits.

    Width is 2*total_bits + guard_bits; exceeding it raises ConfigError, which
    signals that the declared max_inputs accumulation bound was violated.
    """

    raw: int
    fmt: QFormat
    guard_bits: int

    @property
    def width(self) -> int:
        return 2 * self.fmt.total_bits + self.guard_bits

    @property
    def raw_limit(self) -> int:
        return (1 << (self.width - 1)) - 1

    def __post_init__(self):
        if abs(self.raw) > self.raw_limit:
            raise ConfigError(
                f"accumulator guard-bit overflow (|{self.raw}| > {self.raw_limit}); "
                "max_inputs_per_layer exceeded"
            )


def sign_extend(bits: int, total_bits: int) -> int:
    """Interpret the low total_bits of an unsigned encoding as two's-complement."""
    bits &= (1 << total_bits) - 1
    if bits & (1 << (total_bits - 1)):
        bits -= 1 << total_bits
    return bits


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


def acc_init_bias(bias: QValue, max_inputs: int) -> WideAcc:
    """Preload a bias into a fresh accumulator, aligned to product scale."""
    return WideAcc(bias.raw << bias.fmt.frac_bits, bias.fmt, guard_bits_for(max_inputs))


def acc_mac(acc: WideAcc, a: QValue, w: QValue) -> WideAcc:
    """acc + a*w at product scale, exact integer arithmetic, no rounding."""
    if a.fmt != acc.fmt or w.fmt != acc.fmt:
        raise ValueError(
            f"format mismatch: acc {acc.fmt}, operands {a.fmt} / {w.fmt}"
        )
    return WideAcc(acc.raw + a.raw * w.raw, acc.fmt, acc.guard_bits)


def acc_round(acc: WideAcc, fmt: QFormat | None = None) -> QValue:
    """Single rounding point: rescale product-scale sum to fmt and saturate."""
    if fmt is None:
        fmt = acc.fmt
    shift = 2 * acc.fmt.frac_bits - fmt.frac_bits
    return QValue(saturate_raw(round_half_even_shift(acc.raw, shift), fmt), fmt)

