"""Bit-exact signed fixed-point arithmetic.

Q<t,i> notation: t total bits, i integer bits *including* the sign bit,
t - i fractional bits.  A QValue stores the two's-complement raw integer; the
represented real value is raw * 2^-frac_bits.

The multiply-accumulate path mirrors a fused hardware FMA: the bias is
preloaded at product scale (2x fractional bits), products are added to it
exactly as plain integers, and round_acc rounds the sum once on the way out
(round to nearest, ties to even) with saturation to the format.  With every
raw code inside Q<t,i>, a fan-in of n keeps that sum within
2t + bitlen(n) - 1 signed bits (datapath.acc_bits gives the proof), so a
hardware accumulator of that width never overflows.

A real becomes a raw code by one rule: scale by 2^frac_bits, round half to
even, saturate.  quantize is its scalar reference; _round_scaled is the
vector core of quantize_array (the sigmoid table, the IDX reader, post-training
quantization) and of the batch kernel's input stage.  A raw code is an
integer inside the format: QValue checks one, raw_codes_fit an array.

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
# Elements per float64 temporary in quantize_array, and per row chunk of the
# batch kernel (1 MiB): dataset-sized temporaries cost page faults on every
# call, and two alive at once cost several times one.
_CHUNK = 1 << 17


def as_int(value, name: str) -> int:
    """value as an int; a numpy integer passes, while a bool, float, str or any
    other non-integer is a ConfigError naming name and value, never truncated."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
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
        raw = self.raw
        if type(raw) is not int:   # an int needs no conversion; a subclass becomes one
            raw = as_int(raw, "raw")
            object.__setattr__(self, "raw", raw)
        half = 1 << (self.fmt.total_bits - 1)   # raw_min = -half, raw_max = half - 1
        if not -half <= raw < half:
            raise ValueError(f"raw {raw} does not fit in {self.fmt}")

    @property
    def value(self) -> float:
        """Represented real value (exact for total_bits <= 53)."""
        return self.raw * 2.0 ** -self.fmt.frac_bits


def require_ints(arr: np.ndarray, name: str) -> None:
    """as_int's rule on an array: an element that is no integer (any element of
    a float, bool or str array, or such an element of an object array) is a
    ConfigError naming name and the element."""
    if arr.dtype.kind not in "iu":   # an integer dtype holds only integers
        for value in arr.reshape(-1).tolist():
            as_int(value, name)


def raw_codes_fit(arr: np.ndarray, fmt: QFormat) -> bool:
    """True if every raw code in arr lies inside fmt: QValue's range rule on an
    array.  A code that is no integer is QValue's ConfigError for it."""
    require_ints(arr, "raw")
    return not arr.size or (fmt.raw_min <= arr.min() and arr.max() <= fmt.raw_max)


def round_quotient(q, r, shift: int):
    """Round q + r / 2^shift, with 0 <= r < 2^shift, to nearest, ties to even.

    The one tie rule of round_acc and the batch kernel, for a value already
    split into its floor quotient q and remainder r by 2^shift.  Branch-free
    in q and r, so one expression serves Python ints, int64 and object arrays.
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
    rounded to nearest (ties to even), then saturated.  The floor quotient and
    remainder make ties resolve on the true value, not the magnitude."""
    f = fmt.frac_bits
    q = acc >> f
    return saturate_raw(round_quotient(q, acc - (q << f), f), fmt)


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


def _round_scaled(part: np.ndarray, fmt: QFormat, buf: np.ndarray) -> np.ndarray:
    """quantize's rule on the float64 array part, into the float64 array buf of
    its shape: part * 2^f clipped to the rails, -2^(t-1) and the largest float64
    not above raw_max, then rounded half to even.  NaN or an infinity is a
    ValueError; the clip is skipped when the finite check's min and max lie inside."""
    scale = float(1 << fmt.frac_bits)
    top = float(1 << (fmt.total_bits - 1))   # raw_min is -top; raw_max + 1 is top
    lo, hi = part.min(), part.max()   # NaN propagates through both; an infinity is one
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot quantize non-finite values")
    # Power-of-two scaling is exact, so clipping before it equals clipping
    # after it, and the product cannot overflow.  Clipping at integers
    # commutes with np.rint, which rounds halves to even, as quantize does.
    rail = min(float(fmt.raw_max), np.nextafter(top, 0.0)) / scale
    if lo < -top / scale or hi > rail:
        part = np.clip(part, -top / scale, rail, out=buf)
    return np.rint(np.multiply(part, scale, out=buf), out=buf)


def quantize_array(x, fmt: QFormat) -> np.ndarray:
    """Vectorized quantize: nearest (ties to even) with saturation, as int64 raws.

    Works through bounded chunks of x, so its float temporaries stay small
    whatever the size of x.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, np.int64)
    flat, raws = x.reshape(-1), out.reshape(-1)   # raws is a view of out
    # Past 54 bits raw_max rounds up to top = 2^(t-1) as a float64, so every
    # scaled value at or above top saturates through a mask instead.
    top = 1 << (fmt.total_bits - 1)
    wide = float(fmt.raw_max) == top
    buf = np.empty(min(flat.size, _CHUNK))
    for lo in range(0, flat.size, _CHUNK):
        part, dst = flat[lo:lo + _CHUNK], raws[lo:lo + _CHUNK]
        dst[...] = _round_scaled(part, fmt, buf[:part.size])
        if wide:
            dst[part >= top / (1 << fmt.frac_bits)] = fmt.raw_max
    return out
