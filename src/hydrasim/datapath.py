"""Structural models of the datapath blocks.

Two blocks of the physical layer: the bank of array slots that fuse
multiply-accumulate with bias preload (FmaBank), and the single shared
activation unit (ActivationUnit) that the values drained from the
parallel-in-serial-out capture stage pass through.  The capture stage itself
is the engine's list of a pass's rounded accumulators, drained by index.
Both blocks carry raw integer codes; `activate_raw` is the one activation
rule, shared with the golden models.  The sigmoid table's entries are
quantized by fxp (quantize_array, and quantize for the scalar definition);
nothing here rounds or saturates by itself.

Cycle costs are not modeled here; the engine charges one cycle per PISO load,
one cycle of activation latency, and one cycle per drained element.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .errors import ConfigError, ControlFault
from .fxp import QFormat, quantize, quantize_array


class AfKind(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


class FmaBank:
    """The array's multiply-accumulate slots, one wide accumulator per slot.

    Accumulators are Python ints at product scale, exact for every format.  A
    bias preload arms slots [0, w) and gates the rest off; a gated slot never
    changes, and stepping a bank with no armed slot is a control fault.  State
    is kept only for slots a preload has armed, so a bank costs memory in its
    widest preload, not in its size.
    """

    def __init__(self, size: int):
        self.size = size
        self.acc: list[int] = []       # slots [0, widest preload so far)
        self.width = 0                 # armed slots are [0, width)

    def preload(self, bias_raws: list[int], frac_bits: int) -> None:
        """Load biases into slots [0, len(bias_raws)), aligned to product scale."""
        w = len(bias_raws)
        if w > self.size:
            raise ConfigError(f"preload of {w} biases exceeds {self.size} FMA slots")
        self.acc[:w] = [b << frac_bits for b in bias_raws]
        self.width = w

    def step(self, x_raw: int, wcol_raws: list[int]) -> None:
        """One MAC cycle: armed slot j adds x_raw * wcol_raws[j], exactly.

        A zero input adds only zero products, so it leaves every accumulator
        as it is and does no arithmetic (zero skipping); the gate and the
        column's length are checked all the same.
        """
        w = self.width
        if not w:
            raise ControlFault("stepped a power-gated FMA bank")
        if len(wcol_raws) != w:
            raise ValueError(f"a column of {len(wcol_raws)} weights for {w} armed slots")
        if x_raw:
            self.acc[:w] = [a + x_raw * c for a, c in zip(self.acc[:w], wcol_raws)]


# Entries whose scaled value lies this many of its ulps from a .5 tie are
# recomputed by the scalar definition.  A k-ulp error in exp moves that value
# by at most about 2k + 2 ulps, so 32 covers any exp within 15 ulps.
_TIE_ULPS = 32


def _sigmoid_raw(raw: int, fmt: QFormat) -> int:
    """The scalar definition of one table entry: quantize(sigmoid(raw * 2^-f))."""
    try:
        s = 1.0 / (1.0 + math.exp(-(raw * 2.0 ** -fmt.frac_bits)))
    except OverflowError:
        s = 0.0   # exp(-v) beyond binary64: sigmoid(v) is at its limit 0
    return quantize(s, fmt).raw


@functools.lru_cache(maxsize=8)
def build_sigmoid_lut(fmt: QFormat) -> np.ndarray:
    """Sigmoid lookup table: entry i is _sigmoid_raw(raw i), as read-only int64.

    Indexed by the raw encoding reinterpreted as unsigned, so a table has
    2^total_bits entries; formats wider than 16 bits are rejected.  One numpy
    pass computes every entry.  numpy's exp may differ from math.exp by a few
    ulps, which can move a rounding only where the scaled value lies next to
    a .5 tie, so those few entries are recomputed by the scalar definition
    and the table equals it exactly.  The cache hands one table to every
    caller, so it cannot be written.
    """
    t, f = fmt.total_bits, fmt.frac_bits
    if t > 16:
        raise ConfigError(f"sigmoid LUT limited to total_bits <= 16, got {t}")
    raws = np.arange(1 << t, dtype=np.int64)
    raws[1 << (t - 1):] -= 1 << t   # sign-extend the upper half of the codes
    with np.errstate(over="ignore"):   # exp(-v) = inf gives sigmoid 0, as above
        s = 1.0 / (1.0 + np.exp(-np.ldexp(raws, -f)))
    lut = quantize_array(s, fmt)
    y = np.ldexp(s, f)
    near_tie = np.abs(y - np.floor(y) - 0.5) <= _TIE_ULPS * np.spacing(y)
    for i in np.flatnonzero(near_tie):
        lut[i] = _sigmoid_raw(int(raws[i]), fmt)
    lut.flags.writeable = False
    return lut


def activate_raw(kind: AfKind, raw, fmt: QFormat, lut: np.ndarray | None = None):
    """The activation rule on raw codes of fmt: a Python int, or an ndarray of
    them as int64 or as float64 integers (the table returns int64)."""
    scalar = isinstance(raw, int)
    if kind is AfKind.RELU:
        return max(raw, 0) if scalar else np.maximum(raw, 0)
    if kind is AfKind.IDENTITY:
        return raw
    if lut is None:
        raise ConfigError("sigmoid selected but no LUT was built for this unit")
    mask = (1 << fmt.total_bits) - 1
    return int(lut[raw & mask]) if scalar else np.take(lut, raw.astype(np.int64, copy=False) & mask)


class ActivationUnit:
    """The single shared activation function, reconfigured between layers.

    `instances_created` is a construction audit: an engine must build exactly
    one of these no matter how wide its layers are.
    """

    instances_created = 0

    def __init__(self, fmt: QFormat, lut: np.ndarray | None = None):
        self.fmt = fmt
        self.kind = AfKind.IDENTITY
        self.lut = lut
        ActivationUnit.instances_created += 1

    def configure(self, kind: AfKind) -> None:
        self.kind = kind

    def apply_raw(self, raw: int) -> int:
        return activate_raw(self.kind, raw, self.fmt, self.lut)
