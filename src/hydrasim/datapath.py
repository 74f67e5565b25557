"""Structural models of the datapath blocks.

Two blocks of the physical layer: the bank of array slots that fuse
multiply-accumulate with bias preload (FmaBank), and the single shared
activation unit (ActivationUnit) that the values drained from the
parallel-in-serial-out capture stage pass through.  The bank keeps its
accumulators as signed K-bit lanes of one Python int, K being acc_bits (the
proven accumulator width of a format and fan-in) rounded up to whole bytes,
so one multiply-add steps every slot.  The capture stage itself is the
engine's list of a pass's rounded accumulators, drained by index.  Both blocks carry raw integer codes; `activate_raw` is the one activation
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
from itertools import repeat

import numpy as np

from .errors import ConfigError, ControlFault
from .fxp import QFormat, quantize, quantize_array


class AfKind(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


def acc_bits(fmt: QFormat, fan_in: int) -> int:
    """Signed bits that hold every accumulator of a neuron of fan_in inputs in
    fmt: 2t + bitlen(fan_in) - 1.

    Proof, for raw codes b (bias), x_i (inputs) and c_i (weights) inside
    Q<t,i>, whose f = t - i fractional bits are at most t - 1.  After k <= n =
    fan_in MAC steps, acc = b * 2^f + x_0 * c_0 + ... + x_(k-1) * c_(k-1).
    Every term lies in [-2^(2t-2), 2^(2t-2)]; b * 2^f stays below 2^(2t-2)
    (raw_max < 2^(t-1)) and every product above -2^(2t-2) (raw_min times
    raw_max).  So |acc| <= 2^(2t-2) for k = 0, and |acc| < (k + 1) * 2^(2t-2)
    <= (n + 1) * 2^(2t-2) <= 2^(bitlen(n) + 2t - 2) for k >= 1: in both
    cases |acc| < 2^(acc_bits - 1).  check_forward puts every weight and bias
    inside fmt, check_input every input, and every later input is a saturated
    activation (ReLU or identity of round_acc's output, or a sigmoid table
    entry), so the bound holds for every partial sum of every pass.
    """
    return 2 * fmt.total_bits + fan_in.bit_length() - 1


def _in_each_lane(value: int, lanes: int, k: int) -> int:
    """value in each of lanes k-bit lanes: value * sum of 2^(j*k) for j < lanes."""
    return ((1 << (lanes * k)) - 1) // ((1 << k) - 1) * value


class FmaBank:
    """The array's multiply-accumulate slots, each a signed acc_bits-bit accumulator.

    The accumulators are signed lanes of one Python int, word = sum of
    acc_j * 2^(j*K) over the slots j < width that the last preload armed.
    The lane width K is acc_bits rounded up to whole bytes, so |acc_j| <
    2^(K-1) wherever acc_bits holds (acc_bits proves it of every neuron), and
    the lanes are the base-2^K digits of word + 2^(K-1) in each lane.  A MAC
    cycle of every armed slot is then one exact multiply-add, word += x *
    column, with column = sum of c_j * 2^(j*K) packed once by pack: the
    borrows a negative lane takes from the lane above are undone by reading
    the digits.  A bias preload arms slots [0, w) and gates the rest off,
    replacing the word with exactly its w lanes, so a bank holds no state for
    a gated slot; stepping a bank with no armed slot is a control fault.
    """

    def __init__(self, size: int, acc_bits: int):
        self.size = size
        self.lane_bits = -(-acc_bits // 8) * 8    # K, in whole bytes for pack's layout
        self.word = 0
        self.width = 0                 # armed slots are [0, width)

    def preload(self, biases: tuple[int, int], frac_bits: int) -> None:
        """Arm slots [0, w) with a column (w, word) of pack's biases, shifted to product scale."""
        w, word = biases
        if w > self.size:
            raise ConfigError(f"preload of {w} biases exceeds {self.size} FMA slots")
        self.word = word << frac_bits
        self.width = w

    def pack(self, cols) -> list[tuple[int, int]]:
        """Each row of cols, an n x w array of raw codes, as the (w, column word)
        that step and preload take.

        numpy lays each code out in its lane's bytes, offset to be non-negative
        by 2^(K-1), or by 2^63 in a lane wider than 64 bits (an int64 code of a
        format the lane holds fits either way); each word is then one
        int.from_bytes, less the offsets.
        """
        cols = np.asarray(cols, dtype=np.int64)
        n, w = cols.shape
        if not w:   # numpy has no zero-size void dtype to view the empty rows as
            return [(0, 0)] * n
        k = self.lane_bits
        kb, low = k // 8, min(k // 8, 8)
        offset = 1 << (8 * low - 1)
        biased = cols.astype("<u8", order="C")   # two's complement, little-endian
        biased += np.uint64(offset)              # wraps to code + offset, which fits
        lanes = np.zeros((n, w * kb), np.uint8)
        item = np.dtype((np.void, low))          # a lane's low bytes, copied as one
        np.ndarray((n, w), item, lanes, 0, (w * kb, kb))[...] = \
            np.ndarray((n, w), item, biased, 0, biased.strides)
        offsets = _in_each_lane(offset, w, k)
        rows = lanes.view(np.dtype((np.void, w * kb))).ravel().tolist()
        return [(w, word - offsets) for word in map(int.from_bytes, rows, repeat("little"))]

    def step(self, x_raw: int, column: tuple[int, int]) -> None:
        """One MAC cycle: armed slot j adds x_raw * c_j, exactly, for a column
        (w, word) of pack.

        A zero input adds only zero products, so it leaves every accumulator
        as it is and does no arithmetic (zero skipping); the gate and the
        column's width are checked all the same.
        """
        w, word = column
        if not self.width:
            raise ControlFault("stepped a power-gated FMA bank")
        if w != self.width:
            raise ValueError(f"a column of {w} weights for {self.width} armed slots")
        if x_raw:
            self.word += x_raw * word

    def read(self) -> list[int]:
        """The accumulators of the armed slots: the word's width digits, each
        less its offset."""
        w, k = self.width, self.lane_bits
        half, mask = 1 << (k - 1), (1 << k) - 1
        digits = self.word + _in_each_lane(half, w, k)
        return [((digits >> s) & mask) - half for s in range(0, w * k, k)]


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
