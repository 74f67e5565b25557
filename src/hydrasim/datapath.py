"""Structural models of the datapath blocks.

Three pieces, mirroring the physical layer: the bank of array slots that fuse
multiply-accumulate with bias preload (FmaBank), the parallel-in-serial-out
register bank that captures all slot outputs in one cycle and drains them one
per cycle (PisoBuffer), and the single shared activation unit the drained
values pass through (ActivationUnit).  All three carry raw integer codes;
`activate_raw` is the one activation rule, shared with the golden models.

Cycle costs are not modeled here; the engine charges one cycle per PISO load,
one cycle of activation latency, and one cycle per drained element.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .errors import ConfigError, ControlFault
from .fxp import QFormat, QValue, saturate_raw, sign_extend


class AfKind(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


class FmaBank:
    """The array's multiply-accumulate slots, one wide accumulator per slot.

    Accumulators are Python ints at product scale, exact for every format.  A
    bias preload arms slots [0, w) and gates the rest off; a gated slot never
    changes, and stepping a bank with no armed slot is a control fault.
    """

    def __init__(self, size: int):
        self.acc = [0] * size
        self.steps_taken = [0] * size   # per slot, since its last bias preload
        self.width = 0                  # armed slots are [0, width)

    @property
    def gate_mask(self) -> list[bool]:
        return [j < self.width for j in range(len(self.acc))]

    def preload(self, bias_raws: list[int], frac_bits: int) -> None:
        """Load biases into slots [0, len(bias_raws)), aligned to product scale."""
        w = len(bias_raws)
        if w > len(self.acc):
            raise ConfigError(f"preload of {w} biases exceeds {len(self.acc)} FMA slots")
        self.acc[:w] = [b << frac_bits for b in bias_raws]
        self.steps_taken[:w] = [0] * w
        self.width = w

    def gate_off(self) -> None:
        self.width = 0

    def step(self, x_raw: int, wcol_raws: list[int]) -> None:
        """One MAC cycle: armed slot j adds x_raw * wcol_raws[j], exactly."""
        w = self.width
        if not w:
            raise ControlFault("stepped a power-gated FMA bank")
        self.acc[:w] = [a + x_raw * c for a, c in zip(self.acc[:w], wcol_raws, strict=True)]
        self.steps_taken[:w] = [self.steps_taken[0] + 1] * w


class PisoBuffer:
    """Parallel-in-serial-out bank: loaded in one cycle, drained one value per cycle."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"PISO capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slots: list[int] = []
        self.loaded_count = 0
        self.shift_index = 0

    def load(self, values) -> None:
        values = list(values)
        if len(values) > self.capacity:
            raise ConfigError(
                f"PISO load of {len(values)} values exceeds capacity {self.capacity}"
            )
        self.slots = values
        self.loaded_count = len(values)
        self.shift_index = 0

    def shift(self) -> int:
        """Emit the next value in load order."""
        if self.shift_index >= self.loaded_count:
            raise ControlFault("PISO shift past loaded count")
        v = self.slots[self.shift_index]
        self.shift_index += 1
        return v


@functools.lru_cache(maxsize=8)
def build_sigmoid_lut(fmt: QFormat) -> tuple[int, ...]:
    """Sigmoid lookup table: entry i is quantize(sigmoid(value of raw i)).

    Indexed by the raw encoding reinterpreted as unsigned, so a table has
    2^total_bits entries; formats wider than 16 bits are rejected.
    """
    if fmt.total_bits > 16:
        raise ConfigError(
            f"sigmoid LUT limited to total_bits <= 16, got {fmt.total_bits}"
        )
    lsb = 2.0 ** -fmt.frac_bits
    entries = []
    for i in range(1 << fmt.total_bits):
        try:
            s = 1.0 / (1.0 + math.exp(-(sign_extend(i, fmt.total_bits) * lsb)))
        except OverflowError:
            s = 0.0   # exp(-v) beyond binary64: sigmoid(v) is at its limit 0
        entries.append(saturate_raw(round(s * (1 << fmt.frac_bits)), fmt))
    return tuple(entries)


def activate_raw(kind: AfKind, raw, fmt: QFormat, lut: tuple[int, ...] | None = None):
    """The activation rule on raw codes of fmt: a Python int or an int64 ndarray."""
    if kind is AfKind.RELU:
        return raw * (raw > 0)   # max(0, raw), one expression for ints and arrays
    if kind is AfKind.IDENTITY:
        return raw
    if lut is None:
        raise ConfigError("sigmoid selected but no LUT was built for this unit")
    index = raw & ((1 << fmt.total_bits) - 1)
    return lut[index] if isinstance(index, int) else np.take(lut, index)


class ActivationUnit:
    """The single shared activation function, reconfigured between layers.

    `instances_created` is a construction audit: an engine must build exactly
    one of these no matter how wide its layers are.
    """

    instances_created = 0

    def __init__(self, fmt: QFormat, lut: tuple[int, ...] | None = None):
        self.fmt = fmt
        self.kind = AfKind.IDENTITY
        self.lut = lut
        ActivationUnit.instances_created += 1

    def configure(self, kind: AfKind) -> None:
        self.kind = kind

    def apply_raw(self, raw: int) -> int:
        return activate_raw(self.kind, raw, self.fmt, self.lut)

    def apply(self, x: QValue) -> QValue:
        if x.fmt != self.fmt:
            raise ValueError(f"activation input format {x.fmt} != unit format {self.fmt}")
        return QValue(self.apply_raw(x.raw), self.fmt)
