"""Closed-form timing models and comparative reporting.

The two closed forms are evaluated literally from a list n of per-layer unit
counts, whose length is the layer count L:

    t_parallel = sum(n[0..L-2]) + L - 1
    t_reuse    = sum(n[0..L-1]) + 2L - 3

Whether n should include the input stage is ambiguous at the caller, so these
take an explicit list and the CLI prints both interpretations.  The simulator
is ground truth for actual cycle counts; these values are reported alongside,
never asserted equal to a simulated trace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .engine import CycleReport
from .errors import ConfigError
from .model import NetworkConfig, int_tuple


def _layer_counts(n, form: str) -> tuple[int, ...]:
    """n as a tuple of ints, each n(l) >= 1; L is its length."""
    n = int_tuple(n, "n(l)")
    if not n:
        raise ConfigError(f"{form} needs at least one layer")
    if any(v < 1 for v in n):
        raise ConfigError(f"all n(l) must be >= 1, got {n}")
    return n


def t_parallel(n) -> int:
    """Fully parallel architecture clock count."""
    n = _layer_counts(n, "t_parallel")
    return sum(n[:-1]) + len(n) - 1


def t_reuse(n) -> int:
    """Layer-reuse architecture clock count.

    Defined for L >= 2; L == 1 evaluates to n(1) - 1 and is permitted but
    flagged with a warning since the closed form is not meaningful there.
    """
    n = _layer_counts(n, "t_reuse")
    if len(n) == 1:
        warnings.warn("t_reuse with L=1 is degenerate (evaluates to n(1) - 1)", stacklevel=2)
    return sum(n) + 2 * len(n) - 3


def per_layer_af_savings(cfg: NetworkConfig) -> list[int]:
    """AF units saved per layer versus one AF per neuron: n(l) - 1 each."""
    return [w - 1 for w in cfg.layer_sizes[1:]]


def af_savings(cfg: NetworkConfig) -> int:
    """Network-total AF units saved versus a fully parallel per-neuron design.

    The reused design instantiates exactly one AF, so the total saving is
    (sum of layer widths) - 1.
    """
    return sum(cfg.layer_sizes[1:]) - 1


@dataclass(frozen=True)
class ThroughputReport:
    gops: float
    cycles: int
    inferences_per_sec: float


def throughput_report(report: CycleReport, clock_hz: float) -> ThroughputReport:
    """Op throughput at a clock rate; multiply and add count as two ops."""
    if not (math.isfinite(clock_hz) and clock_hz > 0):
        raise ConfigError(f"clock_hz must be positive and finite, got {clock_hz}")
    cycles = report.total_cycles
    gops = 2.0 * report.mac_ops * clock_hz / cycles / 1e9 if report.mac_ops else 0.0
    return ThroughputReport(
        gops=gops,
        cycles=cycles,
        inferences_per_sec=clock_hz / cycles,
    )
