"""Closed-form timing model tests: literal evaluation, identities, reporting."""

import math
import re

import numpy as np
import pytest

from hydrasim.engine import CycleReport
from hydrasim.errors import ConfigError
from hydrasim.model import Mode, NetworkConfig
from hydrasim.timing import (
    af_savings,
    per_layer_af_savings,
    t_parallel,
    t_reuse,
    throughput_report,
)

BENCH5 = (196, 64, 32, 32, 10)
BENCH4 = (64, 32, 32, 10)


def test_t_parallel_examples():
    assert t_parallel(BENCH5) == 328
    assert t_parallel(BENCH4) == 131
    assert t_parallel((7,)) == 0


def test_t_reuse_examples():
    assert t_reuse(BENCH5) == 341
    assert t_reuse(BENCH4) == 143
    assert t_reuse((1, 1)) == 3


def test_t_reuse_single_layer_flagged():
    with pytest.warns(UserWarning, match="degenerate"):
        assert t_reuse((9,)) == 8


def test_timing_inputs_validation():
    for form in (t_parallel, t_reuse):
        with pytest.raises(ConfigError, match=f"^{form.__name__} needs at least one layer$"):
            form([])
        with pytest.raises(ConfigError, match=r"^all n\(l\) must be >= 1, got \(1, 0\)$"):
            form([1, 0])
        for msg, n in (("n[0] must be an integer, got 2.7", [2.7, 3.9]),
                       ("n[0] must be an integer, got '4'", ["4", 5]),
                       ("n[1] must be an integer, got True", [4, True, 2])):
            with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
                form(n)
    assert t_parallel(np.array([196, 64, 10])) == t_parallel([196, 64, 10])


def test_reuse_minus_parallel_identity():
    rng = np.random.RandomState(13)
    for _ in range(1000):
        L = int(rng.randint(1, 9))
        n = tuple(int(v) for v in rng.randint(1, 300, L))
        with pytest.warns(UserWarning) if L == 1 else _nullcontext():
            assert t_reuse(n) - t_parallel(n) == n[-1] + L - 2


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_af_savings_examples():
    assert af_savings(NetworkConfig((196, 64))) == 63
    bench = NetworkConfig((196, 64, 32, 32, 10))
    assert af_savings(bench) == 137
    assert per_layer_af_savings(bench) == [63, 31, 31, 9]
    assert af_savings(NetworkConfig((5, 1), max_fma=1)) == 0


def test_af_savings_monotone_in_widths():
    rng = np.random.RandomState(2)
    for _ in range(50):
        widths = [int(v) for v in rng.randint(1, 64, 3)]
        base = af_savings(NetworkConfig((8, *widths)))
        bumped = list(widths)
        i = int(rng.randint(0, 3))
        bumped[i] += 1
        assert af_savings(NetworkConfig((8, *bumped))) > base


def _report(total_cycles, mac_ops):
    return CycleReport(
        per_layer=[],
        total_cycles=total_cycles,
        mac_ops=mac_ops,
        af_invocations=0,
        fma_utilization=0.0,
        softmax_cycles=0,
        mode=Mode.STORE_AND_FORWARD,
        last_output_cycle=total_cycles,
    )


def test_throughput_benchmark_value():
    # mac_ops from the invariant sum inputs(l)*n(l); 470-cycle store-and-forward run.
    mac_ops = 196 * 64 + 64 * 32 + 32 * 32 + 32 * 10
    tp = throughput_report(_report(470, mac_ops), 100e6)
    assert tp.cycles == 470
    assert tp.gops == pytest.approx(2 * mac_ops * 1e8 / 470 / 1e9)
    assert tp.gops == pytest.approx(6.781, abs=1e-3)
    assert tp.inferences_per_sec == pytest.approx(1e8 / 470)


def test_throughput_zero_ops():
    tp = throughput_report(_report(4, 0), 100e6)
    assert tp.gops == 0.0


def test_throughput_linear_in_clock():
    r = _report(470, 15936)
    one = throughput_report(r, 50e6)
    two = throughput_report(r, 100e6)
    assert two.gops == pytest.approx(2 * one.gops)
    assert two.inferences_per_sec == pytest.approx(2 * one.inferences_per_sec)
    assert one.cycles == two.cycles == 470


def test_throughput_rejects_bad_clock():
    with pytest.raises(ConfigError):
        throughput_report(_report(470, 1), 0.0)


@pytest.mark.parametrize("clock_hz", [math.nan, math.inf, -math.inf, -1.0])
def test_throughput_rejects_non_finite_or_negative_clock(clock_hz):
    with pytest.raises(ConfigError, match="clock_hz"):
        throughput_report(_report(470, 1), clock_hz)
