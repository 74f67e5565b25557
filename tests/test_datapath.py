"""Datapath block tests: FMA bank gating, PISO order (via the engine), shared AF."""

import functools
import math

import numpy as np
import pytest

from hydrasim.datapath import ActivationUnit, AfKind, FmaBank, build_sigmoid_lut
from hydrasim.engine import Engine
from hydrasim.errors import ConfigError, ControlFault
from hydrasim.fxp import QFormat, QValue, quantize
from hydrasim.model import LayerParams, NetworkConfig, Params

Q83 = QFormat(8, 3)
F = Q83.frac_bits


def qv(raw):
    return QValue(raw, Q83)


# =============================================================================
# FmaBank
# =============================================================================

def test_fma_196_step_composition_matches_integer_oracle():
    rng = np.random.RandomState(5)
    a = rng.randint(-128, 128, 196)
    w = rng.randint(-128, 128, 196)
    bias = 17
    bank = FmaBank(1)
    bank.preload([bias], F)
    for ai, wi in zip(a, w):
        bank.step(int(ai), [int(wi)])
    expected = (bias << 5) + int(sum(int(x) * int(y) for x, y in zip(a, w)))
    assert bank.acc[0] == expected


def test_fma_zero_input_leaves_acc_unchanged():
    bank = FmaBank(1)
    bank.preload([42], F)
    before = bank.acc[0]
    bank.step(0, [-100])
    assert bank.acc[0] == before


def test_stepping_disabled_unit_is_a_fault():
    bank = FmaBank(1)
    with pytest.raises(ControlFault):
        bank.step(1, [1])
    bank.preload([0], F)
    bank.gate_off()
    with pytest.raises(ControlFault):
        bank.step(1, [1])


def test_gated_unit_accumulator_never_changes():
    bank = FmaBank(1)
    bank.preload([9], F)
    bank.step(2, [3])
    frozen = bank.acc[0]
    bank.gate_off()
    for _ in range(5):
        with pytest.raises(ControlFault):
            bank.step(1, [1])
    assert bank.acc[0] == frozen


def test_preload_resets_step_count():
    bank = FmaBank(1)
    bank.preload([0], F)
    bank.step(1, [1])
    bank.preload([3], F)
    assert bank.acc[0] == 3 << 5


# =============================================================================
# PISO capture, in the engine
# =============================================================================

def _identity_layer(n):
    """One identity layer of n neurons whose outputs are their biases, i - 30."""
    cfg = NetworkConfig((1, n), max_fma=64, af_per_layer=(AfKind.IDENTITY,))
    lp = LayerParams(np.zeros((n, 1), np.int64), np.arange(n, dtype=np.int64) - 30)
    return cfg, Params([lp], Q83)


def test_piso_capacity_64_accepts_64():
    Engine(*_identity_layer(64))


def test_piso_drain_order_all_lengths():
    for n in range(1, 65):
        outputs, _ = Engine(*_identity_layer(n)).run([qv(0)])
        assert [v.raw for v in outputs] == [i - 30 for i in range(n)]


# =============================================================================
# ActivationUnit
# =============================================================================

def test_relu_examples():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.RELU)
    assert afu.apply_raw(quantize(-1.0, Q83).raw) == 0
    assert afu.apply_raw(quantize(1.5, Q83).raw) == 48   # 1.5 at Q<8,3>


def test_identity_all_raws():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.IDENTITY)
    for raw in range(-128, 128):
        assert afu.apply_raw(raw) == raw


def test_relu_idempotent_all_raws():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.RELU)
    for raw in range(-128, 128):
        once = afu.apply_raw(raw)
        assert afu.apply_raw(once) == once


def test_sigmoid_lut_center_entry():
    lut = build_sigmoid_lut(Q83)
    assert lut[0] == quantize(0.5, Q83).raw == 16


def test_sigmoid_lut_extreme_negative_entry():
    # sigmoid(-4.0) = 0.01799; nearest representable is 1 ulp (0.03125),
    # since 0.01799 is above the 0.015625 midpoint.
    lut = build_sigmoid_lut(Q83)
    assert lut[(-128) & 0xFF] == 1


def test_sigmoid_lut_matches_definition_everywhere():
    lut = build_sigmoid_lut(Q83)
    for raw in range(-128, 128):
        v = raw / 32.0
        assert lut[raw & 0xFF] == quantize(1.0 / (1.0 + math.exp(-v)), Q83).raw


def test_sigmoid_lut_monotone_in_represented_order():
    lut = build_sigmoid_lut(Q83)
    ordered = [lut[raw & 0xFF] for raw in range(-128, 128)]
    assert ordered == sorted(ordered)


def test_sigmoid_unit_applies_lut():
    afu = ActivationUnit(Q83, build_sigmoid_lut(Q83))
    afu.configure(AfKind.SIGMOID)
    assert afu.apply_raw(0) == 16
    assert afu.apply_raw(-128) == 1


def test_sigmoid_without_table_is_config_error():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.SIGMOID)
    with pytest.raises(ConfigError):
        afu.apply_raw(0)


def test_sigmoid_lut_oversized_format_rejected():
    with pytest.raises(ConfigError):
        build_sigmoid_lut(QFormat(32, 3))


def test_sigmoid_unit_returns_python_ints():
    afu = ActivationUnit(QFormat(16, 3), build_sigmoid_lut(QFormat(16, 3)))
    afu.configure(AfKind.SIGMOID)
    assert all(type(afu.apply_raw(raw)) is int for raw in (-32768, -1, 0, 1, 32767))


def test_sigmoid_lut_is_read_only():
    lut = build_sigmoid_lut(Q83)
    with pytest.raises(ValueError):
        lut[0] = 0
    assert lut[0] == 16


@functools.cache
def _scalar_sigmoid_lut(fmt):
    """The table's definition, one math.exp per code, written independently."""
    half, lsb, scale = 1 << (fmt.total_bits - 1), 2.0 ** -fmt.frac_bits, 1 << fmt.frac_bits
    lo, hi = -half, half - 1
    entries = []
    for raw in [*range(half), *range(-half, 0)]:   # codes 0 .. 2^t - 1, sign-extended
        try:
            s = 1.0 / (1.0 + math.exp(-(raw * lsb)))
        except OverflowError:
            s = 0.0
        entries.append(min(max(round(s * scale), lo), hi))
    return entries


# Every format up to 14 bits, and at 15 and 16 bits int_bits 1, 3 and all.
_LUT_FORMATS = [(t, i) for t in range(4, 15) for i in range(1, t + 1)]
_LUT_FORMATS += [(t, i) for t in (15, 16) for i in (1, 3, t)]


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits, int_bits", _LUT_FORMATS)
def test_sigmoid_lut_equals_scalar_definition(total_bits, int_bits):
    fmt = QFormat(total_bits, int_bits)
    lut = build_sigmoid_lut(fmt)
    assert lut.dtype == np.int64 and lut.shape == (1 << total_bits,)
    assert lut.tolist() == _scalar_sigmoid_lut(fmt)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("ulps", [4, -4])
@pytest.mark.parametrize("total_bits, int_bits", [(8, 8), (12, 12), (8, 3), (16, 3), (16, 16)])
def test_sigmoid_lut_exact_under_perturbed_exp(monkeypatch, total_bits, int_bits, ulps):
    # At int_bits == total_bits raw 0 maps to exactly 0.5, a tie: an exp off by
    # a few ulps must not move it, nor any other entry.
    fmt = QFormat(total_bits, int_bits)
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: exp(x) * (1.0 + ulps * 2.0 ** -52))
    assert build_sigmoid_lut.__wrapped__(fmt).tolist() == _scalar_sigmoid_lut(fmt)


def test_construction_audit_counter():
    before = ActivationUnit.instances_created
    ActivationUnit(Q83)
    ActivationUnit(Q83)
    assert ActivationUnit.instances_created == before + 2


with pytest.warns(UserWarning, match="nonstandard bit-width 12"):
    WIDE_INTEGER_FORMATS = [QFormat(16, 12), QFormat(12, 12)]


@pytest.mark.parametrize("fmt", WIDE_INTEGER_FORMATS)
def test_sigmoid_lut_wide_integer_formats_build_monotone(fmt):
    # exp(-v) overflows binary64 for the most negative values of these formats
    lut = build_sigmoid_lut(fmt)
    half = 1 << (fmt.total_bits - 1)
    mask = (1 << fmt.total_bits) - 1
    ordered = [lut[raw & mask] for raw in range(-half, half)]
    assert ordered == sorted(ordered)
    assert ordered[0] == 0 and ordered[-1] == min(fmt.raw_max, 1 << fmt.frac_bits)
