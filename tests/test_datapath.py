"""Datapath block tests: FMA bank gating, PISO ordering, shared AF behavior."""

import math

import numpy as np
import pytest

from hydrasim.datapath import ActivationUnit, AfKind, FmaBank, PisoBuffer, build_sigmoid_lut
from hydrasim.errors import ConfigError, ControlFault
from hydrasim.fxp import QFormat, QValue, quantize, sign_extend

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
    assert bank.steps_taken[0] == 196


def test_fma_zero_input_leaves_acc_unchanged():
    bank = FmaBank(1)
    bank.preload([42], F)
    before = bank.acc[0]
    bank.step(0, [-100])
    assert bank.acc[0] == before
    assert bank.steps_taken[0] == 1


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
    assert bank.steps_taken[0] == 0
    assert bank.acc[0] == 3 << 5


# =============================================================================
# PisoBuffer
# =============================================================================

def test_piso_load_and_counts():
    p = PisoBuffer(64)
    p.load([qv(1), qv(2), qv(3)])
    assert p.loaded_count == 3 and p.shift_index == 0


def test_piso_capacity_64_accepts_64_rejects_65():
    p = PisoBuffer(64)
    p.load([qv(i % 100) for i in range(64)])
    assert p.loaded_count == 64
    with pytest.raises(ConfigError):
        p.load([qv(0)] * 65)


def test_piso_drain_order_all_lengths():
    for n in range(1, 65):
        p = PisoBuffer(64)
        values = [qv(i - 30) for i in range(n)]
        p.load(values)
        drained = [p.shift() for _ in range(n)]
        assert drained == values
        with pytest.raises(ControlFault):
            p.shift()


def test_piso_shift_empty_is_a_fault():
    p = PisoBuffer(8)
    with pytest.raises(ControlFault):
        p.shift()


# =============================================================================
# ActivationUnit
# =============================================================================

def test_relu_examples():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.RELU)
    assert afu.apply(quantize(-1.0, Q83)).value == 0.0
    assert afu.apply(quantize(1.5, Q83)).value == 1.5


def test_identity_all_raws():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.IDENTITY)
    for raw in range(-128, 128):
        assert afu.apply(qv(raw)).raw == raw


def test_relu_idempotent_all_raws():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.RELU)
    for raw in range(-128, 128):
        once = afu.apply(qv(raw))
        assert afu.apply(once) == once


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
    for i in range(256):
        raw = sign_extend(i, 8)
        v = raw / 32.0
        assert lut[i] == quantize(1.0 / (1.0 + math.exp(-v)), Q83).raw


def test_sigmoid_lut_monotone_in_represented_order():
    lut = build_sigmoid_lut(Q83)
    ordered = [lut[raw & 0xFF] for raw in range(-128, 128)]
    assert ordered == sorted(ordered)


def test_sigmoid_unit_applies_lut():
    afu = ActivationUnit(Q83, build_sigmoid_lut(Q83))
    afu.configure(AfKind.SIGMOID)
    assert afu.apply(qv(0)).raw == 16
    assert afu.apply(qv(-128)).raw == 1


def test_sigmoid_without_table_is_config_error():
    afu = ActivationUnit(Q83)
    afu.configure(AfKind.SIGMOID)
    with pytest.raises(ConfigError):
        afu.apply(qv(0))


def test_sigmoid_lut_oversized_format_rejected():
    with pytest.raises(ConfigError):
        build_sigmoid_lut(QFormat(32, 3))


def test_af_format_mismatch_rejected():
    afu = ActivationUnit(Q83)
    with pytest.raises(ValueError):
        afu.apply(QValue(0, QFormat(16, 3)))


def test_construction_audit_counter():
    before = ActivationUnit.instances_created
    ActivationUnit(Q83)
    ActivationUnit(Q83)
    assert ActivationUnit.instances_created == before + 2


@pytest.mark.parametrize("fmt", [QFormat(16, 12), QFormat(12, 12)])
def test_sigmoid_lut_wide_integer_formats_build_monotone(fmt):
    # exp(-v) overflows binary64 for the most negative values of these formats
    lut = build_sigmoid_lut(fmt)
    half = 1 << (fmt.total_bits - 1)
    mask = (1 << fmt.total_bits) - 1
    ordered = [lut[raw & mask] for raw in range(-half, half)]
    assert ordered == sorted(ordered)
    assert ordered[0] == 0 and ordered[-1] == min(fmt.raw_max, 1 << fmt.frac_bits)
