"""Datapath block tests: FMA bank gating and packed lanes, PISO order (via the
engine), shared AF."""

import functools
import math
import warnings

import numpy as np
import pytest

from conftest import col
from hydrasim.datapath import ActivationUnit, AfKind, FmaBank, _sigmoid_raw, acc_bits, build_sigmoid_lut
from hydrasim.engine import Engine
from hydrasim.errors import ConfigError, ControlFault
from hydrasim.fxp import QFormat, QValue, quantize, round_acc
from hydrasim.model import LayerParams, Mode, NetworkConfig, Params

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
    bank = FmaBank(1, acc_bits(Q83, 196))
    bank.preload(col(bank, bias), F)
    for ai, column in zip(a, bank.pack(w[:, None])):
        bank.step(int(ai), column)
    expected = (bias << 5) + int(sum(int(x) * int(y) for x, y in zip(a, w)))
    assert bank.read()[0] == expected


def test_fma_zero_input_leaves_acc_unchanged():
    bank = FmaBank(1, acc_bits(Q83, 1))
    bank.preload(col(bank, 42), F)
    before = bank.read()[0]
    bank.step(0, col(bank, -100))
    assert bank.read()[0] == before


def test_stepping_disabled_unit_is_a_fault():
    bank = FmaBank(1, acc_bits(Q83, 1))
    with pytest.raises(ControlFault):
        bank.step(1, col(bank, 1))
    bank.preload(col(bank, 0), F)
    bank.preload(col(bank), F)   # a preload of no biases gates every slot off
    with pytest.raises(ControlFault):
        bank.step(1, col(bank, 1))


def test_narrower_preload_holds_only_its_lanes():
    bank = FmaBank(3, acc_bits(Q83, 5))
    bank.preload(col(bank, 9, 4, 7), F)
    bank.step(2, col(bank, 3, 1, 5))
    bank.preload(col(bank, 9), F)   # a narrower preload, as a tiled layer's last pass
    assert bank.word == 9 << F
    for _ in range(5):
        bank.step(1, col(bank, 1))
    assert bank.read() == [(9 << F) + 5]
    assert bank.word == (9 << F) + 5
    bank.preload(col(bank), F)
    for _ in range(5):
        with pytest.raises(ControlFault):
            bank.step(1, col(bank, 1))
    assert (bank.word, bank.read()) == (0, [])


def test_zero_input_on_a_gated_bank_is_still_a_fault():
    bank = FmaBank(2, acc_bits(Q83, 1))
    with pytest.raises(ControlFault):
        bank.step(0, col(bank, 1, 2))
    bank.preload(col(bank, 0, 0), F)
    bank.preload(col(bank), F)
    with pytest.raises(ControlFault):
        bank.step(0, col(bank, 1, 2))


@pytest.mark.parametrize("x_raw", [0, 3])
def test_column_of_the_wrong_length_is_rejected(x_raw):
    bank = FmaBank(4, acc_bits(Q83, 1))
    bank.preload(col(bank, 1, 2, 3), F)
    for raws in ([5, 6], [5, 6, 7, 8]):
        with pytest.raises(ValueError, match="armed slots"):
            bank.step(x_raw, col(bank, *raws))
    assert bank.read() == [1 << F, 2 << F, 3 << F]


def test_skipped_zero_inputs_leave_the_exact_sum():
    # Half the inputs are zero; the accumulators equal the full sum of products.
    rng = np.random.default_rng(6)
    fmt = QFormat(32, 3)   # sums of 300 products pass int64: Python ints hold them
    w, k = 5, 300
    xs = [int(v) if i % 2 else 0 for i, v in enumerate(rng.integers(fmt.raw_min, fmt.raw_max, k))]
    cols = [[int(v) for v in rng.integers(fmt.raw_min, fmt.raw_max, w)] for _ in range(k)]
    biases = [int(v) for v in rng.integers(fmt.raw_min, fmt.raw_max, w)]
    bank = FmaBank(w, acc_bits(fmt, k))
    bank.preload(col(bank, *biases), fmt.frac_bits)
    for x, column in zip(xs, bank.pack(cols)):
        bank.step(x, column)
    assert bank.read() == [(b << fmt.frac_bits) + sum(x * c[j] for x, c in zip(xs, cols))
                          for j, b in enumerate(biases)]


def test_preload_wider_than_the_bank_is_rejected():
    bank = FmaBank(2, acc_bits(Q83, 1))
    with pytest.raises(ConfigError, match="preload of 3 biases exceeds 2 FMA slots"):
        bank.preload(col(bank, 1, 2, 3), F)


def test_preload_resets_step_count():
    bank = FmaBank(1, acc_bits(Q83, 1))
    bank.preload(col(bank, 0), F)
    bank.step(1, col(bank, 1))
    bank.preload(col(bank, 3), F)
    assert bank.read()[0] == 3 << 5


# =============================================================================
# Packed lanes at the rails
# =============================================================================

RAIL_FORMATS = [(4, 1), (8, 3), (16, 3), (32, 3), (53, 3), (54, 3), (64, 1)]
RAIL_FAN_INS = [1, 196, 4096]


def rail_format(t, i):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # nonstandard widths warn
        return QFormat(t, i)


@pytest.mark.parametrize("fan_in", RAIL_FAN_INS)
@pytest.mark.parametrize("t, i", RAIL_FORMATS)
def test_packed_lanes_hold_opposite_rails_side_by_side(t, i, fan_in):
    # Lanes alternate the format's largest accumulator at this fan-in, a bias
    # raw_max plus raw_min * raw_min products, and its most negative, a bias
    # raw_min plus raw_min * raw_max products.  At fan-in 1 and 2t a multiple
    # of 8, they fill the lanes: K = acc_bits = 2t.
    fmt = rail_format(t, i)
    lo, hi, f = fmt.raw_min, fmt.raw_max, fmt.frac_bits
    bank = FmaBank(4, acc_bits(fmt, fan_in))
    column, narrow = col(bank, lo, hi, lo, hi), col(bank, hi, lo)
    top, bottom = (hi << f) + fan_in * lo * lo, (lo << f) + fan_in * lo * hi
    bank.preload(col(bank, hi, lo, hi, lo), f)
    for _ in range(fan_in):
        bank.step(lo, column)
    assert bank.read() == [top, bottom, top, bottom]
    # Zero inputs are clocked but skipped: only the others add products.
    xs = [lo if s % 2 else 0 for s in range(fan_in)]
    m = fan_in // 2
    part = [(hi << f) + m * lo * lo, (lo << f) + m * lo * hi]
    bank.preload(col(bank, hi, lo, hi, lo), f)
    for x in xs:
        bank.step(x, column)
    assert bank.read() == part + part
    # A narrower preload arms lanes 0 and 1 alone: the word holds exactly
    # those two as they fill to the rails opposite to their last ones.
    bank.preload(col(bank, lo, hi), f)
    for _ in range(fan_in):
        bank.step(lo, narrow)
    assert bank.read() == [bottom, top]
    assert bank.word == bottom + (top << bank.lane_bits)


def test_pack_gives_one_empty_column_per_zero_width_row():
    bank = FmaBank(3, 20)
    assert bank.pack([()]) == [(0, 0)]
    assert bank.pack(np.zeros((4, 0), np.int64)) == [(0, 0)] * 4
    assert bank.pack(np.zeros((0, 3), np.int64)) == []
    assert bank.pack(np.zeros((0, 0), np.int64)) == []


@pytest.mark.parametrize("fan_in", RAIL_FAN_INS)
@pytest.mark.parametrize("t, i", RAIL_FORMATS)
def test_tiled_and_streamed_passes_read_exact_lanes_at_the_rails(t, i, fan_in):
    # Units alternate raw_min and raw_max weight rows with opposite-rail
    # biases; every pass's lanes, read at its PISO capture, must equal the
    # exact integer sums, through a tiled layer (passes of 4 and 2) and a
    # streamed one.
    fmt = rail_format(t, i)
    lo, hi, f = fmt.raw_min, fmt.raw_max, fmt.frac_bits
    ident = AfKind.IDENTITY
    configs = [NetworkConfig((fan_in, 6), max_fma=4, qformat=fmt, af_per_layer=(ident,)),
               NetworkConfig((fan_in, 4, 3), max_fma=4, qformat=fmt, mode=Mode.STREAMED,
                             af_per_layer=(ident, ident))]
    for cfg in configs:
        layers = [LayerParams(np.array([[(lo, hi)[j % 2]] * k for j in range(n)], np.int64),
                              np.array([(hi, lo)[j % 2] for j in range(n)], np.int64))
                  for k, n in zip(cfg.layer_sizes, cfg.layer_sizes[1:])]
        engine = Engine(cfg, Params(layers, fmt))
        reads, read = [], engine.fma_bank.read
        engine.fma_bank.read = lambda: reads.append(read()) or reads[-1]
        outputs, _ = engine.run([QValue(lo, fmt)] * fan_in)
        expected, raws = [], [lo] * fan_in
        for lp in layers:
            sums = [(b << f) + sum(x * c for x, c in zip(raws, row))
                    for row, b in zip(lp.weights.tolist(), lp.biases.tolist())]
            expected += [sums[off:off + 4] for off in range(0, len(sums), 4)]
            raws = [round_acc(a, fmt) for a in sums]
        assert reads == expected
        assert [v.raw for v in outputs] == raws


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


def test_sigmoid_entry_past_the_float_range_is_zero():
    # At Q<16,16> raw -32768 is the value -32768, and exp(32768) overflows binary64.
    fmt = QFormat(16, 16)
    for raw in (-32768, -710):
        assert _sigmoid_raw(raw, fmt) == 0 == build_sigmoid_lut(fmt)[raw & 0xFFFF]


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
