"""Fixed-point substrate tests: quantization, wide MAC, single rounding.

Expected values are frozen from independent oracles: exhaustive nearest-value
search and rational (Fraction) arithmetic, never from the implementation.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import col
from hydrasim.datapath import AfKind, FmaBank, acc_bits
from hydrasim.errors import ConfigError
from hydrasim.fxp import (
    QFormat,
    QValue,
    quantize,
    round_acc,
    round_quotient,
    saturate_raw,
)
from hydrasim.model import LayerParams, NetworkConfig, Params, forward_quantized

Q83 = QFormat(8, 3)


def nearest_raw_bruteforce(x, fmt):
    """Independent oracle: scan every representable raw, ties to even."""
    fx = Fraction(x)
    best_raw, best_dist = None, None
    for raw in range(fmt.raw_min, fmt.raw_max + 1):
        d = abs(fx - Fraction(raw, 1 << fmt.frac_bits))
        if best_dist is None or d < best_dist or (d == best_dist and raw % 2 == 0):
            best_raw, best_dist = raw, d
    return best_raw


def round_fraction_half_even(fr):
    """Round a Fraction to the nearest integer, ties to even."""
    floor = fr.numerator // fr.denominator
    rem = fr - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        return floor + 1
    return floor


# =============================================================================
# Formats and values
# =============================================================================

def test_format_fields():
    assert Q83.frac_bits == 5
    assert Q83.raw_min == -128 and Q83.raw_max == 127
    assert Q83.min_value == -4.0
    assert Q83.max_value == 127 / 32
    assert str(Q83) == "Q<8,3>"


def test_format_bounds_rejected():
    with pytest.raises(ConfigError):
        QFormat(3, 2)
    with pytest.raises(ConfigError):
        QFormat(65, 3)
    with pytest.raises(ConfigError):
        QFormat(8, 0)
    with pytest.raises(ConfigError):
        QFormat(8, 9)


def test_nonstandard_width_warns():
    with pytest.warns(UserWarning, match="nonstandard bit-width 4"):
        fmt = QFormat(4, 3)
    assert fmt.frac_bits == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bits in (5, 8, 16, 32):
            QFormat(bits, 3)


def test_qvalue_range_checked():
    QValue(127, Q83)
    QValue(-128, Q83)
    with pytest.raises(ValueError):
        QValue(128, Q83)
    with pytest.raises(ValueError):
        QValue(-129, Q83)


@pytest.mark.parametrize("cls, args, bad", [
    (QFormat, (8.0, 3), "total_bits must be an integer, got 8.0"),
    (QFormat, (8, True), "int_bits must be an integer, got True"),
    (QFormat, ("8", 3), "total_bits must be an integer, got '8'"),
    (QValue, (1.5, Q83), "raw must be an integer, got 1.5"),
    (QValue, (True, Q83), "raw must be an integer, got True"),
    (QValue, ("1", Q83), "raw must be an integer, got '1'"),
])
def test_integer_fields_are_typed(cls, args, bad):
    with pytest.raises(ConfigError, match=f"^{re.escape(bad)}$"):
        cls(*args)


def test_numpy_integers_become_ints():
    fmt = QFormat(np.int64(8), np.uint8(3))
    v = QValue(np.int32(-5), fmt)
    assert (fmt, v.raw) == (Q83, -5)
    assert {type(fmt.total_bits), type(fmt.int_bits), type(v.raw)} == {int}


@pytest.mark.parametrize("t", [4, 53, 54, 64])
def test_qvalue_accepts_both_rails_and_refuses_one_past_each(t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # nonstandard widths warn
        fmt = QFormat(t, 1)
    assert (fmt.raw_min, fmt.raw_max) == (-2 ** (t - 1), 2 ** (t - 1) - 1)
    for raw in (fmt.raw_min, fmt.raw_max):
        assert QValue(raw, fmt).raw == raw
    for raw in (fmt.raw_min - 1, fmt.raw_max + 1):
        with pytest.raises(ValueError, match=f"^raw {raw} does not fit in Q<{t},1>$"):
            QValue(raw, fmt)


def test_qvalue_int_subclass_becomes_an_exact_int():
    class Raw(int):
        pass

    v = QValue(Raw(-7), Q83)
    assert type(v.raw) is int and v.raw == -7


# =============================================================================
# quantize / QValue.value
# =============================================================================

def test_quantize_examples():
    assert quantize(0.0, Q83).raw == 0
    assert quantize(5.0, Q83).raw == 127           # saturates to (2^7 - 1) * 2^-5
    assert quantize(5.0, Q83).value == 3.96875
    assert quantize(-4.0, Q83).raw == -128         # exact minimum
    assert quantize(0.2, Q83).raw == 6             # 0.2 * 32 = 6.4 -> 6
    assert quantize(0.2, Q83).value == 0.1875


def test_quantize_matches_bruteforce_oracle():
    rng = np.random.RandomState(42)
    fmts = [Q83, QFormat(5, 2), QFormat(8, 5)]
    for fmt in fmts:
        span = fmt.max_value - fmt.min_value
        xs = rng.uniform(fmt.min_value - span / 4, fmt.max_value + span / 4, 120)
        for x in xs:
            x = float(x)
            assert quantize(x, fmt).raw == nearest_raw_bruteforce(x, fmt), (x, fmt)


def test_quantize_ties_to_even():
    # A midpoint (k + 0.5 ulp) lies between raws k and k+1; the even one wins.
    for k in range(-20, 20):
        x = (k + 0.5) * Q83.resolution
        got = quantize(x, Q83).raw
        assert got % 2 == 0
        assert got in (k, k + 1)


def test_quantize_monotone():
    rng = np.random.RandomState(1)
    xs = sorted(float(v) for v in rng.uniform(-6, 6, 500))
    raws = [quantize(x, Q83).raw for x in xs]
    assert raws == sorted(raws)


def test_quantize_nonfinite_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            quantize(bad, Q83)


def test_dequantize_examples():
    assert QValue(6, Q83).value == 0.1875
    assert QValue(0, Q83).value == 0.0
    assert QValue(-128, Q83).value == -4.0


@pytest.mark.parametrize("fmt", [QFormat(5, 2), QFormat(5, 3), Q83, QFormat(8, 6), QFormat(16, 3), QFormat(16, 8)])
def test_roundtrip_exhaustive(fmt):
    for raw in range(fmt.raw_min, fmt.raw_max + 1):
        v = QValue(raw, fmt)
        assert quantize(v.value, fmt) == v


# =============================================================================
# Exact accumulation and the single rounding point
# =============================================================================

def _neuron(fmt, bias, x, w):
    """forward_quantized's raw output of one identity neuron: bias, inputs x, weights w."""
    cfg = NetworkConfig((len(x), 1), max_fma=1, qformat=fmt, af_per_layer=(AfKind.IDENTITY,))
    params = Params([LayerParams(np.array([w], np.int64), np.array([bias], np.int64))], fmt)
    return forward_quantized(cfg, params, [QValue(int(v), fmt) for v in x])[0].raw


def test_acc_init_bias_examples():
    bank = FmaBank(3, acc_bits(Q83, 1))
    bank.preload(col(bank, 32, 0, -128), Q83.frac_bits)
    assert bank.read() == [1024, 0, -4096]


def test_acc_mac_examples():
    bank = FmaBank(1, acc_bits(Q83, 2))
    half, minus = bank.pack([[16], [-77]])
    bank.preload(col(bank, 0), Q83.frac_bits)
    bank.step(16, half)             # 0.5 * 0.5
    assert bank.read() == [256]        # 0.25 at 2^-10 scale
    bank.step(0, minus)             # zero annihilator
    assert bank.read() == [256]
    # bias 1.0 then 0.5*0.5 reads back 1.25
    bank.preload(col(bank, 32), Q83.frac_bits)
    bank.step(16, half)
    assert bank.read() == [1280]
    assert QValue(round_acc(bank.read()[0], Q83), Q83).value == 1.25


def test_acc_round_examples():
    assert round_acc(1280, Q83) == 40
    # 1.5 ulp at product scale rounds half to even: 48/32 = 1.5 -> 2
    assert round_acc(48, Q83) == 2
    # 3.9 + 2.0*2.0 = 7.9 saturates to the format maximum
    raw = _neuron(Q83, quantize(3.9, Q83).raw, [quantize(2.0, Q83).raw], [quantize(2.0, Q83).raw])
    assert raw == 127 and QValue(raw, Q83).value == 3.96875


def test_acc_round_matches_fraction_oracle():
    rng = np.random.RandomState(7)
    for _ in range(2000):
        raw = int(rng.randint(-(1 << 18), 1 << 18))
        expected = saturate_raw(
            round_fraction_half_even(Fraction(raw, 1 << Q83.frac_bits)), Q83
        )
        assert round_acc(raw, Q83) == expected, raw
        # The same product-scale sum through the oracle: raw = -128 * sum(w) + v,
        # 17 inputs of -128 against weights summing to W, and v * 1.
        v = raw % 128
        q, rem = divmod((v - raw) // 128, 17)
        w = [q + 1] * rem + [q] * (17 - rem) + [1]
        assert _neuron(Q83, 0, [-128] * 17 + [v], w) == expected, raw


def small_format(t, i):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # 4 and 6 bits are nonstandard
        return QFormat(t, i)


@pytest.mark.parametrize("t, i", [(t, i) for t in (4, 5, 6) for i in range(1, t + 1)])
def test_every_small_accumulator_rounds_as_the_fraction_spec(t, i):
    # Every accumulator of a neuron of fan-in up to 4, |acc| < 2^(acc_bits - 1),
    # through the single rounding point, the fold route's tie rule on int64 and
    # the float route: each is acc / 2^f rounded half to even, then saturated.
    fmt = small_format(t, i)
    f, lo, hi = fmt.frac_bits, fmt.raw_min, fmt.raw_max
    bound = 1 << (acc_bits(fmt, 4) - 1)
    spec = [min(max(round_fraction_half_even(Fraction(a, 1 << f)), lo), hi)
            for a in range(1 - bound, bound)]
    assert [round_acc(a, fmt) for a in range(1 - bound, bound)] == spec
    acc = np.arange(1 - bound, bound, dtype=np.int64)
    fold = np.clip(round_quotient(acc >> f, acc & ((1 << f) - 1), f), lo, hi)
    assert fold.dtype == np.int64 and fold.tolist() == spec
    assert np.rint(np.clip(acc * 2.0 ** -f, lo, hi)).tolist() == spec


def test_round_acc_basics():
    assert round_acc(48, Q83) == 2                 # f = 5
    assert round_acc(80, Q83) == 2                 # 2.5 -> 2
    assert round_acc(-48, Q83) == -2               # -1.5 -> -2 (even)
    assert round_acc(-80, Q83) == -2               # -2.5 -> -2 (even)
    assert round_acc(7, QFormat(8, 8)) == 7        # f = 0


def test_single_rounding_matches_rational_dot_product():
    """The oracle == rational dot product rounded exactly once."""
    rng = np.random.RandomState(3)
    for fmt in (Q83, QFormat(5, 2), QFormat(16, 4)):
        for _ in range(60):
            n = int(rng.randint(1, 197))
            a = rng.randint(fmt.raw_min, fmt.raw_max + 1, n)
            w = rng.randint(fmt.raw_min, fmt.raw_max + 1, n)
            bias = int(rng.randint(fmt.raw_min, fmt.raw_max + 1))
            got = _neuron(fmt, bias, a, w)
            scale = Fraction(1, 1 << fmt.frac_bits)
            exact = Fraction(bias) * scale + sum(
                Fraction(int(ai)) * scale * Fraction(int(wi)) * scale for ai, wi in zip(a, w)
            )
            expected = saturate_raw(round_fraction_half_even(exact / scale), fmt)
            assert got == expected


def test_guard_bits_worst_case_never_overflows():
    # 196 full-scale products plus a full-scale bias: the exact worst case,
    # inside the 2t + bitlen(196 - 1) + 1 signed bits of a hardware accumulator.
    limit = 1 << (2 * Q83.total_bits + (196 - 1).bit_length())
    bank = FmaBank(1, acc_bits(Q83, 196))
    low, high = bank.pack([[-128], [127]])
    bank.preload(col(bank, 127), Q83.frac_bits)
    for _ in range(196):
        bank.step(-128, low)
    assert bank.read() == [127 * 32 + 196 * (128 * 128)] and bank.read()[0] < limit
    bank.preload(col(bank, -128), Q83.frac_bits)
    for _ in range(196):
        bank.step(-128, high)
    assert bank.read() == [-128 * 32 + 196 * (-128 * 127)] and -limit <= bank.read()[0]


def test_integer_only_format_zero_frac_bits():
    fmt = QFormat(8, 8)   # no fractional bits at all
    assert fmt.frac_bits == 0
    assert quantize(5.4, fmt).raw == 5
    assert quantize(200.0, fmt).raw == 127
    for raw in range(-128, 128):
        assert quantize(QValue(raw, fmt).value, fmt).raw == raw
    assert _neuron(fmt, 3, [10], [-2]) == -17
