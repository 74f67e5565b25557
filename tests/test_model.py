"""Model-layer tests: validation, quantization, golden forwards, trainer, file I/O."""

import dataclasses
import json
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_quantized_case, synthetic_digits, write_idx_images, write_idx_labels
from hydrasim import model
from hydrasim.dataio import FOLD_MODES, fold_codes, fold_images, load_dataset
from hydrasim.datapath import AfKind
from hydrasim.engine import Engine, run_inference
from hydrasim.errors import ConfigError, ParamsFileError
from hydrasim.fxp import QFormat, QValue, quantize
from hydrasim.model import (
    LayerParams,
    Mode,
    NetworkConfig,
    Params,
    forward_float,
    forward_quantized,
    forward_quantized_batch,
    init_params,
    load_params,
    prepare_batch,
    quantize_array,
    quantize_params,
    save_params,
    train_minimal,
    validate,
)
from hydrasim.model import _CHUNK, _limb_plan

CHUNK_ROWS = max(1, _CHUNK // 196)   # 668 rows of 196 inputs per row chunk

Q83 = QFormat(8, 3)
BENCH = NetworkConfig((196, 64, 32, 32, 10))


# =============================================================================
# Config validation
# =============================================================================

def test_benchmark_config_valid():
    assert validate(BENCH) == []
    from_numpy = NetworkConfig(np.array(BENCH.layer_sizes))   # numpy integers become ints
    assert from_numpy == BENCH and type(from_numpy.layer_sizes[0]) is int


@pytest.mark.parametrize("sizes, bad", [
    ((196.9, "12", 10.2), "196.9"),
    ((4, "12", 2), "'12'"),
    ((4, True, 2), "True"),
])
def test_non_integer_layer_sizes_rejected(sizes, bad):
    msg = f"layer_sizes[{[repr(s) for s in sizes].index(bad)}] must be an integer, got {bad}"
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
        NetworkConfig(sizes)


@pytest.mark.parametrize("field, bad", [
    ({"mode": "stream"}, "mode must be a Mode, got 'stream'"),
    ({"softmax_cycles": "2"}, "softmax_cycles must be an integer, got '2'"),
    ({"softmax_cycles": 1.5}, "softmax_cycles must be an integer, got 1.5"),
    ({"max_fma": True}, "max_fma must be an integer, got True"),
    ({"max_fma": 64.5}, "max_fma must be an integer, got 64.5"),
    ({"qformat": (8, 3)}, "qformat must be a QFormat, got (8, 3)"),
    ({"af_per_layer": ("relu", "identity")},
     "af_per_layer entries must be AfKind values, got 'relu'"),
])
def test_every_field_is_typed(field, bad):
    with pytest.raises(ConfigError, match=f"^{re.escape(bad)}$"):
        NetworkConfig((4, 2, 2), **field)


def test_numpy_integer_fields_become_ints():
    cfg = NetworkConfig((4, 2), max_fma=np.int64(8), softmax_cycles=np.uint8(3))
    assert (cfg.max_fma, cfg.softmax_cycles) == (8, 3)
    assert type(cfg.max_fma) is int and type(cfg.softmax_cycles) is int


def test_zero_width_layer_rejected():
    errors = validate(NetworkConfig((196, 0, 10)))
    assert any("layer size" in e for e in errors)


def test_oversized_layer_runs_in_passes():
    cfg = NetworkConfig((196, 65), max_fma=64)
    assert validate(cfg) == []
    params = Params([LayerParams(np.zeros((65, 196), np.int64), np.zeros(65, np.int64))], Q83)
    _, report = run_inference(cfg, params, [QValue(0, Q83)] * 196)
    # Two passes of inputs + pass width + 2 cycles: (196 + 64 + 2) + (196 + 1 + 2).
    assert report.total_cycles == 262 + 199


def test_af_count_mismatch_rejected():
    errors = validate(NetworkConfig((4, 2, 2), af_per_layer=(AfKind.RELU,)))
    assert any("af_per_layer" in e for e in errors)


def test_sigmoid_with_wide_format_rejected():
    errors = validate(
        NetworkConfig((4, 2), qformat=QFormat(32, 3), af_per_layer=(AfKind.SIGMOID,))
    )
    assert any("sigmoid" in e.lower() for e in errors)


def test_streamed_tiling_rejected():
    errors = validate(NetworkConfig((4, 100), max_fma=64, mode=Mode.STREAMED))
    assert any("store-and-forward" in e for e in errors)


def test_default_af_assignment():
    assert BENCH.afs == (AfKind.RELU, AfKind.RELU, AfKind.RELU, AfKind.IDENTITY)
    assert NetworkConfig((4, 2)).afs == (AfKind.IDENTITY,)


# =============================================================================
# Parameter quantization
# =============================================================================

def test_quantize_params_values():
    params = Params([LayerParams(np.array([[0.2, 10.0, 0.0]]), np.array([-10.0]))], None)
    q = quantize_params(params, Q83)
    assert q.layers[0].weights.tolist() == [[6, 127, 0]]
    assert q.layers[0].biases.tolist() == [-128]
    assert QValue(6, Q83).value == 0.1875


def test_quantize_params_zeros():
    params = Params([LayerParams(np.zeros((3, 2)), np.zeros(3))], None)
    q = quantize_params(params, Q83)
    assert not q.layers[0].weights.any() and not q.layers[0].biases.any()


def test_quantize_params_nonfinite_names_coordinates():
    w = np.zeros((2, 2))
    w[1, 0] = np.nan
    params = Params([LayerParams(w, np.zeros(2))], None)
    with pytest.raises(ConfigError, match=r"layer 0 weight\[1, 0\]"):
        quantize_params(params, Q83)


def test_quantize_params_twice_rejected():
    params = Params([LayerParams(np.zeros((1, 1)), np.zeros(1))], None)
    q = quantize_params(params, Q83)
    with pytest.raises(ConfigError, match="already quantized"):
        quantize_params(q, Q83)


def test_quantize_array_matches_scalar_quantize():
    rng = np.random.RandomState(8)
    for fmt in (Q83, QFormat(5, 2), QFormat(16, 6), QFormat(32, 3)):
        xs = rng.uniform(-8, 8, 500)
        raws = quantize_array(xs, fmt)
        for x, raw in zip(xs, raws):
            assert int(raw) == quantize(float(x), fmt).raw


def _quantize_probes(fmt):
    """Ties of both signs, both rails and past them, and random values."""
    res, lo, hi = fmt.resolution, fmt.raw_min, fmt.raw_max
    rng = np.random.default_rng(fmt.total_bits)
    probes = [0.0, 5.0, -5.0, 1e200, -1e200, fmt.min_value, fmt.max_value,
              2 * fmt.min_value, 2 * fmt.max_value, fmt.min_value - res, fmt.max_value + res,
              (lo - 0.5) * res, (hi + 0.5) * res, (hi - 0.5) * res, (lo + 0.5) * res,
              1e300, -1e300, np.finfo(float).max, -np.finfo(float).max]
    probes += [(k + 0.5) * res for k in range(-4, 4)]
    probes += list(rng.uniform(2 * fmt.min_value, 2 * fmt.max_value, 64))
    return probes


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("total_bits", range(4, 65))
def test_quantize_array_matches_scalar_at_every_width(total_bits):
    for int_bits in sorted({1, 3, total_bits}):
        fmt = QFormat(total_bits, int_bits)
        xs = _quantize_probes(fmt)
        raws = quantize_array(xs, fmt)
        assert raws.dtype == np.int64
        assert raws.tolist() == [quantize(float(x), fmt).raw for x in xs], str(fmt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantize_saturates_numpy_scalars_past_the_float_range():
    fmt = QFormat(32, 3)
    big = np.finfo(np.float64).max
    assert [quantize(v, fmt).raw for v in (big, -big)] == [fmt.raw_max, fmt.raw_min]


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
def test_quantize_array_saturates_to_raw_max_above_54_bits():
    # float(raw_max) rounds up to 2^(t-1) from 55 bits on; at 64 bits that overflowed int64
    for total_bits in (55, 56, 63, 64):
        fmt = QFormat(total_bits, 3)
        assert quantize_array([5.0, -5.0], fmt).tolist() == [fmt.raw_max, fmt.raw_min]


def test_quantize_array_chunks_keep_shape_and_reject_non_finite():
    xs = np.linspace(-9.0, 9.0, 3 * 7 * 20011).reshape(3, 7, 20011)   # several chunks
    raws = quantize_array(xs, Q83)
    assert raws.shape == xs.shape
    assert raws.reshape(-1)[::997].tolist() == [quantize(float(x), Q83).raw
                                                for x in xs.reshape(-1)[::997]]
    for bad in (np.nan, np.inf, -np.inf):
        xs.reshape(-1)[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quantize_array(xs, Q83)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [_CHUNK, _CHUNK + 12345, 2 * _CHUNK + 1])
def test_quantize_array_rejects_non_finite_past_the_first_chunk(bad, at):
    xs = np.full(2 * _CHUNK + 7, 0.5)
    xs[at] = bad
    with pytest.raises(ValueError, match="non-finite"):
        quantize_array(xs, Q83)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", [4, 5, 8, 16, 32, 64])
def test_quantize_params_equals_quantize_array_per_array(total_bits):
    fmt = QFormat(total_bits, 3)
    params = init_params(BENCH, seed=total_bits)
    for i, lp in enumerate(params.layers):   # values past both rails too
        lp.weights[0, :3] = [9.0, -9.0, fmt.resolution / 2]
        lp.biases[-1] = (-1) ** i * 1e300
    q = quantize_params(params, fmt)
    assert q.qformat == fmt
    for lp, qp in zip(params.layers, q.layers):
        for arr, got in ((lp.weights, qp.weights), (lp.biases, qp.biases)):
            want = quantize_array(arr, fmt)
            assert got.dtype == np.int64 and got.shape == arr.shape
            np.testing.assert_array_equal(got, want)


def test_quantize_params_names_the_first_non_finite_value():
    params = init_params(BENCH, seed=1)
    params.layers[2].weights[4, 7] = np.nan
    params.layers[1].biases[2] = -np.inf
    with pytest.raises(ConfigError, match=re.escape("layer 1 bias[2] is not finite")):
        quantize_params(params, Q83)


def test_quantization_error_bound():
    rng = np.random.RandomState(9)
    for fmt in (Q83, QFormat(16, 4)):
        xs = rng.uniform(fmt.min_value, fmt.max_value, 400)
        for x in xs:
            x = float(x)
            err = abs(quantize(x, fmt).value - x)
            assert err <= 2.0 ** -(fmt.frac_bits + 1) + 1e-15


# =============================================================================
# Float forward pass
# =============================================================================

def test_forward_float_identityish_single_neuron():
    cfg = NetworkConfig((1, 1), max_fma=1, af_per_layer=(AfKind.RELU,))
    params = Params([LayerParams(np.array([[1.0]]), np.array([0.0]))], None)
    assert forward_float(cfg, params, [2.0])[0] == 2.0


@pytest.mark.parametrize("x", [[2.0, 1.0], 2.0])
def test_forward_float_rejects_input_that_is_not_one_vector(x):
    cfg = NetworkConfig((1, 1), max_fma=1, af_per_layer=(AfKind.RELU,))
    params = Params([LayerParams(np.array([[1.0]]), np.array([0.0]))], None)
    with pytest.raises(ConfigError, match="input length"):
        forward_float(cfg, params, x)


def test_forward_float_zero_input_zero_bias():
    cfg = NetworkConfig((4, 3, 2), max_fma=4)
    params = Params(
        [
            LayerParams(np.ones((3, 4)), np.zeros(3)),
            LayerParams(np.ones((2, 3)), np.zeros(2)),
        ],
        None,
    )
    assert np.all(forward_float(cfg, params, np.zeros(4)) == 0.0)


def _forward_float_oracle(cfg, params, x):
    """Independent reimplementation: pure-python loops, no numpy ops."""
    a = [float(v) for v in x]
    for lp, kind in zip(params.layers, cfg.afs):
        nxt = []
        for j in range(lp.weights.shape[0]):
            z = float(lp.biases[j])
            for k in range(lp.weights.shape[1]):
                z += float(lp.weights[j, k]) * a[k]
            if kind is AfKind.RELU:
                z = max(0.0, z)
            elif kind is AfKind.SIGMOID:
                z = 1.0 / (1.0 + math.exp(-z))
            nxt.append(z)
        a = nxt
    return a


def test_forward_float_matches_handrolled_oracle():
    rng = np.random.default_rng(401)
    for _ in range(20):
        sizes = tuple(int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 5))))
        afs = tuple(
            (AfKind.RELU, AfKind.SIGMOID, AfKind.IDENTITY)[int(rng.integers(0, 3))]
            for _ in range(len(sizes) - 1)
        )
        cfg = NetworkConfig(sizes, max_fma=max(sizes[1:]), af_per_layer=afs)
        params = init_params(cfg, seed=int(rng.integers(0, 1000)))
        x = rng.uniform(-2, 2, sizes[0])
        got = forward_float(cfg, params, x)
        expected = _forward_float_oracle(cfg, params, x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


# =============================================================================
# Quantized forward passes
# =============================================================================

def test_forward_quantized_single_neuron_example():
    cfg = NetworkConfig((1, 1), max_fma=1, af_per_layer=(AfKind.IDENTITY,))
    params = Params(
        [LayerParams(np.array([[quantize(0.5, Q83).raw]]), np.array([quantize(1.0, Q83).raw]))],
        Q83,
    )
    out = forward_quantized(cfg, params, [quantize(0.5, Q83)])
    assert out[0].value == 1.25


def test_forward_quantized_zeros():
    cfg = NetworkConfig((4, 3), af_per_layer=(AfKind.RELU,))
    params = Params([LayerParams(np.zeros((3, 4), np.int64), np.zeros(3, np.int64))], Q83)
    out = forward_quantized(cfg, params, [QValue(0, Q83)] * 4)
    assert all(v.raw == 0 for v in out)


def test_forward_quantized_rejects_bad_inputs():
    cfg = NetworkConfig((4, 3))
    qparams = Params([LayerParams(np.zeros((3, 4), np.int64), np.zeros(3, np.int64))], Q83)
    with pytest.raises(ConfigError):
        forward_quantized(cfg, qparams, [QValue(0, Q83)] * 3)
    float_params = Params([LayerParams(np.zeros((3, 4)), np.zeros(3))], None)
    with pytest.raises(ConfigError):
        forward_quantized(cfg, float_params, [QValue(0, Q83)] * 4)


@pytest.mark.parametrize("bits", [5, 8, 16, 32])
def test_batch_forward_matches_scalar_oracle(bits):
    fmt = QFormat(bits, 3)
    rng = np.random.default_rng(500 + bits)
    for _ in range(12):
        cfg, params, x = random_quantized_case(rng, fmt, max_depth=3)
        scalar = forward_quantized(cfg, params, x)
        batch = forward_quantized_batch(
            cfg, params, np.array([[v.raw for v in x]], dtype=object if bits == 32 else np.int64)
        )
        assert [v.raw for v in scalar] == [int(v) for v in batch[0]]


def test_batch_sigmoid_q16_matches_scalar_oracle():
    # Small weights keep the sums inside Q<16,3>, so the table is read off its rails.
    fmt = QFormat(16, 3)
    sig = AfKind.SIGMOID
    cfg = NetworkConfig((12, 8, 6, 4), qformat=fmt, af_per_layer=(sig, sig, AfKind.IDENTITY))
    rng = np.random.default_rng(16)
    w = 1 << (fmt.frac_bits - 2)   # |weight| <= 0.25
    params = Params([LayerParams(rng.integers(-w, w + 1, size=(n, k)), rng.integers(-w, w + 1, size=n))
                     for k, n in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:])], fmt)
    x = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(20, 12))
    batch = forward_quantized_batch(cfg, params, x)
    assert batch.dtype == np.int64
    for row, out in zip(x.tolist(), batch.tolist()):
        assert [v.raw for v in forward_quantized(cfg, params, [QValue(r, fmt) for r in row])] == out


# =============================================================================
# Trainer
# =============================================================================

def _synthetic_training_set(n=400, seed=11):
    images, labels = synthetic_digits(n, seed=seed)
    folded = images.reshape(n, 14, 2, 14, 2).mean(axis=(2, 4)) / 256.0
    return folded.reshape(n, 196), labels.astype(np.int64)


def test_train_deterministic_given_seed():
    x, y = _synthetic_training_set(150)
    cfg = NetworkConfig((196, 12, 10), max_fma=16)
    p1 = train_minimal(x, y, cfg, epochs=1, lr=0.05, seed=7)
    p2 = train_minimal(x, y, cfg, epochs=1, lr=0.05, seed=7)
    for a, b in zip(p1.layers, p2.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)


def test_train_zero_lr_keeps_initialization():
    x, y = _synthetic_training_set(100)
    cfg = NetworkConfig((196, 8, 10), max_fma=16)
    trained = train_minimal(x, y, cfg, epochs=2, lr=0.0, seed=3)
    fresh = init_params(cfg, seed=3)
    for a, b in zip(trained.layers, fresh.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)


def test_train_learns_separable_data():
    x, y = _synthetic_training_set(400)
    cfg = NetworkConfig((196, 16, 10), max_fma=16)
    params = train_minimal(x, y, cfg, epochs=20, lr=0.1, seed=0)
    preds = np.argmax(forward_float(cfg, params, x), axis=1)
    assert np.mean(preds == y) >= 0.9


def test_train_gradient_matches_finite_differences():
    """One SGD update against central finite differences of the batch loss."""
    rng = np.random.default_rng(0)
    cfg = NetworkConfig((5, 4, 3), max_fma=4)
    xb = rng.uniform(-1, 1, (8, 5))
    yb = rng.integers(0, 3, 8)

    def loss(params):
        logits = forward_float(cfg, params, xb)
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        return -np.mean(np.log(p[np.arange(8), yb]))

    lr = 1e-3
    p0 = init_params(cfg, seed=42)
    trained = train_minimal(xb, yb, cfg, epochs=1, lr=lr, seed=42, batch_size=8)
    eps = 1e-6
    probe = init_params(cfg, seed=42)
    for l in range(cfg.n_layers):
        implied = (p0.layers[l].weights - trained.layers[l].weights) / lr
        numeric = np.zeros_like(implied)
        for i in range(implied.shape[0]):
            for j in range(implied.shape[1]):
                probe.layers[l].weights[i, j] += eps
                up = loss(probe)
                probe.layers[l].weights[i, j] -= 2 * eps
                down = loss(probe)
                probe.layers[l].weights[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(implied, numeric, rtol=1e-5, atol=1e-7)


def test_train_sigmoid_gradient_matches_finite_differences():
    """The sigmoid derivative a * (1 - a) against central finite differences."""
    rng = np.random.default_rng(1)
    cfg = NetworkConfig((4, 3, 2), af_per_layer=(AfKind.SIGMOID, AfKind.SIGMOID))
    xb, yb = rng.uniform(-1, 1, (6, 4)), rng.integers(0, 2, 6)

    def loss(params):
        logits = forward_float(cfg, params, xb)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        return -np.mean(np.log(p[np.arange(6), yb] / p.sum(axis=1)))

    lr, eps = 1e-3, 1e-6
    p0 = init_params(cfg, seed=9)
    trained = train_minimal(xb, yb, cfg, epochs=1, lr=lr, seed=9, batch_size=6)
    for l in range(cfg.n_layers):
        implied = (p0.layers[l].weights - trained.layers[l].weights) / lr
        numeric = np.zeros_like(implied)
        for idx in np.ndindex(implied.shape):
            probe = init_params(cfg, seed=9)
            probe.layers[l].weights[idx] += eps
            up = loss(probe)
            probe.layers[l].weights[idx] -= 2 * eps
            numeric[idx] = (up - loss(probe)) / (2 * eps)
        np.testing.assert_allclose(implied, numeric, rtol=1e-5, atol=1e-8)


def test_train_checks_only_what_float_training_reads():
    x, y = _synthetic_training_set(n=8)
    wide_sigmoid = NetworkConfig((x.shape[1], 3, 10), qformat=QFormat(32, 3),
                                 af_per_layer=(AfKind.SIGMOID, AfKind.IDENTITY))
    assert validate(wide_sigmoid)   # no LUT at 32 bits, yet training builds none
    assert train_minimal(x, y, wide_sigmoid, epochs=1).layer_sizes == (x.shape[1], 3, 10)
    for bad in (NetworkConfig((x.shape[1], 0, 10)),
                NetworkConfig((x.shape[1], 3, 10), af_per_layer=(AfKind.RELU,))):
        with pytest.raises(ConfigError):
            train_minimal(x, y, bad)


def test_train_rejects_empty_or_mismatched_data():
    cfg = NetworkConfig((196, 8, 10), max_fma=16)
    with pytest.raises(ConfigError):
        train_minimal(np.zeros((0, 196)), np.zeros(0, np.int64), cfg)
    with pytest.raises(ConfigError):
        train_minimal(np.zeros((4, 196)), np.zeros(3, np.int64), cfg)


@pytest.mark.parametrize("shape", [(4, 195), (4, 197), (196,), (2, 2, 196)])
def test_train_rejects_inputs_of_the_wrong_shape(shape):
    cfg = NetworkConfig((196, 8, 10), max_fma=16)
    with pytest.raises(ConfigError, match=re.escape("expected training inputs of shape [N, 196]")):
        train_minimal(np.zeros(shape), np.zeros(4, np.int64), cfg)


@pytest.mark.parametrize("kwargs", [{"lr": math.nan}, {"lr": -math.inf}, {"epochs": -1},
                                    {"batch_size": 0}, {"lr": "0.1"}, {"lr": True},
                                    {"seed": -1}, {"lr": -1.0}, {"lr": -5e-324}])
def test_train_rejects_bad_hyperparameters(kwargs):
    x, y = _synthetic_training_set(n=8)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        train_minimal(x, y, NetworkConfig((x.shape[1], 3, 2)), **kwargs)


def test_train_refuses_a_label_outside_the_output_layer():
    x, y = _synthetic_training_set(n=8)
    y[5] = -1   # not trained as the last class
    with pytest.raises(ConfigError, match=re.escape(
            "label -1 at index 5 is not in 0..9 (the output layer has 10 units)")):
        train_minimal(x, y, NetworkConfig((x.shape[1], 3, 10)))
    # A non-integer label is refused, never truncated (2.5 is not trained as 2).
    x, y = _synthetic_training_set(n=8)
    with pytest.raises(ConfigError, match=r"^label must be an integer, got \d+\.5$"):
        train_minimal(x, y + 0.5, NetworkConfig((x.shape[1], 3, 10)))


def test_integer_arguments_are_typed_by_as_int(tmp_path):
    """A bool or float count or seed is a ConfigError naming it, never truncated."""
    images, labels = synthetic_digits(3, seed=8)
    ip = write_idx_images(tmp_path / "imgs", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    x, y = _synthetic_training_set(n=8)
    cfg = NetworkConfig((x.shape[1], 3, 10))
    calls = [("limit", lambda v: load_dataset(ip, lp, limit=v)),
             ("epochs", lambda v: train_minimal(x, y, cfg, epochs=v)),
             ("batch_size", lambda v: train_minimal(x, y, cfg, batch_size=v)),
             ("seed", lambda v: train_minimal(x, y, cfg, seed=v)),
             ("seed", lambda v: init_params(cfg, v))]
    for name, call in calls:
        for bad in (True, 1.5):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {bad}$"):
                call(bad)


def test_init_params_ranges():
    cfg = NetworkConfig((20, 10, 5), max_fma=16)
    params = init_params(cfg, seed=1)
    for lp, fan_in, fan_out in zip(params.layers, (20, 10), (10, 5)):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(lp.weights) <= limit)
        assert not lp.biases.any()
    # A negative seed is named, not left to numpy's bare message.
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        init_params(cfg, seed=-1)


# =============================================================================
# Parameter file I/O
# =============================================================================

def test_save_load_roundtrip_float(tmp_path):
    cfg = NetworkConfig((6, 4, 3), max_fma=8)
    params = init_params(cfg, seed=9)
    path = tmp_path / "float.json"
    save_params(path, params)
    loaded = load_params(path)
    assert not loaded.is_quantized
    for a, b in zip(params.layers, loaded.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)


def test_save_load_roundtrip_quantized(tmp_path):
    cfg = NetworkConfig((6, 4, 3), max_fma=8)
    params = quantize_params(init_params(cfg, seed=9), Q83)
    path = tmp_path / "q.json"
    save_params(path, params)
    loaded = load_params(path)
    assert loaded.qformat == Q83
    for a, b in zip(params.layers, loaded.layers):
        np.testing.assert_array_equal(a.weights, b.weights)


@pytest.mark.parametrize("field, bad", [("weights", np.nan), ("biases", -np.inf)])
def test_save_refuses_non_finite_values_before_opening_the_file(tmp_path, field, bad):
    cfg = NetworkConfig((6, 4, 3), max_fma=8)
    path = tmp_path / "p.json"
    path.write_text("kept\n")
    params = init_params(cfg, seed=9)
    getattr(params.layers[1], field).flat[2] = bad
    with pytest.raises(ParamsFileError, match=f"cannot write {path}: layer 1 contains non-finite"):
        save_params(path, params)
    assert path.read_bytes() == b"kept\n"


def test_load_truncated_file(tmp_path):
    cfg = NetworkConfig((6, 4), max_fma=8)
    path = tmp_path / "t.json"
    save_params(path, init_params(cfg, seed=0))
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(ParamsFileError, match="truncated or malformed"):
        load_params(path)


@pytest.mark.parametrize("text", ["[1, 2]", "7", "null", '"layers"'])
def test_load_rejects_a_top_level_that_is_no_object(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(ParamsFileError, match="top-level JSON value must be an object"):
        load_params(path)


def test_load_version_mismatch(tmp_path):
    cfg = NetworkConfig((6, 4), max_fma=8)
    path = tmp_path / "v.json"
    save_params(path, init_params(cfg, seed=0))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="format_version"):
        load_params(path)


def test_load_dims_mismatch(tmp_path):
    cfg = NetworkConfig((6, 4), max_fma=8)
    path = tmp_path / "d.json"
    save_params(path, init_params(cfg, seed=0))
    doc = json.loads(path.read_text())
    doc["layer_sizes"] = [7, 4]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="do not match"):
        load_params(path)


def test_load_bad_qformat_and_out_of_range_raws(tmp_path_factory):
    path = tmp_path_factory.mktemp("p") / "bad.json"   # a path that does not say qformat
    doc = {
        "format_version": 1,
        "layer_sizes": [1, 1],
        "qformat": {"total_bits": 200, "int_bits": 3},
        "layers": [{"weights": [[1]], "biases": [0]}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="qformat"):
        load_params(path)
    doc["qformat"] = {"total_bits": 8, "int_bits": 3}
    doc["layers"] = [{"weights": [[999]], "biases": [0]}]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="outside"):
        load_params(path)


@pytest.mark.parametrize("raw", [1.7, True, 0.5, 2**70])
def test_load_rejects_non_integer_raw_codes(tmp_path, raw):
    path = tmp_path / "q.json"
    doc = {
        "format_version": 1,
        "layer_sizes": [2, 1],
        "qformat": {"total_bits": 8, "int_bits": 3},
        "layers": [{"weights": [[1, raw]], "biases": [0]}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="layer 0"):
        load_params(path)
    doc["layers"] = [{"weights": [[1, 2]], "biases": [raw]}]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="layer 0"):
        load_params(path)


def test_load_rejects_a_float_beside_an_integer_past_64_bits(tmp_path):
    # numpy makes the row an object array, whose float is no raw code.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"format_version": 1, "layer_sizes": [2, 1],
                                "qformat": {"total_bits": 8, "int_bits": 3},
                                "layers": [{"weights": [[0.5, 2**70]], "biases": [0]}]}))
    with pytest.raises(ParamsFileError, match="layer 0 holds non-integer raw codes"):
        load_params(path)


@pytest.mark.parametrize("leaf", [True, False, "1.5", None])
def test_load_float_file_rejects_booleans(tmp_path, leaf):
    path = tmp_path / "f.json"
    doc = {
        "format_version": 1,
        "layer_sizes": [2, 1],
        "qformat": "float",
        "layers": [{"weights": [[0.5, leaf]], "biases": [0.0]}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="layer 0 holds non-numeric"):
        load_params(path)
    doc["layers"] = [{"weights": [[0.5, 1]], "biases": [leaf]}]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="layer 0 holds non-numeric"):
        load_params(path)
    doc["layers"] = [{"weights": [[0.5, 1]], "biases": [-2.5e-3]}]   # JSON ints are numbers too
    path.write_text(json.dumps(doc))
    assert load_params(path).layers[0].weights.tolist() == [[0.5, 1.0]]


def test_load_float_file_reads_integers_past_64_bits_as_float64(tmp_path):
    path = tmp_path / "f.json"
    doc = {"format_version": 1, "layer_sizes": [2, 1], "qformat": "float",
           "layers": [{"weights": [[0.5, 10**30]], "biases": [-(2**64)]}]}
    path.write_text(json.dumps(doc))
    layer = load_params(path).layers[0]
    assert layer.weights.dtype == layer.biases.dtype == np.float64
    assert layer.weights.tolist() == [[0.5, 1e30]] and layer.biases.tolist() == [-(2.0**64)]
    doc["layers"][0]["biases"] = [10**400]   # past the float64 range
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsFileError, match="layer 0 holds int too large"):
        load_params(path)


# =============================================================================
# Exact batch kernel
# =============================================================================

def _plan_boundary_fan_ins(fmt, max_bit_length=7):
    """Fan-ins of bit length up to max_bit_length on both sides of every
    change of the kernel's worst-case limb plan.

    The plan depends on the fan-in only through its bit length, so comparing
    2^b - 1 with 2^b finds every change: the limb counts, and int64 versus
    Python-int recombination, which flips there for 55 <= t + int_bits <= 60.
    """
    fan_ins = {1}
    for b in range(1, max_bit_length):
        if _limb_plan(fmt, (1 << b) - 1) != _limb_plan(fmt, 1 << b):
            fan_ins |= {(1 << b) - 1, 1 << b}
    return sorted(fan_ins)


def _assert_batch_matches_oracle(cfg, params, x, *context, codes=None):
    """forward_quantized_batch on the raw rows x equals forward_quantized on
    each row, and so does prepare_batch's runner on codes = (fold codes, s),
    where given, whose rows code * 2^-s quantize to x."""
    fmt = cfg.qformat
    rows = x.tolist()
    qvalues = {v: QValue(v, fmt) for v in set().union(*rows)}   # one per distinct raw
    batch = forward_quantized_batch(cfg, params, x)
    assert batch.dtype == np.int64
    if codes is not None:
        np.testing.assert_array_equal(prepare_batch(cfg, params)(*codes), batch, str((fmt, *context)))
    for i, (row, out) in enumerate(zip(rows, batch.tolist())):
        oracle = forward_quantized(cfg, params, [qvalues[v] for v in row])
        assert [v.raw for v in oracle] == out, (str(fmt), *context, i)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", range(4, 65))
def test_batch_kernel_matches_oracle_across_limb_plans(total_bits):
    """Fan-ins through 64 at three int_bits, through 4096 at one of them."""
    rng = np.random.default_rng(900 + total_bits)
    wide_int_bits = (1, 3, total_bits)[total_bits % 3]
    for int_bits in sorted({1, 3, total_bits}):
        fmt = QFormat(total_bits, int_bits)
        lo, hi = fmt.raw_min, fmt.raw_max
        for fan_in in _plan_boundary_fan_ins(fmt, 13 if int_bits == wide_int_bits else 7):
            cfg = NetworkConfig((fan_in, 2), max_fma=2, qformat=fmt,
                                af_per_layer=(AfKind.IDENTITY,))
            # row/neuron 0 is all-extreme: the largest product sum plus raw_max bias
            w = rng.integers(lo, hi, size=(2, fan_in), endpoint=True)
            x = rng.integers(lo, hi, size=(2, fan_in), endpoint=True)
            w[0], x[0] = lo, lo
            b = np.array([hi, int(rng.integers(lo, hi, endpoint=True))])
            params = Params([LayerParams(w, b)], fmt)
            # Past fan-in 64 the all-extreme row alone keeps the scalar oracle fast.
            _assert_batch_matches_oracle(cfg, params, x[:1] if fan_in > 64 else x, fan_in)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("fold", FOLD_MODES)
def test_batch_kernel_matches_oracle_on_folded_images(fold):
    """A folded pixel is k/1024 or k/256, so its raws share a power-of-two
    factor, which the raw entry measures and the code entry states from s:
    both entries' plans at every width from 24 bits, against the oracle."""
    images, _ = synthetic_digits(2, seed=5)
    x = np.stack([fold_images(img[None], fold)[0].reshape(-1) for img in images])
    codes, s = fold_codes(images, fold)
    cfg = NetworkConfig((196, 5, 3), max_fma=5)
    float_params = init_params(cfg, seed=2)
    for total_bits in range(24, 65):
        fmt = QFormat(total_bits, 3)
        _assert_batch_matches_oracle(dataclasses.replace(cfg, qformat=fmt),
                                     quantize_params(float_params, fmt),
                                     quantize_array(x, fmt), fold, codes=(codes.reshape(-1, 196), s))


def _raw_params(rng, sizes, fmt, weight_bits=None):
    """Random raw params for sizes: weights of magnitude up to 2^weight_bits
    (the whole format if None) and full-range biases."""
    lo, hi = (fmt.raw_min, fmt.raw_max) if weight_bits is None else (-(1 << weight_bits), 1 << weight_bits)
    return Params([LayerParams(rng.integers(lo, hi, size=(n, k), endpoint=True),
                               rng.integers(fmt.raw_min, fmt.raw_max, size=n, endpoint=True))
                   for k, n in zip(sizes[:-1], sizes[1:])], fmt)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", [24, 32, 40, 48, 53, 54, 56, 64])
def test_batch_kernel_matches_oracle_on_small_and_raw_min_inputs(total_bits):
    """Inputs of a few bits, some times a large power of two, and rows at
    raw_min (magnitude exactly 2^(t-1)) or holding only raw_min and 0, against
    full-range and small weights.  The raw entry measures each block, so the
    first layer's plan follows its inputs; the second layer's follows only
    the format and its weights."""
    fmt = QFormat(total_bits, 3)
    rng = np.random.default_rng(700 + total_bits)
    cfg = NetworkConfig((48, 4, 3), max_fma=4, qformat=fmt,
                        af_per_layer=(AfKind.IDENTITY, AfKind.IDENTITY))
    small = rng.integers(-3, 3, size=(4, 48), endpoint=True)
    shifted = small << rng.integers(0, total_bits - 3, size=(4, 1))
    raw_min = np.full((2, 48), fmt.raw_min)
    raw_min[1, ::2] = 0
    blocks = [small, shifted, raw_min, np.concatenate([small, raw_min])]
    for weight_bits in (None, 1, 9, total_bits // 2):
        params = _raw_params(rng, cfg.layer_sizes, fmt, weight_bits)
        for i, x in enumerate(blocks):
            _assert_batch_matches_oracle(cfg, params, x, weight_bits, i)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batch_kernel_matches_oracle_around_the_chunk_size(offset):
    """Row counts one short of, at and one past a chunk: small rows that fit
    one float matmul beside a last row at raw_min that needs limbs, an
    all-zero row, and past a chunk all-zero chunks before and after a
    non-zero one.  The raw entry measures each chunk, so only the first
    layer may change plan between chunks; the second is planned from the
    format's bound on its inputs."""
    fmt, fan_in = QFormat(32, 3), 4096
    chunk = max(1, _CHUNK // fan_in)
    rows = chunk + offset
    rng = np.random.default_rng(40 + offset)
    cfg = NetworkConfig((fan_in, 2, 2), max_fma=2, qformat=fmt)
    params = _raw_params(rng, cfg.layer_sizes, fmt, weight_bits=16)
    pool = rng.integers(-255, 255, size=64, endpoint=True) << 19   # like a folded pixel
    small = rng.choice(pool, size=(rows, fan_in))
    small[0] = 0
    extreme = np.where(rng.integers(2, size=fan_in), fmt.raw_min, rng.choice(pool, size=fan_in) + 1)
    zeros = np.zeros((rows, fan_in), np.int64)
    cases = [("small then extreme", small, extreme)]
    if offset == 1:
        cases += [("zeros then extreme", zeros, extreme), ("small then zeros", small, 0)]
    for name, x, last in cases:
        x = x.copy()
        x[-1] = last
        _assert_batch_matches_oracle(cfg, params, x, name, rows)


@pytest.mark.parametrize("afs", [(AfKind.IDENTITY, AfKind.SIGMOID, AfKind.IDENTITY),
                                 (AfKind.RELU, AfKind.SIGMOID, AfKind.RELU)])
def test_batch_sigmoid_layer_after_a_float_route_layer(afs):
    fmt = QFormat(16, 3)
    cfg = NetworkConfig((12, 8, 6, 4), qformat=fmt, af_per_layer=afs)
    assert _float_route(fmt, 12) and _float_route(fmt, 8)
    params = _raw_params(np.random.default_rng(17), cfg.layer_sizes, fmt, weight_bits=fmt.frac_bits - 2)
    x = np.random.default_rng(18).integers(fmt.raw_min, fmt.raw_max, size=(20, 12), endpoint=True)
    _assert_batch_matches_oracle(cfg, params, x)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits, af", [   # float route; int64 fold; Python ints
    pytest.param(t, af, id=str(t) if af is AfKind.IDENTITY else f"{t}-{af.value}")
    for af in (AfKind.IDENTITY, AfKind.RELU) for t in (8, 32, 48, 64)])
def test_batch_kernel_ties_round_to_even_after_bias(total_bits, af):
    # x * 2^(f-1) leaves a remainder of exactly half; the bias decides the
    # parity.  Among the sums are -1/2 and -3/2 ulp, which ReLU takes to 0
    # from either side of its rail, and sums past both of the format's rails.
    fmt = QFormat(total_bits, 3)
    f, lo, hi = fmt.frac_bits, fmt.raw_min, fmt.raw_max
    cfg = NetworkConfig((2, 4), max_fma=4, qformat=fmt, af_per_layer=(af,))
    biases = [0, 1, -1, 2]
    params = Params([LayerParams(np.array([[1 << (f - 1), hi]] * 4), np.array(biases))], fmt)
    rows = np.array([(1, 0), (-1, 0), (3, 0), (-3, 0), (0, lo), (0, hi)])
    sums = {x0 * (1 << (f - 1)) + x1 * hi + (b << f) for x0, x1 in rows.tolist() for b in biases}
    assert {-1 << (f - 1), -3 << (f - 1)} <= sums
    assert min(sums) < lo << f and max(sums) > hi << f
    batch = forward_quantized_batch(cfg, params, rows)
    for row, out in zip(rows.tolist(), batch.tolist()):
        x = [QValue(v, fmt) for v in row]
        oracle = [v.raw for v in forward_quantized(cfg, params, x)]
        engine, _ = run_inference(cfg, params, x)
        assert oracle == [v.raw for v in engine] == out, row


def _float_route(fmt, fan_in):
    return _limb_plan(fmt, fan_in)[4] is np.float64


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("fan_in, last_float_bits", [(196, 23), (256, 22), (511, 22), (512, 22)])
def test_float_route_boundary_engine_oracle_batch_agree(fan_in, last_float_bits):
    # The float route rounds the whole sum in float64; the width past it folds limbs.
    # Below 512, 23 bits is a one-limb plan (one matmul), yet only 196 takes the float route.
    assert _float_route(QFormat(last_float_bits, 3), fan_in)
    assert not _float_route(QFormat(last_float_bits + 1, 3), fan_in)
    n_a, _, n_w, _, _ = _limb_plan(QFormat(23, 3), fan_in)
    assert (n_a * n_w == 1) == (fan_in < 512)
    for total_bits in (last_float_bits, last_float_bits + 1):
        _assert_extreme_layer_agrees(QFormat(total_bits, 3), fan_in, AfKind.RELU)


@pytest.mark.parametrize("fan_in", [196, 512])
def test_float_route_sigmoid_layer_engine_oracle_batch_agree(fan_in):
    _assert_extreme_layer_agrees(QFormat(16, 3), fan_in, AfKind.SIGMOID)


def _limb_max(m, nb, n, i):
    """The largest |limb i| of _limbs' n-limb, nb-bit split of any v with |v| <= 2^m."""
    return (1 << nb) - 1 if i < n - 1 else 1 << max(0, m - (n - 1) * nb)


def _route_claim_holds(fmt, fan_in, m_a, m_w, z):
    """Whether the route _limb_plan picks for these operand bounds is exact,
    recomputed in Python ints from the worst-case operands: inputs that are
    multiples of 2^z with |a >> z| <= 2^m_a, |W| <= 2^m_w, |bias| <= 2^(t-1).

    Float route: every partial sum of (a @ W.T) * 2^-f + bias is a multiple
    of 2^u, u = min(z - f, 0), so it is exact while at most 2^53 of those.
    Else every limb product sum P_ij is at most 2^53, and on the int64 route
    the magnitudes of all the terms the fold adds to q and to r, and of q
    after the bias and the rounding, stay below 2^63.
    """
    t, f = fmt.total_bits, fmt.frac_bits
    n_a, nb_a, n_w, nb_w, dtype = _limb_plan(fmt, fan_in, m_a, m_w, z)
    bias = 1 << (t - 1)
    if dtype is np.float64:
        u = min(z - f, 0)
        return (fan_in << (m_a + m_w + z - f - u)) + (bias << -u) <= 1 << 53
    assert n_a * nb_a >= m_a and n_w * nb_w >= m_w
    products, q, r = n_a * n_w, 0, 0
    for i in range(n_a):
        for j in range(n_w):
            p = fan_in * _limb_max(m_a, nb_a, n_a, i) * _limb_max(m_w, nb_w, n_w, j)
            if p > 1 << 53:
                return False
            s = z + i * nb_a + j * nb_w   # where _exact_layer folds P_ij
            if s >= f:
                q += p << (s - f)
            elif s + 53 + products.bit_length() < 63:
                r += p << s
            else:
                q += (p >> (f - s)) + 1
                r += ((1 << (f - s)) - 1) << s
    q += (r >> f) + 1 + bias + 1   # r's multiples of 2^f, the bias, the rounding
    return dtype is object or max(q, r, 1 << f) < 1 << 63   # round_quotient adds 1 to r < 2^f


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
def test_limb_plan_route_claims_hold_for_worst_case_operands():
    # Every format 4..64 bits at int_bits 1, 3 and t, every fan-in on each
    # side of a bit-length boundary through 2^20; the format's worst case (z
    # = 0, m_a = m_w = t - 1) and data-sized bounds: coarser inputs (z up to
    # f, with a >> z still inside the format) and half-width weights.
    fan_ins = sorted({1} | {v for b in range(1, 21) for v in ((1 << b) - 1, 1 << b)})
    for t in range(4, 65):
        for int_bits in sorted({1, 3, t}):
            fmt = QFormat(t, int_bits)
            f = fmt.frac_bits
            for fan_in in fan_ins:
                for z in sorted({0, f // 2, f}):
                    for m_w in sorted({t // 2, t - 1}):
                        assert _route_claim_holds(fmt, fan_in, max(1, t - 1 - z), m_w, z), \
                            (t, int_bits, fan_in, z, m_w)


def _assert_extreme_layer_agrees(fmt, fan_in, hidden):
    """Engine = oracle = batch on a fan_in:6:2 network at the extremes of fmt.

    Row 0 is all raw_min: against all-raw_min weights and a raw_max bias it is
    the largest same-sign sum (the upper rail), against all-raw_max weights
    and a raw_min bias the lower rail.  Rows 1 and 2 are (+-1, raw_min, ...):
    against (2^(f-1), raw_min, raw_max, ...) weights the partial sums swing by
    2^(2t-2), yet the sum stays small and is a tie of either sign, which the
    biases 0, 1, -1 and 2 then round both ways.
    """
    f, lo, hi = fmt.frac_bits, fmt.raw_min, fmt.raw_max
    pairs = (fan_in - 1) // 2
    tie_w = [1 << (f - 1)] + [lo, hi] * pairs + [0] * (fan_in - 1 - 2 * pairs)
    w0 = np.array([[lo] * fan_in, [hi] * fan_in] + [tie_w] * 4, dtype=np.int64)
    b0 = np.array([hi, lo, 0, 1, -1, 2], dtype=np.int64)
    w1 = np.array([[hi, lo, hi, lo, hi, lo], [1, -1, 0, 2, -2, 3]], dtype=np.int64)
    params = Params([LayerParams(w0, b0), LayerParams(w1, np.array([0, -1]))], fmt)
    cfg = NetworkConfig((fan_in, 6, 2), max_fma=6, qformat=fmt, af_per_layer=(hidden, AfKind.IDENTITY))
    rows = np.array([[lo] * fan_in, [1] + [lo] * (fan_in - 1), [-1] + [lo] * (fan_in - 1)])
    for sign, row in zip((1, -1), rows[1:]):
        exact = sum(int(v) * int(w) for v, w in zip(row, tie_w))
        assert exact % (1 << f) == 1 << (f - 1) and abs(exact >> f) < hi, sign
    batch = forward_quantized_batch(cfg, params, rows)
    hidden_batch = forward_quantized_batch(
        NetworkConfig((fan_in, 6), max_fma=6, qformat=fmt, af_per_layer=(AfKind.IDENTITY,)),
        Params(params.layers[:1], fmt), rows)
    assert hidden_batch[0, :2].tolist() == [hi, lo]   # both rails reached
    for row, out in zip(rows, batch):
        x = [QValue(int(v), fmt) for v in row]
        oracle = [v.raw for v in forward_quantized(cfg, params, x)]
        engine, _ = run_inference(cfg, params, x)
        assert oracle == [v.raw for v in engine] == out.tolist(), (str(fmt), fan_in)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", [8, 32, 64])   # float route; int64 fold; Python ints
@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS + 1])   # the last crosses a chunk edge
def test_batch_runner_returns_int64_for_any_row_count(total_bits, rows):
    fmt = QFormat(total_bits, 3)
    cfg = NetworkConfig((196, 64, 32, 32, 10), qformat=fmt)
    params = quantize_params(init_params(cfg, seed=0), fmt)
    x = np.random.default_rng(rows).integers(0, 1 << 10, (rows, 196), dtype=np.uint16)
    x_raw = quantize_array(x * 2.0 ** -10, fmt)
    out = prepare_batch(cfg, params)(x, 10)
    assert out.dtype == np.int64 and out.shape == (rows, 10)
    np.testing.assert_array_equal(out, forward_quantized_batch(cfg, params, x_raw))
    for i in sorted({0, rows - 2, rows - 1} & set(range(rows))):   # row 0, each side of the edge
        oracle = forward_quantized(cfg, params, [QValue(v, fmt) for v in x_raw[i].tolist()])
        assert [v.raw for v in oracle] == out[i].tolist(), i


def _code_rows(rows, s, seed):
    """rows fold-code vectors of width 196 below 2^s: random, with the
    smallest codes, the codes around half of 2^s and the top codes at the
    front of row 0, and the top code 2^s - 1 across the last row."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << s, size=(rows, 196), dtype=np.uint16)
    if rows:
        top, half = (1 << s) - 1, 1 << (s - 1)
        special = [0, 1, 2, 3, half - 1, half, half + 1, top - 2, top - 1, top]
        codes[0, :len(special)] = special
        codes[-1] = top
    return codes


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", [4, 5, 8, 16, 32, 53, 54, 64])
@pytest.mark.parametrize("int_bits", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS + 1])   # the last crosses a chunk edge
def test_batch_runner_on_real_rows_equals_quantize_then_raw_entry(total_bits, int_bits, rows):
    """The runner rescales each row chunk of fold codes itself: bit-equal to
    quantize_array of the real rows code * 2^-s then the raw-code entry, and
    to the scalar oracle, for the mean fold's s = 10 and the byte folds' 8."""
    fmt = QFormat(total_bits, int_bits)
    cfg = NetworkConfig((196, 6, 3), max_fma=6, qformat=fmt)
    params = quantize_params(init_params(cfg, seed=3), fmt)
    run = prepare_batch(cfg, params)
    for s in (8, 10):
        codes = _code_rows(rows, s, seed=total_bits + rows + s)
        x = codes * 2.0 ** -s
        x_raw = quantize_array(x, fmt)
        out = run(codes, s)
        assert out.dtype == np.int64 and out.shape == (rows, 3)
        np.testing.assert_array_equal(out, forward_quantized_batch(cfg, params, x_raw))
        for i in sorted({0, rows - 2, rows - 1} & set(range(rows))):   # row 0, each side of the edge
            x_q = [quantize(v, fmt) for v in x[i].tolist()]
            assert [v.raw for v in x_q] == x_raw[i].tolist(), i
            assert [v.raw for v in forward_quantized(cfg, params, x_q)] == out[i].tolist(), i


def _top_code_saturates(s, fmt):
    """True if the top code 2^s - 1, as the real (2^s - 1) / 2^s, rounds past raw_max."""
    return round(Fraction((1 << s) - 1, 1 << s) * (1 << fmt.frac_bits)) > fmt.raw_max


def _spy(monkeypatch, owner, name, calls, record=lambda a, *args: np.array(a)):
    """Wrap owner.name so each call appends record(*its positional arguments),
    by default a copy of the first, to calls."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _input_stage(fmt, monkeypatch):
    """(run, operands, clipped, bounds): the runner of one identity layer 196
    -> 196 at fmt, with the first layer's operand of each chunk recorded in
    operands, the bound (m_a, z) stated with it in bounds, and each
    np.minimum call, the input stage's upper clip, in clipped.  The weight is
    1.0, so the outputs are the operand; Q<t,1> holds no 1.0 and its weights
    are 0."""
    one = np.eye(196, dtype=np.int64) * (1 << fmt.frac_bits if fmt.int_bits > 1 else 0)
    cfg = NetworkConfig((196, 196), max_fma=196, qformat=fmt, af_per_layer=(AfKind.IDENTITY,))
    run = prepare_batch(cfg, Params([LayerParams(one, np.zeros(196, np.int64))], fmt))
    operands, clipped, bounds = [], [], []

    def record(a, *args):
        bounds.append(args[-2:])   # (m_a, z), _exact_layer's last two arguments
        return np.array(a)

    _spy(monkeypatch, model, "_exact_layer", operands, record)
    _spy(monkeypatch, np, "minimum", clipped)
    return run, operands, clipped, bounds


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", [4, 8, 32, 53, 54, 64])
def test_batch_input_stage_clips_only_a_chunk_past_the_rails(total_bits, monkeypatch):
    """The runner's first operand is quantize_array of the rescaled codes, and
    through an identity layer so are its outputs, for a format that holds the
    top code (Q<t,3>: no clip) and one where it rounds past raw_max (Q<t,1>
    below 8 fraction bits: clipped).  The format decides the clip, so a
    chunk without the top code is clipped or not alike."""
    inside = np.random.default_rng(total_bits).integers(0, 255, size=(5, 196), dtype=np.uint16)
    outside = inside.copy()
    outside[3, 7] = 255   # the only top code
    for int_bits in (3, 1):
        fmt = QFormat(total_bits, int_bits)
        run, operands, clipped, _ = _input_stage(fmt, monkeypatch)
        clips = int(_top_code_saturates(8, fmt))
        assert clips == (int_bits == 1 and total_bits <= 8)
        for x in (inside, outside):
            operands.clear()
            clipped.clear()
            out = run(x, 8)
            assert len(clipped) == clips
            np.testing.assert_array_equal(operands[0], quantize_array(x * 2.0 ** -8, fmt))
            if int_bits > 1:
                np.testing.assert_array_equal(out, operands[0])
        monkeypatch.undo()


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("s", [8, 10])
@pytest.mark.parametrize("int_bits", [1, 3, "t"])
@pytest.mark.parametrize("total_bits", [4, 5, 8, 9, 10, 11, 16, 32, 53, 54, 64])
def test_batch_input_stage_rescales_every_code_exactly(total_bits, int_bits, s, monkeypatch):
    """Every code 0 ... 2^s - 1 becomes quantize_array's raw of code * 2^-s in
    the first layer's operand (float64 through 53 bits, int64 beyond) and,
    through an identity layer, in the outputs, at 0, 1 and CHUNK_ROWS + 1
    rows; the upper clip runs once per chunk exactly where the top code
    rounds past raw_max; and every operand keeps the bound stated with it:
    a multiple of 2^z with |a >> z| <= 2^m_a."""
    fmt = QFormat(total_bits, total_bits if int_bits == "t" else int_bits)
    run, operands, clipped, bounds = _input_stage(fmt, monkeypatch)
    forced = _top_code_saturates(s, fmt)
    # Top code first, so one row holds it; CHUNK_ROWS + 1 rows hold every code.
    every = np.arange((1 << s) - 1, -1, -1, dtype=np.uint16)
    for rows in (0, 1, CHUNK_ROWS + 1):
        codes = np.resize(every, (rows, 196))
        want = quantize_array(codes * 2.0 ** -s, fmt)
        operands.clear()
        clipped.clear()
        bounds.clear()
        out = run(codes, s)
        chunks = -(-rows // CHUNK_ROWS)
        assert len(operands) == len(bounds) == chunks and len(clipped) == chunks * forced
        for lo, a, (m_a, z) in zip(range(0, rows, CHUNK_ROWS), operands, bounds):
            assert a.dtype == (np.float64 if total_bits <= 53 else np.int64)
            np.testing.assert_array_equal(a, want[lo:lo + CHUNK_ROWS])
            k = a.astype(np.int64)
            assert z >= 0 and not (k & ((1 << z) - 1)).any(), (m_a, z)
            assert np.abs(k >> z).max() <= 1 << m_a, (m_a, z)
        if fmt.int_bits > 1:
            np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("fold", ["mean", "max"])
def test_batch_kernel_plans_from_stated_bounds_not_scans(fold, monkeypatch):
    """On the benchmark network at Q<32,3>, where no layer's worst case is
    the float route, the code entry plans its first layer at the bound the
    format and s state and every later one at the format's (t - 1, 0), with
    no reduce over an operand; the raw entry measures each chunk once."""
    fmt = QFormat(32, 3)
    f, s = fmt.frac_bits, {"mean": 10, "max": 8}[fold]
    cfg = dataclasses.replace(BENCH, qformat=fmt)
    params = quantize_params(init_params(cfg, seed=0), fmt)
    run = prepare_batch(cfg, params)
    codes = _code_rows(CHUNK_ROWS + 1, s, seed=s)   # two chunks
    plans, reduces = [], []
    _spy(monkeypatch, model, "_limb_plan", plans, lambda _, *args: args)   # (fan_in, m_a, m_w, z)
    ored = types.SimpleNamespace(reduce=np.bitwise_or.reduce)
    _spy(monkeypatch, ored, "reduce", reduces)
    monkeypatch.setattr(np, "bitwise_or", ored)
    out = run(codes, s)
    bounds = [(s, f - s)] + [(fmt.total_bits - 1, 0)] * 3
    want = [(lp.weights.shape[1], m_a, model._bits(lp.weights), z)
            for lp, (m_a, z) in zip(params.layers, bounds)]
    assert plans == want * 2 and reduces == []
    plans.clear()
    x_raw = quantize_array(codes * 2.0 ** -s, fmt)
    np.testing.assert_array_equal(forward_quantized_batch(cfg, params, x_raw), out)
    assert len(reduces) == 2
    planned = [p for p in plans if len(p) == 4]   # the runner's set-up asks for worst cases
    assert len(planned) == 8 and planned[1:4] == planned[5:8] == want[1:]


@pytest.mark.parametrize("dtype", ["int16", "int64", "float64", "bool"])
def test_batch_runner_refuses_codes_that_are_not_unsigned(dtype):
    cfg = NetworkConfig((196, 10))
    run = prepare_batch(cfg, quantize_params(init_params(cfg, seed=0), cfg.qformat))
    with pytest.raises(ConfigError, match=f"^fold codes must be unsigned integers, got {dtype}$"):
        run(np.zeros((2, 196), dtype), 10)
    assert run(np.zeros((2, 196), np.uint8), 8).shape == (2, 10)


def test_check_input_compares_each_distinct_format_once(monkeypatch):
    cfg = NetworkConfig((196, 10))
    params = quantize_params(init_params(cfg, seed=0), cfg.qformat)
    fmt = QFormat(8, 3)   # equal to cfg.qformat, not the same object
    assert fmt is not cfg.qformat
    x = [QValue(i % 7, fmt) for i in range(196)]
    engine = Engine(cfg, params)
    eq, calls = QFormat.__eq__, []

    def counting_eq(self, other):
        calls.append(self is fmt or other is fmt)
        return eq(self, other)

    monkeypatch.setattr(QFormat, "__eq__", counting_eq)
    for forward in (lambda: engine.run(x), lambda: forward_quantized(cfg, params, x)):
        calls.clear()
        forward()
        assert sum(calls) <= 1


@pytest.mark.parametrize("shape", [(), (2,), (1, 2, 1)])
def test_batch_rejects_inputs_that_are_not_2d(shape):
    cfg = NetworkConfig((2, 1), max_fma=1)
    params = Params([LayerParams(np.zeros((1, 2), np.int64), np.zeros(1, np.int64))], Q83)
    with pytest.raises(ConfigError, match=re.escape("expected raw inputs of shape [N, 2]")):
        forward_quantized_batch(cfg, params, np.zeros(shape, np.int64))


def test_batch_rejects_an_empty_batch_of_the_wrong_width():
    cfg = NetworkConfig((196, 10))
    params = quantize_params(init_params(cfg, seed=0), cfg.qformat)
    with pytest.raises(ConfigError, match="input length 5 != input dimension 196"):
        forward_quantized_batch(cfg, params, np.zeros((0, 5), np.int64))
    assert forward_quantized_batch(cfg, params, np.zeros((0, 196), np.int64)).shape == (0, 10)


def test_batch_checks_the_raw_inputs_of_every_chunk():
    cfg = NetworkConfig((2, 1), max_fma=1)
    params = Params([LayerParams(np.zeros((1, 2), np.int64), np.zeros(1, np.int64))], Q83)
    x = np.zeros((_CHUNK // 2 + 1, 2), np.int64)
    x[-1, 1] = 128   # the only code outside Q<8,3>, in the second chunk
    with pytest.raises(ValueError, match="raw inputs outside"):
        forward_quantized_batch(cfg, params, x)


def test_batch_rejects_out_of_range_raw_inputs():
    cfg = NetworkConfig((2, 1), max_fma=1)
    params = Params([LayerParams(np.zeros((1, 2), np.int64), np.zeros(1, np.int64))], Q83)
    for bad in (np.array([[0, 128]]), np.array([[-129, 0]]),
                np.array([[0, 1 << 70]], dtype=object)):
        with pytest.raises(ValueError, match="raw inputs outside"):
            forward_quantized_batch(cfg, params, bad)
    assert forward_quantized_batch(cfg, params, np.array([[-128, 127]])).tolist() == [[0]]


def test_batch_rejects_a_non_integer_in_an_object_array():
    cfg = NetworkConfig((2, 1), max_fma=1)
    params = Params([LayerParams(np.zeros((1, 2), np.int64), np.zeros(1, np.int64))], Q83)
    with pytest.raises(ConfigError, match="raw must be an integer, got 0.5"):
        forward_quantized_batch(cfg, params, np.array([[0, 0.5]], dtype=object))
    assert forward_quantized_batch(cfg, params, np.array([[0, 1]], dtype=object)).tolist() == [[0]]
