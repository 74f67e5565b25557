"""Model-layer tests: validation, quantization, golden forwards, trainer, file I/O."""

import json
import math

import numpy as np
import pytest

from conftest import random_quantized_case, synthetic_digits
from hydrasim.datapath import AfKind
from hydrasim.errors import ConfigError, ParamsFileError
from hydrasim.fxp import QFormat, QValue, dequantize, quantize
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
    quantize_array,
    quantize_params,
    save_params,
    train_minimal,
    validate,
)

Q83 = QFormat(8, 3)
BENCH = NetworkConfig((196, 64, 32, 32, 10))


# =============================================================================
# Config validation
# =============================================================================

def test_benchmark_config_valid():
    assert validate(BENCH) == []


def test_zero_width_layer_rejected():
    errors = validate(NetworkConfig((196, 0, 10)))
    assert any("layer size" in e for e in errors)


def test_oversized_layer_without_tiling_rejected():
    errors = validate(NetworkConfig((196, 65), max_fma=64))
    assert any("max_fma" in e for e in errors)
    assert validate(NetworkConfig((196, 65), max_fma=64, tiling=True)) == []


def test_af_count_mismatch_rejected():
    errors = validate(NetworkConfig((4, 2, 2), af_per_layer=(AfKind.RELU,)))
    assert any("af_per_layer" in e for e in errors)


def test_sigmoid_with_wide_format_rejected():
    errors = validate(
        NetworkConfig((4, 2), qformat=QFormat(32, 3), af_per_layer=(AfKind.SIGMOID,))
    )
    assert any("sigmoid" in e.lower() for e in errors)


def test_streamed_tiling_rejected():
    errors = validate(NetworkConfig((4, 100), max_fma=64, tiling=True, mode=Mode.STREAMED))
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
    assert dequantize(QValue(6, Q83)) == 0.1875


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


def test_quantization_error_bound():
    rng = np.random.RandomState(9)
    for fmt in (Q83, QFormat(16, 4)):
        xs = rng.uniform(fmt.min_value, fmt.max_value, 400)
        for x in xs:
            x = float(x)
            err = abs(dequantize(quantize(x, fmt)) - x)
            assert err <= 2.0 ** -(fmt.frac_bits + 1) + 1e-15


# =============================================================================
# Float forward pass
# =============================================================================

def test_forward_float_identityish_single_neuron():
    cfg = NetworkConfig((1, 1), max_fma=1, af_per_layer=(AfKind.RELU,))
    params = Params([LayerParams(np.array([[1.0]]), np.array([0.0]))], None)
    assert forward_float(cfg, params, [2.0])[0] == 2.0


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
    assert dequantize(out[0]) == 1.25


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


def test_per_step_rounding_differs_from_fused():
    cfg = NetworkConfig((2, 1), max_fma=1, af_per_layer=(AfKind.IDENTITY,))
    params = Params([LayerParams(np.array([[127, 127]]), np.array([0]))], Q83)
    x = [QValue(127, Q83), QValue(-128, Q83)]
    fused = forward_quantized(cfg, params, x)[0].raw
    stepped = forward_quantized(cfg, params, x, per_step_rounding=True)[0].raw
    assert fused == -4       # exact sum 127*(127-128) = -127 at product scale
    assert stepped == -128   # first step saturates at +max, second at -min


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


def test_train_rejects_empty_or_mismatched_data():
    cfg = NetworkConfig((196, 8, 10), max_fma=16)
    with pytest.raises(ConfigError):
        train_minimal(np.zeros((0, 196)), np.zeros(0, np.int64), cfg)
    with pytest.raises(ConfigError):
        train_minimal(np.zeros((4, 196)), np.zeros(3, np.int64), cfg)


def test_init_params_ranges():
    cfg = NetworkConfig((20, 10, 5), max_fma=16)
    params = init_params(cfg, seed=1)
    for lp, fan_in, fan_out in zip(params.layers, (20, 10), (10, 5)):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(lp.weights) <= limit)
        assert not lp.biases.any()


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


def test_load_truncated_file(tmp_path):
    cfg = NetworkConfig((6, 4), max_fma=8)
    path = tmp_path / "t.json"
    save_params(path, init_params(cfg, seed=0))
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(ParamsFileError, match="truncated or malformed"):
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


def test_load_bad_qformat_and_out_of_range_raws(tmp_path):
    path = tmp_path / "bad.json"
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
