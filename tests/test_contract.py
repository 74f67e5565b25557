"""One contract for every forward path.

The engine, forward_float, forward_quantized and forward_quantized_batch must
accept exactly the same (cfg, params, x), and reject each defect with the same
exception class and message.  A case is written in raw codes of a small
4:3:2 network; forward_float gets the same network and input as reals.  On a
path a case does not apply to, the same network must run.
"""

from __future__ import annotations

import numpy as np
import pytest

from hydrasim import (
    AfKind,
    ConfigError,
    Engine,
    LayerParams,
    Mode,
    NetworkConfig,
    Params,
    QFormat,
    QValue,
    forward_float,
    forward_quantized,
    forward_quantized_batch,
)

Q83, Q163 = QFormat(8, 3), QFormat(16, 3)
SIZES = (4, 3, 2)
PATHS = ("engine", "forward_float", "forward_quantized", "forward_quantized_batch")
QUANTIZED = ("engine", "forward_quantized", "forward_quantized_batch")


def _run(path, cfg=NetworkConfig(SIZES), shapes=((3, 4, 3), (2, 3, 2)), fmt=Q83, kind=None,
         raw=None, x=(QValue(1, Q83),) * 4):
    """Run one path on the network whose layer l has weights shapes[l][:2] and
    shapes[l][2] biases, with raw = (layer, field, code) written into it.
    kind forces the params' kind, else each path gets the kind it takes."""
    layers = [LayerParams(np.ones((n, k), np.int64), np.zeros(b, np.int64)) for n, k, b in shapes]
    if raw is not None:
        layer, field, code = raw
        getattr(layers[layer], field).flat[0] = code
    if (kind or ("float" if path == "forward_float" else "quantized")) == "float":
        params = Params([LayerParams(lp.weights * fmt.resolution, lp.biases * fmt.resolution)
                         for lp in layers], None)
    else:
        params = Params(layers, fmt)
    if path == "engine":
        return Engine(cfg, params).run(list(x))
    if path == "forward_float":
        return forward_float(cfg, params, [v.value for v in x])
    if path == "forward_quantized":
        return forward_quantized(cfg, params, list(x))
    return forward_quantized_batch(cfg, params, np.array([[v.raw for v in x]]))


# name: (overrides of _run, paths it applies to, exception class, message)
CASES = {
    "af_per_layer-short": (
        {"cfg": NetworkConfig(SIZES, af_per_layer=(AfKind.RELU,))}, PATHS, ConfigError,
        "af_per_layer has 1 entries for 2 compute layers"),
    "af_per_layer-long": (
        {"cfg": NetworkConfig(SIZES, af_per_layer=(AfKind.RELU,) * 2 + (AfKind.IDENTITY,))},
        PATHS, ConfigError, "af_per_layer has 3 entries for 2 compute layers"),
    "qformat-mismatch": (
        {"fmt": Q163}, QUANTIZED, ConfigError, "parameter format Q<16,3> != config format Q<8,3>"),
    "float-params": (
        {"kind": "float"}, QUANTIZED, ConfigError, "forward path needs quantized parameters"),
    "quantized-params": (
        {"kind": "quantized"}, ("forward_float",), ConfigError,
        "forward path needs float parameters"),
    "layer-count": (
        {"cfg": NetworkConfig((4, 3))}, PATHS, ConfigError,
        "parameter shapes [((3, 4), (3,)), ((2, 3), (2,))] do not match config layer_sizes (4, 3)"),
    "inner-fan-in": (
        {"shapes": ((3, 4, 3), (2, 5, 2))}, PATHS, ConfigError,
        "parameter shapes [((3, 4), (3,)), ((2, 5), (2,))] do not match config layer_sizes (4, 3, 2)"),
    "bias-length": (
        {"shapes": ((3, 4, 4), (2, 3, 2))}, PATHS, ConfigError,
        "parameter shapes [((3, 4), (4,)), ((2, 3), (2,))] do not match config layer_sizes (4, 3, 2)"),
    "weight-raw": (
        {"raw": (1, "weights", Q83.raw_max + 1)}, QUANTIZED, ValueError,
        "layer 1 weights contain raw codes outside Q<8,3>"),
    "bias-raw": (
        {"raw": (0, "biases", Q83.raw_min - 1)}, QUANTIZED, ValueError,
        "layer 0 biases contain raw codes outside Q<8,3>"),
    "input-length": (
        {"x": (QValue(1, Q83),) * 3}, PATHS, ConfigError, "input length 3 != input dimension 4"),
    "streamed-tiled": (
        {"cfg": NetworkConfig((4, 100, 2), mode=Mode.STREAMED),
         "shapes": ((100, 4, 100), (2, 100, 2))},
        PATHS, ConfigError, "tiled layers require store-and-forward mode"),
    "input-format": (
        {"x": (QValue(1, Q163),) * 4}, ("engine", "forward_quantized"), ConfigError,
        "input format Q<16,3> != config format Q<8,3>"),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", CASES)
def test_every_path_keeps_one_contract(case, path):
    overrides, paths, error, message = CASES[case]
    if path not in paths:
        _run(path, **overrides)
        return
    with pytest.raises(ValueError) as info:
        _run(path, **overrides)
    assert (type(info.value), str(info.value)) == (error, message)
