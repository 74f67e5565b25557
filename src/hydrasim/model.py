"""Network configuration, parameters, golden models, and a minimal trainer.

The two forward passes here are the reference semantics for everything else:

  * forward_float      -- plain real-arithmetic dense network, the accuracy
                          reference used during training.
  * forward_quantized  -- per neuron: bias preload, exact wide accumulation,
                          one rounding, activation.  No cycle modeling.  This
                          is the bit-exact oracle the cycle engine must match.

forward_quantized_batch is a vectorized equivalent for dataset-scale work; it
is pinned bit-equal to the scalar oracle by tests, never by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .datapath import AfKind, activate_raw, build_sigmoid_lut
from .errors import ConfigError, ParamsFileError
from .fxp import (
    QFormat,
    QValue,
    acc_init_bias,
    acc_mac,
    acc_round,
    round_half_even_shift,
    saturate_raw,
)


class Mode(Enum):
    STORE_AND_FORWARD = "store"
    STREAMED = "stream"


def default_afs(n_layers: int) -> tuple[AfKind, ...]:
    """ReLU on hidden layers, identity on the output layer."""
    if n_layers == 1:
        return (AfKind.IDENTITY,)
    return (AfKind.RELU,) * (n_layers - 1) + (AfKind.IDENTITY,)


@dataclass(frozen=True)
class NetworkConfig:
    """Runtime network description: sizes, hardware bounds, formats, activations.

    layer_sizes[0] is the input dimension; the remaining entries are compute
    layer widths.  af_per_layer has one entry per compute layer (None picks
    the default ReLU/.../identity assignment).
    """

    layer_sizes: tuple[int, ...]
    max_fma: int = 64
    qformat: QFormat = QFormat(8, 3)
    af_per_layer: tuple[AfKind, ...] | None = None
    mode: Mode = Mode.STORE_AND_FORWARD
    softmax_cycles: int = 0
    tiling: bool = False

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if self.af_per_layer is not None:
            object.__setattr__(self, "af_per_layer", tuple(self.af_per_layer))

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def afs(self) -> tuple[AfKind, ...]:
        if self.af_per_layer is not None:
            return self.af_per_layer
        return default_afs(self.n_layers)

    @property
    def max_inputs(self) -> int:
        """Largest fan-in of any compute layer; sizes the accumulator guard bits."""
        return max(self.layer_sizes[:-1])

    def inputs_of(self, layer: int) -> int:
        return self.layer_sizes[layer]

    def width_of(self, layer: int) -> int:
        return self.layer_sizes[layer + 1]


def validate(cfg: NetworkConfig) -> list[str]:
    """Check every NetworkConfig invariant; returns one message per violation."""
    errors = []
    if len(cfg.layer_sizes) < 2:
        errors.append("layer_sizes needs at least an input dimension and one layer")
    if any(s < 1 for s in cfg.layer_sizes):
        errors.append(f"every layer size must be >= 1, got {cfg.layer_sizes}")
    if cfg.max_fma < 1:
        errors.append(f"max_fma must be >= 1, got {cfg.max_fma}")
    if cfg.af_per_layer is not None:
        if len(cfg.af_per_layer) != cfg.n_layers:
            errors.append(
                f"af_per_layer has {len(cfg.af_per_layer)} entries for "
                f"{cfg.n_layers} compute layers"
            )
        if any(not isinstance(k, AfKind) for k in cfg.af_per_layer):
            errors.append("af_per_layer entries must be AfKind values")
    if cfg.softmax_cycles < 0:
        errors.append(f"softmax_cycles must be >= 0, got {cfg.softmax_cycles}")
    if len(cfg.layer_sizes) >= 2 and all(s >= 1 for s in cfg.layer_sizes):
        oversized = [w for w in cfg.layer_sizes[1:] if w > cfg.max_fma]
        if oversized and not cfg.tiling:
            errors.append(
                f"layer widths {oversized} exceed max_fma={cfg.max_fma} and tiling is off"
            )
        if oversized and cfg.tiling and cfg.mode is Mode.STREAMED:
            errors.append("tiled layers require store-and-forward mode")
        if cfg.af_per_layer is None or len(cfg.af_per_layer) == cfg.n_layers:
            if AfKind.SIGMOID in cfg.afs and cfg.qformat.total_bits > 16:
                errors.append(
                    f"sigmoid LUT needs total_bits <= 16, got {cfg.qformat.total_bits}"
                )
    return errors


def ensure_valid(cfg: NetworkConfig) -> None:
    errors = validate(cfg)
    if errors:
        raise ConfigError("; ".join(errors))


@dataclass
class LayerParams:
    """One dense layer: weights [n, fan_in] and biases [n].

    Float params hold float64 values; quantized params hold int64 raw codes of
    a uniform QFormat kept on the enclosing Params.
    """

    weights: np.ndarray
    biases: np.ndarray


@dataclass
class Params:
    layers: list[LayerParams] = field(default_factory=list)
    qformat: QFormat | None = None

    @property
    def is_quantized(self) -> bool:
        return self.qformat is not None

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        sizes = [self.layers[0].weights.shape[1]]
        sizes.extend(lp.weights.shape[0] for lp in self.layers)
        return tuple(sizes)


def check_dims(params: Params, cfg: NetworkConfig) -> None:
    if params.layer_sizes != cfg.layer_sizes:
        raise ConfigError(
            f"parameter dimensions {params.layer_sizes} do not match "
            f"config layer_sizes {cfg.layer_sizes}"
        )


def raw_codes_outside(lp: LayerParams, fmt: QFormat) -> str | None:
    """'weights' or 'biases' if that array holds a raw code outside fmt, else None."""
    for name, arr in (("weights", lp.weights), ("biases", lp.biases)):
        if arr.size and (arr.min() < fmt.raw_min or arr.max() > fmt.raw_max):
            return name
    return None


# =============================================================================
# Quantization
# =============================================================================

def quantize_array(x, fmt: QFormat) -> np.ndarray:
    """Vectorized quantize: nearest (ties to even) with saturation, as int64 raws."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    scaled = x * float(1 << fmt.frac_bits)
    # np.rint rounds halves to even, matching the scalar quantize exactly.
    return np.clip(np.rint(scaled), fmt.raw_min, fmt.raw_max).astype(np.int64)


def quantize_params(params: Params, fmt: QFormat) -> Params:
    """Element-wise post-training quantization of float params."""
    if params.is_quantized:
        raise ConfigError("parameters are already quantized")
    out = []
    for l, lp in enumerate(params.layers):
        for name, arr in (("weight", lp.weights), ("bias", lp.biases)):
            bad = np.argwhere(~np.isfinite(np.asarray(arr, dtype=np.float64)))
            if bad.size:
                idx = tuple(int(i) for i in bad[0])
                raise ConfigError(f"layer {l} {name}{list(idx)} is not finite")
        out.append(LayerParams(quantize_array(lp.weights, fmt), quantize_array(lp.biases, fmt)))
    return Params(out, fmt)


# =============================================================================
# Forward passes
# =============================================================================

def _af_float(kind: AfKind, z: np.ndarray) -> np.ndarray:
    if kind is AfKind.RELU:
        return np.maximum(0.0, z)
    if kind is AfKind.SIGMOID:
        return 1.0 / (1.0 + np.exp(-z))
    return z


def forward_float(cfg: NetworkConfig, params: Params, x) -> np.ndarray:
    """Real-arithmetic dense forward pass with the config's activations."""
    if params.is_quantized:
        raise ConfigError("forward_float needs float parameters")
    check_dims(params, cfg)
    a = np.asarray(x, dtype=np.float64)
    if a.shape[-1] != cfg.layer_sizes[0]:
        raise ConfigError(
            f"input length {a.shape[-1]} != input dimension {cfg.layer_sizes[0]}"
        )
    for lp, kind in zip(params.layers, cfg.afs):
        a = _af_float(kind, a @ lp.weights.T + lp.biases)
    return a


def forward_quantized(
    cfg: NetworkConfig,
    params: Params,
    x,
    per_step_rounding: bool = False,
) -> list[QValue]:
    """Bit-exact functional model of the datapath, one neuron at a time.

    Default semantics are fused: exact wide accumulation and a single rounding
    at the neuron output.  per_step_rounding instead rounds and saturates the
    accumulator back to the storage format after every MAC; it exists for
    quantization-sensitivity experiments and is not what the hardware does.
    """
    if not params.is_quantized:
        raise ConfigError("forward_quantized needs quantized parameters")
    check_dims(params, cfg)
    fmt = params.qformat
    acts = list(x)
    if len(acts) != cfg.layer_sizes[0]:
        raise ConfigError(
            f"input length {len(acts)} != input dimension {cfg.layer_sizes[0]}"
        )
    for v in acts:
        if v.fmt != fmt:
            raise ConfigError(f"input format {v.fmt} != parameter format {fmt}")
    f = fmt.frac_bits
    for lp, kind in zip(params.layers, cfg.afs):
        lut = build_sigmoid_lut(fmt) if kind is AfKind.SIGMOID else None
        nxt = []
        for j in range(lp.weights.shape[0]):
            if per_step_rounding:
                raw = int(lp.biases[j])
                for k, a in enumerate(acts):
                    raw = saturate_raw(
                        round_half_even_shift((raw << f) + a.raw * int(lp.weights[j, k]), f),
                        fmt,
                    )
            else:
                acc = acc_init_bias(QValue(int(lp.biases[j]), fmt), cfg.max_inputs)
                for k, a in enumerate(acts):
                    acc = acc_mac(acc, a, QValue(int(lp.weights[j, k]), fmt))
                raw = acc_round(acc, fmt).raw
            nxt.append(QValue(activate_raw(kind, raw, fmt, lut), fmt))
        acts = nxt
    return acts


def forward_quantized_batch(cfg: NetworkConfig, params: Params, x_raw: np.ndarray) -> np.ndarray:
    """Vectorized forward_quantized over a batch of raw input vectors [N, D].

    Falls back to arbitrary-precision object arrays when the exact product sum
    could exceed int64 (wide formats with large fan-in).
    """
    if not params.is_quantized:
        raise ConfigError("forward_quantized_batch needs quantized parameters")
    check_dims(params, cfg)
    fmt = params.qformat
    a = np.asarray(x_raw)
    if a.ndim != 2 or a.shape[1] != cfg.layer_sizes[0]:
        raise ConfigError(f"expected raw inputs of shape [N, {cfg.layer_sizes[0]}]")
    for lp, kind in zip(params.layers, cfg.afs):
        fan_in = lp.weights.shape[1]
        # Worst case |sum| = (fan_in + 1) * 2^(2t-2); keep a safety bit.
        bits_needed = 2 * (fmt.total_bits - 1) + (fan_in + 1).bit_length()
        dtype = object if bits_needed > 62 else np.int64
        acc = np.dot(a.astype(dtype), lp.weights.T.astype(dtype))
        acc = acc + (lp.biases.astype(dtype) << fmt.frac_bits)
        raw = np.clip(round_half_even_shift(acc, fmt.frac_bits), fmt.raw_min, fmt.raw_max)
        lut = build_sigmoid_lut(fmt) if kind is AfKind.SIGMOID else None
        a = activate_raw(kind, raw.astype(np.int64), fmt, lut)
    return a


# =============================================================================
# Minimal deterministic trainer
# =============================================================================

def _init_from_rng(cfg: NetworkConfig, rng: np.random.Generator) -> Params:
    layers = []
    for fan_in, fan_out in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append(
            LayerParams(
                rng.uniform(-limit, limit, size=(fan_out, fan_in)),
                np.zeros(fan_out),
            )
        )
    return Params(layers, None)


def init_params(cfg: NetworkConfig, seed: int) -> Params:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, from PCG64(seed)."""
    return _init_from_rng(cfg, np.random.default_rng(seed))


def _af_deriv(kind: AfKind, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if kind is AfKind.RELU:
        return (z > 0.0).astype(np.float64)
    if kind is AfKind.SIGMOID:
        return a * (1.0 - a)
    return np.ones_like(z)


def train_minimal(
    x,
    labels,
    cfg: NetworkConfig,
    epochs: int = 3,
    lr: float = 0.05,
    seed: int = 0,
    batch_size: int = 32,
) -> Params:
    """Plain mini-batch SGD with softmax cross-entropy on the float forward pass.

    Single-threaded and bit-deterministic for a given seed; exists to
    manufacture realistic parameters at desk scale, not to chase accuracy.
    """
    ensure_valid(cfg)
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != cfg.layer_sizes[0]:
        raise ConfigError(f"expected training inputs of shape [N, {cfg.layer_sizes[0]}]")
    if x.shape[0] == 0:
        raise ConfigError("training dataset is empty")
    if x.shape[0] != labels.shape[0]:
        raise ConfigError("image/label count mismatch")
    n_classes = cfg.layer_sizes[-1]
    rng = np.random.default_rng(seed)
    params = _init_from_rng(cfg, rng)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            xb, yb = x[batch], labels[batch]
            # Forward with caches.
            acts = [xb]
            zs = []
            for lp, kind in zip(params.layers, cfg.afs):
                z = acts[-1] @ lp.weights.T + lp.biases
                zs.append(z)
                acts.append(_af_float(kind, z))
            # Softmax cross-entropy gradient at the output activation.
            logits = acts[-1]
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
            onehot = np.eye(n_classes)[yb]
            delta = (probs - onehot) / len(batch)
            for l in range(cfg.n_layers - 1, -1, -1):
                delta = delta * _af_deriv(cfg.afs[l], zs[l], acts[l + 1])
                gw = delta.T @ acts[l]
                gb = delta.sum(axis=0)
                if l > 0:
                    delta = delta @ params.layers[l].weights
                params.layers[l].weights -= lr * gw
                params.layers[l].biases -= lr * gb
    return params


# =============================================================================
# Parameter file I/O (plain JSON, schema v1)
# =============================================================================

PARAMS_FORMAT_VERSION = 1


def save_params(path, params: Params) -> None:
    """Write parameters as a self-describing JSON document (schema v1)."""
    if params.is_quantized:
        qf = {"total_bits": params.qformat.total_bits, "int_bits": params.qformat.int_bits}
        layers = [
            {
                "weights": [[int(v) for v in row] for row in lp.weights],
                "biases": [int(v) for v in lp.biases],
            }
            for lp in params.layers
        ]
    else:
        qf = "float"
        layers = [
            {
                "weights": [[float(v) for v in row] for row in lp.weights],
                "biases": [float(v) for v in lp.biases],
            }
            for lp in params.layers
        ]
    doc = {
        "format_version": PARAMS_FORMAT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "qformat": qf,
        "layers": layers,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_params(path) -> Params:
    """Read a schema-v1 parameter file; every malformation is a ParamsFileError."""
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParamsFileError(f"truncated or malformed parameter file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParamsFileError(f"{path}: top-level document must be an object")
    version = doc.get("format_version")
    if version != PARAMS_FORMAT_VERSION:
        raise ParamsFileError(
            f"{path}: unsupported format_version {version!r} "
            f"(expected {PARAMS_FORMAT_VERSION})"
        )
    try:
        sizes = [int(s) for s in doc["layer_sizes"]]
        qf_field = doc["qformat"]
        raw_layers = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamsFileError(f"{path}: missing or malformed field: {exc}") from exc
    if qf_field == "float":
        fmt = None
        dtype = np.float64
    else:
        try:
            fmt = QFormat(int(qf_field["total_bits"]), int(qf_field["int_bits"]))
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ParamsFileError(f"{path}: bad qformat field: {exc}") from exc
        dtype = np.int64
    if len(raw_layers) != len(sizes) - 1:
        raise ParamsFileError(
            f"{path}: {len(raw_layers)} layers for layer_sizes {sizes}"
        )
    layers = []
    for l, entry in enumerate(raw_layers):
        try:
            w = np.array(entry["weights"], dtype=dtype)
            b = np.array(entry["biases"], dtype=dtype)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParamsFileError(f"{path}: layer {l} is malformed: {exc}") from exc
        if w.ndim != 2 or w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
            raise ParamsFileError(
                f"{path}: layer {l} dims {w.shape}/{b.shape} do not match "
                f"layer_sizes header {sizes}"
            )
        if fmt is None and not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ParamsFileError(f"{path}: layer {l} contains non-finite values")
        if fmt is not None:
            # np.array(dtype=int64) truncated 1.7 and read true as 1 above.
            leaves = [*np.asarray(entry["weights"], dtype=object).flat, *entry["biases"]]
            if any(type(v) is not int for v in leaves):
                raise ParamsFileError(f"{path}: layer {l} holds non-integer raw codes")
            bad = raw_codes_outside(LayerParams(w, b), fmt)
            if bad:
                raise ParamsFileError(f"{path}: layer {l} {bad} contain raw codes outside {fmt}")
        layers.append(LayerParams(w, b))
    return Params(layers, fmt)
