"""Network configuration, parameters, golden models, and a minimal trainer.

The two forward passes here are the reference semantics for everything else:

  * forward_float      -- plain real-arithmetic dense network, the accuracy
                          reference used during training.
  * forward_quantized  -- per neuron, on raw integers: bias preload, exact
                          integer accumulation, one rounding (fxp.round_acc,
                          shared with the engine), activation.  No cycle
                          modeling.  This is the bit-exact oracle the cycle
                          engine must match.

The batch kernel is a vectorized equivalent for dataset-scale work: an exact
float BLAS kernel at every width from 4 to 64 bits.  prepare_batch readies
it once per (config, params) and returns its runner: any number of rows of
a fold's exact integer codes in, int64 raw outputs out.  Each row chunk is
rescaled from its codes straight into the first layer's operand, then goes
through every layer in turn; forward_quantized_batch is the raw-code entry
to the same loops.  Each layer is one float32 or float64 matmul where the
bounds of its operands allow, else limb-split operands with integer
recombination, and one rounding either way, whose saturation is also a ReLU
layer's activation.  Each layer is planned once from the bound the stage
that makes its input states: the format for activations, the format and s
for codes; only the raw entry measures its operand, once per chunk.  The
kernel is pinned bit-equal to the scalar oracle by tests, never by
construction.

What a path needs of its config, parameters and input is stated once, in
check_forward and check_input.  The engine calls them too, so all four paths
accept exactly the same configs and reject the rest with the same error.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .datapath import AfKind, activate_raw, build_sigmoid_lut
from .errors import ConfigError, ParamsFileError
from .fxp import (_CHUNK, QFormat, QValue, as_int, quantize_array,
                  raw_code_peak, require_ints, round_acc, round_quotient)


class Mode(Enum):
    STORE_AND_FORWARD = "store"
    STREAMED = "stream"


def default_afs(n_layers: int) -> tuple[AfKind, ...]:
    """ReLU on hidden layers, identity on the output layer."""
    return (AfKind.RELU,) * (n_layers - 1) + (AfKind.IDENTITY,)


def read_json_object(path, error: type[ValueError]) -> tuple[dict, str]:
    """(document, text) of the ASCII JSON file at path, whose top level must
    be an object; an undecodable or malformed file raises error naming path."""
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"truncated or malformed JSON file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: top-level JSON value must be an object")
    return doc, text


def _json_fields(doc: dict, kinds: dict, required, prefix: str = "") -> dict:
    """Each field of the JSON object doc read by _json_value as its kind in
    kinds; an unknown field, or a missing one of required, is a ConfigError."""
    unknown = sorted(prefix + name for name in doc.keys() - kinds)
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown}")
    for name in required:
        if name not in doc:
            raise ConfigError(f"field {prefix}{name} is missing")
    return {name: _json_value(prefix + name, value, kinds[name]) for name, value in doc.items()}


def _json_value(name: str, value, kind):
    """value as kind, if its JSON type is exactly kind's: true is no integer,
    8.0 is not 8, an Enum is spelled by a member's value, a dict of kinds is
    an object of exactly those fields, a QFormat is an object of two
    integers, and (kind,) is an array of kind."""
    if isinstance(kind, tuple):
        items = enumerate(_json_value(name, value, list))
        return tuple(_json_value(f"{name}[{i}]", v, kind[0]) for i, v in items)
    if isinstance(kind, dict):
        return _json_fields(_json_value(name, value, dict), kind, kind, f"{name}.")
    if kind is QFormat:
        value = _json_value(name, value, {"total_bits": int, "int_bits": int})
    try:
        if kind is QFormat:
            return QFormat(**value)
        if issubclass(kind, Enum):
            return kind(value)
    except ValueError as exc:
        raise ConfigError(f"field {name}: {exc}") from None
    if type(value) is not kind:
        raise ConfigError(f"field {name} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class NetworkConfig:
    """Runtime network description: sizes, hardware bounds, formats, activations.

    layer_sizes[0] is the input dimension; the remaining entries are compute
    layer widths, each run in ceil(n / max_fma) passes.  af_per_layer has one
    entry per compute layer (None picks the default ReLU/.../identity assignment).
    """

    layer_sizes: tuple[int, ...]
    max_fma: int = 64
    qformat: QFormat = QFormat(8, 3)
    af_per_layer: tuple[AfKind, ...] | None = None
    mode: Mode = Mode.STORE_AND_FORWARD
    softmax_cycles: int = 0

    def __post_init__(self):
        """Each field must have its declared type (a numpy integer passes as an
        int, and becomes one); a value of another type is a ConfigError."""
        sizes = tuple(as_int(s, f"layer_sizes[{i}]") for i, s in enumerate(self.layer_sizes))
        object.__setattr__(self, "layer_sizes", sizes)
        for name in ("max_fma", "softmax_cycles"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name, kind in (("mode", Mode), ("qformat", QFormat)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.af_per_layer is not None:
            object.__setattr__(self, "af_per_layer", tuple(self.af_per_layer))
            for kind in self.af_per_layer:
                if not isinstance(kind, AfKind):
                    raise ConfigError(f"af_per_layer entries must be AfKind values, got {kind!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> NetworkConfig:
        """Build a config from its JSON form, as a --config file holds it.

        Values are type-checked, never coerced, and every defect, an unknown
        or missing field included, is a ConfigError naming the field.  The
        config's invariants are left to ensure_valid.
        """
        kinds = {"layer_sizes": (int,), "max_fma": int, "qformat": QFormat,
                 "af_per_layer": (AfKind,), "mode": Mode, "softmax_cycles": int}
        return cls(**_json_fields(doc, kinds, ("layer_sizes",)))

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def afs(self) -> tuple[AfKind, ...]:
        if self.af_per_layer is not None:
            return self.af_per_layer
        return default_afs(self.n_layers)

    def inputs_of(self, layer: int) -> int:
        return self.layer_sizes[layer]

    def width_of(self, layer: int) -> int:
        return self.layer_sizes[layer + 1]


def validate_layers(cfg: NetworkConfig) -> list[str]:
    """Check the layer sizes and the activation count, all that float training
    reads of a config; returns one message per violation."""
    errors = []
    if len(cfg.layer_sizes) < 2:
        errors.append("layer_sizes needs at least an input dimension and one layer")
    if any(s < 1 for s in cfg.layer_sizes):
        errors.append(f"every layer size must be >= 1, got {cfg.layer_sizes}")
    if cfg.af_per_layer is not None:
        if len(cfg.af_per_layer) != cfg.n_layers:
            errors.append(
                f"af_per_layer has {len(cfg.af_per_layer)} entries for "
                f"{cfg.n_layers} compute layers"
            )
    return errors


def validate(cfg: NetworkConfig) -> list[str]:
    """Check every NetworkConfig invariant; returns one message per violation."""
    errors = validate_layers(cfg)
    if cfg.max_fma < 1:
        errors.append(f"max_fma must be >= 1, got {cfg.max_fma}")
    if cfg.softmax_cycles < 0:
        errors.append(f"softmax_cycles must be >= 0, got {cfg.softmax_cycles}")
    if len(cfg.layer_sizes) >= 2 and all(s >= 1 for s in cfg.layer_sizes):
        if cfg.mode is Mode.STREAMED and max(cfg.layer_sizes[1:]) > cfg.max_fma:
            errors.append("tiled layers require store-and-forward mode")
        if cfg.af_per_layer is None or len(cfg.af_per_layer) == cfg.n_layers:
            if AfKind.SIGMOID in cfg.afs and cfg.qformat.total_bits > 16:
                errors.append(
                    f"sigmoid LUT needs total_bits <= 16, got {cfg.qformat.total_bits}"
                )
    return errors


def ensure_valid(cfg: NetworkConfig, rules=validate) -> None:
    errors = rules(cfg)
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


def raw_codes_outside(lp: LayerParams, fmt: QFormat) -> str | None:
    """'weights' or 'biases' if that array holds a raw code outside fmt, else None."""
    for name, arr in (("weights", lp.weights), ("biases", lp.biases)):
        if raw_code_peak(arr, fmt) is None:
            return name
    return None


def check_forward(cfg: NetworkConfig, params: Params, quantized: bool = True) -> None:
    """The one rule for (cfg, params) on every forward path, the engine's too:
    a valid cfg, and params of the path's kind in cfg.qformat, shaped as
    cfg.layer_sizes, with every raw code inside the format."""
    ensure_valid(cfg)
    if params.is_quantized != quantized:
        raise ConfigError(f"forward path needs {'quantized' if quantized else 'float'} parameters")
    fmt = cfg.qformat
    if quantized and params.qformat != fmt:
        raise ConfigError(f"parameter format {params.qformat} != config format {fmt}")
    sizes = cfg.layer_sizes
    shapes = [(lp.weights.shape, lp.biases.shape) for lp in params.layers]
    if shapes != [((n, k), (n,)) for k, n in zip(sizes, sizes[1:])]:
        raise ConfigError(f"parameter shapes {shapes} do not match config layer_sizes {sizes}")
    for l, lp in enumerate(params.layers if quantized else ()):
        bad = raw_codes_outside(lp, fmt)
        if bad:
            raise ValueError(f"layer {l} {bad} contain raw codes outside {fmt}")


def check_input(cfg: NetworkConfig, length: int, values=(), raws=None) -> int | None:
    """The one input rule: length values per vector, every element of values a
    QValue in cfg.qformat, and every raw code of the array raws an integer in it.
    Returns the largest |raw| of raws, None without raws."""
    if length != cfg.layer_sizes[0]:
        raise ConfigError(f"input length {length} != input dimension {cfg.layer_sizes[0]}")
    same = {id(cfg.qformat)}   # ids of formats found equal to cfg.qformat: one == each
    for i, v in enumerate(values):
        if not isinstance(v, QValue):
            raise ConfigError(f"input element {i} must be a QValue, got {v!r}")
        if id(v.fmt) not in same:
            if v.fmt != cfg.qformat:
                raise ConfigError(f"input format {v.fmt} != config format {cfg.qformat}")
            same.add(id(v.fmt))
    peak = None if raws is None else raw_code_peak(raws, cfg.qformat)
    if raws is not None and peak is None:
        raise ValueError(f"raw inputs outside {cfg.qformat}")
    return peak


# =============================================================================
# Quantization
# =============================================================================

# Every integer below 2^53 in magnitude is a float64, so a float64 matmul whose
# partial sums all stay below that bound is exact in any summation order.
_F64_EXACT_BITS = 53
def quantize_params(params: Params, fmt: QFormat) -> Params:
    """Element-wise post-training quantization of float params.

    Every layer's weights and biases are quantized in one quantize_array
    call; only a non-finite value sends it looking for the first one.
    """
    if params.is_quantized:
        raise ConfigError("parameters are already quantized")
    arrays = [np.asarray(a, dtype=np.float64) for lp in params.layers
              for a in (lp.weights, lp.biases)]
    flat = np.concatenate([a.reshape(-1) for a in arrays]) if arrays else np.empty(0)
    try:
        raws = quantize_array(flat, fmt)
    except ValueError:   # quantize_array refuses only non-finite values: name the first
        i, bad = next((i, np.argwhere(~np.isfinite(a))[0]) for i, a in enumerate(arrays)
                      if not np.isfinite(a).all())
        name = ("weight", "bias")[i % 2]
        raise ConfigError(f"layer {i // 2} {name}{bad.tolist()} is not finite") from None
    ends = np.cumsum([a.size for a in arrays])
    out = [r.reshape(a.shape) for r, a in zip(np.split(raws, ends[:-1]), arrays)]
    return Params([LayerParams(w, b) for w, b in zip(out[::2], out[1::2])], fmt)


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
    check_forward(cfg, params, quantized=False)
    a = np.asarray(x, dtype=np.float64)
    check_input(cfg, a.shape[-1] if a.ndim else 0)   # a 0-d input is no vector
    for lp, kind in zip(params.layers, cfg.afs):
        a = _af_float(kind, a @ lp.weights.T + lp.biases)
    return a


def forward_quantized(cfg: NetworkConfig, params: Params, x) -> list[QValue]:
    """Bit-exact functional model of the datapath, one neuron at a time.

    On raw integers, as FmaBank accumulates: each neuron starts from its bias
    at product scale, adds every product exactly, rounds once (round_acc) and
    activates.  QValues appear only at the input and the output.
    """
    check_forward(cfg, params)
    x = list(x)
    check_input(cfg, len(x), x)
    fmt = cfg.qformat
    acts = [v.raw for v in x]
    for lp, kind in zip(params.layers, cfg.afs):
        lut = build_sigmoid_lut(fmt) if kind is AfKind.SIGMOID else None
        sums = [sum(map(operator.mul, acts, row), b << fmt.frac_bits)
                for row, b in zip(lp.weights.tolist(), lp.biases.tolist())]
        acts = [activate_raw(kind, round_acc(s, fmt), fmt, lut) for s in sums]
    return [QValue(raw, fmt) for raw in acts]


def _limbs(x: np.ndarray, nb: int, n: int, z: int = 0):
    """The n float64 limbs of x >> z, low first: x >> z = sum_i limb_i << (i*nb).

    The low limbs are unsigned and the top limb is signed.  x is int64, or
    float integers where it is its own one limb (n = 1, z = 0).
    """
    for i in range(n):
        limb = x >> (z + i * nb) if z or i else x
        if i < n - 1:
            limb = limb & ((1 << nb) - 1)
        yield limb.astype(np.float64, copy=False)


def _bits(peak: int, z: int = 0) -> int:
    """The least m >= 1 with peak >> z <= 2^m: the m_a of multiples of 2^z up to peak."""
    return max(1, ((peak >> z) - 1).bit_length())


def _limb_plan(fmt: QFormat, fan_in: int, m_a: int | None = None, m_w: int | None = None,
               z: int = 0) -> tuple[int, int, int, int, type]:
    """(n_a, nb_a, n_w, nb_w, dtype): how _exact_layer splits and rounds one layer.

    The inputs a are multiples of 2^z with |a >> z| <= 2^m_a and the weights
    hold |W| <= 2^m_w; with no bounds given, the format's worst case m_a =
    m_w = t - 1 and z = 0.  a >> z is cut into n_a limbs of nb_a bits and W
    into n_w limbs of nb_w bits, with n_a * nb_a >= m_a, n_w * nb_w >= m_w and
    nb_a + nb_w + bitlen(fan_in) = 53, so every partial sum of fan_in limb
    products stays below 2^53.  Of those splits, the one with the fewest limb
    products wins, and on a tie the one that cuts the inputs into fewer limbs.

    dtype picks the rounding route.  float32 (p = 24), else float64 (p = 53),
    when one matmul of a against W * 2^-f plus the bias is the whole
    pre-rounding sum S = a @ W.T + (bias << f) times 2^-f, exactly: every
    partial sum is a multiple of 2^u, u = min(z - f, 0), and |a @ W.T| * 2^-f
    < 2^(bitlen(fan_in) + m_a + m_w + z - f) <= 2^(p - 1 + u) and |bias| <=
    2^(t - 1) <= 2^(p - 1 + u), so one np.rint rounds.  In the worst case at
    fan-in 196 that is through 8 and 23 bits.  Else the limb products are
    folded into the quotient and remainder of S by 2^f, in int64 when that
    provably fits, else in Python ints (object).
    """
    t, f = fmt.total_bits, fmt.frac_bits
    m_a = t - 1 if m_a is None else m_a
    m_w = t - 1 if m_w is None else m_w
    bits = fan_in.bit_length()
    budget = _F64_EXACT_BITS - bits   # fan_in * 2^budget < 2^53
    splits = []
    for n_a in range(-(-m_a // (budget - 1)), m_a + 1):
        nb_a = -(-m_a // n_a)   # |limb| <= 2^nb: the top limb holds m-(n-1)*nb bits
        nb_w = budget - nb_a
        splits.append((n_a * -(-m_w // nb_w), n_a, nb_a, nb_w))
    products, n_a, nb_a, nb_w = min(splits)
    n_w = products // n_a
    u = min(z - f, 0)
    for dtype, p in ((np.float32, 24), (np.float64, _F64_EXACT_BITS)):
        if max(bits + m_a + m_w + z - f, t - 1) <= p - 1 + u:
            return n_a, nb_a, n_w, nb_w, dtype
    # The limbs of a value bounded by 2^m weigh at most 1.5 * 2^m in all, so
    # |q| <= 2.25 * fan_in * 2^(m_a + m_w + z - f) + |bias| + products + 1 <
    # 2^63, and |r| < products * 2^(63 - bitlen(products)): the fold adds to r
    # each P_ij << s below 2^f, or whole where |P_ij << s| < 2^(53 + s) is that small.
    fits = max(t - 1, bits + m_a + m_w + 2 + z - f) < 63 and f + products.bit_length() < 64
    return n_a, nb_a, n_w, nb_w, np.int64 if fits else object


def _exact_layer(a: np.ndarray, lp: LayerParams, fmt: QFormat, plan: tuple,
                 ops: dict, rail: int) -> np.ndarray:
    """round_acc of each entry of a @ W.T + (bias << f), for in-range raws a,
    saturated to [rail, raw_max].

    rail is raw_min for round_acc itself and 0 for ReLU of it: clipping at
    integer bounds commutes with rounding to an integer, ties included, so
    on every route the one clip at the rounding point is both the saturation
    and the ReLU.

    a is int64, or float integers.  plan is _limb_plan's for the bound the
    stage that made a states, every entry a multiple of 2^z with |a >> z| <=
    2^m_a, with that z appended; no pass over a plans.  ops keeps the
    weights' operands per plan: W.T * 2^-f and the bias per float dtype,
    W.T's limbs per (nb_w, n_w).  Error-free operand splitting (Ozaki,
    Ogita, Oishi & Rump, Numer. Algorithms 59, 2012): float BLAS matmuls
    compute every limb product sum exactly, in any summation order.  The
    float route returns integers of its dtype, the others int64.
    """
    f = fmt.frac_bits
    n_a, nb_a, n_w, nb_w, dtype, z = plan
    if issubclass(dtype, np.floating):
        # A float matmul is as exact on k * 2^z as on k, and scaling by 2^-f
        # is exact, so it yields (a @ W.T) * 2^-f and adding the bias S * 2^-f.
        if dtype not in ops:
            ops[dtype] = np.multiply(lp.weights.T, 2.0 ** -f, dtype=dtype), lp.biases.astype(dtype)
        w_f, bias = ops[dtype]
        p = a.astype(dtype, copy=False) @ w_f
        p += bias
        np.clip(p, rail, fmt.raw_max, out=p)
        return np.rint(p, out=p)   # halves to even
    # Each limb product sum P_ij is folded into the quotient q and remainder r
    # of S by 2^f, so the bias adds to q unshifted, S is never formed and the
    # single rounding happens on (q, r).  Either starts as its first term.
    if (nb_w, n_w) not in ops:
        ops[nb_w, n_w] = [limb.T for limb in _limbs(lp.weights, nb_w, n_w)]
    q = r = None
    x = a if n_a == 1 and not z else a.astype(np.int64, copy=False)   # _limbs shifts int64
    for i, limb in enumerate(_limbs(x, nb_a, n_a, z)):
        for j, w_limb in enumerate(ops[nb_w, n_w]):
            # |P_ij| < 2^53, so the int64 cast is exact; object takes Python ints from it.
            p = (limb @ w_limb).astype(np.int64).astype(dtype, copy=False)
            s = z + i * nb_a + j * nb_w
            if s >= f:
                q = _fold(q, p, s - f)
            elif s + _F64_EXACT_BITS + (n_a * n_w).bit_length() < 63:   # r holds it whole
                r = _fold(r, p, s)
            else:
                q = _fold(q, p >> (f - s), 0)
                p &= (1 << (f - s)) - 1
                r = _fold(r, p, s)
    if r is not None:   # r's whole multiples of 2^f move to q
        q = _fold(q, r >> f, 0)
        r &= (1 << f) - 1
    q = round_quotient(_fold(q, lp.biases, 0), 0 if r is None else r, f)
    return np.clip(q, rail, fmt.raw_max, out=q).astype(np.int64, copy=False)


def _fold(total: np.ndarray | None, p: np.ndarray, shift: int) -> np.ndarray:
    """total + (p << shift), in place into total and p; p itself if total is None."""
    if shift:
        p <<= shift
    return p if total is None else np.add(total, p, out=total)


def _batch_runner(cfg: NetworkConfig, params: Params, what: str):
    """(run, plan_first): run(x, operand) gives the int64 raw outputs [N, out]
    of the input rows x [N, D], any N, with check_forward run and each
    layer's weight bits, lower rail and LUT readied once.  A ReLU layer's
    rail is 0, so _exact_layer's clip applies it and only a sigmoid layer
    calls activate_raw; identity keeps raw_min.  run checks the shape and
    width once, N = 0 included, then takes each row chunk of about _CHUNK
    elements through operand, which returns the first layer's operand with
    its plan_first(m_a, z) for the bound it keeps, and through every layer.
    A later layer's inputs are activations, raws of the format, so its
    bound is (t - 1, 0) and it is planned here, once."""
    check_forward(cfg, params)
    fmt = cfg.qformat
    layers = []
    for lp, kind in zip(params.layers, cfg.afs):
        lut = build_sigmoid_lut(fmt) if kind is AfKind.SIGMOID else None
        rail = 0 if kind is AfKind.RELU else fmt.raw_min
        layers.append((lp, _bits(raw_code_peak(lp.weights, fmt)), {}, rail, lut))

    def plan(l, m_a, z):   # layer l's _limb_plan for inputs bounded by (m_a, z), and z
        return *_limb_plan(fmt, cfg.inputs_of(l), m_a, layers[l][1], z), z

    later = [plan(l, fmt.total_bits - 1, 0) for l in range(1, cfg.n_layers)]

    def run(x, operand) -> np.ndarray:
        a = np.asarray(x)
        if a.ndim != 2:
            raise ConfigError(f"expected {what} inputs of shape [N, {cfg.layer_sizes[0]}]")
        check_input(cfg, a.shape[1])
        out = np.empty((len(a), cfg.layer_sizes[-1]), np.int64)
        step = max(1, _CHUNK // a.shape[1])
        for lo in range(0, len(a), step):
            h, first = operand(a[lo:lo + step])
            for (lp, _, ops, rail, lut), p in zip(layers, (first, *later)):
                h = _exact_layer(h, lp, fmt, p, ops, rail)
                if lut is not None:
                    h = activate_raw(AfKind.SIGMOID, h, fmt, lut)
            out[lo:lo + step] = h
        return out

    return run, lambda m_a, z: plan(0, m_a, z)


def prepare_batch(cfg: NetworkConfig, params: Params):
    """The batch kernel of (cfg, params), prepared once: run(codes, s) for the
    exact integer codes of half-folded images (dataio.fold_codes): rows
    [N, D] of unsigned codes below 2^s, each input being code * 2^-s.

    A row chunk's first operand is quantize_array's rule on codes * 2^-s,
    made straight from the codes: np.multiply(codes, 2^(f-s)) into the first
    layer's planned float dtype (float64 on a limb route), then np.rint in
    place only where f < s, then an upper clip only where the top code 2^s -
    1 rounds past raw_max (at int_bits 1 with f < s), so the format and s
    decide both and no pass over the data does.
    Codes are >= 0, so the lower rail never binds.  This is exact at every
    width: a code of fold_codes has at most 10 significant bits and 2^(f-s)
    is a power of two, so each product is exact, and np.rint then rounds it
    half to even as quantize does.  On a float route the operand is already
    of the matmul's dtype, so no chunk is cast twice; on a limb route it is
    float64 integers through 53 bits, and beyond it is cast to int64,
    exactly, since every value is below 2^f <= 2^63.

    The format and s also state the operand's bound, from which run(codes,
    s) plans the first layer once, before any chunk.  Where f >= s the
    operand is code * 2^(f-s) with code < 2^s: a multiple of 2^(f-s) whose
    quotient is below 2^s, so (m_a, z) = (s, f - s).  Where f < s,
    rint(code * 2^(f-s)) <= rint(2^f - 2^(f-s)) <= 2^f, and the clip only
    lowers it, so (m_a, z) = (max(1, f), 0).  A code dtype that is not
    unsigned is a ConfigError; that every code is below 2^s is fold_codes'
    guarantee (4 * 255 < 1024) and is not checked again, though it decides
    the plan: a larger code could take the first layer to a route its sums
    do not fit."""
    fmt = cfg.qformat
    f = fmt.frac_bits
    layers, plan_first = _batch_runner(cfg, params, "code")

    def run(codes, s: int) -> np.ndarray:
        codes = np.asarray(codes)
        if codes.dtype.kind != "u":
            raise ConfigError(f"fold codes must be unsigned integers, got {codes.dtype}")
        scale = 2.0 ** (f - s)
        clip = round(((1 << s) - 1) * scale) > fmt.raw_max   # round() is half to even, exact
        first = plan_first(*((s, f - s) if f >= s else (max(1, f), 0)))
        dtype = first[4] if issubclass(first[4], np.floating) else np.float64

        def operand(chunk):
            a = np.multiply(chunk, scale, dtype=dtype)
            if f < s:
                np.rint(a, out=a)
            if clip:
                np.minimum(a, fmt.raw_max, out=a)
            return (a.astype(np.int64) if fmt.total_bits > _F64_EXACT_BITS else a), first

        return layers(codes, operand)

    return run


def forward_quantized_batch(cfg: NetworkConfig, params: Params, x_raw: np.ndarray) -> np.ndarray:
    """Vectorized forward_quantized over raw input vectors [N, D]: the batch
    kernel with check_input's raw-code check as its input stage.  int64 and
    Python-int object arrays are both accepted.  Raw inputs carry no bound
    of their own, so each chunk's first layer is planned from a measure:
    the lowest set bit of the OR of its raws gives the common factor 2^z,
    and the largest |raw|, which check_input's range check reads anyway,
    the m_a of a >> z."""
    def operand(chunk):
        peak = check_input(cfg, chunk.shape[1], raws=chunk)
        a = chunk.astype(np.int64, copy=False)
        ored = int(np.bitwise_or.reduce(a, axis=None))
        z = (ored & -ored).bit_length() - 1 if ored else 0   # the lowest set bit of the OR
        return a, plan_first(_bits(peak, z), z)

    run, plan_first = _batch_runner(cfg, params, "raw")
    return run(x_raw, operand)


# =============================================================================
# Minimal deterministic trainer
# =============================================================================

def _rng(seed) -> np.random.Generator:
    """PCG64(seed), for an integer seed >= 0 (numpy's bare error names no seed)."""
    if as_int(seed, "seed") < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


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
    return _init_from_rng(cfg, _rng(seed))


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

    Bit-deterministic for a given seed and a fixed BLAS thread count: a BLAS
    that threads a large matmul may sum it in another order (seen with two
    OpenBLAS threads from batch size 128).  Exists to manufacture realistic
    parameters at desk scale, not to chase accuracy.  A run whose parameters
    turn non-finite (lr too large) stops after that epoch with a ConfigError.
    """
    ensure_valid(cfg, validate_layers)
    epochs, batch_size = as_int(epochs, "epochs"), as_int(batch_size, "batch_size")
    if not isinstance(lr, numbers.Real) or isinstance(lr, bool):
        raise ConfigError(f"lr must be a real number, got {lr!r}")
    if not (math.isfinite(lr) and lr >= 0 and epochs >= 0 and batch_size >= 1):
        raise ConfigError(f"need a finite lr >= 0, epochs >= 0 and batch_size >= 1, "
                          f"got {lr}, {epochs} and {batch_size}")
    rng = _rng(seed)
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    require_ints(labels, "label")   # never truncated: 2.5 is not trained as 2
    if x.ndim != 2 or x.shape[1] != cfg.layer_sizes[0]:
        raise ConfigError(f"expected training inputs of shape [N, {cfg.layer_sizes[0]}]")
    if x.shape[0] == 0:
        raise ConfigError("training dataset is empty")
    if x.shape[0] != labels.shape[0]:
        raise ConfigError("image/label count mismatch")
    n_classes = cfg.layer_sizes[-1]
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        raise ConfigError(f"label {labels[bad[0]]} at index {bad[0]} is not in "
                          f"0..{n_classes - 1} (the output layer has {n_classes} units)")
    labels = labels.astype(np.int64)
    params = _init_from_rng(cfg, rng)
    n = x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        # A diverging run overflows to inf and NaN; it is refused after the epoch.
        with np.errstate(over="ignore", invalid="ignore"):
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
        if not all(np.isfinite(a).all() for lp in params.layers for a in (lp.weights, lp.biases)):
            raise ConfigError(f"training diverged in epoch {epoch + 1}: non-finite parameters "
                              f"at lr={lr}")
    return params


# =============================================================================
# Parameter file I/O (plain JSON, schema v1)
# =============================================================================

PARAMS_FORMAT_VERSION = 1


def _check_finite(where: str, l: int, w: np.ndarray, b: np.ndarray) -> None:
    """A parameter file holds finite numbers only, on the way out and in."""
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise ParamsFileError(f"{where}: layer {l} contains non-finite values")


def save_params(path, params: Params) -> None:
    """Write parameters as a self-describing JSON document (schema v1).

    Non-finite values are refused before the file is opened, since
    load_params could not read them back.
    """
    dtype = np.int64 if params.is_quantized else np.float64
    layers = [(np.asarray(lp.weights, dtype), np.asarray(lp.biases, dtype))
              for lp in params.layers]
    for l, (w, b) in enumerate(layers):
        _check_finite(f"cannot write {path}", l, w, b)
    doc = {
        "format_version": PARAMS_FORMAT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "qformat": asdict(params.qformat) if params.is_quantized else "float",
        "layers": [{"weights": w.tolist(), "biases": b.tolist()} for w, b in layers],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _spells(text: str, word: str) -> bool:
    """word in text, found through its first letter.

    A one-letter find runs at memchr speed, and the numbers of a parameter
    file hold no t or f, so this stops only at the few keys that do, where
    `word in text` steps through every character in Python's string search.
    """
    i = text.find(word[0])
    while i >= 0:
        if text.startswith(word, i):
            return True
        i = text.find(word[0], i + 1)
    return False


def load_params(path) -> Params:
    """Read a schema-v1 parameter file; every malformation is a ParamsFileError.

    The header is read as NetworkConfig.from_dict reads a config: no value is
    coerced, and an unknown or missing field is an error naming it.
    """
    doc, text = read_json_object(path, ParamsFileError)
    version = doc.get("format_version")
    if type(version) is not int or version != PARAMS_FORMAT_VERSION:
        raise ParamsFileError(
            f"{path}: unsupported format_version {version!r} "
            f"(expected {PARAMS_FORMAT_VERSION})"
        )
    fields = {"format_version": int, "layer_sizes": (int,),
              "qformat": str if doc.get("qformat") == "float" else QFormat,
              "layers": ({"weights": list, "biases": list},)}
    try:
        head = _json_fields(doc, fields, fields)
    except ConfigError as exc:
        raise ParamsFileError(f"{path}: {exc}") from None
    sizes = head["layer_sizes"]
    fmt = None if head["qformat"] == "float" else head["qformat"]
    if not head["layers"] or len(head["layers"]) != len(sizes) - 1:
        raise ParamsFileError(f"{path}: {len(head['layers'])} layers for layer_sizes {list(sizes)}")
    # numpy infers int64 from [true, 2] and float64 from [true, 0.5], so a
    # file whose text spells a boolean has its leaves checked, as has an
    # object array (JSON null, or an integer past 64 bits).  Scanning every
    # file's leaves would add about a third to its load time.
    scan = _spells(text, "true") or _spells(text, "false")
    numeric, leaf, dtype = (("iuO", (int,), np.int64) if fmt
                            else ("iufO", (int, float), np.float64))
    layers = []
    for l, entry in enumerate(head["layers"]):
        try:
            w, b = np.array(entry["weights"]), np.array(entry["biases"])
        except ValueError as exc:   # a ragged array
            raise ParamsFileError(f"{path}: layer {l} is malformed: {exc}") from None
        if w.ndim != 2 or w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
            raise ParamsFileError(
                f"{path}: layer {l} dims {w.shape}/{b.shape} do not match "
                f"layer_sizes header {list(sizes)}"
            )
        kinds = {a.dtype.kind for a in (w, b) if a.size}   # [] is float64
        leaves = []
        if scan or "O" in kinds:
            leaves = [*np.asarray(entry["weights"], dtype=object).flat, *entry["biases"]]
        if not kinds <= set(numeric) or any(type(v) not in leaf for v in leaves):
            what = "non-integer raw codes" if fmt else "non-numeric values"
            raise ParamsFileError(f"{path}: layer {l} holds {what}")
        bad = raw_codes_outside(LayerParams(w, b), fmt) if fmt else None
        if bad:
            raise ParamsFileError(f"{path}: layer {l} {bad} contain raw codes outside {fmt}")
        try:
            w, b = w.astype(dtype, copy=False), b.astype(dtype, copy=False)
        except OverflowError as exc:   # an integer past the float64 range
            raise ParamsFileError(f"{path}: layer {l} holds {exc}") from None
        _check_finite(path, l, w, b)
        layers.append(LayerParams(w, b))
    return Params(layers, fmt)
