"""Engine = scalar oracle = batch kernel, bit for bit, over seeded random configs.

Each width 4..64 gets a random int_bits in 1..t and two cases, with fan-ins
on both sides of one of its format's _limb_plan boundaries.  Each case draws
a random depth, mode and activation mix (sigmoid through 16 bits), and, in
store mode, tiling with an array narrower than the widest layer.  The cases
of every other width hold only extreme raws, and in every case row 0 meets
raw_min weights and a raw_max bias in neuron 0 of layer 0.

The same cases also pin the engine's control sequence: its trace, its
LayerTimings and its MAC count must equal those derived from the README's
cycle rules alone.
"""

import numpy as np
import pytest

from hydrasim.datapath import AfKind
from hydrasim.engine import Engine, LayerTiming
from hydrasim.fxp import QFormat, QValue
from hydrasim.model import (
    LayerParams,
    Mode,
    NetworkConfig,
    Params,
    _limb_plan,
    forward_quantized,
    forward_quantized_batch,
)


def _boundary_fan_ins(fmt):
    """(2^b - 1, 2^b) for every b <= 6 where the limb plan changes, or [(1, 1)]."""
    pairs = [((1 << b) - 1, 1 << b) for b in range(1, 7)
             if _limb_plan(fmt, (1 << b) - 1) != _limb_plan(fmt, 1 << b)]
    return pairs or [(1, 1)]


def _random_case(rng, fmt, fan_in, extreme):
    widths = [int(w) for w in rng.integers(1, 9, size=int(rng.integers(1, 4)))]
    kinds = [AfKind.RELU, AfKind.IDENTITY] + [AfKind.SIGMOID] * (fmt.total_bits <= 16)
    afs = tuple(kinds[int(rng.integers(len(kinds)))] for _ in widths)
    mode = (Mode.STORE_AND_FORWARD, Mode.STREAMED)[int(rng.integers(2))]
    tiled = mode is Mode.STORE_AND_FORWARD and max(widths) > 1 and rng.integers(2)
    max_fma = int(rng.integers(1, max(widths))) if tiled else max(widths) + int(rng.integers(3))
    cfg = NetworkConfig((fan_in, *widths), max_fma=max_fma, qformat=fmt,
                        af_per_layer=afs, mode=mode, tiling=bool(tiled))

    lo, hi = fmt.raw_min, fmt.raw_max

    def raws(*shape):
        if extreme:
            return rng.choice(np.array([lo, hi]), size=shape)
        return rng.integers(lo, hi, size=shape, endpoint=True)

    params = Params([LayerParams(raws(n, k), raws(n)) for k, n in
                     zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:])], fmt)
    # Row 0 against neuron 0 of layer 0 is the largest sum the format allows.
    x = raws(3, fan_in)
    x[0] = params.layers[0].weights[0] = lo
    params.layers[0].biases[0] = hi
    return cfg, params, x


def _cases(rng):
    """Two cases per width 4..64, one on each side of a random limb-plan boundary."""
    for total_bits in range(4, 65):
        fmt = QFormat(total_bits, int(rng.integers(1, total_bits + 1)))
        pairs = _boundary_fan_ins(fmt)
        for fan_in in pairs[int(rng.integers(len(pairs)))]:
            yield _random_case(rng, fmt, fan_in, extreme=total_bits % 2 == 0)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
def test_engine_oracle_and_batch_agree_on_random_configs():
    rng = np.random.default_rng(20260601)
    modes, tiled, sigmoid = set(), 0, 0
    for case, (cfg, params, x) in enumerate(_cases(rng)):
        modes.add(cfg.mode)
        tiled += cfg.max_fma < max(cfg.layer_sizes[1:])
        sigmoid += AfKind.SIGMOID in cfg.afs
        fmt = cfg.qformat
        batch = forward_quantized_batch(cfg, params, x).tolist()
        engine = Engine(cfg, params)
        for row, out in zip(x, batch):
            xq = [QValue(int(v), fmt) for v in row]
            oracle = [v.raw for v in forward_quantized(cfg, params, xq)]
            stepped = [v.raw for v in engine.run(xq)[0]]
            assert oracle == stepped == out, (case, str(fmt), cfg)
    assert modes == set(Mode) and tiled and sigmoid


def _pass_widths(cfg, l):
    """Layer l's pass widths: one pass, or ceil(n / max_fma) of them when tiled."""
    n = cfg.width_of(l)
    return [min(cfg.max_fma, n - off) for off in range(0, n, cfg.max_fma)]


def _expected_trace(cfg):
    """(phase, layer, active_fma) of every cycle, from the README's cycle rules.

    Per pass: inputs MAC cycles, one PISO capture, width serialize cycles, then
    layer_done (ann_done after the net's last pass).  In streamed mode the next
    layer's MAC rides on serialize cycles 2..width+1, under this layer's label,
    and that layer's own pass starts at its PISO capture.
    """
    streamed = cfg.mode is Mode.STREAMED
    seq = []
    for l in range(cfg.n_layers):
        widths = _pass_widths(cfg, l)
        feeds = cfg.width_of(l + 1) if streamed and l + 1 < cfg.n_layers else 0
        for j, w in enumerate(widths):
            if not (streamed and l):
                seq += [("mac", l, w)] * cfg.inputs_of(l)
            seq += [("piso_load", l, 0), ("serialize", l, 0)] + [("serialize", l, feeds)] * (w - 1)
            last = l == cfg.n_layers - 1 and j == len(widths) - 1
            seq.append(("ann_done" if last else "layer_done", l, feeds))
    return seq


def _expected_timing(cfg):
    """Every LayerTiming, from the README's cycle rules.

    Store mode: a layer costs the sum of inputs + width + 2 over its passes.
    Streamed mode: each layer's first output comes inputs + 2 cycles after the
    previous layer's, which is where that layer starts.
    """
    streamed = cfg.mode is Mode.STREAMED and cfg.n_layers > 1
    timings, start = [], 0
    for l in range(cfg.n_layers):
        inputs, widths = cfg.inputs_of(l), _pass_widths(cfg, l)
        total = inputs + 2 if streamed else sum(inputs + w + 2 for w in widths)
        timings.append(LayerTiming(
            layer=l, start_cycle=start, mac_cycles=inputs * len(widths),
            first_output_cycle=start + inputs + 2,
            serialize_cycles=sum(w + 1 for w in widths), total_cycles=total,
        ))
        start += total
    return timings


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
def test_engine_steps_the_cycle_sequence_of_the_readme_rules():
    rng = np.random.default_rng(20261018)
    overlapped = tiled = 0
    for case, (cfg, params, x) in enumerate(_cases(rng)):
        overlapped += cfg.mode is Mode.STREAMED and cfg.n_layers > 1
        tiled += any(len(_pass_widths(cfg, l)) > 1 for l in range(cfg.n_layers))
        trace = []
        engine = Engine(cfg, params, trace_hook=trace.append)
        _, report = engine.run([QValue(int(v), cfg.qformat) for v in x[0]])
        seq = _expected_trace(cfg)
        assert [(r.phase, r.layer, r.active_fma) for r in trace] == seq, (case, cfg)
        assert [r.cycle for r in trace] == list(range(1, len(seq) + 1))
        assert report.per_layer == _expected_timing(cfg), (case, cfg)
        assert report.total_cycles == sum(lt.total_cycles for lt in report.per_layer) \
            + cfg.softmax_cycles
        assert report.last_output_cycle == len(seq)
        # Gated units do no MAC: the count is the layers' MACs, cycle by cycle.
        macs = sum(cfg.inputs_of(l) * cfg.width_of(l) for l in range(cfg.n_layers))
        assert report.mac_ops == sum(r.active_fma for r in trace) == macs
    assert case + 1 == 122 and overlapped and tiled
