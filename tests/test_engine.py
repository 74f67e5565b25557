"""Engine tests: cycle fidelity, FSM behavior, modes, tiling, errors.

The benchmark cycle numbers (first output at 198, layer done at 262, the
66-cycle second layer, totals 470 / 332) are the anchor values for the whole
simulator and are asserted exactly.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import random_quantized_case
from hydrasim.datapath import ActivationUnit, AfKind, FmaBank
from hydrasim.engine import Engine, TraceRecord, classify, run_inference
from hydrasim.errors import ConfigError
from hydrasim.fxp import QFormat, QValue
from hydrasim.model import (
    LayerParams,
    Mode,
    NetworkConfig,
    Params,
    forward_quantized,
    forward_quantized_batch,
)
from test_differential import _expected_trace

Q83 = QFormat(8, 3)
BENCH_SIZES = (196, 64, 32, 32, 10)


def zero_params(cfg):
    layers = [
        LayerParams(np.zeros((n, k), dtype=np.int64), np.zeros(n, dtype=np.int64))
        for k, n in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:])
    ]
    return Params(layers, cfg.qformat)


def zeros_input(cfg):
    return [QValue(0, cfg.qformat)] * cfg.layer_sizes[0]


def bench_engine(mode=Mode.STORE_AND_FORWARD, softmax_cycles=0):
    cfg = NetworkConfig(BENCH_SIZES, mode=mode, softmax_cycles=softmax_cycles)
    return Engine(cfg, zero_params(cfg)), cfg


# =============================================================================
# Store-and-forward cycle fidelity
# =============================================================================

def test_benchmark_layer1_first_output_and_completion():
    engine, cfg = bench_engine()
    outputs, report = engine.run(zeros_input(cfg))
    assert report.per_layer[0].first_output_cycle == 198
    assert report.per_layer[0].start_cycle + report.per_layer[0].total_cycles == 262
    assert len(outputs) == 10


def test_benchmark_layer2_timing():
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg))
    l2 = report.per_layer[1]
    assert l2.first_output_cycle - l2.start_cycle == 66
    # serialization of the 32 outputs completes 32 cycles after the first one
    assert l2.start_cycle + l2.total_cycles == l2.first_output_cycle + 32


def test_benchmark_total_and_per_layer_totals():
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg))
    assert [lt.total_cycles for lt in report.per_layer] == [262, 98, 66, 44]
    assert report.total_cycles == 470
    assert report.last_output_cycle == 470
    assert report.total_cycles == sum(lt.total_cycles for lt in report.per_layer)


def test_per_layer_cycle_law_random_configs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        cfg, params, x = random_quantized_case(rng, Q83)
        _, report = run_inference(cfg, params, x)
        for lt in report.per_layer:
            inputs, n = cfg.inputs_of(lt.layer), cfg.width_of(lt.layer)
            assert lt.total_cycles == inputs + n + 2
            assert lt.first_output_cycle - lt.start_cycle == inputs + 2
            assert lt.mac_cycles == inputs
            assert lt.serialize_cycles == n + 1


def test_degenerate_one_input_one_neuron_layer():
    cfg = NetworkConfig((1, 1), max_fma=4)
    _, report = run_inference(cfg, zero_params(cfg), zeros_input(cfg))
    assert report.total_cycles == 4


def _first_cycles(trace):
    """The first cycle of each (phase, layer) in a trace."""
    firsts = {}
    for r in trace:
        firsts.setdefault((r.phase, r.layer), r.cycle)
    return firsts


def test_layer_boundaries_benchmark():
    trace = []
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg), trace_hook=trace.append)
    l0, l1 = report.per_layer[:2]
    # Each layer's first MAC, its first output and (store-and-forward) its end.
    assert (l0.start_cycle + 1, l0.first_output_cycle, l0.start_cycle + l0.total_cycles) \
        == (1, 198, 262)
    assert (l1.start_cycle + 1, l1.first_output_cycle) == (263, 328)
    firsts = _first_cycles(trace)
    assert [firsts[("mac", 0)], firsts[("serialize", 0)], firsts[("layer_done", 0)],
            firsts[("mac", 1)], firsts[("serialize", 1)]] == [1, 198, 262, 263, 328]
    assert (trace[-1].phase, trace[-1].layer, trace[-1].cycle) == ("ann_done", 3, 470)


def test_softmax_cycles_added_to_total():
    engine, cfg = bench_engine(softmax_cycles=20)
    _, report = engine.run(zeros_input(cfg))
    assert report.total_cycles == 490
    assert report.last_output_cycle == 470


def test_utilization_and_op_counts():
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg))
    mac_ops = 196 * 64 + 64 * 32 + 32 * 32 + 32 * 10
    assert report.mac_ops == mac_ops == 15936
    assert report.af_invocations == 64 + 32 + 32 + 10
    assert report.fma_utilization == mac_ops / (64 * 470)


# =============================================================================
# Streamed mode
# =============================================================================

def test_streamed_benchmark_totals():
    engine, cfg = bench_engine(mode=Mode.STREAMED)
    _, report = engine.run(zeros_input(cfg))
    assert report.total_cycles == 332
    assert [lt.total_cycles for lt in report.per_layer] == [198, 66, 34, 34]
    assert [lt.first_output_cycle for lt in report.per_layer] == [198, 264, 298, 332]
    assert report.last_output_cycle == 342
    assert report.total_cycles == sum(lt.total_cycles for lt in report.per_layer)


def test_streamed_first_output_law():
    engine, cfg = bench_engine(mode=Mode.STREAMED)
    _, report = engine.run(zeros_input(cfg))
    for lt in report.per_layer:
        assert lt.first_output_cycle - lt.start_cycle == cfg.inputs_of(lt.layer) + 2


def test_streamed_overlap_law_random_configs():
    """Each layer's stream starts inputs(l)+2 cycles after the previous one's."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        cfg, params, x = random_quantized_case(rng, Q83)
        _, report = run_inference(dataclasses.replace(cfg, mode=Mode.STREAMED), params, x)
        prev = 0
        for lt in report.per_layer:
            if cfg.n_layers > 1:
                assert lt.first_output_cycle - prev == cfg.inputs_of(lt.layer) + 2
            assert lt.first_output_cycle - lt.start_cycle == cfg.inputs_of(lt.layer) + 2
            prev = lt.first_output_cycle
        # drain tail of the final layer
        assert report.last_output_cycle == prev + cfg.layer_sizes[-1]


def test_modes_produce_identical_outputs():
    rng = np.random.default_rng(33)
    for _ in range(30):
        cfg, params, x = random_quantized_case(rng, Q83)
        sf, _ = run_inference(dataclasses.replace(cfg, mode=Mode.STORE_AND_FORWARD), params, x)
        st, _ = run_inference(dataclasses.replace(cfg, mode=Mode.STREAMED), params, x)
        assert sf == st


def test_single_layer_modes_equal_reports():
    cfg = NetworkConfig((6, 3), max_fma=4)
    params, x = zero_params(cfg), zeros_input(cfg)
    _, sf = run_inference(dataclasses.replace(cfg, mode=Mode.STORE_AND_FORWARD), params, x)
    _, st = run_inference(dataclasses.replace(cfg, mode=Mode.STREAMED), params, x)
    assert sf.total_cycles == st.total_cycles == 6 + 3 + 2
    assert [lt.total_cycles for lt in sf.per_layer] == [lt.total_cycles for lt in st.per_layer]


def test_streamed_trace_shows_overlapped_mac():
    trace = []
    engine, cfg = bench_engine(mode=Mode.STREAMED)
    engine.run(zeros_input(cfg), trace_hook=trace.append)
    by_cycle = {r.cycle: r for r in trace}
    assert len(trace) == 342
    # layer-1 MAC (32 units) runs during layer-0 store cycles 199..262
    assert by_cycle[198].phase == "serialize" and by_cycle[198].active_fma == 0
    assert by_cycle[199].active_fma == 32 and by_cycle[199].phase == "serialize"
    assert by_cycle[262].active_fma == 32
    assert by_cycle[263].phase == "piso_load" and by_cycle[263].active_fma == 0
    assert by_cycle[264].phase == "serialize"     # layer-1 first output
    # the final layer has no downstream consumer: its stores show no MAC
    assert all(by_cycle[c].active_fma == 0 for c in range(333, 343))


# =============================================================================
# Golden-model equivalence (sampled here; exhaustive sweep in acceptance)
# =============================================================================

def test_engine_matches_functional_golden_model():
    rng = np.random.default_rng(99)
    for _ in range(40):
        cfg, params, x = random_quantized_case(rng, Q83)
        golden = forward_quantized(cfg, params, x)
        for mode in (Mode.STORE_AND_FORWARD, Mode.STREAMED):
            outputs, _ = run_inference(dataclasses.replace(cfg, mode=mode), params, x)
            assert outputs == golden


def test_all_zero_input_zero_bias_relu_gives_zeros():
    cfg = NetworkConfig((196, 64, 10), af_per_layer=(AfKind.RELU, AfKind.RELU))
    outputs, _ = run_inference(cfg, zero_params(cfg), zeros_input(cfg))
    assert all(v.raw == 0 for v in outputs)


# =============================================================================
# Gating and the AF singleton
# =============================================================================

def test_exactly_one_activation_unit_per_engine():
    for width in (1, 7, 64):
        cfg = NetworkConfig((8, width), max_fma=64)
        before = ActivationUnit.instances_created
        Engine(cfg, zero_params(cfg))
        assert ActivationUnit.instances_created == before + 1


def test_gate_mask_popcount_tracks_layer_width():
    cfg = NetworkConfig((4, 3, 2), max_fma=5)
    trace = []
    Engine(cfg, zero_params(cfg)).run(zeros_input(cfg), trace_hook=trace.append)
    active_by_phase = [(r.layer, r.phase, r.active_fma) for r in trace if r.active_fma]
    # MAC activity is exactly n(l) units for inputs(l) cycles, nothing else.
    assert active_by_phase == [(0, "mac", 3)] * 4 + [(1, "mac", 2)] * 3


def test_gated_units_perform_zero_mac_steps():
    cfg = NetworkConfig((4, 3, 2), max_fma=5)
    params = zero_params(cfg)
    params.layers[0].biases[:] = [5, 6, 7]
    params.layers[1].biases[:] = [-3, 4]
    engine = Engine(cfg, params)
    _, report = engine.run(zeros_input(cfg))
    assert report.mac_ops == 4 * 3 + 3 * 2
    # Slots 3 and 4 are never armed, and the last pass arms slots 0 and 1
    # alone: the bank holds exactly those two lanes.
    bank, f = engine.fma_bank, cfg.qformat.frac_bits
    assert bank.read() == [-3 << f, 4 << f]
    assert bank.word == (-3 << f) + ((4 << f) << bank.lane_bits)


# =============================================================================
# Tiling
# =============================================================================

def test_oversized_layer_runs_in_passes():
    cfg = NetworkConfig((196, 65), max_fma=64)
    records = []
    Engine(cfg, zero_params(cfg)).run(zeros_input(cfg), trace_hook=records.append)
    assert [r.active_fma for r in records if r.phase == "mac"] == [64] * 196 + [1] * 196
    assert [r.phase for r in records].count("piso_load") == 2


def test_tiling_passes_and_cycle_cost():
    cfg = NetworkConfig((8, 100, 4), max_fma=64)
    params = zero_params(cfg)
    _, report = run_inference(cfg, params, zeros_input(cfg))
    # ceil(100/64) = 2 passes: (8+64+2) + (8+36+2) cycles for layer 0
    assert report.per_layer[0].total_cycles == 74 + 46
    assert report.per_layer[0].mac_cycles == 16
    assert report.per_layer[0].serialize_cycles == 65 + 37
    assert report.per_layer[1].total_cycles == 100 + 4 + 2
    assert report.af_invocations == 104


def test_tiling_outputs_match_golden():
    rng = np.random.default_rng(4)
    fmt = Q83
    sizes = (5, 70, 3)
    layers = [
        LayerParams(
            rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(n, k)).astype(np.int64),
            rng.integers(fmt.raw_min, fmt.raw_max + 1, size=n).astype(np.int64),
        )
        for k, n in zip(sizes[:-1], sizes[1:])
    ]
    params = Params(layers, fmt)
    cfg = NetworkConfig(sizes, max_fma=32)
    x = [QValue(int(v), fmt) for v in rng.integers(-128, 128, 5)]
    outputs, _ = run_inference(cfg, params, x)
    assert outputs == forward_quantized(cfg, params, x)


def test_streamed_with_engaged_tiling_rejected():
    cfg = NetworkConfig((8, 100), max_fma=64, mode=Mode.STREAMED)
    with pytest.raises(ConfigError, match="store-and-forward"):
        Engine(cfg, Params([LayerParams(np.zeros((100, 8), np.int64), np.zeros(100, np.int64))], Q83))


# =============================================================================
# classify
# =============================================================================

def test_classify_examples():
    def vec(*vals):
        from hydrasim.fxp import quantize
        return [quantize(v, Q83) for v in vals]

    assert classify(vec(0.1, 0.9, 0.3)) == 1
    assert classify(vec(0.5, 0.5, 0.5)) == 0
    with pytest.raises(ConfigError):
        classify([])


def test_classify_agrees_with_softmax_argmax():
    rng = np.random.RandomState(17)
    for _ in range(200):
        raws = rng.randint(-128, 128, 10)
        vals = raws / 32.0
        soft = np.exp(vals - vals.max())
        soft /= soft.sum()
        assert classify([QValue(int(r), Q83) for r in raws]) == int(np.argmax(soft))


# =============================================================================
# Errors, determinism, trace
# =============================================================================

def test_input_length_mismatch_rejected():
    engine, cfg = bench_engine()
    with pytest.raises(ConfigError):
        engine.run([QValue(0, Q83)] * 99)


def test_engine_rejects_float_or_mismatched_params():
    cfg = NetworkConfig((4, 2))
    float_params = Params([LayerParams(np.zeros((2, 4)), np.zeros(2))], None)
    with pytest.raises(ConfigError):
        Engine(cfg, float_params)
    wrong_fmt = Params(
        [LayerParams(np.zeros((2, 4), np.int64), np.zeros(2, np.int64))], QFormat(16, 3)
    )
    with pytest.raises(ConfigError):
        Engine(cfg, wrong_fmt)


def test_cycle_determinism():
    rng = np.random.default_rng(55)
    cfg, params, x = random_quantized_case(rng, Q83)
    o1, r1 = run_inference(cfg, params, x)
    o2, r2 = run_inference(cfg, params, x)
    assert o1 == o2
    assert r1 == r2


def test_trace_records_one_per_cycle():
    trace = []
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg), trace_hook=trace.append)
    assert len(trace) == report.last_output_cycle
    assert [r.cycle for r in trace] == list(range(1, report.last_output_cycle + 1))
    assert trace[0].phase == "mac" and trace[0].layer == 0 and trace[0].active_fma == 64
    assert trace[196].phase == "piso_load"
    assert trace[197].phase == "serialize"
    assert trace[-1].phase == "ann_done"
    assert trace[5].line() == "cycle=6 phase=mac layer=0 active_fma=64"


def test_engine_reset_reuses_cleanly():
    # Each run starts from cycle 0: a second run on one engine repeats the first.
    cfg, params, x = random_quantized_case(np.random.default_rng(13), Q83)   # 13:9:9:1:9
    # A run keeps its state in the controller: it adds no field to the engine.
    for c in (cfg, dataclasses.replace(cfg, mode=Mode.STREAMED), dataclasses.replace(cfg, max_fma=4)):
        trace = []
        engine = Engine(c, params)
        fields = set(vars(engine))
        first, first_trace = engine.run(x, trace_hook=trace.append), trace.copy()
        assert set(vars(engine)) == fields
        trace.clear()
        assert engine.run(x, trace_hook=trace.append) == first and trace == first_trace
        assert first_trace[-1].cycle == len(first_trace) == first[1].last_output_cycle
    # A run cut short (here by its trace hook) leaves nothing to the next one.
    def stop(record):
        if record.cycle == 20:
            raise RuntimeError("stopped")

    engine = Engine(cfg, params)
    fields = set(vars(engine))
    with pytest.raises(RuntimeError, match="stopped"):
        engine.run(x, trace_hook=stop)
    assert set(vars(engine)) == fields
    assert engine.run(x) == Engine(cfg, params).run(x)


def _observed_run(engine, x):
    """Run engine on x; return its outputs, trace, each pass's read() and the
    bank word's bits above its armed lanes after every preload."""
    bank, trace, reads, above = engine.fma_bank, [], [], []
    preload, read = bank.preload, bank.read

    def checked_preload(*args):
        preload(*args)
        above.append(bank.word >> (bank.width * bank.lane_bits))

    bank.preload = checked_preload
    bank.read = lambda: reads.append(read()) or reads[-1]
    try:
        outputs, _ = engine.run(x, trace_hook=trace.append)
    finally:
        del bank.preload, bank.read
    return outputs, trace, reads, above


@pytest.mark.parametrize("sizes, max_fma", [
    ((3, 2, 5), 5),        # a 2-wide pass, after the previous run's 5-wide one
    ((5, 2, 9, 3), 4),     # tiled store-and-forward: passes of 2 | 4, 4, 1 | 3
])
def test_bank_word_holds_only_its_armed_lanes(sizes, max_fma):
    rng = np.random.default_rng(2029)
    cfg = NetworkConfig(sizes, max_fma=max_fma,
                        af_per_layer=(AfKind.IDENTITY,) * (len(sizes) - 1))
    layers = [LayerParams(rng.integers(-128, 128, (n, k)), rng.integers(-128, 128, n))
              for k, n in zip(sizes[:-1], sizes[1:])]
    params = Params(layers, Q83)
    x1, x2 = ([QValue(int(v), Q83) for v in rng.integers(-128, 128, sizes[0])] for _ in range(2))
    engine = Engine(cfg, params)
    fields = {"cfg", "fma_bank", "afu", "_banked"}
    assert set(vars(engine)) == fields
    first = _observed_run(engine, x1)
    assert set(vars(engine)) == fields
    second, fresh = _observed_run(engine, x2), _observed_run(Engine(cfg, params), x2)
    # A preload leaves no lane above its own: the word is its armed lanes' signed sum.
    for _, _, reads, above in (first, second):
        assert len(above) == len(reads)   # one preload and one capture per pass
        assert set(above) <= {0, -1}
    assert second == fresh
    assert second[2] != first[2]   # the new input reached the lanes


@pytest.mark.parametrize("sizes, max_fma, fmt, mode, af", [
    (BENCH_SIZES, 64, Q83, Mode.STORE_AND_FORWARD, AfKind.RELU),
    (BENCH_SIZES, 64, QFormat(16, 3), Mode.STREAMED, AfKind.SIGMOID),
    ((5, 2, 9, 3), 4, Q83, Mode.STORE_AND_FORWARD, AfKind.RELU),   # tiled: 2 | 4, 4, 1 | 3
])
def test_a_run_packs_nothing(monkeypatch, sizes, max_fma, fmt, mode, af):
    # Every bias and weight column is banked at build time: with pack gone, a
    # traced and an untraced run still give the oracle's outputs and the
    # README rules' trace lines.
    rng = np.random.default_rng(2030)
    n_layers = len(sizes) - 1
    cfg = NetworkConfig(sizes, max_fma=max_fma, qformat=fmt, mode=mode,
                        af_per_layer=(af,) * (n_layers - 1) + (AfKind.IDENTITY,))
    span = 1 << (fmt.total_bits - 4)
    params = Params([LayerParams(rng.integers(-span, span, (n, k)), rng.integers(-span, span, n))
                     for k, n in zip(sizes[:-1], sizes[1:])], fmt)
    x = [QValue(int(v), fmt) for v in rng.integers(0, span, sizes[0])]
    engine = Engine(cfg, params)

    def no_pack(*args):
        raise AssertionError("a run packed a column")

    monkeypatch.setattr(FmaBank, "pack", no_pack)
    lines = [TraceRecord(c, *r).line() for c, r in enumerate(_expected_trace(cfg), 1)]
    trace = []
    traced, _ = engine.run(x, trace_hook=trace.append)
    assert traced == engine.run(x)[0] == forward_quantized(cfg, params, x)
    assert [r.line() for r in trace] == lines


def test_idle_and_finished_engines_are_freed_without_cyclic_gc():
    cfg = NetworkConfig((4, 3, 2), max_fma=5)
    gc.disable()
    try:
        engine = Engine(cfg, zero_params(cfg))
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
        engine = Engine(cfg, zero_params(cfg))
        engine.run(zeros_input(cfg))
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


def test_trace_agrees_with_report():
    rng = np.random.default_rng(88)
    for mode in (Mode.STORE_AND_FORWARD, Mode.STREAMED):
        cfg, params, x = random_quantized_case(rng, Q83)
        trace = []
        engine = Engine(dataclasses.replace(cfg, mode=mode), params)
        _, report = engine.run(x, trace_hook=trace.append)
        firsts = {layer: c for (phase, layer), c in _first_cycles(trace).items()
                  if phase == "serialize"}
        assert firsts == {lt.layer: lt.first_output_cycle for lt in report.per_layer}
        assert [r.cycle for r in trace if r.phase == "ann_done"] == [report.last_output_cycle]


def test_degenerate_phase_sequence():
    cfg = NetworkConfig((1, 1), max_fma=1)
    trace = []
    engine = Engine(cfg, zero_params(cfg))
    engine.run(zeros_input(cfg), trace_hook=trace.append)
    assert [r.phase for r in trace] == ["mac", "piso_load", "serialize", "ann_done"]


def test_integer_only_format_end_to_end():
    fmt = QFormat(8, 8)   # zero fractional bits exercises every shift-0 path
    rng = np.random.default_rng(66)
    for _ in range(10):
        cfg, params, x = random_quantized_case(rng, fmt, max_depth=3)
        golden = forward_quantized(cfg, params, x)
        for mode in (Mode.STORE_AND_FORWARD, Mode.STREAMED):
            outputs, _ = run_inference(dataclasses.replace(cfg, mode=mode), params, x)
            assert outputs == golden


# =============================================================================
# engine = oracle = batch on the raw-integer core
# =============================================================================

def assert_three_way_agreement(cfg, params, x, modes=tuple(Mode)):
    golden = forward_quantized(cfg, params, x)
    batch = forward_quantized_batch(cfg, params, np.array([[v.raw for v in x]], dtype=object))
    assert [v.raw for v in golden] == [int(v) for v in batch[0]]
    for mode in modes:
        outputs, _ = run_inference(dataclasses.replace(cfg, mode=mode), params, x)
        assert outputs == golden


def test_q64_engine_oracle_batch_agree():
    with pytest.warns(UserWarning, match="nonstandard bit-width 64"):
        fmt = QFormat(64, 3)
    rng = np.random.default_rng(64)
    for _ in range(25):
        assert_three_way_agreement(*random_quantized_case(rng, fmt))
    # every raw at its extreme: the largest product sums the format allows
    cfg = NetworkConfig((196, 64, 10), qformat=fmt)
    params = Params(
        [
            LayerParams(np.full((n, k), fmt.raw_min, np.int64), np.full(n, fmt.raw_max, np.int64))
            for k, n in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:])
        ],
        fmt,
    )
    assert_three_way_agreement(cfg, params, [QValue(fmt.raw_min, fmt)] * 196)


@pytest.mark.parametrize("fmt", [Q83, QFormat(16, 3), QFormat(32, 3)])
def test_tiled_store_mode_engine_oracle_batch_agree(fmt):
    rng = np.random.default_rng(70 + fmt.total_bits)
    for _ in range(25):
        cfg, params, x = random_quantized_case(rng, fmt)
        widest = max(cfg.layer_sizes[1:])
        if widest == 1:
            continue
        cfg = dataclasses.replace(cfg, max_fma=int(rng.integers(1, widest)))
        assert_three_way_agreement(cfg, params, x, modes=(Mode.STORE_AND_FORWARD,))


@pytest.mark.parametrize("layer_field, index", [("weights", (1, 0)), ("biases", (0,))])
@pytest.mark.parametrize("raw", [Q83.raw_max + 1, Q83.raw_min - 1])
def test_engine_rejects_out_of_range_raw(layer_field, index, raw):
    cfg = NetworkConfig((4, 2))
    lp = LayerParams(np.zeros((2, 4), np.int64), np.zeros(2, np.int64))
    getattr(lp, layer_field)[index] = raw
    with pytest.raises(ValueError, match=f"layer 0 {layer_field}"):
        Engine(cfg, Params([lp], Q83))

