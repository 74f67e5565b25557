"""The traced benchmark wraps package callables by name; keep those names in place."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import hydrasim
import hydrasim.cli
from hydrasim.datapath import AfKind
from hydrasim.engine import Engine, cycle_report
from hydrasim.fxp import QFormat, QValue
from hydrasim.model import LayerParams, NetworkConfig, Params

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("hydrasim_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # dataclasses look their module up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    cfg = NetworkConfig((4, 3, 2), max_fma=2, af_per_layer=(AfKind.RELU, AfKind.IDENTITY))
    rng = np.random.default_rng(7)
    params = Params([LayerParams(rng.integers(-128, 128, (n, k)), rng.integers(-128, 128, n))
                     for k, n in ((4, 3), (3, 2))], QFormat(8, 3))
    x = [QValue(int(v), QFormat(8, 3)) for v in rng.integers(-128, 128, 4)]
    try:
        tracer.install(hydrasim)   # AttributeError if a wrapped name was removed or renamed
        wrapped = list(tracer._restore)
        assert {(owner.__name__, attr) for owner, attr, _ in wrapped} >= {
            ("hydrasim.cli", "quantize_array"), ("hydrasim.cli", "forward_quantized_batch"),
            ("hydrasim.cli", "to_input_vector"), ("hydrasim.model", "quantize_array"),
            ("Engine", "__init__"), ("Engine", "run"),
        }
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
        # The wrapped Engine.run hands its trace hook on to the run it times.
        records = []
        Engine(cfg, params).run(x, trace_hook=records.append)
        assert [s.name for s in tracer.spans] == ["engine.init", "engine.run"]
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
    plain = []
    Engine(cfg, params).run(x, trace_hook=plain.append)
    assert records == plain and len(plain) == cycle_report(cfg).last_output_cycle
