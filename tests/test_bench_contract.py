"""The traced benchmark wraps package callables by name; keep those names in place."""

import importlib.util
import sys
from pathlib import Path

import hydrasim
import hydrasim.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("hydrasim_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # dataclasses look their module up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install(hydrasim)   # AttributeError if a wrapped name was removed or renamed
        wrapped = list(tracer._restore)
        assert {(owner.__name__, attr) for owner, attr, _ in wrapped} >= {
            ("hydrasim.cli", "quantize_array"), ("hydrasim.cli", "forward_quantized_batch"),
            ("hydrasim.cli", "to_input_vector"), ("hydrasim.model", "quantize_array"),
            ("Engine", "__init__"), ("Engine", "run"),
        }
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
