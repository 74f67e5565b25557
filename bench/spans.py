"""In-memory span recorder that wraps hydrasim's public callables.

The wrappers are installed on the module attributes where `hydrasim.cli` and
`hydrasim.engine` look the callables up, so the program itself is unchanged.
`Engine.step` is never wrapped: a span per simulated cycle would measure the
tracer, not the engine.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time its (sequential, nested) child spans cover."""
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attrs=None):
        """Return `fn` recording one span per call; `attrs(args, kwargs, result)` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent=parent, request=self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def install(self, hs) -> None:
        """Wrap the entry points the CLI commands reach, layer by layer."""
        cli, engine, model = hs.cli, hs.engine, hs.model
        for attr, name in (
            ("load_params", "model.load_params"),
            ("quantize_params", "model.quantize_params"),
            ("quantize_array", "model.quantize_array"),
            ("load_dataset", "dataio.load_dataset"),
            ("to_input_vector", "dataio.to_input_vector"),
        ):
            self.patch(cli, attr, name)
        self.patch(cli, "forward_quantized_batch", "model.forward_quantized_batch", _bits_attrs)
        # quantize_params and forward_quantized_batch reach these through model.
        self.patch(model, "quantize_array", "model.quantize_array")
        self.patch(model, "build_sigmoid_lut", "datapath.build_sigmoid_lut")
        self.patch(engine, "build_sigmoid_lut", "datapath.build_sigmoid_lut")
        self.patch(engine.Engine, "__init__", "engine.init")
        self.patch(engine.Engine, "run", "engine.run",
                   lambda _args, _kwargs, result: report_fields(result[1]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _bits_attrs(args, kwargs, _result) -> dict:
    cfg = args[0] if args else kwargs["cfg"]
    return {"bits": cfg.qformat.total_bits}


def report_fields(report) -> dict:
    """The simulated counts of a CycleReport."""
    return {
        "total_cycles": report.total_cycles,
        "stepped_cycles": report.last_output_cycle,
        "layer_cycles": [lt.total_cycles for lt in report.per_layer],
        "mac_ops": report.mac_ops,
        "af_invocations": report.af_invocations,
        "fma_utilization": report.fma_utilization,
    }
