"""Layer-multiplexed control engine.

One FmaBank of MAX_FMA multiply-accumulate slots, one PISO capture stage, and
one shared activation unit execute every layer of the network in sequence, on
raw integer codes (QValues enter and leave only at Engine.run, the one entry
point).  The controller is one generator, Engine._control, written as the
control sequence itself: for each layer, for each pass of at most MAX_FMA
units, it arms the units, MACs, captures into the PISO and serializes, and
yields once per clock cycle; run walks it to the end, one cycle per yield.
The PISO capture is the list of a pass's rounded accumulators, drained by
index; the Phase labels each cycle for the trace, and the cycle report is
read off the event log.  That the sequence follows the cycle rules below is
checked by the test suite, not at run time.  Config, parameters and input are
checked by model.check_forward and model.check_input, the oracle's own rules.
Every setting, the mode included, comes from the config the engine is built
with: to run another mode, build an engine from dataclasses.replace(cfg,
mode=...).

Cycle accounting, store-and-forward mode
----------------------------------------
    layer entry -> [inputs(l) MAC cycles, all enabled units in lockstep]
                -> [1 PISO capture cycle]
                -> [1 activation-latency cycle: first output available]
                -> [n(l) store cycles, one serialized output each]
so a layer costs inputs(l) + n(l) + 2 cycles, its first output lands
inputs(l) + 2 cycles after layer entry, and bias preload costs nothing (it
overlaps the first input fetch).

Streamed mode
-------------
Once the PISO has captured a layer's accumulator outputs the FMA bank is
free, so the next layer's MAC runs inside the serialize loop, consuming each
output on the cycle it is stored, and that layer begins at its PISO capture.
Each layer after the first therefore adds inputs(l) + 2 cycles to the point
where its own output stream begins.  Reported total_cycles is the cycle the
final layer's output stream starts; last_output_cycle records when the final
element lands.  Outputs are bit-identical across modes.

Tiling splits a layer wider than MAX_FMA into ceil(n/MAX_FMA) passes of
inputs + pass_width + 2 cycles each, in store-and-forward mode only; pass
boundaries reuse the layer-done phase but only real layer boundaries emit events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .datapath import ActivationUnit, AfKind, FmaBank, build_sigmoid_lut
from .errors import ConfigError
from .fxp import QFormat, QValue, round_acc
from .model import Mode, NetworkConfig, Params, check_forward, check_input


class Phase(Enum):
    MAC = "mac"
    PISO_LOAD = "piso_load"
    SERIALIZE = "serialize"
    LAYER_DONE = "layer_done"
    ANN_DONE = "ann_done"


class EventKind(Enum):
    LAYER_STARTED = "layer_started"
    FIRST_OUTPUT = "first_output"
    LAYER_FINISHED = "layer_finished"
    ANN_DONE = "ann_done"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    layer: int
    cycle: int


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    phase: str
    layer: int
    active_fma: int

    def line(self) -> str:
        return f"cycle={self.cycle} phase={self.phase} layer={self.layer} active_fma={self.active_fma}"


@dataclass
class LayerTiming:
    layer: int
    start_cycle: int          # boundary before the layer's first active cycle
    mac_cycles: int
    first_output_cycle: int   # absolute cycle the first activation leaves the AF
    serialize_cycles: int
    total_cycles: int         # cycles attributed to this layer in the mode's total


@dataclass
class CycleReport:
    per_layer: list[LayerTiming]
    total_cycles: int
    mac_ops: int
    af_invocations: int
    fma_utilization: float
    softmax_cycles: int
    mode: Mode
    last_output_cycle: int    # cycle the final layer's last activation is stored


class Engine:
    """Cycle-accurate execution of one network on the multiplexed layer."""

    def __init__(self, cfg: NetworkConfig, params: Params, trace_hook=None):
        check_forward(cfg, params)
        self.cfg = cfg
        self.fmt: QFormat = cfg.qformat
        self.trace_hook = trace_hook
        self.fma_bank = FmaBank(cfg.max_fma)
        lut = build_sigmoid_lut(self.fmt) if AfKind.SIGMOID in cfg.afs else None
        self.afu = ActivationUnit(self.fmt, lut)
        # Pre-banked weight memory: one column of raw codes per MAC step.
        self._wcols = [lp.weights.T.tolist() for lp in params.layers]
        self._biases = [lp.biases.tolist() for lp in params.layers]

    def _event(self, kind: EventKind, layer: int) -> None:
        """Log kind at the cycle being clocked, which run counts once it yields."""
        self.events.append(Event(kind, layer, self.cycle + 1))

    # -- the controller -------------------------------------------------------

    def _arm_units(self, l: int, off: int, w: int) -> None:
        """Bias preload, arming the pass's slots; costs no cycle (overlaps fetch)."""
        self.fma_bank.preload(self._biases[l][off:off + w], self.fmt.frac_bits)
        if off == 0:
            self._event(EventKind.LAYER_STARTED, l)

    def _mac(self, l: int, off: int, w: int, k: int, x_raw: int) -> int:
        """One MAC cycle of the pass (l, off, w): layer input k, of value x_raw."""
        self.fma_bank.step(x_raw, self._wcols[l][k][off:off + w])
        self.mac_ops += w
        self._mac_cycles[l] += 1
        return w

    def _control(self):
        """The control sequence: yields once per clock cycle, the active FMA count."""
        cfg = self.cfg
        streamed = cfg.mode is Mode.STREAMED
        fed = False   # this pass's MAC already ran in the upstream store cycles
        for l in range(cfg.n_layers):
            # Hand the stored activations on to this layer (store-and-forward);
            # in streamed mode they were consumed as they arrived.
            if l and not fed:
                self.in_buf = self.out_buf
            self.out_buf = []
            self.layer_index = l
            self.afu.configure(cfg.afs[l])
            n = cfg.width_of(l)
            for off in range(0, n, cfg.max_fma):
                w = min(cfg.max_fma, n - off)
                last = off + w == n
                last_of_net = last and l == cfg.n_layers - 1
                if not fed:
                    self._arm_units(l, off, w)
                    self.phase = Phase.MAC
                    for k in range(cfg.inputs_of(l)):
                        yield self._mac(l, off, w, k, self.in_buf[k])
                # PISO capture through the single rounding point (round, saturate).
                self.phase = Phase.PISO_LOAD
                piso = [round_acc(a, self.fmt) for a in self.fma_bank.acc[:w]]
                yield 0
                # Serialize: the AF output of cycle i is stored on cycle i + 1; in
                # streamed mode the next layer's MAC consumes it on that cycle.  A
                # streamed config has no tiled layer (validate rejects one), so
                # that MAC is the next layer's whole single pass.
                self.phase = Phase.SERIALIZE
                fed = streamed and last and not last_of_net
                w_next = cfg.width_of(l + 1) if fed else 0
                for i in range(w + 1):
                    active = 0
                    if i:
                        self.out_buf.append(out)
                        if fed:
                            if i == 1:
                                self._arm_units(l + 1, 0, w_next)
                            active = self._mac(l + 1, 0, w_next, i - 1, out)
                    if i < w:
                        out = self.afu.apply_raw(piso[i])
                        self.af_invocations += 1
                        if i == 0 and off == 0:
                            self._event(EventKind.FIRST_OUTPUT, l)
                    self._ser_cycles[l] += 1
                    if i == w:
                        if last_of_net:
                            self.phase = Phase.ANN_DONE
                            self._event(EventKind.ANN_DONE, l)
                        else:
                            self.phase = Phase.LAYER_DONE
                            if last:
                                self._event(EventKind.LAYER_FINISHED, l)
                    yield active

    # -- the clock and the report ---------------------------------------------

    def run(self, x) -> tuple[list[QValue], CycleReport]:
        """Load an input, clock the engine to 'ANN done', return outputs + report."""
        x = list(x)
        check_input(self.cfg, len(x), x)
        self.in_buf = [v.raw for v in x]
        self.events: list[Event] = []
        self.cycle = self.mac_ops = self.af_invocations = 0
        self._mac_cycles = [0] * self.cfg.n_layers
        self._ser_cycles = [0] * self.cfg.n_layers
        for active in self._control():
            self.cycle += 1
            if self.trace_hook is not None:
                self.trace_hook(
                    TraceRecord(self.cycle, self.phase.value, self.layer_index, active)
                )
        return [QValue(r, self.fmt) for r in self.out_buf], self._report()

    def _report(self) -> CycleReport:
        cfg = self.cfg
        start, first, finish = ([0] * cfg.n_layers for _ in range(3))
        for e in self.events:
            if e.kind is EventKind.LAYER_STARTED:
                start[e.layer] = e.cycle - 1
            elif e.kind is EventKind.FIRST_OUTPUT:
                first[e.layer] = e.cycle
            else:   # LAYER_FINISHED, or ANN_DONE for the last layer
                finish[e.layer] = e.cycle
        streamed = cfg.mode is Mode.STREAMED and cfg.n_layers > 1
        per_layer = [
            LayerTiming(
                layer=l,
                start_cycle=start[l],
                mac_cycles=self._mac_cycles[l],
                first_output_cycle=first[l],
                serialize_cycles=self._ser_cycles[l],
                total_cycles=first[l] - (first[l - 1] if l else 0) if streamed
                else finish[l] - start[l],
            )
            for l in range(cfg.n_layers)
        ]
        total_cycles = (first[-1] if streamed else finish[-1]) + cfg.softmax_cycles
        return CycleReport(
            per_layer=per_layer,
            total_cycles=total_cycles,
            mac_ops=self.mac_ops,
            af_invocations=self.af_invocations,
            fma_utilization=self.mac_ops / (cfg.max_fma * total_cycles),
            softmax_cycles=cfg.softmax_cycles,
            mode=cfg.mode,
            last_output_cycle=finish[-1],
        )


def run_inference(cfg: NetworkConfig, params: Params, x) -> tuple[list[QValue], CycleReport]:
    """One inference of x on a fresh engine: Engine(cfg, params).run(x)."""
    return Engine(cfg, params).run(x)


def classify(outputs) -> int:
    """Index of the largest output; ties resolve to the lowest index."""
    raws = [v.raw for v in outputs]
    if not raws:
        raise ConfigError("classify needs a non-empty output vector")
    return max(range(len(raws)), key=raws.__getitem__)   # max keeps the first of equal maxima
