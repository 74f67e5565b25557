"""Layer-multiplexed control engine.

One FmaBank of MAX_FMA multiply-accumulate slots, one PISO capture stage, and
one shared activation unit execute every layer of the network in sequence, on
raw integer codes (QValues only enter at load_input and leave from run).  The
controller is one generator, Engine._control, written as the control sequence
itself: it walks the pass schedule one pass after another (arm, MAC, PISO
capture, serialize) and yields once per clock cycle, so each step() call is
one cycle.  The PISO capture is the list of a pass's rounded accumulators,
drained by index; the Phase labels each cycle for the trace, and the cycle
report is read off the event log.  That the sequence follows the cycle rules
below is checked by the test suite, not at run time.  Config, parameters and
input are checked by model.check_forward and model.check_input, the oracle's
own rules.
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

Tiling (off by default) splits an oversized layer into ceil(n/MAX_FMA) passes
of inputs + pass_width + 2 cycles each; pass boundaries reuse the layer-done
phase but only real layer boundaries emit events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from .datapath import ActivationUnit, AfKind, FmaBank, build_sigmoid_lut
from .errors import ConfigError, ControlFault
from .fxp import QFormat, QValue, round_acc
from .model import Mode, NetworkConfig, Params, check_forward, check_input


class Phase(Enum):
    IDLE = "idle"
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


@dataclass(frozen=True)
class _Pass:
    layer: int
    width: int        # neurons computed this pass
    offset: int       # neuron offset within the layer
    inputs: int
    first: bool       # first pass of its layer
    last: bool        # last pass of its layer
    last_of_net: bool


def _build_schedule(cfg: NetworkConfig) -> list[_Pass]:
    passes = []
    for l in range(cfg.n_layers):
        n, inputs = cfg.width_of(l), cfg.inputs_of(l)
        offsets = list(range(0, n, cfg.max_fma))
        for i, off in enumerate(offsets):
            passes.append(
                _Pass(
                    layer=l,
                    width=min(cfg.max_fma, n - off),
                    offset=off,
                    inputs=inputs,
                    first=i == 0,
                    last=i == len(offsets) - 1,
                    last_of_net=False,
                )
            )
    passes[-1] = dataclasses.replace(passes[-1], last_of_net=True)
    return passes


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
        self._schedule = _build_schedule(cfg)
        self.reset()

    # -- state management ---------------------------------------------------

    def reset(self) -> None:
        """Back to Idle at cycle 0 with every unit gated off."""
        self.phase = Phase.IDLE
        self.cycle = 0
        self.layer_index = 0
        self.in_buf: list[int] = []
        self.out_buf: list[int] = []
        self.events: list[Event] = []
        self.mac_ops = 0
        self.af_invocations = 0
        self.fma_bank.gate_off()
        self._mac_cycles = [0] * self.cfg.n_layers
        self._ser_cycles = [0] * self.cfg.n_layers
        # The controller generator, made on the first step(): one made here
        # would hold self in a reference cycle.
        self._clock = None

    def load_input(self, x) -> None:
        if self.phase is not Phase.IDLE:
            raise ControlFault("input load while the engine is running")
        x = list(x)
        check_input(self.cfg, len(x), (v.fmt for v in x))
        self.in_buf = [v.raw for v in x]

    def _event(self, kind: EventKind, layer: int) -> None:
        self.events.append(Event(kind, layer, self.cycle))

    # -- the controller -------------------------------------------------------

    def _arm_units(self, p: _Pass) -> None:
        """Bias preload, arming the pass's slots; costs no cycle (overlaps fetch)."""
        self.fma_bank.preload(
            self._biases[p.layer][p.offset:p.offset + p.width], self.fmt.frac_bits
        )
        if p.first:
            self._event(EventKind.LAYER_STARTED, p.layer)

    def _mac(self, p: _Pass, k: int, x_raw: int) -> int:
        """One MAC cycle of pass p: layer input k, of value x_raw, into the bank."""
        self.fma_bank.step(x_raw, self._wcols[p.layer][k][p.offset:p.offset + p.width])
        self.mac_ops += p.width
        self._mac_cycles[p.layer] += 1
        return p.width

    def _control(self):
        """The control sequence: yields once per clock cycle, the active FMA count."""
        streamed = self.cfg.mode is Mode.STREAMED
        fed = False   # this pass's MAC already ran in the upstream store cycles
        for n, p in enumerate(self._schedule):
            self.layer_index = p.layer
            if not fed:
                self._arm_units(p)
                self.phase = Phase.MAC
                for k in range(p.inputs):
                    yield self._mac(p, k, self.in_buf[k])
            # PISO capture through the single rounding point (round, saturate).
            self.phase = Phase.PISO_LOAD
            self.afu.configure(self.cfg.afs[p.layer])
            piso = [round_acc(a, self.fmt) for a in self.fma_bank.acc[:p.width]]
            yield 0
            # Serialize: the AF output of cycle i is stored on cycle i + 1; in
            # streamed mode the next layer's MAC consumes it on that cycle.
            self.phase = Phase.SERIALIZE
            fed = streamed and p.last and not p.last_of_net
            q = self._schedule[n + 1] if fed else None
            for i in range(p.width + 1):
                active = 0
                if i:
                    self.out_buf.append(out)
                    if fed:
                        if i == 1:
                            self._arm_units(q)
                        active = self._mac(q, i - 1, out)
                if i < p.width:
                    out = self.afu.apply_raw(piso[i])
                    self.af_invocations += 1
                    if i == 0 and p.first:
                        self._event(EventKind.FIRST_OUTPUT, p.layer)
                self._ser_cycles[p.layer] += 1
                if i == p.width:
                    if p.last_of_net:
                        self.phase = Phase.ANN_DONE
                        self._event(EventKind.ANN_DONE, p.layer)
                    else:
                        self.phase = Phase.LAYER_DONE
                        if p.last:
                            self._event(EventKind.LAYER_FINISHED, p.layer)
                yield active
            if p.last:
                # Hand the stored activations to the next layer (store-and-
                # forward); in streamed mode they were consumed as they arrived.
                if not fed:
                    self.in_buf = self.out_buf
                self.out_buf = []

    # -- the clock ------------------------------------------------------------

    def step(self) -> None:
        """Advance one clock cycle; its events are appended to engine.events."""
        if self.phase is Phase.ANN_DONE:
            raise ControlFault("step after 'ANN done'")
        if self._clock is None:
            if len(self.in_buf) != self.cfg.layer_sizes[0]:
                raise ControlFault("step before load_input")
            self._clock = self._control()
        self.cycle += 1
        active = next(self._clock)
        if self.phase is Phase.ANN_DONE:
            self._clock = None
        if self.trace_hook is not None:
            self.trace_hook(
                TraceRecord(self.cycle, self.phase.value, self.layer_index, active)
            )

    def run(self, x) -> tuple[list[QValue], CycleReport]:
        """Load an input, clock the engine to 'ANN done', return outputs + report."""
        if self.phase is Phase.ANN_DONE:
            self.reset()
        self.load_input(x)
        while self.phase is not Phase.ANN_DONE:
            self.step()
        return [QValue(r, self.fmt) for r in self.out_buf], self.report()

    # -- reporting -------------------------------------------------------------

    def report(self) -> CycleReport:
        if self.phase is not Phase.ANN_DONE:
            raise ControlFault("report requested before 'ANN done'")
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
    outputs = list(outputs)
    if not outputs:
        raise ConfigError("classify needs a non-empty output vector")
    best, best_raw = 0, outputs[0].raw
    for i, v in enumerate(outputs[1:], start=1):
        if v.raw > best_raw:
            best, best_raw = i, v.raw
    return best
