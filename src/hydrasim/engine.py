"""Layer-multiplexed control engine.

One FmaBank of MAX_FMA multiply-accumulate slots, one PISO capture stage, and
one shared activation unit execute every layer of the network in sequence, on
raw integer codes (QValues only enter at load_input and leave from run).  The
engine is a cycle-accurate state machine: each step() call is one clock cycle.

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
free, so the next layer's MAC consumes each serialized output on the cycle it
is stored.  Each layer after the first therefore adds inputs(l) + 2 cycles to
the point where its own output stream begins.  Reported total_cycles is the
cycle the final layer's output stream starts; last_output_cycle records when
the final element lands.  Outputs are bit-identical across modes.

Tiling (off by default) splits an oversized layer into ceil(n/MAX_FMA) passes
of inputs + pass_width + 2 cycles each; pass boundaries reuse the layer-done
phase but only real layer boundaries emit events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from .datapath import ActivationUnit, AfKind, FmaBank, PisoBuffer, build_sigmoid_lut
from .errors import ConfigError, ControlFault
from .fxp import QFormat, QValue, round_half_even_shift, saturate_raw
from .model import Mode, NetworkConfig, Params, check_dims, ensure_valid, raw_codes_outside


class Phase(Enum):
    IDLE = "idle"
    LOAD_BIAS = "load_bias"
    MAC = "mac"
    PISO_LOAD = "piso_load"
    SERIALIZE = "serialize"
    LAYER_DONE = "layer_done"
    ANN_DONE = "ann_done"


LEGAL_PHASE_TRANSITIONS = {
    Phase.IDLE: {Phase.LOAD_BIAS},
    Phase.LOAD_BIAS: {Phase.MAC},
    Phase.MAC: {Phase.MAC, Phase.PISO_LOAD},
    Phase.PISO_LOAD: {Phase.SERIALIZE},
    Phase.SERIALIZE: {Phase.SERIALIZE, Phase.LAYER_DONE, Phase.ANN_DONE},
    Phase.LAYER_DONE: {Phase.LOAD_BIAS},
    Phase.ANN_DONE: set(),
}


class EventKind(Enum):
    LAYER_STARTED = "layer_started"
    FIRST_OUTPUT = "first_output"
    LAYER_FINISHED = "layer_finished"
    ANN_DONE = "ann_done"


# When two land on the same cycle only the most significant is returned from
# step(); the full log is kept on engine.events.
_EVENT_PRIORITY = {
    EventKind.ANN_DONE: 3,
    EventKind.LAYER_FINISHED: 2,
    EventKind.FIRST_OUTPUT: 1,
    EventKind.LAYER_STARTED: 0,
}


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
    bank_load_cycles: int     # hypothetical serial weight/input bank loading (not simulated)


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
        ensure_valid(cfg)
        if not params.is_quantized:
            raise ConfigError("engine needs quantized parameters")
        if params.qformat != cfg.qformat:
            raise ConfigError(
                f"parameter format {params.qformat} != config format {cfg.qformat}"
            )
        check_dims(params, cfg)
        for l, lp in enumerate(params.layers):
            bad = raw_codes_outside(lp, cfg.qformat)
            if bad:
                raise ValueError(f"layer {l} {bad} contain raw codes outside {cfg.qformat}")
        self.cfg = cfg
        self.fmt: QFormat = cfg.qformat
        self.mode: Mode = cfg.mode
        self.trace_hook = trace_hook
        self.fma_bank = FmaBank(cfg.max_fma)
        self.piso = PisoBuffer(cfg.max_fma)
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
        self._pass_idx = 0
        self._mac_step = 0
        self._ser_step = 0
        self._af_out: int | None = None
        self._stream_armed = False
        self._stream_step = 0
        self._layer_start = [0] * self.cfg.n_layers
        self._first_output = [0] * self.cfg.n_layers
        self._layer_finish = [0] * self.cfg.n_layers
        self._mac_cycles = [0] * self.cfg.n_layers
        self._ser_cycles = [0] * self.cfg.n_layers

    @property
    def gate_mask(self) -> list[bool]:
        return self.fma_bank.gate_mask

    def set_mode(self, mode: Mode) -> None:
        if self.phase is not Phase.IDLE:
            raise ControlFault("mode change while the engine is running")
        ensure_valid(dataclasses.replace(self.cfg, mode=mode))
        self.mode = mode

    def load_input(self, x) -> None:
        if self.phase is not Phase.IDLE:
            raise ControlFault("input load while the engine is running")
        x = list(x)
        if len(x) != self.cfg.layer_sizes[0]:
            raise ConfigError(
                f"input length {len(x)} != input dimension {self.cfg.layer_sizes[0]}"
            )
        for v in x:
            if v.fmt != self.fmt:
                raise ConfigError(f"input format {v.fmt} != engine format {self.fmt}")
        self.in_buf = [v.raw for v in x]

    def _set_phase(self, new: Phase) -> None:
        if new not in LEGAL_PHASE_TRANSITIONS[self.phase]:
            raise ControlFault(f"illegal phase transition {self.phase} -> {new}")
        self.phase = new

    # -- per-cycle micro-operations ------------------------------------------

    def _arm_units(self, p: _Pass) -> None:
        """Bias preload + gate mask for a pass; costs no cycle (overlaps fetch)."""
        self.fma_bank.preload(
            self._biases[p.layer][p.offset:p.offset + p.width], self.fmt.frac_bits
        )
        self._mac_step = 0

    def _begin_pass(self, idx: int, events: list[Event]) -> None:
        p = self._schedule[idx]
        self._pass_idx = idx
        self.layer_index = p.layer
        self._set_phase(Phase.LOAD_BIAS)
        self._arm_units(p)
        if p.first:
            self._layer_start[p.layer] = self.cycle - 1
            events.append(Event(EventKind.LAYER_STARTED, p.layer, self.cycle))
        self._set_phase(Phase.MAC)

    def _mac(self, p: _Pass, k: int, x_raw: int) -> int:
        """One MAC cycle of pass p: layer input k, of value x_raw, into the bank."""
        self.fma_bank.step(x_raw, self._wcols[p.layer][k][p.offset:p.offset + p.width])
        self.mac_ops += p.width
        self._mac_cycles[p.layer] += 1
        return p.width

    def _mac_cycle(self) -> int:
        k = self._mac_step
        self._mac_step += 1
        return self._mac(self._schedule[self._pass_idx], k, self.in_buf[k])

    def _piso_load(self) -> None:
        """Capture the bank through the single rounding point (round, saturate)."""
        p = self._schedule[self._pass_idx]
        self.afu.configure(self.cfg.afs[p.layer])
        f = self.fmt.frac_bits
        self.piso.load(
            saturate_raw(round_half_even_shift(a, f), self.fmt)
            for a in self.fma_bank.acc[:p.width]
        )
        self._ser_step = 0
        self._af_out = None

    def _stream_mac(self, v: int, events: list[Event]) -> int:
        """Feed one stored output into the next layer's MAC (streamed mode)."""
        p = self._schedule[self._pass_idx]
        if self.mode is not Mode.STREAMED or not p.last or p.last_of_net:
            return 0
        q = self._schedule[self._pass_idx + 1]
        if not self._stream_armed:
            self._arm_units(q)
            self._stream_armed = True
            self._stream_step = 0
            self._layer_start[q.layer] = self.cycle - 1
            events.append(Event(EventKind.LAYER_STARTED, q.layer, self.cycle))
        k = self._stream_step
        self._stream_step += 1
        return self._mac(q, k, v)

    def _serialize_cycle(self, events: list[Event]) -> int:
        p = self._schedule[self._pass_idx]
        i = self._ser_step
        active = 0
        if i >= 1:
            self.out_buf.append(self._af_out)
            active = self._stream_mac(self._af_out, events)
        if i < p.width:
            v = self.piso.shift()
            self._af_out = self.afu.apply_raw(v)
            self.af_invocations += 1
            if i == 0 and p.first:
                self._first_output[p.layer] = self.cycle
                events.append(Event(EventKind.FIRST_OUTPUT, p.layer, self.cycle))
        self._ser_cycles[p.layer] += 1
        self._ser_step += 1
        if i == p.width:
            if p.last:
                self._layer_finish[p.layer] = self.cycle
            if p.last_of_net:
                self._set_phase(Phase.ANN_DONE)
                events.append(Event(EventKind.ANN_DONE, p.layer, self.cycle))
            else:
                self._set_phase(Phase.LAYER_DONE)
                if p.last:
                    events.append(Event(EventKind.LAYER_FINISHED, p.layer, self.cycle))
        return active

    # -- the clock ------------------------------------------------------------

    def step(self) -> Event | None:
        """Advance one clock cycle; returns the most significant event, if any."""
        if self.phase is Phase.ANN_DONE:
            raise ControlFault("step after 'ANN done'")
        self.cycle += 1
        events: list[Event] = []
        active = 0
        if self.phase is Phase.IDLE:
            if len(self.in_buf) != self.cfg.layer_sizes[0]:
                raise ControlFault("step before load_input")
            self._begin_pass(0, events)
            active = self._mac_cycle()
        elif self.phase is Phase.MAC:
            if self._mac_step < self._schedule[self._pass_idx].inputs:
                active = self._mac_cycle()
            else:
                self._set_phase(Phase.PISO_LOAD)
                self._piso_load()
        elif self.phase is Phase.PISO_LOAD:
            self._set_phase(Phase.SERIALIZE)
            active = self._serialize_cycle(events)
        elif self.phase is Phase.SERIALIZE:
            active = self._serialize_cycle(events)
        elif self.phase is Phase.LAYER_DONE:
            nxt = self._pass_idx + 1
            q = self._schedule[nxt]
            done = self._schedule[self._pass_idx]
            if done.last:
                # Hand the stored activations to the next layer (store-and-forward);
                # in streamed mode they were consumed as they arrived.
                if not self._stream_armed:
                    self.in_buf = self.out_buf
                self.out_buf = []
            if self._stream_armed:
                # Streamed: this pass's MAC already ran during the upstream
                # layer's store cycles; go straight to the PISO capture.
                if self._stream_step != q.inputs:
                    raise ControlFault(
                        f"streamed MAC consumed {self._stream_step} of "
                        f"{q.inputs} inputs at layer boundary"
                    )
                self._pass_idx = nxt
                self.layer_index = q.layer
                self._mac_step = q.inputs
                self._stream_armed = False
                self._set_phase(Phase.LOAD_BIAS)
                self._set_phase(Phase.MAC)
                self._set_phase(Phase.PISO_LOAD)
                self._piso_load()
            else:
                self._begin_pass(nxt, events)
                active = self._mac_cycle()
        if self.trace_hook is not None:
            self.trace_hook(
                TraceRecord(self.cycle, self.phase.value, self.layer_index, active)
            )
        self.events.extend(events)
        if events:
            return max(events, key=lambda e: _EVENT_PRIORITY[e.kind])
        return None

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
        streamed = self.mode is Mode.STREAMED and cfg.n_layers > 1
        per_layer = []
        for l in range(cfg.n_layers):
            if streamed:
                prev = self._first_output[l - 1] if l > 0 else 0
                total = self._first_output[l] - prev
            else:
                total = self._layer_finish[l] - self._layer_start[l]
            per_layer.append(
                LayerTiming(
                    layer=l,
                    start_cycle=self._layer_start[l],
                    mac_cycles=self._mac_cycles[l],
                    first_output_cycle=self._first_output[l],
                    serialize_cycles=self._ser_cycles[l],
                    total_cycles=total,
                )
            )
        end = self._first_output[-1] if streamed else self._layer_finish[-1]
        total_cycles = end + cfg.softmax_cycles
        bank_load = sum(
            cfg.inputs_of(l) * (cfg.width_of(l) + 1) for l in range(cfg.n_layers)
        )
        return CycleReport(
            per_layer=per_layer,
            total_cycles=total_cycles,
            mac_ops=self.mac_ops,
            af_invocations=self.af_invocations,
            fma_utilization=self.mac_ops / (cfg.max_fma * total_cycles),
            softmax_cycles=cfg.softmax_cycles,
            mode=self.mode,
            last_output_cycle=self._layer_finish[-1],
            bank_load_cycles=bank_load,
        )


def run_inference(
    cfg: NetworkConfig,
    params: Params,
    x,
    mode: Mode | None = None,
    trace_hook=None,
) -> tuple[list[QValue], CycleReport]:
    """One-shot convenience wrapper around Engine."""
    engine = Engine(cfg, params, trace_hook=trace_hook)
    if mode is not None:
        engine.set_mode(mode)
    return engine.run(x)


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
