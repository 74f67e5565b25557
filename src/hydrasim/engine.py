"""Layer-multiplexed control engine and its pass schedule.

One FmaBank of MAX_FMA multiply-accumulate slots, one PISO capture stage, and
one shared activation unit execute every layer of the network in sequence, on
raw integer codes (QValues enter and leave only at Engine.run, the one entry
point).  The schedule is one generator, _passes: each layer runs in passes of
at most MAX_FMA units, and a pass arms its units, MACs, captures into the PISO
and serializes.  Engine._control clocks each pass on the datapath and yields
each cycle's phase, layer and active FMA count; run numbers the cycles and
hands each to the trace hook it is given.  An inference's buffers are the
controller's locals and its hook an argument of run, so an engine holds only
its config, weights and hardware blocks, which every pass re-arms.  Cycles depend
only on the config, so cycle_report(cfg) sums the same passes with no
parameters and no datapath, and Engine.run returns that report.  The PISO
capture is the list of a pass's rounded accumulators, drained by index; a
phase string ("mac", "piso_load", ...) labels each cycle for the trace.  That
the sequence follows the cycle rules below is checked by the test suite, not
at run time.  Config, parameters and input are checked by model.check_forward
and model.check_input, the oracle's own rules.  Every setting, the mode
included, comes from the config the engine is built with: to run another
mode, build an engine from dataclasses.replace(cfg, mode=...).

The FmaBank holds its armed accumulators as signed lanes of one Python int.
Their width K is acc_bits(fmt, widest fan-in) = 2t + bitlen(fan-in) - 1
rounded up to whole bytes, and acc_bits proves |acc| < 2^(K-1) for every
partial sum of every pass from what check_forward and check_input enforce
and from saturated activations.  Engine.__init__ packs each pass's bias and
weight columns once (FmaBank.pack), so a preload is one shift, a MAC cycle of
all the pass's units one exact multiply-add, and a PISO capture one read.

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
boundaries reuse the layer-done phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datapath import ActivationUnit, AfKind, FmaBank, acc_bits, build_sigmoid_lut
from .errors import ConfigError
from .fxp import QValue, round_acc
from .model import Mode, NetworkConfig, Params, check_forward, check_input, ensure_valid


class TraceRecord(NamedTuple):
    """One traced cycle; a tuple, so it also equals a plain tuple of its fields."""

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


def _passes(cfg: NetworkConfig):
    """The pass schedule: (layer, offset, width, fed, feeds) of each pass in order.

    A pass runs units offset..offset+width-1 of its layer.  fed says its MAC
    already ran in the upstream pass's store cycles (streamed mode); feeds is
    the width of the next layer, whose MAC runs in this pass's store cycles,
    or 0.  A streamed config has no tiled layer (validate rejects one), so a
    fed or feeding pass is its layer's one pass.
    """
    streamed = cfg.mode is Mode.STREAMED
    fed = False
    for l in range(cfg.n_layers):
        n = cfg.width_of(l)
        feeds = cfg.width_of(l + 1) if streamed and l + 1 < cfg.n_layers else 0
        for off in range(0, n, cfg.max_fma):
            yield l, off, min(cfg.max_fma, n - off), fed, feeds
        fed = feeds > 0


def cycle_report(cfg: NetworkConfig) -> CycleReport:
    """The cycle report of every inference on cfg, summed pass by pass over _passes.

    Cycles depend only on the config, so no parameters and no datapath are
    needed: a pass costs inputs MAC cycles (none if fed), one PISO capture and
    width + 1 store cycles, and its first output lands 2 cycles after its MACs.
    """
    ensure_valid(cfg)
    start, first, finish, mac_cycles, ser_cycles = ([0] * cfg.n_layers for _ in range(5))
    cycle = mac_ops = af_invocations = 0   # cycle: the cycles clocked before the pass
    for l, off, w, fed, _ in _passes(cfg):
        inputs = cfg.inputs_of(l)
        macs = 0 if fed else inputs
        if off == 0:
            start[l] = first[l - 1] if fed else cycle   # fed: with the upstream stream
            first[l] = cycle + macs + 2
        cycle += macs + w + 2
        finish[l] = cycle
        mac_cycles[l] += inputs
        ser_cycles[l] += w + 1
        mac_ops += inputs * w
        af_invocations += w
    # Streamed, a layer's share of the total ends where its output stream begins.
    end = first if cfg.mode is Mode.STREAMED and cfg.n_layers > 1 else finish
    total_cycles = end[-1] + cfg.softmax_cycles
    return CycleReport(
        per_layer=[LayerTiming(l, start[l], mac_cycles[l], first[l], ser_cycles[l],
                               end[l] - start[l]) for l in range(cfg.n_layers)],
        total_cycles=total_cycles,
        mac_ops=mac_ops,
        af_invocations=af_invocations,
        fma_utilization=mac_ops / (cfg.max_fma * total_cycles),
        softmax_cycles=cfg.softmax_cycles,
        mode=cfg.mode,
        last_output_cycle=finish[-1],
    )


class Engine:
    """Cycle-accurate execution of one network on the multiplexed layer."""

    def __init__(self, cfg: NetworkConfig, params: Params):
        check_forward(cfg, params)
        self.cfg = cfg
        fan_in = max(cfg.layer_sizes[:-1])
        bank = self.fma_bank = FmaBank(cfg.max_fma, acc_bits(cfg.qformat, fan_in))
        lut = build_sigmoid_lut(cfg.qformat) if AfKind.SIGMOID in cfg.afs else None
        self.afu = ActivationUnit(cfg.qformat, lut)
        # Pre-banked memory: each pass's bias column, then one weight column per MAC step.
        self._banked = {}
        for l, off, w, _, _ in _passes(cfg):
            lp = params.layers[l]
            bias, *cols = bank.pack(np.vstack([lp.biases[off:off + w], lp.weights[off:off + w].T]))
            self._banked[l, off] = bias, cols

    def _control(self, raws: list[int], outputs: list[int]):
        """Clock each pass of _passes on input raws, yielding (phase, layer, active
        FMA count) once per cycle; leave the final layer's raws in outputs."""
        cfg, fmt, bank = self.cfg, self.cfg.qformat, self.fma_bank
        for l, off, w, fed, feeds in _passes(cfg):
            if off == 0:
                # Hand the stored activations on to this layer (store-and-forward);
                # in streamed mode they were consumed as they arrived.
                if l and not fed:
                    raws = stored
                stored = []
                self.afu.configure(cfg.afs[l])
            if not fed:
                bias, cols = self._banked[l, off]
                bank.preload(bias, fmt.frac_bits)
                mac = "mac", l, w
                for x_raw, col in zip(raws, cols):
                    bank.step(x_raw, col)
                    yield mac
            # PISO capture through the single rounding point (round, saturate).
            piso = [round_acc(a, fmt) for a in bank.read()]
            yield "piso_load", l, 0
            # Serialize: the AF output of cycle i is stored on cycle i + 1; in
            # streamed mode the next layer's MAC consumes it on that cycle.
            last = l == cfg.n_layers - 1 and off + w == cfg.width_of(l)
            for i in range(w + 1):
                active = 0
                if i:
                    stored.append(out)
                    if feeds:
                        bias, cols = self._banked[l + 1, 0]
                        if i == 1:
                            bank.preload(bias, fmt.frac_bits)
                        bank.step(out, cols[i - 1])
                        active = feeds
                if i < w:
                    out = self.afu.apply_raw(piso[i])
                    yield "serialize", l, active
                else:
                    yield "ann_done" if last else "layer_done", l, active
        outputs += stored

    def run(self, x, trace_hook=None) -> tuple[list[QValue], CycleReport]:
        """Load an input, clock the engine to 'ANN done', return outputs + report;
        trace_hook, if given, is called with each cycle's TraceRecord."""
        x = list(x)
        check_input(self.cfg, len(x), x)
        outputs = []
        control = self._control([v.raw for v in x], outputs)
        for cycle, (phase, layer, active) in enumerate(control, 1):
            if trace_hook is not None:
                trace_hook(TraceRecord(cycle, phase, layer, active))
        return [QValue(r, self.cfg.qformat) for r in outputs], cycle_report(self.cfg)


def run_inference(cfg: NetworkConfig, params: Params, x) -> tuple[list[QValue], CycleReport]:
    """One inference of x on a fresh engine: Engine(cfg, params).run(x)."""
    return Engine(cfg, params).run(x)


def classify(outputs) -> int:
    """Index of the largest output; ties resolve to the lowest index."""
    raws = [v.raw for v in outputs]
    if not raws:
        raise ConfigError("classify needs a non-empty output vector")
    return max(range(len(raws)), key=raws.__getitem__)   # max keeps the first of equal maxima
