"""Command-line surface.

Subcommands:
    simulate   predict a dataset with the exact batch kernel, report accuracy +
               the cycles of one stepped, cross-checked engine inference
    timing     closed-form vs simulated cycle counts, AF savings
    sweep      quantize a float model at several bit-widths, report accuracy
    train      train a float model with the minimal deterministic trainer
    quantize   convert a float parameter file to a quantized one
    trace      dump the per-cycle FSM trace of one inference

Simulated cycles depend only on the network config, never on the data, so
`simulate` and `sweep` step the cycle engine once per command.  All CSV output
is deterministic for fixed inputs: rows are ordered by input index and floats
are printed with a fixed format.  Errors print as one `error: ...` line and
warnings as one `warning: ...` line each, both on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import warnings

import numpy as np

from .datapath import AfKind
from .dataio import FOLD_MODES, load_dataset, to_input_vector
from .engine import CycleReport, Engine, classify
from .errors import ConfigError, ControlFault
from .fxp import QFormat, QValue
from .model import (
    Mode,
    NetworkConfig,
    Params,
    LayerParams,
    ensure_valid,
    forward_quantized_batch,
    load_params,
    quantize_array,
    quantize_params,
    read_json_object,
    save_params,
    train_minimal,
    validate,
)
from .timing import af_savings, per_layer_af_savings, t_parallel, t_reuse, throughput_report

SIMULATE_SCHEMA = "hydrasim.simulate.v1"
SWEEP_SCHEMA = "hydrasim.sweep.v1"
_MODE_NAMES = sorted(m.value for m in Mode)
_AF_NAMES = sorted(k.value for k in AfKind)


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated list flag, whose name every error holds."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if not values:
        raise ConfigError(f"{flag} names no values")
    return values


def _build_config(args, params: Params | None, mode: Mode | None = None) -> NetworkConfig:
    """Resolve each config field from a flag, else --config, else params, else its default.

    A given mode replaces the resolved one before the config is validated.
    """
    doc = {}
    if params is not None:
        doc["layer_sizes"] = list(params.layer_sizes)
        if params.is_quantized:
            doc["qformat"] = dataclasses.asdict(params.qformat)
    if args.config:
        doc.update(read_json_object(args.config, ConfigError)[0])
    if args.layers:
        doc["layer_sizes"] = _int_list(args.layers.replace(":", ","), "--layers")
    if args.bits is not None or args.int_bits is not None:
        doc["qformat"] = {"total_bits": 8 if args.bits is None else args.bits,
                          "int_bits": 3 if args.int_bits is None else args.int_bits}
    flags = {name: getattr(args, name) for name in ("max_fma", "mode", "softmax_cycles", "tiling")}
    doc.update({name: value for name, value in flags.items() if value is not None})
    if args.af:
        doc.pop("af_per_layer", None)
    cfg = NetworkConfig.from_dict(doc)
    if args.af:   # hidden layers only; the output layer stays identity
        afs = (AfKind(args.af),) * (cfg.n_layers - 1) + (AfKind.IDENTITY,)
        cfg = dataclasses.replace(cfg, af_per_layer=afs)
    if mode is not None:
        cfg = dataclasses.replace(cfg, mode=mode)
    ensure_valid(cfg)
    return cfg


def _quantized_for(cfg: NetworkConfig, params: Params) -> Params:
    """params at cfg's format; a file quantized at another one is left to check_forward."""
    return params if params.is_quantized else quantize_params(params, cfg.qformat)


def _zero_params(cfg: NetworkConfig) -> Params:
    layers = [
        LayerParams(
            np.zeros((n, k), dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )
        for k, n in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:])
    ]
    return Params(layers, cfg.qformat)


def _cycle_report(cfg: NetworkConfig) -> CycleReport:
    """Cycles are data-independent: one stepped inference of zero params on zeros."""
    return Engine(cfg, _zero_params(cfg)).run([QValue(0, cfg.qformat)] * cfg.layer_sizes[0])[1]


def _open_out(path):
    """A context manager for the output file at path, or for stdout at "-"."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="ascii", newline="\n")


# =============================================================================
# Commands
# =============================================================================

def _require_dataset(args, command: str) -> None:
    if not args.images or not args.labels:
        raise ConfigError(f"{command} requires --images and --labels")


def cmd_simulate(args) -> int:
    _require_dataset(args, "simulate")
    params = load_params(args.params)
    cfg = _build_config(args, params)
    qparams = _quantized_for(cfg, params)
    ds = load_dataset(args.images, args.labels, fold=args.fold, limit=args.limit)
    out_raw = forward_quantized_batch(cfg, qparams, quantize_array(ds.flat, cfg.qformat))
    preds = np.argmax(out_raw, axis=1).tolist()   # ties to the lowest index, as classify
    labels = ds.labels.tolist()
    n = len(labels)
    rows = []
    if n:
        # The stepped engine is ground truth: its one inference gives the cycle
        # report, and must reproduce the kernel's outputs.
        outputs, report = Engine(cfg, qparams).run(to_input_vector(ds.images[0], cfg.qformat))
        tp = throughput_report(report, args.clock_hz)
        engine_raw = [v.raw for v in outputs]
        if engine_raw != out_raw[0].tolist():
            raise ControlFault(
                f"batch kernel and stepped engine disagree on image 0: "
                f"{out_raw[0].tolist()} != {engine_raw}"
            )
        rows = [f"{idx},{label},{pred},{report.total_cycles}\n"
                for idx, (label, pred) in enumerate(zip(labels, preds))]

    with _open_out(args.out) as out:
        out.write(f"# schema={SIMULATE_SCHEMA}\n")
        out.write("index,label,prediction,cycles\n")
        out.writelines(rows)

    if n == 0:
        print("no images evaluated (limit 0)")
        return 0
    correct = sum(p == l for p, l in zip(preds, labels))
    print(f"images evaluated      {n}")
    print(f"accuracy              {correct / n:.4f} ({correct}/{n})")
    print(f"mode                  {report.mode.value}")
    print(f"cycles per inference  {report.total_cycles}")
    for lt in report.per_layer:
        print(
            f"  layer {lt.layer}: mac={lt.mac_cycles} serialize={lt.serialize_cycles} "
            f"first_output@{lt.first_output_cycle} total={lt.total_cycles}"
        )
    print(f"fma utilization       {report.fma_utilization:.4f}")
    print(f"mac ops               {report.mac_ops}")
    print(f"gops @ {args.clock_hz / 1e6:.0f} MHz       {tp.gops:.3f}")
    print(f"inferences per sec    {tp.inferences_per_sec:.1f}")
    return 0


def cmd_timing(args) -> int:
    if args.n_list:
        n = _int_list(args.n_list, "--n-list")
        tp, tr = t_parallel(n), t_reuse(n)   # both validate n before anything prints
        print(f"n = {n} (literal)")
        print(f"t_parallel = {tp}")
        print(f"t_reuse    = {tr}")
        return 0

    # Both totals are printed, so the config is validated in store mode whatever mode it names.
    params = load_params(args.params) if args.params else None
    cfg = _build_config(args, params, Mode.STORE_AND_FORWARD)
    full, compute = cfg.layer_sizes, cfg.layer_sizes[1:]
    print(f"layer configuration   {':'.join(str(s) for s in cfg.layer_sizes)}")
    print("closed forms (n including the input stage):")
    print(f"  t_parallel = {t_parallel(full)}")
    print(f"  t_reuse    = {t_reuse(full)}")
    print("closed forms (n = compute layers only):")
    print(f"  t_parallel = {t_parallel(compute)}")
    print(f"  t_reuse    = {t_reuse(compute)}")
    if cfg.n_layers == 1:
        print("  note: single-layer network; t_reuse closed form is degenerate")

    print(f"simulated store-and-forward total = {_cycle_report(cfg).total_cycles}")
    streamed = dataclasses.replace(cfg, mode=Mode.STREAMED)
    if validate(streamed):   # only tiled layers stop a valid config from streaming
        print("simulated streamed total = n/a (tiled layers require store-and-forward)")
    else:
        print(f"simulated streamed total = {_cycle_report(streamed).total_cycles}")
    print(f"af units saved        {af_savings(cfg)} (per layer: {per_layer_af_savings(cfg)})")
    return 0


def cmd_sweep(args) -> int:
    _require_dataset(args, "sweep")
    params = load_params(args.params)
    if params.is_quantized:
        raise ConfigError("sweep needs a float parameter file")
    widths = _int_list(args.bits_list, "--bits-list")
    ds = load_dataset(args.images, args.labels, fold=args.fold, limit=args.limit)

    # --int-bits is applied to the swept widths only: with --bits' default of 8
    # it could fail the base config on a format that is never swept.
    base = _build_config(argparse.Namespace(**{**vars(args), "bits": None, "int_bits": None}),
                         params)
    int_bits = base.qformat.int_bits if args.int_bits is None else args.int_bits
    cfgs = [dataclasses.replace(base, qformat=QFormat(w, int_bits)) for w in widths]
    for cfg in cfgs:
        ensure_valid(cfg)
    cycles = _cycle_report(base).total_cycles
    rows = []
    for width, cfg in zip(widths, cfgs):
        qparams = quantize_params(params, cfg.qformat)
        out_raw = forward_quantized_batch(cfg, qparams, quantize_array(ds.flat, cfg.qformat))
        preds = np.argmax(out_raw, axis=1)
        accuracy = float(np.mean(preds == ds.labels)) if len(ds) else 0.0
        rows.append((width, accuracy, cycles))

    with _open_out(args.out) as out:
        out.write(f"# schema={SWEEP_SCHEMA}\n")
        out.write("bits,accuracy,cycles\n")
        for width, accuracy, cycles in rows:
            out.write(f"{width},{accuracy:.6f},{cycles}\n")
    for width, accuracy, cycles in rows:
        print(f"bits={width:>2}  accuracy={accuracy:.4f}  cycles={cycles}")
    return 0


def cmd_train(args) -> int:
    _require_dataset(args, "train")
    if args.layers is None and args.config is None:
        args.layers = "196:64:32:32:10"
    cfg = _build_config(args, None)
    ds = load_dataset(args.images, args.labels, fold=args.fold, limit=args.limit)
    params = train_minimal(
        ds.flat,
        ds.labels,
        cfg,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    save_params(args.out, params)
    print(f"wrote float parameters for {':'.join(str(s) for s in cfg.layer_sizes)} to {args.out}")
    return 0


def cmd_quantize(args) -> int:
    params = load_params(args.params)
    fmt = QFormat(args.bits, args.int_bits)
    qparams = quantize_params(params, fmt)   # raises if already quantized
    save_params(args.out, qparams)
    print(f"wrote {fmt} parameters to {args.out}")
    return 0


def cmd_trace(args) -> int:
    if bool(args.images) != bool(args.labels):
        raise ConfigError("trace needs both --images and --labels, or neither")
    if args.index is not None and not args.images:
        raise ConfigError("trace --index needs --images and --labels")
    index = args.index or 0
    if index < 0:
        raise ConfigError(f"--index must be >= 0, got {index}")
    params = load_params(args.params)
    cfg = _build_config(args, params)
    qparams = _quantized_for(cfg, params)
    if args.images:
        ds = load_dataset(args.images, args.labels, fold=args.fold, limit=index + 1)
        if index >= len(ds):
            raise ConfigError(f"--index {index} out of range for dataset of {len(ds)}")
        x = to_input_vector(ds.images[index], cfg.qformat)
    else:
        x = [QValue(0, cfg.qformat)] * cfg.layer_sizes[0]

    # Built before --out is opened: a rejected trace leaves that file as it was.
    engine = Engine(cfg, qparams)
    with _open_out(args.out) as out:
        engine.trace_hook = lambda r: out.write(r.line() + "\n")
        outputs, report = engine.run(x)
    print(f"traced {report.total_cycles} cycles; prediction {classify(outputs)}", file=sys.stderr)
    return 0


# =============================================================================
# Argument parsing
# =============================================================================

def _add_common(p: argparse.ArgumentParser, *, dataset: bool, limit: bool = False,
                bits: bool = True) -> None:
    p.add_argument("--config", help="JSON network config file")
    p.add_argument("--layers", help="layer sizes as input:n1:...:nk (e.g. 196:64:32:32:10)")
    p.add_argument("--max-fma", type=int, default=None, help="physical FMA units (default 64)")
    if bits:
        p.add_argument("--bits", type=int, default=None,
                       help="total bits of the fixed-point format")
    p.add_argument("--int-bits", type=int, default=None,
                   help="integer bits incl. sign (default 3)")
    p.add_argument("--mode", choices=_MODE_NAMES, default=None,
                   help="engine mode (default store)")
    p.add_argument("--af", choices=_AF_NAMES, default=None,
                   help="hidden-layer activation (output layer stays identity)")
    p.add_argument("--softmax-cycles", type=int, default=None,
                   help="constant added to total cycles for the output stage")
    p.add_argument("--tiling", action="store_true", default=None,
                   help="allow layers wider than max_fma via multiple passes")
    if dataset:
        p.add_argument("--images", help="MNIST IDX image file (.gz ok)")
        p.add_argument("--labels", help="MNIST IDX label file (.gz ok)")
        p.add_argument("--fold", choices=FOLD_MODES, default="mean",
                       help="28x28 -> 14x14 reduction (default mean)")
    if limit:
        p.add_argument("--limit", type=int, default=None, help="use at most N images")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrasim",
        description="Cycle-accurate simulator for a layer-multiplexed DNN accelerator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the cycle engine over a dataset")
    _add_common(p, dataset=True, limit=True)
    p.add_argument("--params", required=True, help="parameter file (float or quantized)")
    p.add_argument("--out", default="-", help="per-image CSV output path (default stdout)")
    p.add_argument("--clock-hz", type=float, default=100e6, help="clock for GOPS (default 100 MHz)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("timing", help="closed-form and simulated cycle counts")
    _add_common(p, dataset=False)
    p.add_argument("--params", default=None, help="parameter file to derive layer sizes from")
    p.add_argument("--n-list", default=None,
                   help="comma-separated n(l) list for literal closed-form evaluation")
    p.set_defaults(func=cmd_timing)

    # No abbreviations: --bits, which sweep does not take, would abbreviate --bits-list.
    p = sub.add_parser("sweep", help="bit-width sweep of a float model", allow_abbrev=False)
    _add_common(p, dataset=True, limit=True, bits=False)
    p.add_argument("--params", required=True, help="float parameter file")
    p.add_argument("--bits-list", default="5,8,16,32", help="comma-separated widths")
    p.add_argument("--out", default="-", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train a float model (deterministic)")
    _add_common(p, dataset=True, limit=True)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out", required=True, help="output parameter file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="quantize a float parameter file")
    p.add_argument("--params", required=True, help="float parameter file")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--int-bits", type=int, default=3)
    p.add_argument("--out", required=True, help="output parameter file")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("trace", help="dump the per-cycle FSM trace of one inference")
    _add_common(p, dataset=True)
    p.add_argument("--params", required=True, help="parameter file (float or quantized)")
    p.add_argument("--index", type=int, default=None,
                   help="dataset image index (default 0); needs --images and --labels")
    p.add_argument("--out", default="-", help="trace output path (default stdout)")
    p.set_defaults(func=cmd_trace)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A warning prints as one line whatever the caller's filters, which
        # catch_warnings restores on exit, with the caller's handler.
        with warnings.catch_warnings():
            warnings.simplefilter("default", UserWarning)
            warnings.showwarning = _print_warning
            return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except (ValueError, ControlFault) as exc:   # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
