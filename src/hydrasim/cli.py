"""Command-line surface.

Subcommands:
    simulate   predict a dataset with the exact batch kernel, report accuracy +
               the cycles of one stepped, cross-checked engine inference
    timing     closed-form vs simulated cycle counts, AF savings
    sweep      quantize a float model at several bit-widths, report accuracy
    train      train a float model with the minimal deterministic trainer
    quantize   convert a float parameter file to a quantized one
    trace      dump the per-cycle FSM trace of one inference

Each subcommand registers only the flags it reads, and no parser accepts an
abbreviated flag, so a flag that would change nothing exits 2.  main builds the
parser on every call with all six subcommands registered, but adds flags only
to the one argv names (to all six when its first token names none, as for
--help or a typo), from one table, _COMMANDS.  A network flag
overrides --config, which overrides the parameter file; each command then
validates exactly the configs it runs.  Simulated cycles depend only on the
network config, never on the data: `simulate`, `timing` and `sweep` read
them off engine.cycle_report, and `simulate` steps the engine once per
command, to cross-check image 0.  `simulate` and `sweep` share one image
path: the IDX pair is read once, then each row chunk of about fxp._CHUNK
input elements is folded once and run through every config of the command
(the runner prepare_batch returns, which quantizes the chunk, then argmax),
so no array grows with the dataset beyond the file bytes and the per-image
results.  All CSV output is deterministic for fixed inputs: rows are ordered
by input index and floats are printed with a fixed format.  Errors print as one
`error: ...` line and warnings as one `warning: ...` line each, both on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import re
import sys
import warnings

import numpy as np

from . import model
from .datapath import AfKind
from .dataio import FOLD_MODES, fold_images, load_dataset, load_idx_pair, to_input_vector
from .engine import Engine, classify, cycle_report
from .errors import ConfigError, ControlFault
from .fxp import _CHUNK, QFormat, QValue
from .model import (
    Mode,
    NetworkConfig,
    Params,
    ensure_valid,
    load_params,
    prepare_batch,
    quantize_params,
    read_json_object,
    save_params,
    train_minimal,
    validate,
    validate_layers,
)
from .timing import af_savings, per_layer_af_savings, t_parallel, t_reuse, throughput_report

SIMULATE_SCHEMA = "hydrasim.simulate.v1"
SWEEP_SCHEMA = "hydrasim.sweep.v1"
_MODE_NAMES = sorted(m.value for m in Mode)
_AF_NAMES = sorted(k.value for k in AfKind)

# simulate and sweep call the runner prepare_batch returns.  quantize_array and
# the kernel's raw-code entry stay names of this module, beside the library
# calls the commands make, for code that looks those up here.
forward_quantized_batch = model.forward_quantized_batch
quantize_array = model.quantize_array


# Integer and real tokens: an optional sign and ASCII digits (a real's with a
# point, an exponent, or as inf or nan).  int() and float() alone would also
# read underscores, surrounding spaces and non-ASCII digits.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_FLOAT_TOKEN = re.compile(r"(?i)[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf(inity)?|nan)")


def _token_type(token: re.Pattern, convert):
    """The argparse type of a scalar flag: one token, converted by convert."""
    def parse(text: str):
        with contextlib.suppress(ValueError):   # int() refuses a token past its digit limit
            if token.fullmatch(text):
                return convert(text)
        raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
    return parse


_int = _token_type(_INT_TOKEN, int)
_float = _token_type(_FLOAT_TOKEN, float)


def _int_list(text: str, flag: str, sep: str = ",") -> list[int]:
    """The integers of a sep-separated list flag, whose name every error holds; a
    token must match _INT_TOKEN, so an empty one is an error."""
    try:
        bad = [tok for tok in text.split(sep) if not _INT_TOKEN.fullmatch(tok)]
        if bad:
            raise ValueError(f"{bad[0]!r} is not an integer")
        return [int(tok) for tok in text.split(sep)]
    except ValueError as exc:   # int() also refuses a token past its digit limit
        raise ConfigError(f"{flag}: {exc}") from None


def _build_config(args, params: Params | None) -> NetworkConfig:
    """Resolve each config field from a flag, else --config, else params, else its default.

    A flag the command does not register counts as not given.  Each command
    validates the configs it runs."""
    flag = vars(args).get
    doc = {}
    if params is not None:
        doc["layer_sizes"] = list(params.layer_sizes)
        if params.is_quantized:
            doc["qformat"] = dataclasses.asdict(params.qformat)
    if flag("config"):
        doc.update(read_json_object(args.config, ConfigError)[0])
    if flag("layers"):
        doc["layer_sizes"] = _int_list(args.layers, "--layers", ":")
    bits, int_bits = flag("bits"), flag("int_bits")
    if bits is not None or int_bits is not None:   # a flag replaces the whole format
        q = NetworkConfig.qformat
        doc["qformat"] = {"total_bits": q.total_bits if bits is None else bits,
                          "int_bits": q.int_bits if int_bits is None else int_bits}
    fields = ("max_fma", "mode", "softmax_cycles")
    doc.update({name: flag(name) for name in fields if flag(name) is not None})
    if flag("af"):
        doc.pop("af_per_layer", None)
    cfg = NetworkConfig.from_dict(doc)
    if flag("af"):   # hidden layers only; the output layer stays identity
        afs = (AfKind(args.af),) * (cfg.n_layers - 1) + (AfKind.IDENTITY,)
        cfg = dataclasses.replace(cfg, af_per_layer=afs)
    return cfg


def _quantized_for(cfg: NetworkConfig, params: Params) -> Params:
    """params at cfg's format; a file quantized at another one is left to check_forward."""
    return params if params.is_quantized else quantize_params(params, cfg.qformat)


def _chunk_outputs(images, labels, fold: str, kernels):
    """Per row chunk of the byte images: its labels, its folded images and each
    kernel's raw outputs on them.

    A chunk holds about _CHUNK input elements and is folded once for every
    kernel, each of which quantizes it itself, so every array made here is
    chunk-sized.
    """
    step = max(1, _CHUNK // 196)
    for lo in range(0, len(images), step):
        folded = fold_images(images[lo:lo + step], fold)
        yield labels[lo:lo + step], folded, [run(folded.reshape(-1, 196)) for run in kernels]


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
    ensure_valid(cfg)
    qparams = _quantized_for(cfg, params)
    report = cycle_report(cfg)   # cycles depend only on the config
    tp = throughput_report(report, args.clock_hz)
    images, labels = load_idx_pair(args.images, args.labels, args.limit)
    kernel = prepare_batch(cfg, qparams)
    preds = []
    for _, folded, (out_raw,) in _chunk_outputs(images, labels, args.fold, [kernel]):
        if not preds:
            # The stepped engine is ground truth: its one inference must
            # reproduce the kernel's outputs on image 0.
            outputs, _ = Engine(cfg, qparams).run(to_input_vector(folded[0], cfg.qformat))
            engine_raw = [v.raw for v in outputs]
            if engine_raw != out_raw[0].tolist():
                raise ControlFault(
                    f"batch kernel and stepped engine disagree on image 0: "
                    f"{out_raw[0].tolist()} != {engine_raw}"
                )
        preds += np.argmax(out_raw, axis=1).tolist()   # ties to the lowest index, as classify
    labels = labels.tolist()
    n = len(labels)
    rows = [f"{idx},{label},{pred},{report.total_cycles}\n"
            for idx, (label, pred) in enumerate(zip(labels, preds))]

    with _open_out(args.out) as out:
        out.write(f"# schema={SIMULATE_SCHEMA}\n")
        out.write("index,label,prediction,cycles\n")
        out.writelines(rows)

    if n == 0:
        print(f"no images evaluated ({'limit 0' if args.limit == 0 else 'empty dataset'})")
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
    print(f"gops @ {_clock_label(args.clock_hz)}       {tp.gops:.3f}")
    print(f"inferences per sec    {tp.inferences_per_sec:.1f}")
    return 0


def _clock_label(hz: float) -> str:
    """A clock rate to six significant digits: in MHz from 1 MHz, else in Hz,
    so no positive clock reads as 0."""
    return f"{hz / 1e6:g} MHz" if hz >= 1e6 else f"{hz:g} Hz"


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
    cfg = dataclasses.replace(_build_config(args, params), mode=Mode.STORE_AND_FORWARD)
    ensure_valid(cfg)
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

    print(f"simulated store-and-forward total = {cycle_report(cfg).total_cycles}")
    streamed = dataclasses.replace(cfg, mode=Mode.STREAMED)
    if validate(streamed):   # only tiled layers stop a valid config from streaming
        print("simulated streamed total = n/a (tiled layers require store-and-forward)")
    else:
        print(f"simulated streamed total = {cycle_report(streamed).total_cycles}")
    print(f"af units saved        {af_savings(cfg)} (per layer: {per_layer_af_savings(cfg)})")
    return 0


def cmd_sweep(args) -> int:
    _require_dataset(args, "sweep")
    params = load_params(args.params)
    if params.is_quantized:
        raise ConfigError("sweep needs a float parameter file")
    widths = _int_list(args.bits_list, "--bits-list")
    images, labels = load_idx_pair(args.images, args.labels, args.limit)

    base = _build_config(args, params)
    int_bits = base.qformat.int_bits if args.swept_int_bits is None else args.swept_int_bits
    cfgs = [dataclasses.replace(base, qformat=QFormat(w, int_bits)) for w in widths]
    for cfg in cfgs:
        ensure_valid(cfg)
    cycles = cycle_report(cfgs[0]).total_cycles
    kernels = [prepare_batch(cfg, quantize_params(params, cfg.qformat)) for cfg in cfgs]
    hits = [0] * len(cfgs)
    for chunk_labels, _, outs in _chunk_outputs(images, labels, args.fold, kernels):
        for i, out_raw in enumerate(outs):
            hits[i] += int(np.count_nonzero(np.argmax(out_raw, axis=1) == chunk_labels))
    n = len(labels)
    rows = [(width, hit / n if n else 0.0, cycles) for width, hit in zip(widths, hits)]

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
    ensure_valid(cfg, validate_layers)
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
    ensure_valid(cfg)
    qparams = _quantized_for(cfg, params)
    if args.images:
        images, _ = load_idx_pair(args.images, args.labels, index + 1)
        if index >= len(images):
            raise ConfigError(f"--index {index} out of range for dataset of {len(images)}")
        x = to_input_vector(fold_images(images[index:index + 1], args.fold)[0], cfg.qformat)
    else:
        x = [QValue(0, cfg.qformat)] * cfg.layer_sizes[0]

    # Built before --out is opened: a rejected trace leaves that file as it was.
    engine = Engine(cfg, qparams)
    with _open_out(args.out) as out:
        outputs, report = engine.run(x, trace_hook=lambda r: out.write(r.line() + "\n"))
    print(f"traced {report.total_cycles} cycles; prediction {classify(outputs)}", file=sys.stderr)
    return 0


# =============================================================================
# Argument parsing
# =============================================================================

# Each shared flag's argparse settings; a subcommand registers the ones it reads.
_FLAGS = {
    "--config": dict(help="JSON network config file"),
    "--layers": dict(help="layer sizes as input:n1:...:nk (e.g. 196:64:32:32:10)"),
    "--max-fma": dict(type=_int,
                      help="physical FMA units (default 64); wider layers run in passes"),
    "--bits": dict(type=_int, help="total bits of the fixed-point format (default 8)"),
    "--int-bits": dict(type=_int, help="integer bits incl. sign (default 3)"),
    "--mode": dict(choices=_MODE_NAMES, help="engine mode (default store)"),
    "--af": dict(choices=_AF_NAMES, help="hidden-layer activation (output layer stays identity)"),
    "--softmax-cycles": dict(type=_int, help="constant added to total cycles for the output stage"),
    "--images": dict(help="MNIST IDX image file (.gz ok)"),
    "--labels": dict(help="MNIST IDX label file (.gz ok)"),
    "--fold": dict(choices=FOLD_MODES, default="mean",
                   help="28x28 -> 14x14 reduction (default mean)"),
    "--limit": dict(type=_int, help="use at most N images"),
}
_NETWORK = "--config --layers --max-fma --bits --int-bits --mode --af --softmax-cycles"
_DATASET = "--images --labels --fold"

# Each subcommand's summary, handler, shared flags and own flags, in help order.
_COMMANDS = {
    "simulate": ("run the cycle engine over a dataset", cmd_simulate,
                 f"{_NETWORK} {_DATASET} --limit", {
        "--params": dict(required=True, help="parameter file (float or quantized)"),
        "--out": dict(default="-", help="per-image CSV output path (default stdout)"),
        "--clock-hz": dict(type=_float, default=100e6, help="clock for GOPS (default 100 MHz)"),
    }),
    "timing": ("closed-form and simulated cycle counts", cmd_timing,
               "--config --layers --max-fma --softmax-cycles", {
        "--params": dict(help="parameter file to derive layer sizes from"),
        "--n-list": dict(help="comma-separated n(l) list for literal closed-form evaluation"),
    }),
    "sweep": ("bit-width sweep of a float model", cmd_sweep,
              f"--config --layers --max-fma --mode --af --softmax-cycles {_DATASET} --limit", {
        "--int-bits": dict(dest="swept_int_bits", type=_int, metavar="INT_BITS",
                           help="integer bits of every swept width (default: the config's)"),
        "--params": dict(required=True, help="float parameter file"),
        "--bits-list": dict(default="5,8,16,32", help="comma-separated widths"),
        "--out": dict(default="-", help="CSV output path (default stdout)"),
    }),
    "train": ("train a float model (deterministic)", cmd_train,
              f"--config --layers --af {_DATASET} --limit", {
        "--seed": dict(type=_int, default=0, help="PRNG seed (default 0)"),
        "--epochs": dict(type=_int, default=3),
        "--lr": dict(type=_float, default=0.05),
        "--batch-size": dict(type=_int, default=32),
        "--out": dict(required=True, help="output parameter file"),
    }),
    "quantize": ("quantize a float parameter file", cmd_quantize, "", {
        "--bits": dict(_FLAGS["--bits"], default=NetworkConfig.qformat.total_bits),
        "--int-bits": dict(_FLAGS["--int-bits"], default=NetworkConfig.qformat.int_bits),
        "--params": dict(required=True, help="float parameter file"),
        "--out": dict(required=True, help="output parameter file"),
    }),
    "trace": ("dump the per-cycle FSM trace of one inference", cmd_trace,
              f"{_NETWORK} {_DATASET}", {
        "--params": dict(required=True, help="parameter file (float or quantized)"),
        "--index": dict(type=_int, default=None,
                        help="dataset image index (default 0); needs --images and --labels"),
        "--out": dict(default="-", help="trace output path (default stdout)"),
    }),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hydrasim parser.  Every subcommand is registered, so usage, help and
    the invalid-choice error name all six; only command's subparser gets its
    flags when command names one, else every subparser does."""
    parser = argparse.ArgumentParser(prog="hydrasim", allow_abbrev=False, description=(
        "Cycle-accurate simulator for a layer-multiplexed DNN accelerator"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, shared, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if command == name or command not in _COMMANDS:
            for flag in shared.split():
                p.add_argument(flag, **_FLAGS[flag])
            for flag, settings in own.items():
                p.add_argument(flag, **settings)
            p.set_defaults(func=func)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
