"""Shared pieces of the hydrasim benchmark: workloads, inputs, set-up calls.

Every file of the benchmark imports the package from the checkout's own
`src/` directory, never from an installed copy, so the numbers always belong
to the source tree being measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = "196:64:32:32:10"
MAX_FMA = 64
INT_BITS = 3

# Simulated counts of the benchmark network; the acceptance suite pins them.
STORE_CYCLES = 470
STREAM_CYCLES = 332
STREAM_LAST_OUTPUT_CYCLE = 342

# Enough for the synthetic classes to separate, so predictions vary per image.
TRAIN_EPOCHS = 60

# Each workload is a closed loop: one client in one process sends the next
# CLI request only after the previous one returned.
WORKLOADS = {
    # Stepping the engine is ~95% of the command; the batch path is unused.
    "simulate-store-q8": {
        "command": "simulate",
        "bits": 8,
        "mode": "store",
        "af": "relu",
        "train_lr": 0.05,
        "n_train": 600,
        "n_eval": 20,
        "oracle_sample": 6,
    },
    # The batch path dominates, its 32-bit object-array fallback most of all;
    # the engine runs only four zero-vector inferences.
    "sweep-q5-32": {
        "command": "sweep",
        "bits_list": [5, 8, 16, 32],
        "mode": "store",
        "af": "relu",
        "train_lr": 0.05,
        "n_train": 600,
        "n_eval": 2000,
        "oracle_sample": 3,
    },
    # Set-up-dominated single-image requests through streamed MAC overlap,
    # the sigmoid LUT and the per-cycle trace hook.
    "trace-stream-sigmoid-q16": {
        "command": "trace",
        "bits": 16,
        "mode": "stream",
        "af": "sigmoid",
        "train_lr": 0.5,
        "n_train": 600,
        "n_eval": 256,
        "index_pool": 16,
        "oracle_sample": 3,
    },
}


def import_hydrasim():
    """Import `hydrasim` from ROOT/src; exit 2 if the checkout has no source."""
    if not (SRC / "hydrasim" / "__init__.py").is_file():
        print(f"error: no hydrasim source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hydrasim
    import hydrasim.cli  # noqa: F401  (the command module the workloads drive)

    if Path(hydrasim.__file__).resolve().parent != SRC / "hydrasim":
        print(f"error: imported hydrasim from {hydrasim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return hydrasim


def widths(spec) -> list[int]:
    return list(spec.get("bits_list") or [spec["bits"]])


def net_config(hs, spec, bits: int):
    """The NetworkConfig the CLI builds for this workload at `bits`."""
    from hydrasim.datapath import AfKind
    from hydrasim.model import Mode, NetworkConfig

    sizes = tuple(int(s) for s in LAYERS.split(":"))
    kind = AfKind(spec["af"])
    afs = (kind,) * (len(sizes) - 2) + (AfKind.IDENTITY,)
    return NetworkConfig(
        layer_sizes=sizes,
        max_fma=MAX_FMA,
        qformat=hs.QFormat(bits, INT_BITS),
        af_per_layer=afs,
        mode=Mode(spec["mode"]),
    )


# -- inputs ---------------------------------------------------------------

def _synthetic_digits(rng, n, templates):
    """One template per class plus uniform noise, as uint8 28x28 images."""
    labels = rng.integers(0, len(templates), size=n)
    noise = rng.integers(0, 56, size=(n, 28, 28))
    images = (templates[labels] + noise).clip(0, 255).astype("uint8")
    return images, labels.astype("uint8")


def _write_idx(path, magic, dims, payload: bytes) -> None:
    """Big-endian IDX file, header packed by hand (independent of the parser)."""
    header = struct.pack(f">I{len(dims)}I", magic, *dims)
    Path(path).write_bytes(header + payload)


def generate_inputs(hs, spec, seed: int, workdir: Path) -> dict:
    """Write seeded IDX train/eval splits and trained float params into workdir.

    The program under test receives only these files.  Training uses a train
    split the workloads never evaluate on.
    """
    import numpy as np

    ss = np.random.SeedSequence(seed)
    t_seq, train_seq, eval_seq, fit_seq = ss.spawn(4)
    templates = np.random.default_rng(t_seq).integers(0, 200, size=(10, 28, 28))
    paths = {}
    for split, seq, n in (("train", train_seq, spec["n_train"]), ("eval", eval_seq, spec["n_eval"])):
        images, labels = _synthetic_digits(np.random.default_rng(seq), n, templates)
        paths[f"{split}_images"] = str(workdir / f"{split}-images-idx3-ubyte")
        paths[f"{split}_labels"] = str(workdir / f"{split}-labels-idx1-ubyte")
        _write_idx(paths[f"{split}_images"], 0x803, (n, 28, 28), images.tobytes())
        _write_idx(paths[f"{split}_labels"], 0x801, (n,), labels.tobytes())
    train = hs.load_dataset(paths["train_images"], paths["train_labels"])
    cfg = net_config(hs, spec, widths(spec)[0])
    fit_seed = int(np.random.default_rng(fit_seq).integers(0, 2**31))
    params = hs.train_minimal(train.flat, train.labels, cfg, epochs=TRAIN_EPOCHS,
                              lr=spec["train_lr"], seed=fit_seed)
    paths["params"] = str(workdir / "params.json")
    hs.save_params(paths["params"], params)
    return paths


# -- the workload's own set-up ----------------------------------------------

def setup_calls(hs, spec, paths) -> None:
    """The calls a command makes before its first inference.

    They go through the names `hydrasim.cli` looks up, as a command's calls
    do.  `setup_s` times them in a fresh process after `import hydrasim`; the
    traced run records them as the `setup` request.
    """
    cli = hs.cli
    params = cli.load_params(paths["params"])
    cli.load_dataset(paths["eval_images"], paths["eval_labels"])
    for bits in widths(spec):
        cfg = net_config(hs, spec, bits)
        cli.Engine(cfg, cli.quantize_params(params, cfg.qformat))


def argv_for(spec, paths, out_path, index: int | None = None) -> list[str]:
    """The `hydrasim` command line of one request."""
    argv = [spec["command"], "--params", paths["params"],
            "--images", paths["eval_images"], "--labels", paths["eval_labels"],
            "--layers", LAYERS, "--max-fma", str(MAX_FMA), "--int-bits", str(INT_BITS),
            "--mode", spec["mode"], "--af", spec["af"], "--out", str(out_path)]
    if spec["command"] == "sweep":
        argv += ["--bits-list", ",".join(str(b) for b in spec["bits_list"])]
    else:
        argv += ["--bits", str(spec["bits"])]
    if index is not None:
        argv += ["--index", str(index)]
    return argv


def trace_indices(spec, seed: int):
    """Endless seeded `trace --index` sequence over a small pool, so each repeats."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    pool = rng.choice(spec["n_eval"], size=spec["index_pool"], replace=False)
    while True:
        yield int(pool[rng.integers(0, len(pool))])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare_environment() -> None:
    """Tracing off and BLAS/OpenMP threads capped at the CPUs this process may use.

    Call before numpy is imported; child processes inherit the environment.
    """
    os.environ.pop("HYDRA_TRACE", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
