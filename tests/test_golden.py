"""Golden outputs: every valid command's exit code, stdout and files, by sha256.

Each case runs `cli.main` in an empty working directory and records the exit
code, the sha256 of stdout and the sha256 of every file the command wrote
there; `golden.json` holds the expected records.  Stderr is not hashed, but it
must hold no `error:` line.

The inputs give the same bytes on every platform: image bytes, labels and
weights are cut from the sha256 of a counter (no numpy Generator, whose
stream NEP 19 does not promise across releases), float weights are dyadic
(k / 2^8, exact in JSON text), and no case trains (float BLAS sums differ
between builds).

The test never writes the table.  To print a new one:

    PYTHONPATH=src python tests/test_golden.py --regen > tests/golden.json

A replaced table needs a reason for each case it changes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from hydrasim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
LAYERS = (196, 64, 32, 32, 10)
N_IMAGES = 24

_DATA = ["--images", "{images}", "--labels", "{labels}"]
_SIM = ["simulate", "--params", "{fparams}", *_DATA]
_SWEEP = ["sweep", "--params", "{fparams}", *_DATA]
_ALL_WIDTHS = "4,5,6,7,8,12,16,20,24,31,32,40,48,54,55,56,60,63,64"

CASES = {
    "timing-store": ["timing", "--layers", "196:64:32:32:10"],
    "timing-stream": ["timing", "--layers", "196:64:32:32:10", "--mode", "stream"],
    "timing-tiled": ["timing", "--layers", "8:100:4", "--max-fma", "64", "--tiling"],
    "timing-tiling-unused": ["timing", "--layers", "196:64:32:32:10", "--tiling"],
    "timing-n-list": ["timing", "--n-list", "196,64,32,32,10"],
    "timing-single-layer": ["timing", "--layers", "6:3"],
    "timing-params": ["timing", "--params", "{fparams}", "--softmax-cycles", "20"],
    "timing-config": ["timing", "--config", "{cfg_tiled}"],
    "simulate-store": [*_SIM, "--out", "run.csv"],
    "simulate-stream": [*_SIM, "--mode", "stream", "--out", "run.csv"],
    "simulate-tiled": [*_SIM, "--max-fma", "40", "--tiling", "--out", "run.csv"],
    "simulate-sigmoid-q16": [*_SIM, "--bits", "16", "--af", "sigmoid", "--mode", "stream",
                             "--out", "run.csv"],
    "simulate-q5-2": [*_SIM, "--bits", "5", "--int-bits", "2", "--out", "run.csv"],
    "simulate-q32": [*_SIM, "--bits", "32", "--out", "run.csv"],
    "simulate-q64": [*_SIM, "--bits", "64", "--int-bits", "3", "--out", "run.csv"],
    "simulate-quantized-file": ["simulate", "--params", "{qparams}", *_DATA, "--out", "run.csv"],
    "simulate-limit-0": [*_SIM, "--limit", "0", "--out", "run.csv"],
    "simulate-limit-7-stdout": [*_SIM, "--limit", "7"],
    "simulate-fold-max": [*_SIM, "--fold", "max", "--af", "identity", "--softmax-cycles", "5",
                          "--clock-hz", "50e6", "--out", "run.csv"],
    "simulate-fold-subsample": [*_SIM, "--fold", "subsample", "--max-fma", "80",
                                "--out", "run.csv"],
    "sweep-default": [*_SWEEP, "--out", "sweep.csv"],
    "sweep-4-64-config-int-bits": [*_SWEEP, "--config", "{cfg_int2}", "--bits-list", _ALL_WIDTHS,
                                   "--out", "sweep.csv"],
    "sweep-stream-sigmoid-stdout": [*_SWEEP, "--mode", "stream", "--af", "sigmoid",
                                    "--bits-list", "8,16", "--limit", "10"],
    "trace-dataset": ["trace", "--params", "{fparams}", *_DATA, "--index", "3", "--bits", "16",
                      "--af", "sigmoid", "--mode", "stream", "--out", "trace.log"],
    "trace-zeros": ["trace", "--params", "{fparams}", "--out", "trace.log"],
    "trace-tiled-quantized": ["trace", "--params", "{qparams}", *_DATA, "--max-fma", "48",
                              "--tiling", "--out", "trace.log"],
    "trace-stdout": ["trace", "--params", "{qparams}", *_DATA, "--index", "5", "--mode", "stream"],
    "quantize-q8": ["quantize", "--params", "{fparams}", "--bits", "8", "--int-bits", "3",
                    "--out", "q.json"],
    "quantize-q16-4": ["quantize", "--params", "{fparams}", "--bits", "16", "--int-bits", "4",
                       "--out", "q.json"],
}


def _counter_bytes(tag: str, n: int) -> np.ndarray:
    """n bytes: sha256("tag:0") || sha256("tag:1") || ..., cut to length."""
    blob = b"".join(hashlib.sha256(f"{tag}:{i}".encode()).digest() for i in range(-(-n // 32)))
    return np.frombuffer(blob[:n], dtype=np.uint8)


def _params_doc(tag: str, qformat):
    """Parameters for LAYERS from bytes b: floats (b - 128) / 2^8, or raws (b - 128) >> 3."""
    layers = []
    for l, (k, n) in enumerate(zip(LAYERS[:-1], LAYERS[1:])):
        b = _counter_bytes(f"{tag}:{l}", n * k + n).astype(np.int64)
        v = (b - 128) / 256 if qformat == "float" else (b - 128) >> 3
        layers.append({"weights": v[:n * k].reshape(n, k).tolist(), "biases": v[n * k:].tolist()})
    return {"format_version": 1, "layer_sizes": list(LAYERS), "qformat": qformat,
            "layers": layers}


def write_inputs(root: Path) -> dict:
    """The input files every case reads, by the placeholder names of CASES."""
    docs = {
        "fparams": _params_doc("weights", "float"),
        "qparams": _params_doc("raws", {"total_bits": 8, "int_bits": 3}),
        "cfg_tiled": {"layer_sizes": [8, 100, 4], "max_fma": 64, "tiling": True,
                      "af_per_layer": ["sigmoid", "identity"], "softmax_cycles": 3},
        "cfg_int2": {"qformat": {"total_bits": 8, "int_bits": 2}},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="ascii")
    # Image i is dimmed by i % 3 bits and has 7-row band i % 4 blanked, so the
    # images differ by more than noise and the predictions spread over classes.
    noise = _counter_bytes("images", N_IMAGES * 28 * 28).reshape(N_IMAGES, 28, 28)
    band = np.arange(28)[:, None] // 7
    images = np.stack([(noise[i] >> i % 3) * (band != i % 4) for i in range(N_IMAGES)])
    paths["images"] = write_idx_images(root / "images-idx3-ubyte", images)
    paths["labels"] = write_idx_labels(root / "labels-idx1-ubyte",
                                       _counter_bytes("labels", N_IMAGES) % 10)
    return {name: str(path) for name, path in paths.items()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, inputs):
    """Run one case in the current (empty) directory: its record, and its stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([token.format(**inputs) for token in argv])
    files = {p.name: _sha(p.read_bytes()) for p in sorted(Path.cwd().iterdir())}
    record = {"argv": argv, "exit": rc, "stdout": _sha(stdout.getvalue().encode()),
              "files": files}
    return record, stderr.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_golden_table_names_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name, inputs, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record, stderr = run_case(CASES[name], inputs)
    assert not [line for line in stderr.splitlines() if line.startswith("error:")]
    assert record == golden[name]


def _regen() -> None:
    table, home = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        inputs = write_inputs(Path(root))
        for name, argv in CASES.items():
            with tempfile.TemporaryDirectory() as cwd:
                os.chdir(cwd)
                try:
                    table[name], stderr = run_case(argv, inputs)
                finally:
                    os.chdir(home)
            if any(line.startswith("error:") for line in stderr.splitlines()):
                sys.exit(f"{name}: {stderr.strip()}")
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
          + "\n}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen > tests/golden.json")
    _regen()
