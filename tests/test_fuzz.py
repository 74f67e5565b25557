"""Seeded byte-mutation fuzzing of the input parsers.

Each mutant of a valid IDX file, parameter file or network config must come
out as parsed data or a typed error; through the CLI, as exit 0, or exit 1
with `error: ...` on stderr.  Nothing else may escape.
"""

import json

import numpy as np
import pytest

from conftest import synthetic_digits, write_idx_images, write_idx_labels
from hydrasim import cli
from hydrasim.dataio import IdxFormatError, load_idx_images, load_idx_labels
from hydrasim.errors import ParamsFileError
from hydrasim.fxp import QFormat
from hydrasim.model import NetworkConfig, init_params, load_params, quantize_params, save_params


def _mutants(rng, data: bytes, n: int, header: int):
    """n copies of data, each with 1-3 bytes replaced, inserted or deleted.

    Half of the edits land in the first `header` bytes, where a parser
    branches, the rest anywhere.  Three in four new bytes are drawn from data
    itself, so that a JSON mutant is often still JSON.
    """
    own = np.frombuffer(data, np.uint8)
    for _ in range(n):
        d = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            span = header if rng.integers(2) else len(d)
            pos = int(rng.integers(max(1, min(span, len(d)))))
            byte = int(rng.choice(own) if rng.integers(4) else rng.integers(256))
            op = rng.integers(3)
            if op == 0 and d:
                d[pos] = byte
            elif op == 1:
                d.insert(pos, byte)
            elif d:
                del d[pos]
        yield bytes(d)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_idx_parser_mutants_parse_or_raise_typed_errors(tmp_path, suffix):
    images, labels = synthetic_digits(2, seed=4)
    files = [(write_idx_images(tmp_path / f"img{suffix}", images), load_idx_images, 16, (28, 28)),
             (write_idx_labels(tmp_path / f"lab{suffix}", labels), load_idx_labels, 8, ())]
    rng = np.random.default_rng(61 + len(suffix))
    outcomes = {"parsed": 0, "error": 0}
    for path, load, header, shape in files:
        data = path.read_bytes()
        mutant = tmp_path / f"mutant{suffix}"
        for blob in _mutants(rng, data, 150, header + 10 * bool(suffix)):
            mutant.write_bytes(blob)
            try:
                arr = load(mutant)
            except IdxFormatError:
                outcomes["error"] += 1
            else:
                outcomes["parsed"] += 1
                assert arr.dtype == np.uint8 and arr.shape[1:] == shape
    assert outcomes["parsed"] and outcomes["error"]


@pytest.mark.parametrize("quantized", [False, True])
def test_load_params_mutants_parse_or_raise_typed_errors(tmp_path, quantized):
    cfg = NetworkConfig((3, 2, 2))
    params = init_params(cfg, seed=1)
    if quantized:
        params = quantize_params(params, QFormat(8, 3))
    path = tmp_path / "p.json"
    save_params(path, params)
    data = path.read_bytes()
    rng = np.random.default_rng(71 + quantized)
    outcomes = {"parsed": 0, "error": 0}
    for blob in _mutants(rng, data, 300, len(data)):
        path.write_bytes(blob)
        try:
            loaded = load_params(path)
        except ParamsFileError:
            outcomes["error"] += 1
        else:
            outcomes["parsed"] += 1
            for lp in loaded.layers:
                assert lp.weights.dtype == lp.biases.dtype == (np.int64 if quantized else np.float64)
    assert outcomes["parsed"] and outcomes["error"]


def test_config_mutants_exit_0_or_1_with_an_error_line(tmp_path, capsys):
    path = tmp_path / "net.json"
    valid = json.dumps({
        "layer_sizes": [6, 4, 3], "max_fma": 4, "qformat": {"total_bits": 8, "int_bits": 3},
        "af_per_layer": ["sigmoid", "identity"], "mode": "stream", "softmax_cycles": 2,
    }).encode("ascii")
    rng = np.random.default_rng(81)
    codes = []
    for blob in _mutants(rng, valid, 500, len(valid)):
        path.write_bytes(blob)
        rc = cli.main(["timing", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (blob, rc, err)
        codes.append(rc)
    assert 0 in codes and 1 in codes
