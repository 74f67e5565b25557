"""End-to-end CLI tests over synthetic IDX datasets in tmp dirs."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_digits, write_idx_images, write_idx_labels
import hydrasim
from hydrasim import cli
from hydrasim.cli import main
from hydrasim.datapath import AfKind
from hydrasim.dataio import fold_images, load_dataset, to_input_vector
from hydrasim.engine import Engine, classify
from hydrasim.fxp import _CHUNK, QFormat
from hydrasim.model import (
    Mode,
    NetworkConfig,
    forward_quantized_batch,
    init_params,
    load_params,
    prepare_batch,
    quantize_array,
    quantize_params,
    save_params,
)

LAYERS = "196:12:10"           # small topology keeps engine runs fast
CYCLES = (196 + 12 + 2) + (12 + 10 + 2)   # 234 in store-and-forward


@pytest.fixture(scope="module")
def float_params_file(tmp_path_factory, synth_dataset_dir):
    path = tmp_path_factory.mktemp("params") / "float.json"
    rc = main([
        "train",
        "--images", str(synth_dataset_dir["train_images"]),
        "--labels", str(synth_dataset_dir["train_labels"]),
        "--layers", LAYERS,
        "--epochs", "2",
        "--lr", "0.1",
        "--seed", "5",
        "--out", str(path),
    ])
    assert rc == 0
    return path


def test_train_deterministic_bytes(tmp_path, synth_dataset_dir):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        rc = main([
            "train",
            "--images", str(synth_dataset_dir["train_images"]),
            "--labels", str(synth_dataset_dir["train_labels"]),
            "--layers", LAYERS,
            "--epochs", "1",
            "--seed", "9",
            "--out", str(path),
        ])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_quantize_roundtrip_and_double_quantize_error(tmp_path, float_params_file, capsys):
    qpath = tmp_path / "q8.json"
    assert main(["quantize", "--params", str(float_params_file),
                 "--bits", "8", "--int-bits", "3", "--out", str(qpath)]) == 0
    doc = json.loads(qpath.read_text())
    assert doc["qformat"] == {"total_bits": 8, "int_bits": 3}
    raws = [v for layer in doc["layers"] for row in layer["weights"] for v in row]
    assert all(-128 <= v <= 127 for v in raws)
    # quantizing a quantized file is an error
    rc = main(["quantize", "--params", str(qpath), "--out", str(tmp_path / "qq.json")])
    assert rc == 1
    assert "already quantized" in capsys.readouterr().err


def test_simulate_csv_and_summary(tmp_path, float_params_file, synth_dataset_dir, capsys):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "25",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=hydrasim.simulate.v1"
    assert lines[1] == "index,label,prediction,cycles"
    assert len(lines) == 2 + 25
    for i, line in enumerate(lines[2:]):
        idx, label, pred, cycles = line.split(",")
        assert int(idx) == i
        assert 0 <= int(label) <= 9 and 0 <= int(pred) <= 9
        assert int(cycles) == CYCLES
    summary = capsys.readouterr().out
    assert "accuracy" in summary and f"cycles per inference  {CYCLES}" in summary
    assert "gops" in summary


def test_simulate_deterministic_bytes(tmp_path, float_params_file, synth_dataset_dir):
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        rc = main([
            "simulate",
            "--params", str(float_params_file),
            "--images", str(synth_dataset_dir["test_images"]),
            "--labels", str(synth_dataset_dir["test_labels"]),
            "--limit", "10",
            "--out", str(out),
        ])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_limit_zero_writes_header_only(tmp_path, float_params_file, synth_dataset_dir, capsys):
    out = tmp_path / "empty.csv"
    rc = main([
        "simulate",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "0",
        "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines() == [
        "# schema=hydrasim.simulate.v1",
        "index,label,prediction,cycles",
    ]
    assert "no images evaluated" in capsys.readouterr().out


def test_simulate_on_an_empty_dataset_names_no_limit(tmp_path, float_params_file, capsys):
    images, labels = synthetic_digits(0, seed=1)
    argv = ["simulate", "--params", str(float_params_file),
            "--images", str(write_idx_images(tmp_path / "imgs", images)),
            "--labels", str(write_idx_labels(tmp_path / "labels", labels)),
            "--out", str(tmp_path / "empty.csv")]
    for limit, said in ([], "empty dataset"), (["--limit", "3"], "empty dataset"), (["--limit", "0"], "limit 0"):
        assert main(argv + limit) == 0
        assert capsys.readouterr().out == f"no images evaluated ({said})\n"
        assert (tmp_path / "empty.csv").read_text().splitlines() == [
            "# schema=hydrasim.simulate.v1",
            "index,label,prediction,cycles",
        ]


def test_simulate_without_dataset_flags_fails(tmp_path, float_params_file, capsys):
    rc = main(["simulate", "--params", str(float_params_file), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "requires --images and --labels" in capsys.readouterr().err


def test_simulate_missing_params_fails_with_path(tmp_path, synth_dataset_dir, capsys):
    rc = main([
        "simulate",
        "--params", str(tmp_path / "nope.json"),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_simulate_streamed_mode(tmp_path, float_params_file, synth_dataset_dir, capsys):
    rc = main([
        "simulate",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "3",
        "--mode", "stream",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 0
    streamed_cycles = (196 + 2) + (12 + 2)
    assert f"cycles per inference  {streamed_cycles}" in capsys.readouterr().out


def test_timing_benchmark_numbers(capsys):
    rc = main(["timing", "--layers", "196:64:32:32:10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t_parallel = 328" in out
    assert "t_reuse    = 341" in out
    assert "t_parallel = 131" in out
    assert "t_reuse    = 143" in out
    assert "store-and-forward total = 470" in out
    assert "streamed total = 332" in out
    assert "af units saved        137" in out
    assert "[63, 31, 31, 9]" in out


def assert_one_warning_line(err, message):
    assert err == f"warning: {message}\n"
    assert "UserWarning" not in err and ".py:" not in err


@pytest.mark.parametrize("layers, streamed", [
    ("196:100:10", "n/a (tiled layers require store-and-forward)"),   # runs in two passes
    ("196:40:10", "240"),                                              # fits in one pass
])
def test_timing_streamed_total_under_tiling(capsys, layers, streamed):
    rc = main(["timing", "--layers", layers])
    assert rc == 0
    assert f"\nsimulated streamed total = {streamed}\n" in capsys.readouterr().out


def test_timing_output_does_not_depend_on_mode(tmp_path, capsys):
    # timing prints the store and the streamed total, so a --config naming
    # streamed mode with tiled layers is not an error there.
    assert main(["timing", "--layers", "8:100:4"]) == 0
    expected = capsys.readouterr().out
    assert "\nsimulated store-and-forward total = 226\n" in expected
    assert "\nsimulated streamed total = n/a (tiled layers require store-and-forward)\n" in expected
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"layer_sizes": [8, 100, 4], "mode": "stream"}))
    assert main(["timing", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr() == (expected, "")


def test_timing_single_layer_flagged(capsys):
    handler = warnings.showwarning
    rc = main(["timing", "--layers", "8:4", "--max-fma", "4"])
    assert rc == 0
    assert warnings.showwarning is handler
    out, err = capsys.readouterr()
    assert "degenerate" in out
    assert_one_warning_line(err, "t_reuse with L=1 is degenerate (evaluates to n(1) - 1)")


def test_timing_literal_n_list(capsys):
    rc = main(["timing", "--n-list", "196,64,32,32,10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t_parallel = 328" in out and "t_reuse    = 341" in out


_BAD_TIMING_LISTS = [
    (["--n-list", ","], "--n-list"),
    (["--n-list", "1,x"], "--n-list"),
    (["--layers", "196:x"], "--layers"),
    (["--layers", ":"], "--layers"),
    (["--n-list", "5,0"], "all n(l) must be >= 1, got (5, 0)"),
    (["--layers", "6::3"], "--layers"),    # an empty token is no integer
    (["--layers", ":6:3"], "--layers"),
    (["--layers", "6:3_0"], "--layers"),   # nor is a digit group int() would read
    (["--n-list", "5,,3"], "--n-list"),
    (["--n-list", "5, 3"], "--n-list"),
    (["--layers", "6,3"], "--layers: '6,3' is not an integer"),
]


@pytest.mark.parametrize("argv, named", _BAD_TIMING_LISTS,
                         ids=[f"argv{i}" for i in range(len(_BAD_TIMING_LISTS))])
def test_timing_bad_integer_list_prints_nothing(capsys, argv, named):
    rc = main(["timing", *argv])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and named in err


def test_sweep_bad_bits_list_names_the_flag(tmp_path, float_params_file, synth_dataset_dir, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--params", str(float_params_file),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--bits-list", "8,x", "--out", str(out)])
    assert rc == 1
    assert "--bits-list" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_csv(tmp_path, float_params_file, synth_dataset_dir):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "50",
        "--bits-list", "8,16",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=hydrasim.sweep.v1"
    assert lines[1] == "bits,accuracy,cycles"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["8", "16"]
    # cycle counts do not depend on the bit-width
    assert len({r[2] for r in rows}) == 1 and rows[0][2] == str(CYCLES)
    for r in rows:
        assert 0.0 <= float(r[1]) <= 1.0


def test_sweep_rejects_quantized_params(tmp_path, float_params_file, synth_dataset_dir, capsys):
    qpath = tmp_path / "q.json"
    main(["quantize", "--params", str(float_params_file), "--out", str(qpath)])
    rc = main([
        "sweep",
        "--params", str(qpath),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 1
    assert "float parameter file" in capsys.readouterr().err


def test_sweep_width4_accepted_with_warning(tmp_path, float_params_file, synth_dataset_dir,
                                            capsys):
    out = tmp_path / "w4.csv"
    rc = main([
        "sweep",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "10",
        "--bits-list", "4",
        "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines()[2].startswith("4,")
    assert_one_warning_line(capsys.readouterr().err,
                            "nonstandard bit-width 4 (standard set is (5, 8, 16, 32)); accepted")


def test_trace_command(tmp_path, float_params_file, synth_dataset_dir):
    out = tmp_path / "trace.log"
    rc = main([
        "trace",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--index", "0",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == CYCLES
    assert lines[0] == "cycle=1 phase=mac layer=0 active_fma=12"
    assert lines[-1].endswith("phase=ann_done layer=1 active_fma=0")


@pytest.mark.parametrize("fold", ["mean", "max"])
def test_trace_folds_only_the_image_it_traces(tmp_path, float_params_file, synth_dataset_dir,
                                              monkeypatch, fold):
    rows, traced = [], []

    def recording_fold(images, mode):
        rows.append(len(images))
        return fold_images(images, mode)

    def recording_input(img14, fmt):
        traced.append(np.array(img14))
        return to_input_vector(img14, fmt)

    monkeypatch.setattr(cli, "fold_images", recording_fold)
    monkeypatch.setattr(cli, "to_input_vector", recording_input)
    images, labels = synth_dataset_dir["test_images"], synth_dataset_dir["test_labels"]
    rc = main(["trace", "--params", str(float_params_file), "--images", str(images),
               "--labels", str(labels), "--index", "37", "--fold", fold,
               "--out", str(tmp_path / "trace.log")])
    assert rc == 0
    assert rows == [1]
    monkeypatch.undo()
    assert np.array_equal(traced[0], load_dataset(images, labels, fold=fold).images[37])


def test_rejected_trace_leaves_out_file_as_it_was(tmp_path, float_params_file, capsys):
    out = tmp_path / "trace.log"
    out.write_bytes(b"an earlier trace\n")
    rc = main(["trace", "--params", str(float_params_file), "--layers", "196:10",
               "--out", str(out)])
    assert rc == 1
    assert "error: parameter shapes" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier trace\n"


def test_af_override(tmp_path, float_params_file, synth_dataset_dir, capsys):
    rc = main([
        "simulate",
        "--params", str(float_params_file),
        "--af", "sigmoid",
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "2",
        "--out", str(tmp_path / "af.csv"),
    ])
    assert rc == 0
    capsys.readouterr()
    # sigmoid needs a LUT, which caps the format at 16 bits
    rc = main([
        "simulate",
        "--params", str(float_params_file),
        "--af", "sigmoid",
        "--bits", "32",
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "2",
        "--out", str(tmp_path / "af32.csv"),
    ])
    assert rc == 1
    assert "sigmoid" in capsys.readouterr().err.lower()


def test_config_file_honored(tmp_path, float_params_file, synth_dataset_dir, capsys):
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({
        "layer_sizes": [196, 12, 10],
        "max_fma": 16,
        "qformat": {"total_bits": 8, "int_bits": 3},
        "softmax_cycles": 7,
    }))
    rc = main([
        "simulate",
        "--config", str(cfg_path),
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "2",
        "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 0
    assert f"cycles per inference  {CYCLES + 7}" in capsys.readouterr().out


def test_quantized_params_with_mismatched_bits_rejected(tmp_path, float_params_file,
                                                        synth_dataset_dir, capsys):
    qpath = tmp_path / "q8.json"
    main(["quantize", "--params", str(float_params_file), "--out", str(qpath)])
    rc = main([
        "simulate",
        "--params", str(qpath),
        "--bits", "16",
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "1",
        "--out", str(tmp_path / "m.csv"),
    ])
    assert rc == 1
    assert "error: parameter format Q<8,3> != config format Q<16,3>" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_timing_sigmoid_wide_integer_format(tmp_path, capsys):
    # exp() of the most negative Q<16,12> value overflows binary64.  timing
    # takes no --af, --bits or --int-bits, so the format comes from --config.
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"qformat": {"total_bits": 16, "int_bits": 12},
                                    "af_per_layer": ["sigmoid", "identity"]}))
    rc = main(["timing", "--layers", "196:64:10", "--config", str(cfg_path)])
    assert rc == 0
    assert "store-and-forward total" in capsys.readouterr().out


@pytest.mark.parametrize("field", [
    {"af_per_layer": ["relu", "tanh"]},
    {"af_per_layer": [["relu"], "identity"]},
    {"mode": "pipelined"},
    {"qformat": {"total_bits": 8}},
    {"qformat": [8, 3]},
    {"max_fma": None},
])
def test_malformed_config_fields_are_errors(tmp_path, float_params_file, synth_dataset_dir,
                                            capsys, field):
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"layer_sizes": [196, 12, 10], **field}))
    rc = main([
        "simulate",
        "--config", str(cfg_path),
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "1",
        "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--limit", "-1"],
    ["trace", "--index", "-1"],
])
def test_negative_limit_and_index_are_errors(tmp_path, float_params_file, synth_dataset_dir,
                                             capsys, argv):
    out = tmp_path / "o.txt"
    rc = main(argv + [
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# The flags each command needs to get past argparse, before the one it rejects.
_REQUIRED = {
    "simulate": ["--params", "{params}", "--images", "{images}", "--labels", "{labels}"],
    "sweep": ["--params", "{params}", "--images", "{images}", "--labels", "{labels}"],
    "trace": ["--params", "{params}", "--images", "{images}", "--labels", "{labels}"],
    "train": ["--images", "{images}", "--labels", "{labels}", "--out", "p.json"],
    "timing": [],
    "quantize": ["--params", "{params}", "--out", "q.json"],
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "1"],
    ["sweep", "--seed", "1"],
    ["trace", "--seed", "1"],
    ["trace", "--index", "3", "--limit", "0"],
    ["sweep", "--bits", "16"],
    ["train", "--max-fma", "8"],
    ["train", "--bits", "32"],
    ["train", "--int-bits", "4"],
    ["train", "--mode", "stream"],
    ["train", "--softmax-cycles", "5"],
    ["train", "--tiling"],
    ["timing", "--bits", "16"],
    ["timing", "--int-bits", "4"],
    ["timing", "--af", "sigmoid"],
    ["timing", "--lay", "8:4"],          # no abbreviation stands for a flag
    ["simulate", "--par", "{params}"],
    ["trace", "--ind", "3"],
    ["train", "--epoch", "2"],
    ["simulate", "--tiling"],
    ["sweep", "--tiling"],
    ["trace", "--tiling"],
    ["timing", "--tiling"],
    ["timing", "--mode", "stream"],
])
def test_flags_a_command_never_reads_are_unrecognized(float_params_file, synth_dataset_dir,
                                                      capsys, argv):
    paths = {"params": float_params_file, "images": synth_dataset_dir["test_images"],
             "labels": synth_dataset_dir["test_labels"]}
    command, *flags = [tok.format(**paths) for tok in argv]
    with pytest.raises(SystemExit) as exc:
        main([command, *[tok.format(**paths) for tok in _REQUIRED[command]], *flags])
    assert exc.value.code == 2
    rejected = flags[max(i for i, tok in enumerate(flags) if tok.startswith("--")):]
    assert f"unrecognized arguments: {' '.join(rejected)}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, dest", [
    ("simulate", "--max-fma", "max_fma"),
    ("simulate", "--bits", "bits"),
    ("simulate", "--int-bits", "int_bits"),
    ("simulate", "--softmax-cycles", "softmax_cycles"),
    ("simulate", "--limit", "limit"),
    ("timing", "--max-fma", "max_fma"),
    ("sweep", "--int-bits", "swept_int_bits"),
    ("train", "--seed", "seed"),
    ("train", "--epochs", "epochs"),
    ("train", "--batch-size", "batch_size"),
    ("quantize", "--bits", "bits"),
    ("trace", "--index", "index"),
])
def test_scalar_integer_flags_take_only_integer_tokens(capsys, command, flag, dest):
    # The token rule of the integer list flags: int() alone reads 6_4, " 64" and Arabic-Indic 64.
    paths = {"params": "p.json", "images": "i", "labels": "l"}
    argv = [command, *[tok.format(**paths) for tok in _REQUIRED[command]]]
    assert getattr(cli.build_parser().parse_args([*argv, flag, "-64"]), dest) == -64
    past_limit = ["1" * 5000] if hasattr(sys, "get_int_max_str_digits") else []
    for bad in ("6_4", " 64", "64 ", "\u0666\u0664", "+", "", *past_limit):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value: {bad!r}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, dest", [
    ("simulate", "--clock-hz", "clock_hz"),
    ("train", "--lr", "lr"),
])
def test_scalar_float_flags_take_only_float_tokens(capsys, command, flag, dest):
    # float() alone reads 1_0e6, " 5" and the Arabic-Indic 5; inf and nan parse,
    # for the command to refuse.
    paths = {"params": "p.json", "images": "i", "labels": "l"}
    argv = [command, *[tok.format(**paths) for tok in _REQUIRED[command]]]
    for good, value in (("-1.5e+3", -1500.0), (".5", 0.5), ("5.", 5.0), ("7", 7.0),
                        ("1E6", 1e6), ("-inf", -math.inf), ("Infinity", math.inf)):
        assert getattr(cli.build_parser().parse_args([*argv, f"{flag}={good}"]), dest) == value
    assert math.isnan(getattr(cli.build_parser().parse_args([*argv, f"{flag}=NaN"]), dest))
    for bad in ("1_0e6", " 5", "5 ", "\u0665", "0x10", "1e", "e5", ".", "+", "", "infinite"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={bad}"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid float value: {bad!r}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, dropped", [
    ("simulate", []),
    ("timing", ["--bits", "--int-bits", "--mode", "--af", "--images", "--limit"]),
    ("sweep", ["--bits", "--seed"]),
    ("train", ["--max-fma", "--bits", "--int-bits", "--mode", "--softmax-cycles", "--tiling"]),
    ("quantize", ["--layers", "--af"]),
    ("trace", ["--limit", "--seed"]),
])
def test_help_names_only_registered_flags(capsys, command, dropped):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage, _, rest = capsys.readouterr().out.partition("\n\n")
    registered = set(re.findall(r"--[a-z][a-z-]*", usage)) | {"--help"}   # usage says -h
    assert set(re.findall(r"--[a-z][a-z-]*", rest)) <= registered
    assert not registered & set(dropped)


# Every flag of each command, one of its integer flags and its required flag
# (timing has none), for comparing the parser main builds with the full one.
_NETWORK_FLAGS = "--config --layers --max-fma --bits --int-bits --mode --af --softmax-cycles"
_ALL_FLAGS = {
    "simulate": (f"{_NETWORK_FLAGS} --images --labels --fold --limit --params --out --clock-hz",
                 "--limit", "--params"),
    "timing": ("--config --layers --max-fma --softmax-cycles --params --n-list", "--max-fma", None),
    "sweep": ("--config --layers --max-fma --mode --af --softmax-cycles --images --labels --fold "
              "--limit --int-bits --params --bits-list --out", "--int-bits", "--params"),
    "train": ("--config --layers --af --images --labels --fold --limit --seed --epochs --lr "
              "--batch-size --out", "--epochs", "--out"),
    "quantize": ("--bits --int-bits --params --out", "--bits", "--params"),
    "trace": (f"{_NETWORK_FLAGS} --images --labels --fold --params --index --out", "--index",
              "--params"),
}
_FLAG_VALUES = {
    "--config": "c.json", "--layers": "8:4", "--max-fma": "4", "--bits": "16", "--int-bits": "2",
    "--mode": "stream", "--af": "sigmoid", "--softmax-cycles": "1", "--images": "i",
    "--labels": "l", "--fold": "max", "--limit": "3", "--params": "p.json", "--out": "o",
    "--clock-hz": "1e3", "--n-list": "1,2", "--bits-list": "5,8", "--seed": "4", "--epochs": "2",
    "--lr": "0.5", "--batch-size": "8", "--index": "1",
}


def _parse_outcome(parse, argv, capsys):
    """(the Namespace, or the exit code, stdout, stderr) of parse(argv)."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("command", sorted(_ALL_FLAGS))
def test_parser_main_builds_behaves_as_the_full_parser(capsys, command):
    flags, int_flag, required = _ALL_FLAGS[command]
    full = [tok for flag in flags.split() for tok in (flag, _FLAG_VALUES[flag])]
    lazy = cli.build_parser(command)
    assert lazy.format_help() == cli.build_parser().format_help()
    namespace = lazy.parse_args([command, *full])
    assert namespace == cli.build_parser().parse_args([command, *full])
    assert None not in vars(namespace).values()   # the argv sets every flag
    errors = [["--help"], [*full, "--bogus"], [*full, int_flag, "1_0"],
              [*full, flags.split()[-1][:-1], "v"], [*full, flags.split()[-1]]]
    if required:
        i = full.index(required)
        errors.append(full[:i] + full[i + 2:])
    for argv in errors:
        outcome = _parse_outcome(main, [command, *argv], capsys)
        assert outcome == _parse_outcome(cli.build_parser().parse_args, [command, *argv], capsys)
        assert outcome[0] in (0, 2)
    assert "usage: hydrasim [-h] {simulate,timing,sweep,train,quantize,trace} ...\n" in (
        _parse_outcome(main, [command, *full, "--bogus"], capsys)[2])
    for sibling in set(_ALL_FLAGS) - {command}:   # registered, with -h alone
        bare = argparse.ArgumentParser(prog=f"hydrasim {sibling}").format_help()
        assert _parse_outcome(lazy.parse_args, [sibling, "-h"], capsys) == (0, bare, "")


@pytest.mark.parametrize("argv", [[], ["--help"], ["simulat"]])
def test_top_level_parse_of_main_equals_the_full_parser(capsys, argv):
    outcome = _parse_outcome(main, argv, capsys)
    assert outcome == _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert "{simulate,timing,sweep,train,quantize,trace}" in outcome[1] + outcome[2]


# The CLI flags of each case and the NetworkConfig fields they stand for.
SIMULATE_CASES = {
    "store": ([], {}),
    "stream": (["--mode", "stream"], {"mode": Mode.STREAMED}),
    "tiled": (["--max-fma", "8"], {"max_fma": 8}),
    "sigmoid": (["--af", "sigmoid", "--bits", "16"],
                {"qformat": QFormat(16, 3), "af_per_layer": (AfKind.SIGMOID, AfKind.IDENTITY)}),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_csv_equals_engine_stepped_on_every_image(tmp_path, float_params_file,
                                                           synth_dataset_dir, case):
    flags, fields = SIMULATE_CASES[case]
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--params", str(float_params_file),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--limit", "12", "--out", str(out), *flags])
    assert rc == 0
    cfg = NetworkConfig(tuple(int(s) for s in LAYERS.split(":")), **fields)
    engine = Engine(cfg, quantize_params(load_params(float_params_file), cfg.qformat))
    ds = load_dataset(synth_dataset_dir["test_images"], synth_dataset_dir["test_labels"],
                      limit=12)
    rows = ["# schema=hydrasim.simulate.v1", "index,label,prediction,cycles"]
    for idx in range(len(ds)):
        outputs, report = engine.run(to_input_vector(ds.images[idx], cfg.qformat))
        rows.append(f"{idx},{ds.labels[idx]},{classify(outputs)},{report.total_cycles}")
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


def test_simulate_kernel_engine_disagreement_is_an_error(tmp_path, float_params_file,
                                                         synth_dataset_dir, monkeypatch, capsys):
    def off_by_one(cfg, params):
        run = prepare_batch(cfg, params)

        def run_off(x):
            out = run(x)
            out[0, 0] += 1
            return out
        return run_off

    monkeypatch.setattr(cli, "prepare_batch", off_by_one)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--params", str(float_params_file),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--limit", "3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "image 0" in err
    assert not out.exists()


CHUNK_ROWS = max(1, _CHUNK // 196)   # 668 images per row chunk
# 2 * 668 + 1 = 1,337 images cross both chunk edges; the limits sit on and beside the first.
CHUNK_CASES = [(None, "mean"), ("0", "mean"), ("667", "mean"), ("668", "max"),
               ("669", "subsample")]


@pytest.fixture(scope="module")
def chunk_dataset_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("chunk_idx")
    images, labels = synthetic_digits(2 * CHUNK_ROWS + 1, seed=13)
    return write_idx_images(root / "images", images), write_idx_labels(root / "labels", labels)


def _whole_batch(files, limit, fold, fmt, params):
    """The reference: labels and raw outputs of forward_quantized_batch over the whole set."""
    ds = load_dataset(*files, fold=fold, limit=None if limit is None else int(limit))
    cfg = NetworkConfig(tuple(int(s) for s in LAYERS.split(":")), qformat=fmt)
    return ds, forward_quantized_batch(cfg, quantize_params(params, fmt),
                                       quantize_array(ds.flat, fmt))


@pytest.mark.parametrize("limit, fold", CHUNK_CASES)
def test_chunk_edges_simulate_matches_the_whole_batch(tmp_path, float_params_file,
                                                      chunk_dataset_files, monkeypatch,
                                                      limit, fold):
    inputs = []

    class RecordingEngine(Engine):
        def run(self, x):
            inputs.append([v.raw for v in x])
            return super().run(x)

    monkeypatch.setattr(cli, "Engine", RecordingEngine)
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--params", str(float_params_file), "--images", str(chunk_dataset_files[0]),
            "--labels", str(chunk_dataset_files[1]), "--fold", fold, "--out", str(out)]
    assert main(argv + ([] if limit is None else ["--limit", limit])) == 0
    ds, out_raw = _whole_batch(chunk_dataset_files, limit, fold, QFormat(8, 3),
                               load_params(float_params_file))
    preds = np.argmax(out_raw, axis=1)
    rows = ["# schema=hydrasim.simulate.v1", "index,label,prediction,cycles"]
    rows += [f"{i},{label},{pred},{CYCLES}" for i, (label, pred) in enumerate(zip(ds.labels, preds))]
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")
    # The engine cross-checks image 0 once, and only when there is an image 0.
    assert inputs == [[v.raw for v in to_input_vector(img, QFormat(8, 3))] for img in ds.images[:1]]


@pytest.mark.parametrize("limit, fold", CHUNK_CASES)
def test_chunk_edges_sweep_matches_the_whole_batch(tmp_path, float_params_file,
                                                   chunk_dataset_files, limit, fold):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--params", str(float_params_file), "--images", str(chunk_dataset_files[0]),
            "--labels", str(chunk_dataset_files[1]), "--fold", fold, "--out", str(out)]
    assert main(argv + ([] if limit is None else ["--limit", limit])) == 0
    rows = ["# schema=hydrasim.sweep.v1", "bits,accuracy,cycles"]
    for width in (5, 8, 16, 32):
        ds, out_raw = _whole_batch(chunk_dataset_files, limit, fold, QFormat(width, 3),
                                   load_params(float_params_file))
        accuracy = float(np.mean(np.argmax(out_raw, axis=1) == ds.labels)) if len(ds) else 0.0
        rows.append(f"{width},{accuracy:.6f},{CYCLES}")
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_chunk_non_finite_input_stops_the_batch_commands_before_any_csv_byte(
        tmp_path, float_params_file, chunk_dataset_files, monkeypatch, capsys, command):
    """A NaN in the last chunk's folded images, after two full chunks, is the
    runner's ValueError, raised before either command writes its CSV."""
    real_fold = cli.fold_images

    def fold_nan_late(imgs, mode):
        folded = real_fold(imgs, mode)
        if len(imgs) < CHUNK_ROWS:   # the one-image chunk after two full ones
            folded[-1, 3, 4] = math.nan
        return folded

    monkeypatch.setattr(cli, "fold_images", fold_nan_late)
    out = tmp_path / "out.csv"
    argv = [command, "--params", str(float_params_file), "--images", str(chunk_dataset_files[0]),
            "--labels", str(chunk_dataset_files[1]), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: cannot quantize non-finite values\n"
    assert not out.exists()


def test_chunk_pipeline_keeps_sweep_memory_chunk_sized(tmp_path, float_params_file):
    """sweep holds the image file's bytes and chunk-sized buffers, never a
    dataset-sized fold or quantized copy (12.5 MB each at these 8,000 images)."""
    rng = np.random.default_rng(14)
    n = 8000
    images = write_idx_images(tmp_path / "images", rng.integers(0, 256, (n, 28, 28), np.uint8))
    labels = write_idx_labels(tmp_path / "labels", rng.integers(0, 10, n, np.uint8))
    argv = ["sweep", "--params", str(float_params_file), "--images", str(images),
            "--labels", str(labels), "--out", str(tmp_path / "sweep.csv")]
    tracemalloc.start()   # numpy reports its buffers to tracemalloc
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured: the file plus 4.9 chunk buffers (numpy 2.4); a whole-dataset
    # fold and its quantized copy put it past 21.
    chunk_bytes = CHUNK_ROWS * 196 * 8
    assert peak <= images.stat().st_size + 8 * chunk_bytes, peak


def test_timing_and_sweep_build_no_engine(tmp_path, float_params_file, synth_dataset_dir,
                                          monkeypatch, capsys):
    """Cycles come from cycle_report: timing and sweep build no Engine, and
    simulate builds exactly one."""
    class NoEngine(Engine):
        def __init__(self, *args, **kwargs):
            raise AssertionError("this command builds no Engine")

    monkeypatch.setattr(cli, "Engine", NoEngine)
    # 156,250 passes of 64 units, for 40 million weights.
    assert main(["timing", "--layers", "4:10000000"]) == 0
    assert "simulated store-and-forward total = 10937500\n" in capsys.readouterr().out
    dataset = ["--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]), "--limit", "20"]
    rc = main(["sweep", "--params", str(float_params_file), *dataset,
               "--bits-list", "5,8,16", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert [line.split(",")[2] for line in (tmp_path / "s.csv").read_text().splitlines()[2:]] \
        == [str(CYCLES)] * 3

    built = []

    class CountingEngine(Engine):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "Engine", CountingEngine)
    rc = main(["simulate", "--params", str(float_params_file), *dataset,
               "--out", str(tmp_path / "sim.csv")])
    assert rc == 0 and len(built) == 1


@pytest.mark.parametrize("field", [
    {"tiling": "no"},
    {"tiling": 1},
    {"max_fma": 64.9},
    {"max_fma": True},
    {"layer_sizes": [8.7, 10, 4]},
    {"layer_sizes": [8, True, 4]},
    {"softmax_cycles": 2.5},
    {"qformat": {"total_bits": 8.0, "int_bits": 3}},
    {"qformat": {"total_bits": 8, "int_bits": True}},
    {"af_per_layer": "relu"},
    {"mode": ["store"]},
    {"qformat": {"total_bits": 8}},
    {"qformat": {"total_bits": 8, "int_bits": 3, "frac_bits": 5}},
    {"qformat": {"total_bits": 200, "int_bits": 3}},
    {"max_fmas": 2},
    {"tilling": True},
])
def test_config_values_are_not_coerced(tmp_path, capsys, field):
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"layer_sizes": [8, 10, 4], **field}))
    rc = main(["timing", "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(field)) in err


_VALID_CONFIG = {
    "layer_sizes": [6, 4, 3], "max_fma": 4, "qformat": {"total_bits": 8, "int_bits": 3},
    "af_per_layer": ["relu", "identity"], "mode": "stream", "softmax_cycles": 2,
}
_JSON_POOL = [None, True, False, 0, -1, 3, 2**70, 1.5, "relu", "stream", "", [], [3], [6, 4, 3],
              ["sigmoid", "relu"], {}, {"total_bits": 16, "int_bits": 16}]


def _field_values(doc):
    for name in sorted(doc):
        for value in _JSON_POOL:
            yield pytest.param(name, value, id=f"{name}={json.dumps(value)}")


# "tiling" is no field (a wider layer always runs in passes): every value of it
# is an unknown field, never accepted and ignored.
@pytest.mark.parametrize("name, value", _field_values({**_VALID_CONFIG, "tiling": None}))
def test_every_json_value_in_every_config_field_is_used_or_named(tmp_path, capsys, name, value):
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({**_VALID_CONFIG, name: value}))
    rc = main(["timing", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    if name not in _VALID_CONFIG:
        assert (rc, err) == (1, f"error: unknown field(s) [{name!r}]\n")
    assert rc == 0 or (rc == 1 and err.startswith("error: ") and name in err), err


_VALID_PARAMS = {
    "format_version": 1, "layer_sizes": [6, 4, 3], "qformat": {"total_bits": 8, "int_bits": 3},
    "layers": [{"weights": [[1] * 6] * 4, "biases": [0] * 4},
               {"weights": [[-1] * 4] * 3, "biases": [2] * 3}],
}


def _timing_on_params(tmp_path, capsys, doc):
    """(exit code, stderr without the file's path) of `timing --params` on doc."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    rc = main(["timing", "--params", str(path)])
    return rc, capsys.readouterr().err.replace(str(path), "<path>")


@pytest.mark.parametrize("name, value", _field_values(_VALID_PARAMS))
def test_every_json_value_in_every_params_field_is_used_or_named(tmp_path, capsys, name, value):
    rc, err = _timing_on_params(tmp_path, capsys, {**_VALID_PARAMS, name: value})
    assert rc == 0 or (rc == 1 and err.startswith("error: ") and name in err), err


@pytest.mark.parametrize("fields, name", [
    ({"format_version": True}, "format_version"),
    ({"format_version": 1.0}, "format_version"),
    ({"layer_sizes": [6.9, "4", 3]}, "layer_sizes"),
    ({"qformat": {"total_bits": 8.7, "int_bits": "3"}}, "qformat"),
    ({"qformat": {"total_bits": 200, "int_bits": 3}}, "qformat"),
    ({"qformat": {"total_bits": 8, "int_bits": 3, "frac_bits": 5}}, "qformat"),
    ({"qformat": "Float"}, "qformat"),
    ({"layers": [{"weights": [[1] * 6] * 4}, {"weights": [], "biases": []}]}, "biases"),
    ({"layer_sizes": [6], "layers": []}, "layers"),
    ({"layer_size": [6, 4, 3]}, "layer_size"),
    ({"note": "unknown"}, "note"),
])
def test_params_header_is_not_coerced(tmp_path, capsys, fields, name):
    rc, err = _timing_on_params(tmp_path, capsys, {**_VALID_PARAMS, **fields})
    assert rc == 1 and err.startswith("error: ") and name in err, err


@pytest.mark.parametrize("flag", ["--params", "--config"])
def test_deeply_nested_json_is_an_error(tmp_path, capsys, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["timing", flag, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: truncated or malformed JSON")


def test_config_resolution_order_flag_then_config_then_params(tmp_path):
    qpath = tmp_path / "q.json"
    save_params(qpath, quantize_params(init_params(NetworkConfig((6, 4, 3)), seed=0),
                                       QFormat(16, 5)))
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"max_fma": 2, "softmax_cycles": 3,
                                    "qformat": {"total_bits": 16, "int_bits": 4}}))
    def resolved(*flags):
        args = cli.build_parser().parse_args(["trace", "--params", str(qpath), *flags])
        return cli._build_config(args, load_params(qpath))

    argv = ["--config", str(cfg_path), "--softmax-cycles", "1", "--af", "sigmoid"]
    cfg = resolved(*argv)
    assert cfg.layer_sizes == (6, 4, 3)                                      # params
    assert (cfg.qformat, cfg.max_fma) == (QFormat(16, 4), 2)                 # --config
    assert cfg.softmax_cycles == 1                                           # flags
    assert cfg.afs == (AfKind.SIGMOID, AfKind.IDENTITY)
    # A flag replaces the whole format.
    assert resolved(*argv, "--int-bits", "2").qformat == QFormat(8, 2)


@pytest.mark.parametrize("flag", ["--params", "--out"])
def test_directory_paths_exit_1_naming_the_path(tmp_path, float_params_file, synth_dataset_dir,
                                                capsys, flag):
    args = {"--params": str(float_params_file), "--out": str(tmp_path / "sim.csv")}
    args[flag] = str(tmp_path)
    rc = main(["simulate", "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]), "--limit", "2",
               *[tok for item in args.items() for tok in item]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err


@pytest.mark.parametrize("clock", ["nan", "inf", "-inf", "0", "-5"])
def test_simulate_rejects_bad_clock_before_writing(tmp_path, float_params_file,
                                                   synth_dataset_dir, capsys, clock):
    # Cycles depend only on the config, so a bad clock fails at --limit 0 too.
    out = tmp_path / "sim.csv"
    for limit in ("2", "0"):
        rc = main(["simulate", "--params", str(float_params_file),
                   "--images", str(synth_dataset_dir["test_images"]),
                   "--labels", str(synth_dataset_dir["test_labels"]),
                   "--limit", limit, f"--clock-hz={clock}", "--out", str(out)])
        assert rc == 1
        assert "clock_hz" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("clock, label", [("5", "5 Hz"), ("250e3", "250000 Hz"),
                                          ("50e6", "50 MHz"), ("123.4567e6", "123.457 MHz")])
def test_simulate_labels_every_positive_clock_by_its_rate(tmp_path, float_params_file,
                                                          synth_dataset_dir, capsys, clock, label):
    rc = main(["simulate", "--params", str(float_params_file),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--limit", "2", "--clock-hz", clock, "--out", str(tmp_path / "sim.csv")])
    assert rc == 0
    gops = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("gops @ ")]
    assert [ln.rsplit(None, 1)[0] for ln in gops] == [f"gops @ {label}"]


@pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "inf"], ["--epochs", "-1"],
                                   ["--batch-size", "0"], ["--seed", "-1"], ["--lr", "-1"]])
def test_train_rejects_bad_hyperparameters(tmp_path, synth_dataset_dir, capsys, flags):
    out = tmp_path / "p.json"
    rc = main(["train", "--images", str(synth_dataset_dir["train_images"]),
               "--labels", str(synth_dataset_dir["train_labels"]), "--limit", "20",
               "--layers", "196:4:10", *flags, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flags[0][2:].replace("-", "_") in err
    assert not out.exists()


def test_train_refuses_labels_the_output_layer_cannot_hold(tmp_path, synth_dataset_dir, capsys):
    out = tmp_path / "p.json"
    labels = load_dataset(synth_dataset_dir["train_images"],
                          synth_dataset_dir["train_labels"]).labels.tolist()
    i = next(i for i, label in enumerate(labels) if label >= 5)
    rc = main(["train", "--images", str(synth_dataset_dir["train_images"]),
               "--labels", str(synth_dataset_dir["train_labels"]),
               "--layers", "196:8:5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: label {labels[i]} at index {i} is not in 0..4 (the output layer has 5 units)"]
    assert not out.exists()


def test_train_writes_no_parameter_file_it_cannot_read(tmp_path, synth_dataset_dir, capsys):
    # An lr this large overflows the weights in the second epoch (one batch
    # each); training stops there, with no numpy warning on the way.
    out = tmp_path / "t.json"
    rc = main(["train", "--images", str(synth_dataset_dir["train_images"]),
               "--labels", str(synth_dataset_dir["train_labels"]), "--limit", "5",
               "--layers", "196:8:10", "--epochs", "3", "--lr", "1e300", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: training diverged in epoch 2: non-finite parameters at lr=1e+300"]
    assert not out.exists()


def test_train_runs_a_layer_wider_than_the_array(tmp_path, synth_dataset_dir, capsys):
    out = tmp_path / "p.json"
    rc = main(["train", "--images", str(synth_dataset_dir["train_images"]),
               "--labels", str(synth_dataset_dir["train_labels"]), "--limit", "20",
               "--epochs", "1", "--layers", "196:100:10", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote float parameters for 196:100:10 to {out}\n"
    assert load_params(out).layer_sizes == (196, 100, 10)


def test_train_reads_no_sigmoid_format_bound(tmp_path, synth_dataset_dir, capsys):
    # Float training builds no LUT, so a 32-bit format beside sigmoid is no error.
    cfg_path, out = tmp_path / "net.json", tmp_path / "p.json"
    cfg_path.write_text(json.dumps({"layer_sizes": [196, 8, 10],
                                    "qformat": {"total_bits": 32, "int_bits": 3}}))
    rc = main(["train", "--images", str(synth_dataset_dir["train_images"]),
               "--labels", str(synth_dataset_dir["train_labels"]), "--limit", "20",
               "--epochs", "1", "--config", str(cfg_path), "--layers", "196:8:10",
               "--af", "sigmoid", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert load_params(out).layer_sizes == (196, 8, 10)


@pytest.mark.parametrize("bits_list", ["", ",", ",8,,16,", "8,16,"])
def test_sweep_empty_bits_list_is_an_error(tmp_path, float_params_file, synth_dataset_dir,
                                           capsys, bits_list):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--params", str(float_params_file),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--bits-list", bits_list, "--out", str(out)])
    assert rc == 1
    assert "--bits-list" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_takes_int_bits_from_the_config(tmp_path, float_params_file, synth_dataset_dir,
                                              monkeypatch):
    formats = []

    def recording(params, fmt):
        formats.append(fmt)
        return quantize_params(params, fmt)

    monkeypatch.setattr(cli, "quantize_params", recording)
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"qformat": {"total_bits": 8, "int_bits": 5}}))
    rc = main(["sweep", "--params", str(float_params_file), "--config", str(cfg_path),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--limit", "5", "--bits-list", "8,16", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert formats == [QFormat(8, 5), QFormat(16, 5)]


def test_sweep_applies_int_bits_to_the_swept_widths_only(tmp_path, float_params_file,
                                                         synth_dataset_dir, monkeypatch):
    formats = []

    def recording(params, fmt):
        formats.append(fmt)
        return quantize_params(params, fmt)

    monkeypatch.setattr(cli, "quantize_params", recording)
    rc = main(["sweep", "--params", str(float_params_file), "--int-bits", "12",
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--limit", "5", "--bits-list", "16,32", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert formats == [QFormat(16, 12), QFormat(32, 12)]


def test_sweep_validates_only_the_swept_formats(tmp_path, float_params_file, synth_dataset_dir,
                                                monkeypatch, capsys):
    # The config's own Q<32,3> is never swept, so sigmoid's 16-bit bound does not apply to it.
    formats = []

    def recording(params, fmt):
        formats.append(fmt)
        return quantize_params(params, fmt)

    monkeypatch.setattr(cli, "quantize_params", recording)
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"qformat": {"total_bits": 32, "int_bits": 3}}))
    argv = ["sweep", "--params", str(float_params_file), "--config", str(cfg_path),
            "--images", str(synth_dataset_dir["test_images"]),
            "--labels", str(synth_dataset_dir["test_labels"]),
            "--limit", "5", "--af", "sigmoid", "--out", str(tmp_path / "s.csv")]
    assert main(argv + ["--bits-list", "16"]) == 0
    assert formats == [QFormat(16, 3)]
    assert capsys.readouterr().err == ""
    assert main(argv + ["--bits-list", "16,32"]) == 1   # a swept Q<32,3> is still checked
    assert capsys.readouterr().err == "error: sigmoid LUT needs total_bits <= 16, got 32\n"


@pytest.mark.parametrize("index", ["0", "99999999999999999999"])
def test_trace_index_without_a_dataset_is_an_error(tmp_path, float_params_file, capsys, index):
    out = tmp_path / "trace.log"
    rc = main(["trace", "--params", str(float_params_file), "--index", index, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: trace --index needs --images")
    assert not out.exists()


def test_train_defaults_to_the_benchmark_network(tmp_path, synth_dataset_dir, capsys):
    out = tmp_path / "p.json"
    rc = main(["train", "--images", str(synth_dataset_dir["train_images"]),
               "--labels", str(synth_dataset_dir["train_labels"]), "--limit", "20",
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote float parameters for 196:64:32:32:10 to {out}\n"
    assert load_params(out).layer_sizes == (196, 64, 32, 32, 10)


@pytest.mark.parametrize("given", ["images", "labels"])
def test_trace_with_one_dataset_file_is_an_error(tmp_path, float_params_file, synth_dataset_dir,
                                                 capsys, given):
    out = tmp_path / "trace.log"
    rc = main(["trace", "--params", str(float_params_file),
               f"--{given}", str(synth_dataset_dir[f"test_{given}"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: trace needs both --images and --labels, or neither\n"
    assert not out.exists()


def test_trace_index_past_the_dataset_is_an_error(tmp_path, float_params_file, synth_dataset_dir,
                                                  capsys):
    out = tmp_path / "trace.log"
    rc = main(["trace", "--params", str(float_params_file),
               "--images", str(synth_dataset_dir["test_images"]),
               "--labels", str(synth_dataset_dir["test_labels"]),
               "--index", "200", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --index 200 out of range for dataset of 200\n"
    assert not out.exists()


def test_missing_dataset_file_exits_1(tmp_path, float_params_file, synth_dataset_dir, capsys):
    missing = tmp_path / "absent-idx3-ubyte"
    rc = main(["simulate", "--params", str(float_params_file), "--images", str(missing),
               "--labels", str(synth_dataset_dir["test_labels"]), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: file not found: {missing}\n"


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, synth_dataset_dir):
    # Each run is a fresh process, since OpenBLAS reads its thread count once;
    # the default batch size is the one the claim of determinism covers.
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"p{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(hydrasim.__file__).parents[1]))
        subprocess.run([sys.executable, "-m", "hydrasim", "train",
                        "--images", str(synth_dataset_dir["train_images"]),
                        "--labels", str(synth_dataset_dir["train_labels"]),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
