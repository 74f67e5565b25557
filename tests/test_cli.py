"""End-to-end CLI tests over synthetic IDX datasets in tmp dirs."""

import json

import pytest

from hydrasim.cli import main

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


def test_timing_single_layer_flagged(capsys):
    with pytest.warns(UserWarning):
        rc = main(["timing", "--layers", "8:4", "--max-fma", "4"])
    assert rc == 0
    assert "degenerate" in capsys.readouterr().out


def test_timing_literal_n_list(capsys):
    rc = main(["timing", "--n-list", "196,64,32,32,10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t_parallel = 328" in out and "t_reuse    = 341" in out


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


def test_sweep_width4_accepted_with_warning(tmp_path, float_params_file, synth_dataset_dir):
    out = tmp_path / "w4.csv"
    with pytest.warns(UserWarning, match="nonstandard bit-width 4"):
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


def test_hydra_trace_env_streams_to_stderr(tmp_path, float_params_file, synth_dataset_dir,
                                           monkeypatch, capsys):
    monkeypatch.setenv("HYDRA_TRACE", "1")
    rc = main([
        "simulate",
        "--params", str(float_params_file),
        "--images", str(synth_dataset_dir["test_images"]),
        "--labels", str(synth_dataset_dir["test_labels"]),
        "--limit", "2",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "cycle=1 phase=mac layer=0" in err
    # only the first image is traced
    assert err.count("cycle=1 ") == 1


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
    assert "quantized at" in capsys.readouterr().err


def test_timing_sigmoid_wide_integer_format(capsys):
    # exp() of the most negative Q<16,12> value overflows binary64
    rc = main(["timing", "--layers", "196:64:10", "--af", "sigmoid",
               "--bits", "16", "--int-bits", "12"])
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
