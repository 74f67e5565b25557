"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines.  Criterion 7 needs the real MNIST IDX files (see README); it
skips with an explicit message when they are not available.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import random_quantized_case
from hydrasim.cli import main
from hydrasim.datapath import ActivationUnit, FmaBank
from hydrasim.engine import Engine, run_inference
from hydrasim.fxp import QFormat, QValue
from hydrasim.model import (
    Mode,
    NetworkConfig,
    forward_quantized,
    forward_quantized_batch,
    quantize_array,
    quantize_params,
    train_minimal,
)
from hydrasim.dataio import load_dataset
from hydrasim.timing import af_savings, per_layer_af_savings, t_parallel, t_reuse
from test_engine import bench_engine, zero_params, zeros_input

Q83 = QFormat(8, 3)


def _verdict(n, ok, detail):
    print(f"\n[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_layer1_cycle_fidelity():
    t0 = time.perf_counter()
    trace = []
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg), trace_hook=trace.append)
    elapsed = time.perf_counter() - t0
    l0 = report.per_layer[0]
    first, done = l0.first_output_cycle, l0.start_cycle + l0.total_cycles
    # The trace agrees: layer 0's first store cycle, and its layer_done cycle.
    stored = [r.cycle for r in trace if r.layer == 0 and r.phase in ("serialize", "layer_done")]
    ok = first == 198 == stored[0] and done == 262 == stored[-1] and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"layer-1 first output @ {first} (want 198), completion @ {done} "
        f"(want 262), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_layer2_cycle_fidelity():
    engine, cfg = bench_engine()
    _, report = engine.run(zeros_input(cfg))
    l2 = report.per_layer[1]
    first_delta = l2.first_output_cycle - l2.start_cycle
    serialize_tail = (l2.start_cycle + l2.total_cycles) - l2.first_output_cycle
    ok = first_delta == 66 and serialize_tail == 32
    _verdict(
        2,
        ok,
        f"layer-2 first output {first_delta} cycles after layer start (want 66), "
        f"serialization complete {serialize_tail} cycles later (want 32)",
    )


def test_criterion_3_closed_forms():
    bench = (196, 64, 32, 32, 10)
    tp, tr = t_parallel(bench), t_reuse(bench)
    rng = np.random.RandomState(3)
    identity_ok = True
    for _ in range(1000):
        L = int(rng.randint(2, 9))
        n = tuple(int(v) for v in rng.randint(1, 400, L))
        if t_reuse(n) - t_parallel(n) != n[-1] + L - 2:
            identity_ok = False
            break
    ok = tp == 328 and tr == 341 and identity_ok
    _verdict(
        3,
        ok,
        f"t_parallel={tp} (want 328), t_reuse={tr} (want 341), "
        f"t_reuse - t_parallel == n(L)+L-2 on 1000 random inputs: {identity_ok}",
    )


@pytest.mark.parametrize("bits", [5, 8, 16, 32])
def test_criterion_4_oracle_equivalence(bits):
    fmt = QFormat(bits, 3)
    rng = np.random.default_rng(1000 + bits)
    t0 = time.perf_counter()
    mismatches = 0
    cases = 1000
    for _ in range(cases):
        cfg, params, x = random_quantized_case(rng, fmt, max_depth=3)
        golden = forward_quantized(cfg, params, x)
        for mode in (Mode.STORE_AND_FORWARD, Mode.STREAMED):
            outputs, _ = run_inference(dataclasses.replace(cfg, mode=mode), params, x)
            if outputs != golden:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(
        4,
        ok,
        f"{bits}-bit: {cases} random cases x 2 modes, {mismatches} mismatches "
        f"(want 0), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_fixed_point_soundness():
    limit = (1 << (2 * 8 + 9 - 1)) - 1   # 9 guard bits: fan-in 196 at 8 bits
    seeds = [0, 1, -1, 32, -4096, 1024, -1024, 16384, -16384, 65535, -65536,
             123456, -123456, limit - 16384, -(limit - 16384), 7]
    mac_mismatches = 0
    bank = FmaBank(1, limit.bit_length() + 1)
    cols = bank.pack([[w] for w in range(-128, 128)])
    for acc0 in seeds:
        for a in range(-128, 128):
            for w, col in zip(range(-128, 128), cols):
                bank.preload([acc0], 0)
                bank.step(a, col)
                if bank.read()[0] != acc0 + a * w:   # arbitrary-precision oracle
                    mac_mismatches += 1
    from hydrasim.fxp import quantize
    rt_mismatches = 0
    rt_formats = [QFormat(5, 2), QFormat(5, 3), Q83, QFormat(8, 5), QFormat(16, 3), QFormat(16, 8)]
    for fmt in rt_formats:
        for raw in range(fmt.raw_min, fmt.raw_max + 1):
            if quantize(QValue(raw, fmt).value, fmt).raw != raw:
                rt_mismatches += 1
    ok = mac_mismatches == 0 and rt_mismatches == 0
    _verdict(
        5,
        ok,
        f"exhaustive 8-bit MAC (65536 pairs x {len(seeds)} accumulators): "
        f"{mac_mismatches} mismatches; exhaustive round-trip over "
        f"{len(rt_formats)} formats <= 16 bits: {rt_mismatches} mismatches (want 0/0)",
    )


def test_criterion_6_af_reuse_accounting():
    counts_ok = True
    for width in (1, 16, 64):
        cfg = NetworkConfig((8, width), max_fma=64)
        before = ActivationUnit.instances_created
        Engine(cfg, zero_params(cfg))
        if ActivationUnit.instances_created != before + 1:
            counts_ok = False
    bench = NetworkConfig((196, 64, 32, 32, 10))
    per_layer = per_layer_af_savings(bench)
    savings_ok = (
        per_layer == [63, 31, 31, 9]
        and af_savings(bench) == 137
        and af_savings(NetworkConfig((196, 64))) == 63
    )
    ok = counts_ok and savings_ok
    _verdict(
        6,
        ok,
        f"one ActivationUnit per engine for widths 1/16/64: {counts_ok}; "
        f"per-layer savings {per_layer} (want n-1 each), benchmark total "
        f"{af_savings(bench)} (want 137)",
    )


def test_criterion_7_quantization_accuracy(mnist_files):
    t0 = time.perf_counter()
    train_ds = load_dataset(mnist_files["train_images"], mnist_files["train_labels"], limit=10000)
    test_ds = load_dataset(mnist_files["test_images"], mnist_files["test_labels"], limit=2000)
    cfg = NetworkConfig((196, 64, 32, 32, 10))
    # The pinned training recipe: seed 0, 3 epochs, lr 0.1, batch 32.
    params = train_minimal(train_ds.flat, train_ds.labels, cfg, epochs=3, lr=0.1, seed=0)

    from hydrasim.model import forward_float
    float_preds = np.argmax(forward_float(cfg, params, test_ds.flat), axis=1)
    float_acc = float(np.mean(float_preds == test_ds.labels))

    acc = {}
    for bits in (5, 8, 16, 32):
        fmt = QFormat(bits, 3)
        qcfg = dataclasses.replace(cfg, qformat=fmt)
        qparams = quantize_params(params, fmt)
        out = forward_quantized_batch(qcfg, qparams, quantize_array(test_ds.flat, fmt))
        acc[bits] = float(np.mean(np.argmax(out, axis=1) == test_ds.labels))
    elapsed = time.perf_counter() - t0

    band = 0.005
    ok = (
        float_acc >= 0.90
        and float_acc - acc[8] <= 0.02
        and acc[32] >= acc[16] - band
        and acc[16] >= acc[8] - band
        and acc[8] >= acc[5]       # coarser widths only degrade on the pinned model
        and elapsed < 300.0
    )
    _verdict(
        7,
        ok,
        f"float acc {float_acc:.4f} (>= 0.90), 8-bit {acc[8]:.4f} (within 2pt of float), "
        f"16-bit {acc[16]:.4f}, 32-bit {acc[32]:.4f} (monotone within 0.5pt band), "
        f"5-bit {acc[5]:.4f} (<= 8-bit), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_8_simulate_determinism(tmp_path, synth_dataset_dir):
    params_path = tmp_path / "bench_params.json"
    rc = main([
        "train",
        "--images", str(synth_dataset_dir["train_images"]),
        "--labels", str(synth_dataset_dir["train_labels"]),
        "--layers", "196:64:32:32:10",
        "--epochs", "1",
        "--seed", "0",
        "--limit", "120",
        "--out", str(params_path),
    ])
    assert rc == 0
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        rc = main([
            "simulate",
            "--params", str(params_path),
            "--images", str(synth_dataset_dir["test_images"]),
            "--labels", str(synth_dataset_dir["test_labels"]),
            "--limit", "5",
            "--out", str(out),
        ])
        assert rc == 0
        blobs.append(out.read_bytes())
    rows = blobs[0].decode().splitlines()[2:]
    cycles_470 = all(row.endswith(",470") for row in rows)
    ok = blobs[0] == blobs[1] and len(rows) == 5 and cycles_470
    _verdict(
        8,
        ok,
        "two cmd_simulate runs with identical flags produce byte-identical CSV "
        f"(5 benchmark rows at 470 cycles each: {cycles_470})",
    )
