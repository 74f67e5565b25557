"""Correctness gate: every output is checked bit-exactly before a number counts.

Each checked item is one CLI request, one oracle sample image at one
bit-width, one per-layer batch split, or the traced run's simulated counts.
`failed_frac` is failed items over checked items.  All checks run outside the
timed region.
"""

from __future__ import annotations

import re

import numpy as np

import common

SIMULATE_HEADER = ["# schema=hydrasim.simulate.v1", "index,label,prediction,cycles"]
SWEEP_HEADER = ["# schema=hydrasim.sweep.v1", "bits,accuracy,cycles"]
TRACE_SUMMARY = re.compile(r"traced (\d+) cycles; prediction (\d+)")
MAC_OPS = 15936
AF_INVOCATIONS = 138


def _engine_raws(hs, images, fmt) -> np.ndarray:
    """Inputs as the engine receives them, through to_input_vector."""
    return np.array([[v.raw for v in hs.to_input_vector(img, fmt)] for img in images],
                    dtype=np.int64).reshape(len(images), -1)


def expected_outputs(hs, spec, paths) -> dict:
    """Batch-path predictions and digests the CLI outputs must agree with."""
    params = hs.load_params(paths["params"])
    ds = hs.load_dataset(paths["eval_images"], paths["eval_labels"])
    stream = spec["mode"] == "stream"
    exp = {
        "labels": [int(v) for v in ds.labels],
        "cycles": common.STREAM_CYCLES if stream else common.STORE_CYCLES,
        "stepped_cycles": common.STREAM_LAST_OUTPUT_CYCLE if stream else common.STORE_CYCLES,
        "widths": {},
    }
    for bits in common.widths(spec):
        cfg = common.net_config(hs, spec, bits)
        qparams = hs.quantize_params(params, cfg.qformat)
        if spec["command"] == "sweep":
            x = hs.model.quantize_array(ds.flat, cfg.qformat)
        else:
            x = _engine_raws(hs, ds.images, cfg.qformat)
        out = np.asarray(hs.forward_quantized_batch(cfg, qparams, x)).astype(np.int64)
        preds = np.argmax(out, axis=1)
        exp["widths"][bits] = {
            "preds": [int(p) for p in preds],
            "accuracy": f"{float(np.mean(preds == ds.labels)) if len(ds) else 0.0:.6f}",
            "sha256": common.sha256(out.tobytes()),
        }
    return exp


def oracle_items(hs, spec, paths, seed) -> list[str | None]:
    """Seeded images per bit-width: scalar oracle must equal the batch path."""
    params = hs.load_params(paths["params"])
    ds = hs.load_dataset(paths["eval_images"], paths["eval_labels"])
    rng = np.random.default_rng([seed, 2])
    sample = rng.choice(len(ds), size=min(spec["oracle_sample"], len(ds)), replace=False)
    items = []
    for bits in common.widths(spec):
        cfg = common.net_config(hs, spec, bits)
        qparams = hs.quantize_params(params, cfg.qformat)
        x = hs.model.quantize_array(ds.flat[sample], cfg.qformat)
        batch = np.asarray(hs.forward_quantized_batch(cfg, qparams, x))
        for row, i in zip(batch, sample):
            x_i = hs.to_input_vector(ds.images[i], cfg.qformat)
            oracle = [v.raw for v in hs.forward_quantized(cfg, qparams, x_i)]
            ok = oracle == [int(v) for v in row]
            items.append(None if ok else f"oracle != batch path on image {i} at {bits} bits")
    return items


def _check_simulate(exp, rec) -> list[str]:
    lines = rec["output"].splitlines()
    if lines[:2] != SIMULATE_HEADER:
        return [f"bad CSV header {lines[:2]!r}"]
    bits, = exp["widths"]
    preds = exp["widths"][bits]["preds"]
    rows = lines[2:]
    errs = [] if len(rows) == len(preds) else [f"{len(rows)} CSV rows for {len(preds)} images"]
    for i, row in enumerate(rows):
        try:
            idx, label, pred, cycles = (int(v) for v in row.split(","))
        except ValueError:
            errs.append(f"malformed CSV row {row!r}")
            continue
        want = (i, exp["labels"][i], preds[i], exp["cycles"]) if i < len(preds) else None
        if (idx, label, pred, cycles) != want:
            errs.append(f"row {row!r} != expected {want}")
    return errs


def _check_sweep(exp, rec) -> list[str]:
    lines = rec["output"].splitlines()
    if lines[:2] != SWEEP_HEADER:
        return [f"bad CSV header {lines[:2]!r}"]
    want = [f"{bits},{w['accuracy']},{exp['cycles']}" for bits, w in exp["widths"].items()]
    return [] if lines[2:] == want else [f"rows {lines[2:]!r} != expected {want!r}"]


def _check_trace(exp, rec) -> list[str]:
    (w,) = exp["widths"].values()
    m = TRACE_SUMMARY.search(rec["stderr"])
    got = (int(m.group(1)), int(m.group(2))) if m else None
    want = (exp["cycles"], w["preds"][rec["index"]])
    errs = [] if got == want else [f"summary {got} != expected (cycles, prediction) {want}"]
    n = exp["stepped_cycles"]
    if rec["n_lines"] != n or not rec["last_line"].startswith(f"cycle={n} "):
        errs.append(f"trace has {rec['n_lines']} lines ending {rec['last_line']!r}, expected {n}")
    return errs


CHECKS = {"simulate": _check_simulate, "sweep": _check_sweep, "trace": _check_trace}


def check_record(spec, exp, rec) -> list[str]:
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}: {rec['stderr'].strip()}"]
    return CHECKS[spec["command"]](exp, rec)


def report_items(exp, reports) -> list[str | None]:
    """Every simulated count of the traced run must repeat exactly and match the model."""
    want = (exp["cycles"], exp["stepped_cycles"], MAC_OPS, AF_INVOCATIONS)
    bad = {(r["total_cycles"], r["stepped_cycles"], r["mac_ops"], r["af_invocations"])
           for r in reports} - {want}
    return [f"simulated counts {sorted(bad)} != expected {want}" if bad else None]


def split_items(exp, split_digests) -> list[str | None]:
    """Chained single-layer batch calls must reproduce the full batch outputs."""
    return [None if split_digests[str(bits)] == w["sha256"]
            else f"per-layer batch split != full batch output at {bits} bits"
            for bits, w in exp["widths"].items()]


def gate(spec, exp, records, items) -> dict:
    """Check every request record plus the extra items; sum up the failures."""
    failures, digests = [], {}
    for n, rec in enumerate(records):
        errs = check_record(spec, exp, rec)
        key = "all" if rec["index"] is None else str(rec["index"])
        if digests.setdefault(key, rec["sha256"]) != rec["sha256"]:
            errs.append("output bytes differ from an earlier request with the same inputs")
        if errs:
            failures.append(f"request {n}: " + "; ".join(errs))
    failures += [msg for msg in items if msg]
    return {"attempted": len(records) + len(items), "failed": len(failures),
            "failures": failures, "digests": digests}
