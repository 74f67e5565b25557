"""hydrasim benchmark: one workload, measured end to end or split by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  The benchmark writes its seeded inputs to a temporary directory under
`.bench_work/`, times `hydrasim.cli.main(argv)` requests in a child process
for S seconds, checks every output bit-exactly, prints each metric by name
with its unit, and prints one JSON result object as its last line.  See
bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import common

common.prepare_environment()  # before gate imports numpy

import gate  # noqa: E402

SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 150


def machine_facts(hs) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hydrasim": hs.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(script, *args) -> None:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name(script)), *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {script} exited with code {proc.returncode}")


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 by 10) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def end_to_end(spec, records, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    """Bounded metrics, and raw host timings printed beside them.

    Load from other tenants of a shared host changes raw request times by up
    to 2x from one minute to the next.  The reference routine timed next to
    each request slows down by the same factor, so each request's cost is
    measured in reference units ("ref"): request time / reference time.
    """
    walls = [r["wall_s"] for r in records]
    cost = [r["wall_s"] / r["ref_s"] for r in records]
    images = spec["n_eval"] * len(common.widths(spec)) if spec["command"] != "trace" else 1
    p50 = quantile(cost, 50)
    bounded = {
        "images_per_kref": (images * 1000 / p50, "img/kref"),
        "latency_p50_ref": (p50, "ref"),
        "latency_p90_ref": (quantile(cost, 90), "ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    context = {
        "images_per_s": (images / statistics.median(walls), "img/s"),
        "latency_p50_ms": (quantile(walls, 50) * 1e3, "ms"),
        "latency_p90_ms": (quantile(walls, 90) * 1e3, "ms"),
        "reference_ms": (statistics.median(r["ref_s"] for r in records) * 1e3, "ms"),
    }
    return bounded, context


def per_layer(worker) -> dict:
    m = dict(worker["layers"])
    first = worker["reference_report"]
    m["engine.sim_cycles"] = first["total_cycles"]
    for l, cycles in enumerate(first["layer_cycles"]):
        m[f"engine.l{l}.total_cycles"] = cycles
    m["engine.fma_utilization"] = first["fma_utilization"]
    m["datapath.mac_ops"] = first["mac_ops"]
    m["datapath.af_invocations"] = first["af_invocations"]
    untraced = statistics.median(r["wall_s"] / r["ref_s"] for r in worker["records"])
    traced = statistics.median(r["wall_s"] / r["ref_s"] for r in worker["traced_records"])
    m["trace_overhead_frac"] = traced / untraced - 1.0
    # Per-layer times are raw seconds; this lets them be read in ref too.
    m["reference_ms"] = statistics.median(r["ref_s"] for r in worker["traced_records"]) * 1e3
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        if name.startswith("setup."):
            return "s"
        return "s/pass" if name.startswith("model.batch.l") else "s/req"
    if name.endswith("_calls"):
        return "calls/req"
    if name.endswith(".macs"):
        return "count/img"
    if name.endswith("cycles"):
        return "cycles"
    if name.endswith(("mac_ops", "af_invocations")):
        return "count"
    if name == "engine.host_ns_per_sim_cycle":
        return "ns/cycle"
    if name == "engine.host_ns_per_mac":
        return "ns/MAC"
    return "ratio"


def run_benchmark(name, seed, seconds, trace, spec=None, setup_repeats=SETUP_REPEATS) -> dict:
    """Generate inputs, measure, check; return metrics and the gate's verdict."""
    spec = dict(common.WORKLOADS[name], **(spec or {}))
    hs = common.import_hydrasim()
    work_root = common.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        paths = common.generate_inputs(hs, spec, seed, workdir)
        job = workdir / "job.json"
        common.write_json(job, {"spec": spec, "paths": paths, "seed": seed, "seconds": seconds,
                                "trace": bool(trace), "workdir": str(workdir),
                                "setup_probes": 0 if trace else setup_repeats})
        run_child("worker.py", job, workdir / "result.json")
        worker = json.loads((workdir / "result.json").read_text(encoding="utf-8"))

        exp = gate.expected_outputs(hs, spec, paths)
        items = gate.oracle_items(hs, spec, paths, seed)
        records = worker["records"] + worker.get("traced_records", [])
        if trace:
            items += gate.report_items(exp, [worker["reference_report"], *worker["reports"]])
            if worker["split_digests"]:
                items += gate.split_items(exp, worker["split_digests"])
        verdict = gate.gate(spec, exp, records, items)
        if trace:
            metrics, context = per_layer(worker), {}
        else:
            metrics, context = end_to_end(spec, worker["records"], worker["setup_times"],
                                          worker["peak_rss_mb"])
        return dict(verdict, metrics=metrics, context=context, requests=len(worker["records"]),
                    machine=machine_facts(hs), worker=worker, expected=exp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work_root.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    res = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(f"# machine {json.dumps(res['machine'])}")
    print(f"# output sha256 {json.dumps(res['digests'])}")
    for msg in res["failures"]:
        print(f"# FAILED {msg}")
    n = res["requests"]
    print(f"{args.workload}: {n} timed requests, closed loop, 1 client")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    for name, (value, unit) in res["context"].items():
        print(f"{name:<36} {value:>14.6g} {unit} (not bounded)")
    print(f"{'failed_frac':<36} {res['failed'] / res['attempted']:>14.6g} "
          f"({res['failed']}/{res['attempted']} checked items)")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
