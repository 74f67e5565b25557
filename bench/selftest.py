"""Self-test of the benchmark itself; asserts no timings.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that:
  * every output passes the correctness gate (failed_frac is 0);
  * every metric BENCHMARK.json names is reported, with its unit;
  * a second run with the same seed produces byte-identical outputs;
  * one deliberately corrupted output raises failed_frac above 0.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys

import common
import run  # first: it caps BLAS threads before gate imports numpy
import gate  # noqa: I001

TINY = {
    "simulate-store-q8": {"n_train": 60, "n_eval": 3, "oracle_sample": 2},
    "sweep-q5-32": {"n_train": 60, "n_eval": 24, "oracle_sample": 1},
    "trace-stream-sigmoid-q16": {"n_train": 60, "n_eval": 8, "index_pool": 3, "oracle_sample": 1},
}
SEED = 7
SECONDS = 0.5


def corrupt(spec, rec) -> dict:
    """The record as if one image's prediction had flipped."""
    rec = copy.deepcopy(rec)
    if spec["command"] in ("simulate", "sweep"):
        lines = rec["output"].splitlines()
        first = lines[2].split(",")
        if spec["command"] == "simulate":  # index,label,prediction,cycles
            first[2] = str((int(first[2]) + 1) % 10)
        else:  # bits,accuracy,cycles: one image more or less correct
            acc = float(first[1])
            first[1] = f"{acc - 1 / spec['n_eval'] if acc > 0 else 1 / spec['n_eval']:.6f}"
        lines[2] = ",".join(first)
        rec["output"] = "\n".join(lines) + "\n"
    else:
        rec["stderr"] = re.sub(r"prediction (\d)",
                               lambda m: f"prediction {(int(m.group(1)) + 1) % 10}", rec["stderr"])
    return rec


def main() -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(common.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from common.WORKLOADS")

    for name, tiny in TINY.items():
        spec = dict(common.WORKLOADS[name], **tiny)
        runs = {}
        for trace in (0, 1):
            res = run.run_benchmark(name, SEED, SECONDS, trace, spec=tiny, setup_repeats=1)
            runs[trace] = res
            if res["failed"]:
                problems.append(f"{name} trace={trace}: gate failed: {res['failures']}")
            units = {k: u for k, (_, u) in res["metrics"].items()}
            if units != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(units.items()))
                extra = sorted(set(units.items()) - set(wanted[trace].items()))
                problems.append(f"{name} trace={trace}: missing {missing}, unexpected {extra}")
            if not all(math.isfinite(v) for v, _ in res["metrics"].values()):
                problems.append(f"{name} trace={trace}: non-finite metric value")

        # A timed loop may request a different subset of trace indices.
        again = run.run_benchmark(name, SEED, SECONDS, 0, spec=tiny, setup_repeats=1)
        first, second = runs[0]["digests"], again["digests"]
        common_keys = first.keys() & second.keys()
        if not common_keys or any(first[k] != second[k] for k in common_keys):
            problems.append(f"{name}: same seed gave different output bytes")

        res = runs[0]
        records = [corrupt(spec, res["worker"]["records"][0])] + res["worker"]["records"][1:]
        verdict = gate.gate(spec, res["expected"], records, [])
        if not verdict["failed"] / verdict["attempted"] > 0:
            problems.append(f"{name}: a flipped prediction left failed_frac at 0")
        print(f"{name}: checked ({res['attempted']} items untraced, "
              f"{runs[1]['attempted']} traced)")

    for msg in problems:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
