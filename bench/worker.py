"""Benchmark child process: one workload's closed loop, measured and recorded.

    python3 bench/worker.py JOB.json RESULT.json

JOB.json names the workload spec, the generated input files, the seed, the
seconds to measure and whether to trace.  Every request calls
`hydrasim.cli.main(argv)` in this process, with stdout and stderr captured;
the output file is read back after the request's clock has stopped.  With
tracing on, the loop time is split in two halves, untraced then traced, and
a traced cold set-up runs first.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

hs = common.import_hydrasim()
IMPORT_S = time.perf_counter() - T0

from spans import Tracer, report_fields  # noqa: E402

# Layers whose per-request self time the traced run reports.
SPAN_NAMES = (
    "dataio.load_dataset",
    "dataio.to_input_vector",
    "model.load_params",
    "model.quantize_params",
    "model.quantize_array",
    "model.forward_quantized_batch",
    "engine.init",
    "engine.run",
    "datapath.build_sigmoid_lut",
)
SETUP_SPAN_NAMES = (
    "model.load_params",
    "dataio.load_dataset",
    "model.quantize_params",
    "model.quantize_array",
    "engine.init",
    "datapath.build_sigmoid_lut",
)
BATCH_WIDTHS = (5, 8, 16, 32)


def requests(spec, paths, seed, out_path):
    """Endless stream of (argv, trace index) for the workload's requests."""
    if spec["command"] == "trace":
        for index in common.trace_indices(spec, seed):
            yield common.argv_for(spec, paths, out_path, index), index
    while True:
        yield common.argv_for(spec, paths, out_path), None


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_s() -> float:
    """Time of a fixed pure-Python routine: object allocation, attribute and dict work.

    Timed next to every request, it slows down with the request when other
    tenants load the host, so request time / reference time is the program's
    own cost.  The collector is off while it runs, so the program's heap does
    not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cells = [_Cell(i, 3 * i) for i in range(6000)]
        acc = sum(c.a * c.b for c in cells)
        index = {i: c for i, c in enumerate(cells)}
        acc += sum(index[k].a for k in range(0, 6000, 3))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_request(main, argv, out_path, index):
    out, err = io.StringIO(), io.StringIO()
    ref_before = reference_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    wall = time.perf_counter() - start
    ref_s = (ref_before + reference_s()) / 2
    data = out_path.read_bytes() if out_path.exists() else b""
    text = data.decode("ascii", errors="replace")
    lines = text.splitlines()
    rec = {"wall_s": wall, "ref_s": ref_s, "rc": rc, "index": index, "stderr": err.getvalue(),
           "sha256": common.sha256(data), "n_lines": len(lines),
           "last_line": lines[-1] if lines else ""}
    if index is None:
        rec["output"] = text
    return rec


def setup_probe(job_path) -> float:
    """`setup_s` of one fresh process (bench/probe.py); the probe's time is its own."""
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py")), job_path],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def loop(main, stream, seconds, out_path, tracer=None, probes=0, job_path=None,
         min_requests=3):
    """Requests for `seconds` of loop time; `probes` set-up probes spread evenly over it.

    Interleaving the probes makes `setup_s` sample the same stretch of host
    load as the requests.  Time spent probing does not count as loop time.
    """
    records, setup_times = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(records) < min_requests
           or len(setup_times) < probes):
        probe_due = len(setup_times) < probes and (
            time.perf_counter() - start >= len(setup_times) * seconds / probes)
        if probe_due:
            begin = time.perf_counter()
            setup_times.append(setup_probe(job_path))
            start += time.perf_counter() - begin
            continue
        argv, index = next(stream)
        if tracer is not None:
            tracer.request = f"r{len(records)}"
        records.append(run_request(main, argv, out_path, index))
    return records, setup_times


def layer_metrics(tracer, n_requests):
    loop_spans = [s for s in tracer.spans if s.request != "setup"]
    setup_spans = [s for s in tracer.spans if s.request == "setup"]

    def self_s(spans, name, bits=None):
        return sum(s.self_s for s in spans
                   if s.name == name and (bits is None or s.attrs.get("bits") == bits))

    def calls(name):
        return sum(1 for s in loop_spans if s.name == name) / n_requests

    m = {"cli.self_s": self_s(loop_spans, "cli") / n_requests}
    for name in SPAN_NAMES:
        m[f"{name}_s"] = self_s(loop_spans, name) / n_requests
    for bits in BATCH_WIDTHS:
        m[f"model.batch.b{bits}_s"] = (
            self_s(loop_spans, "model.forward_quantized_batch", bits) / n_requests
        )
    m["engine.init_calls"] = calls("engine.init")
    m["engine.run_calls"] = calls("engine.run")
    m["dataio.to_input_vector_calls"] = calls("dataio.to_input_vector")

    # A command may stop stepping the engine (a closed-form cycle report).
    runs = [s for s in loop_spans if s.name == "engine.run"]
    run_s = sum(s.duration for s in runs)
    cycles = sum(s.attrs["stepped_cycles"] for s in runs)
    macs = sum(s.attrs["mac_ops"] for s in runs)
    m["engine.run_p50_ms"] = statistics.median(s.duration for s in runs) * 1e3 if runs else 0.0
    m["engine.host_ns_per_sim_cycle"] = run_s / cycles * 1e9 if cycles else 0.0
    m["engine.host_ns_per_mac"] = run_s / macs * 1e9 if macs else 0.0

    m["setup.import_s"] = IMPORT_S
    for name in SETUP_SPAN_NAMES:
        m[f"setup.{name}_s"] = self_s(setup_spans, name)
    m["setup.total_s"] = IMPORT_S + sum(s.self_s for s in setup_spans)
    return m, [s.attrs for s in runs]


def batch_split(spec, paths):
    """Per network layer x bit-width batch time, layer l fed layer l-1's outputs.

    Returns the timings and, per width, the sha256 of the final layer's raw
    outputs, which must equal the full forward_quantized_batch result.
    """
    params = hs.load_params(paths["params"])
    ds = hs.load_dataset(paths["eval_images"], paths["eval_labels"])
    times, digests = {}, {}
    for bits in BATCH_WIDTHS:
        cfg = common.net_config(hs, spec, bits)
        qparams = hs.quantize_params(params, cfg.qformat)
        a = hs.model.quantize_array(ds.flat, cfg.qformat)
        for l, lp in enumerate(qparams.layers):
            n, k = lp.weights.shape
            slice_cfg = hs.NetworkConfig((k, n), max_fma=cfg.max_fma, qformat=cfg.qformat,
                                         af_per_layer=(cfg.afs[l],))
            start = time.perf_counter()
            a = hs.forward_quantized_batch(slice_cfg, hs.Params([lp], cfg.qformat), a)
            times[f"model.batch.l{l}.b{bits}_s"] = time.perf_counter() - start
        digests[str(bits)] = common.sha256(a.astype("int64").tobytes())
    return times, digests


def traced_loop(tracer, spec, paths, stream, seconds, out_path) -> dict:
    tracer.install(hs)
    try:
        records, _ = loop(tracer.wrap("cli", hs.cli.main), stream, seconds, out_path, tracer)
    finally:
        tracer.uninstall()
    metrics, reports = layer_metrics(tracer, len(records))
    split, digests = batch_split(spec, paths) if spec["command"] == "sweep" else ({}, {})
    params = hs.load_params(paths["params"])
    for l, lp in enumerate(params.layers):
        metrics[f"model.batch.l{l}.macs"] = lp.weights.size
        for bits in BATCH_WIDTHS:
            name = f"model.batch.l{l}.b{bits}_s"
            metrics[name] = split.get(name, 0.0)
    # Simulated counts from one direct inference, whatever the commands did.
    cfg = common.net_config(hs, spec, common.widths(spec)[0])
    ds = hs.load_dataset(paths["eval_images"], paths["eval_labels"])
    _, report = hs.run_inference(cfg, hs.quantize_params(params, cfg.qformat),
                                 hs.to_input_vector(ds.images[0], cfg.qformat))
    return {"traced_records": records, "layers": metrics, "reports": reports,
            "reference_report": report_fields(report), "split_digests": digests}


def main():
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    spec, paths, seed = job["spec"], job["paths"], job["seed"]
    seconds, traced = job["seconds"], job["trace"]
    out_path = Path(job["workdir"]) / "request.out"
    stream = requests(spec, paths, seed, out_path)

    tracer = Tracer()
    if traced:  # cold set-up first, while the sigmoid LUT cache is still empty
        tracer.install(hs)
        tracer.request = "setup"
        try:
            common.setup_calls(hs, spec, paths)
        finally:
            tracer.uninstall()

    argv, index = next(stream)
    run_request(hs.cli.main, argv, out_path, index)  # warm-up: file cache, first calls
    records, setup_times = loop(hs.cli.main, stream, seconds / 2 if traced else seconds, out_path,
                                probes=job["setup_probes"], job_path=sys.argv[1])
    result = {"records": records, "setup_times": setup_times}
    if traced:
        result.update(traced_loop(tracer, spec, paths, stream, seconds / 2, out_path))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    common.write_json(sys.argv[2], result)


if __name__ == "__main__":
    main()
