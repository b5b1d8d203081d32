"""Run one benchmark workload through ``mpgram.run()`` and print its metrics.

    python3 -m perfbench.run --workload escaped-loopback --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Load is a closed loop: one caller calls
``run()`` back to back for ``--seconds`` seconds after one untimed warm-up
call; the party threads (loopback) and worker processes (tcp) belong to the
system under test.  Inputs are generated from ``--seed`` and passed in as
CSV files.  Every call's output is checked (see ``Checker``); a call that
raises or fails a check counts as failed.  Timing metrics are normalised
to a reference host speed (see ``calibrate.py``); ``<name>.raw`` is the
same metric as measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls, reports the per-layer metrics of the traced ones
and the tracing overhead, and writes a Chrome trace of the last traced call.
The last line of standard output is one JSON object with the metrics named
in ``BENCHMARK.json``; every metric, the environment, the digests and the
wire counts also go to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .calibrate import REFERENCE_S, calibration
from .metrics import layer_metrics, percentile, tail_is_resolved, unit
from .tracing import Tracer, chrome_trace, read_spans
from .workloads import (
    SCALE_BITS,
    WORKLOADS,
    expected_wire,
    gram_tolerance,
    party_reals,
    write_party_csvs,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SITE = Path(__file__).resolve().parent / "site"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup() -> tuple:
    """Wall seconds for fresh interpreters to finish ``import mpgram``, and the host factor.

    One untimed import first, so that byte-code compilation of a fresh
    checkout is not counted.  The host factor is the median over calibration
    runs before and between the imports; a single one tracks import time
    too loosely to normalise each import on its own.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mpgram"]
    # no timeout: with one, subprocess polls the child at up to 50 ms steps
    subprocess.run(cmd, env=env, check=True)
    times, factors = [], [calibration()[0]]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
        factors.append(calibration()[0])
    return times, statistics.median(factors) / REFERENCE_S


def numpy_gram_seconds(x: np.ndarray, budget_s: float = 0.2) -> float:
    """Median time of float64 ``X.T @ X``: the speed-of-light reference."""
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < 20 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        x.T @ x
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Checker:
    """Output checks of one call; a call with any problem counts as failed.

    The decoded gram is compared with an independent float64 ``X^T X`` of the
    generated reals, so a fixed-point wrap that the field oracle shares would
    still be caught.  Digests must repeat those of the first call.
    """

    def __init__(self, workload, reals, wire):
        x = np.hstack(reals)
        self.workload = workload
        self.gram64 = x.T @ x
        self.tolerance = gram_tolerance(workload)
        self.wire = wire
        self.digests = None

    def problems(self, report: dict, gram_real: np.ndarray) -> list:
        out = []
        if not report["audit"]["ok"]:
            out.append("audit: " + "; ".join(report["audit"]["mismatches"]))
        if self.workload.verify:
            if report["verification"]["status"] != "pass":
                out.append(f"verification: {report['verification']}")
            leakage = report["leakage"]
            if self.workload.protocol == "escaped" and not (leakage and leakage["verified"]):
                out.append(f"leakage recheck: {leakage}")
        dev = float(np.max(np.abs(gram_real - self.gram64)))
        if not dev <= self.tolerance:
            out.append(f"gram deviates from float64 X^T X by {dev:.3g} > {self.tolerance:.3g}")
        totals = report["totals"]
        measured = {
            "per_kind": totals["per_kind"],
            "total": totals["total"],
            "ip_ip_bytes": totals["ip_ip"]["bytes"],
            "ip_fp_bytes": totals["ip_fp"]["bytes"],
        }
        if measured != self.wire:
            out.append(f"wire counts {measured} differ from the closed form {self.wire}")
        digests = {
            "gram_sha256": report["gram"]["sha256"],
            "transcript_sha256": report["transcript_sha256"],
            "determinism_digest": report["determinism_digest"],
        }
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            out.append(f"digests {digests} differ from the first call's {self.digests}")
        return out


class Caller:
    """Calls ``mpgram.run()`` once per ``call()`` and measures that call."""

    def __init__(self, run, config, checker, worker_dir: Path):
        self.run = run
        self.config = config
        self.checker = checker
        self.worker_dir = worker_dir
        self.attempted = 0
        self.failures = []

    def call(self) -> dict:
        for stale in self.worker_dir.glob("*.json"):
            stale.unlink()
        self.attempted += 1
        ch0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        c0 = time.process_time()
        t0 = time.perf_counter_ns()
        try:
            result = self.run(self.config)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed call is a measurement
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = (time.perf_counter_ns() - t0) * 1e-9
        cpu = time.process_time() - c0
        ch1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu += (ch1.ru_utime - ch0.ru_utime) + (ch1.ru_stime - ch0.ru_stime)

        workers = [json.loads(p.read_text()) for p in sorted(self.worker_dir.glob("*.json"))]
        sample = {
            "wall_s": wall,
            "cpu_s": cpu,
            "start_ns": t0,
            "workers": workers,
            "workers_rss_kib": sum(w["maxrss_kib"] for w in workers),
            "report": None,
        }
        problems = [error] if error else []
        if result is not None:
            sample["report"] = result.report
            sample["protocol_s"] = result.report["timing"]["protocol_s"]
            problems += self.checker.problems(result.report, result.gram_real)
            if self.config.transport == "tcp" and len(workers) != self.config.m + 1:
                problems.append(f"{len(workers)} worker reports for {self.config.m + 1} workers")
        if problems:
            self.failures.append(problems)
        sample["ok"] = not problems
        return sample


def measure(seconds: float, calls) -> list:
    """Cycle through ``calls`` back to back until ``seconds`` have passed.

    Stops only after a whole cycle.  The calibration kernel runs between
    consecutive calls; each sample gets the host factors (wall and CPU) of
    the kernel runs just before and just after it.
    """
    samples = []
    before = calibration()
    deadline = time.perf_counter() + seconds
    while True:
        for call in calls:
            sample = call()
            after = calibration()
            sample["host_factor"] = (before[0] + after[0]) / (2 * REFERENCE_S)
            sample["cpu_factor"] = (before[1] + after[1]) / (2 * REFERENCE_S)
            before = after
            samples.append(sample)
        if time.perf_counter() >= deadline:
            return samples


def end_to_end(workload, samples, setup, self_rss_kib) -> dict:
    """End-to-end metrics; timings are host-normalised, ``.raw`` ones as measured."""
    ok = [s for s in samples if s["ok"]]
    metrics = {}
    for name, key, factor in (
        ("run_s", "wall_s", "host_factor"),
        ("protocol_s", "protocol_s", "host_factor"),
        ("cpu_s", "cpu_s", "cpu_factor"),
    ):
        raw = [s[key] for s in ok]
        normalised = [v / s[factor] for v, s in zip(raw, ok)]
        tail = name == "run_s" and tail_is_resolved(len(raw), 90)
        for q in (50, 90) if tail else (50,):
            metrics[f"{name}.p{q}"] = percentile(normalised, q)
            metrics[f"{name}.p{q}.raw"] = percentile(raw, q)
    metrics["gram_macs_per_s"] = workload.gram_macs / metrics["run_s.p50"]
    metrics["gram_macs_per_s.raw"] = workload.gram_macs / metrics["run_s.p50.raw"]
    metrics["wire_bytes"] = ok[0]["report"]["totals"]["total"]["bytes"]
    metrics["peak_rss_mib"] = (self_rss_kib + max(s["workers_rss_kib"] for s in ok)) / 1024.0
    setup_times, setup_factor = setup
    metrics["setup_s"] = statistics.median(setup_times) / setup_factor
    metrics["setup_s.raw"] = statistics.median(setup_times)
    metrics["host_factor.p50"] = statistics.median(s["host_factor"] for s in samples)
    metrics["cpu_factor.p50"] = statistics.median(s["cpu_factor"] for s in samples)
    return metrics


def _median_metrics(per_call: list) -> dict:
    """Median of each metric over calls; counts stay whole numbers."""
    out = {}
    for name in per_call[0]:
        values = [d[name] for d in per_call]
        exact = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def _run(args, workload, spec: dict, work_dir: Path) -> int:
    env_record = environment(args.seed)
    worker_dir = work_dir / "workers"
    tmp_dir = work_dir / "tmp"
    for d in (worker_dir, tmp_dir, OUT / "results", OUT / "traces"):
        d.mkdir(parents=True, exist_ok=True)

    setup = measure_setup()

    # mpgram's TCP runner spawns `python -m mpgram.worker` with this
    # environment and stages files under tempfile's directory.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SITE)])
    os.environ["PERFBENCH_WORKER_OUT"] = str(worker_dir)
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)
    sys.path.insert(0, str(SRC))
    import mpgram

    reals = party_reals(workload, args.seed)
    csvs = write_party_csvs(reals, work_dir)
    config = mpgram.RunConfig(
        protocol=workload.protocol,
        m=workload.m,
        features=workload.features,
        samples=(workload.samples,) * workload.m,
        domain="field",
        scale_bits=SCALE_BITS,
        transport=workload.transport,
        seed=args.seed,
        sigma=workload.sigma,
        data_csv=csvs,
        verify=workload.verify,
    )
    prediction = mpgram.cost_model(workload.protocol, workload.m, workload.features, config.samples)
    wire = expected_wire(workload, prediction.wire_per_kind)
    caller = Caller(mpgram.run, config, Checker(workload, reals, wire), worker_dir)
    numpy_s = numpy_gram_seconds(np.hstack(reals))

    warmup = caller.call()
    per_call_layers, trace_events = [], []
    tracer = Tracer()

    def traced_call():
        tracer.install()
        os.environ["PERFBENCH_TRACE"] = "1"
        try:
            sample = caller.call()
        finally:
            del os.environ["PERFBENCH_TRACE"]
            tracer.uninstall()
        spans = tracer.take()
        workers = sample.pop("workers")
        for w in workers:
            spans += read_spans(w)
        sample["traced"] = True
        if sample["ok"]:
            worker_pids = [w["pid"] for w in workers]
            per_call_layers.append(layer_metrics(spans, sample["report"], worker_pids))
            trace_events[:] = chrome_trace(spans, sample["start_ns"])
        return sample

    samples = measure(args.seconds, (caller.call, traced_call) if args.trace else (caller.call,))
    untraced = [s for s in samples if not s.get("traced")]
    traced = [s for s in samples if s.get("traced")]

    self_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = len(caller.failures)
    if not any(s["ok"] for s in untraced) or (args.trace and not per_call_layers):
        print(f"perfbench: every call failed: {caller.failures[:3]}", file=sys.stderr)
        return 1
    e2e = end_to_end(workload, untraced, setup, self_rss_kib)
    e2e["fail_rate"] = failed / caller.attempted
    layers, unmeasured = {}, {}
    if args.trace:
        layers = _median_metrics(per_call_layers)
        ok_traced = [s["wall_s"] / s["host_factor"] for s in traced if s["ok"]]
        layers["trace.overhead_s"] = statistics.median(ok_traced) - e2e["run_s.p50"]
        if workload.transport != "tcp":
            for name in ("worker.setup_mesh_s", "worker.session.cpu_s"):
                unmeasured[name] = "loopback runs every party in this process; no workers"

    first = warmup if warmup["ok"] else next(s for s in untraced if s["ok"])
    report = first["report"]
    results = {
        "workload": workload.name,
        "why": workload.why,
        "config": {k: v for k, v in vars(workload).items() if k != "why"},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_record,
        "attempted": caller.attempted,
        "failed": failed,
        "failures": caller.failures[:10],
        "samples": {"untraced": len(untraced), "traced": len(traced), "warmup": 1},
        "end_to_end": e2e,
        "calls": [
            {k: s[k] for k in ("wall_s", "cpu_s", "host_factor", "cpu_factor")} for s in untraced
        ],
        "setup": {"import_s": setup[0], "host_factor": setup[1]},
        "per_layer": layers,
        "unmeasured": unmeasured,
        "digests": caller.checker.digests,
        "wire": {"measured": report["totals"], "closed_form": wire},
        "reference": {
            "numpy_float64_gram_s": numpy_s,
            "run_s_over_numpy": e2e["run_s.p50.raw"] / numpy_s,
        },
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results_path = OUT / "results" / f"{stem}.json"
    results_path.write_text(json.dumps(results, indent=1, default=str))
    if trace_events:
        trace_path = OUT / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(trace_events))
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")

    _print_summary(workload, args, results, results_path)
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {**e2e, **layers}
    metrics = {}
    for m in chosen:
        if unit(m["name"]) != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} is in {unit(m['name'])}, not {m['unit']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    line = {"correct": failed == 0, "attempted": caller.attempted, "failed": failed,
            "metrics": metrics}
    print(json.dumps(line))
    return 0


def _print_summary(workload, args, results: dict, results_path: Path) -> None:
    n = results["samples"]["untraced"]
    print(f"workload {workload.name} seed {args.seed}: {results['attempted']} calls "
          f"({n} untraced, {results['samples']['traced']} traced, 1 warm-up), "
          f"{results['failed']} failed")
    for problems in results["failures"]:
        print(f"  FAILED: {'; '.join(problems)}")
    e2e = results["end_to_end"]
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    if "run_s.p90" not in e2e:
        print(f"  run_s.p90 = n/a ({n} samples; needs 10 beyond it)")
    ref = results["reference"]
    print(f"  reference numpy float64 X^T X = {ref['numpy_float64_gram_s']:.3g} s "
          f"(run_s.p50.raw is {ref['run_s_over_numpy']:.3g}x)")
    for name, value in results["per_layer"].items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    for name, why in results["unmeasured"].items():
        print(f"  {name} = unmeasured ({why})")
    print(f"results: {results_path.relative_to(ROOT)}")


def _parse(argv):
    p = argparse.ArgumentParser(prog="python3 -m perfbench.run", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mpgram" / "__init__.py").is_file():
        print(f"perfbench: no mpgram sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        return _run(args, WORKLOADS[args.workload], spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
