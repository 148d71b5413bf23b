"""Benchmark of nabladelay: one workload per process, one caller, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closed-sweep --seed 1 --seconds 20 --trace 0

A run makes a fixed number of ops, about what a 2-CPU host does in
``--seconds`` (``Workload.plan``), so every run attempts the same ops.
``--trace 0`` times operations untraced and prints the end-to-end metrics.
``--trace 1`` runs the same ops twice, untraced for half of ``--seconds``
and then traced, and prints the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A JSON record with run metadata and every op is written to
``bench/out/``.  See ``bench/README.md`` for the metric definitions.
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
import warnings

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 9
LOOP_LIMIT_S = 120.0  # op loops stop by then, so a run ends within 180 s however slow

# Single-threaded BLAS: set before numpy is imported, here and in the probes.
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _import_library():
    """Import nabladelay from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nabladelay", "__init__.py")):
        raise SystemExit(f"bench: no nabladelay sources under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import nabladelay  # noqa: F401
    if not os.path.abspath(nabladelay.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported nabladelay from {nabladelay.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["closed-sweep", "long-horizon", "point-query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> None:
    """Import, generate the first op, then print the monotonic clock and exit."""
    _import_library()
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix="probe-", dir=_outdir())
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.op(0)
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(ready))


def measure_setup(args) -> list[float]:
    """Seconds from process start to the first op being ready, per probe.

    Each probe is a fresh interpreter; CLOCK_MONOTONIC is system-wide, so
    its reading in the probe compares with the one taken before spawning.
    """
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def _outdir() -> str:
    os.makedirs(OUT, exist_ok=True)
    return OUT


def run_ops(workload, indices, deadline, tracer=None):
    """Closed loop: make op i, time the call, check it, repeat.

    Runs the ops ``indices`` names, so a run attempts the same ops
    whatever the host's speed, unless it passes ``deadline`` (a
    ``time.monotonic`` reading), which only a much slower program
    reaches.  Only the library call is timed, and only it is traced;
    making inputs and checking are not.
    """
    records = []
    for index in indices:
        if time.monotonic() > deadline:
            break
        op = workload.op(index)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # every failure is counted, not raised
                result = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        outcome = workload.check(op, result)
        workload.release(op)
        records.append({
            "index": op.index, "kind": op.kind, "n": op.n, "delay": op.delay,
            "horizon": op.horizon, "points": op.points, "ms": 1e3 * elapsed,
            "status": outcome.status, "detail": outcome.detail,
            "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        })
    return records


def summarize(records) -> dict:
    times = [r["ms"] for r in records]
    deciles = statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else times * 9
    busy_s = sum(times) / 1e3
    failed = sum(r["status"] != "ok" for r in records)
    return {
        "ops": len(records),
        "p50": statistics.median(times),
        "p90": deciles[8],
        "busy_ms": 1e3 * busy_s,
        "points_per_s": sum(r["points"] for r in records) / busy_s,
        "failed": failed,
        "known": sum(r["status"] == "known" for r in records),
        "unexplained": sum(r["status"] == "fail" for r in records),
        "runtime_warnings": sum(r["runtime_warnings"] for r in records),
    }


def metadata(args, workload, records) -> dict:
    import numpy

    def span(key):
        values = [r[key] for r in records]
        return [min(values), max(values)] if values else []

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "ranges": workload.ranges,
        "observed": {"n": span("n"), "delay": span("delay"), "horizon": span("horizon")},
        "ops": len(records),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    _import_library()
    from workloads import WORKLOADS

    setup = [] if args.trace else measure_setup(args)
    started = time.monotonic()
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=_outdir())
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        plan = workload.plan(args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            from tracer import Tracer

            plain = run_ops(workload, plan, started + LOOP_LIMIT_S / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, plan[:len(plain)], started + LOOP_LIMIT_S,
                                 tracer=tracer)
            finally:
                tracer.remove()
        else:
            plain = run_ops(workload, plan, started + LOOP_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    base = summarize(plain)
    meta = metadata(args, workload, plain)
    report = {"meta": meta, "setup_s": setup, "summary": base}

    if args.trace:
        run = summarize(traced)
        metrics = {name: (value, "count" if name.endswith((".calls", ".distinct")) else "ms")
                   for name, value in tracer.layer_metrics().items()}
        metrics["dpml.runtime_warnings"] = (run["runtime_warnings"], "count")
        metrics["trace.untraced_busy_ms"] = (base["busy_ms"], "ms")
        metrics["trace.overhead_ms"] = (run["busy_ms"] - base["busy_ms"], "ms")
        report.update(traced_summary=run, spans=tracer.table(), ops=traced)
        attempted, failed = run["ops"], run["failed"]
        correct = run["unexplained"] == 0 and base["unexplained"] == 0
    else:
        metrics = {
            "op_ms.p50": (base["p50"], "ms"),
            "op_ms.p90": (base["p90"], "ms"),
            "points_per_s": (base["points_per_s"], "1/s"),
            "pass_share": (1.0 - base["failed"] / base["ops"], "share"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.update(ops=plain)
        attempted, failed = base["ops"], base["failed"]
        correct = base["unexplained"] == 0

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']} "
          f"OPENBLAS_NUM_THREADS={meta['blas_threads']['OPENBLAS_NUM_THREADS']}")
    print(f"# ranges n={meta['ranges']['n']} delay={meta['ranges']['delay']} "
          f"horizon={meta['ranges']['horizon']}; observed n={meta['observed']['n']} "
          f"delay={meta['observed']['delay']} horizon={meta['observed']['horizon']}")
    print(f"# ops={attempted} of {len(plan)} planned failed={failed} "
          f"fail_share={failed / attempted:.4f} "
          f"(cancellation defect {base['known']}, unexplained {base['unexplained']}) "
          f"runtime_warnings={base['runtime_warnings']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    if args.trace:
        print(f"# {'span':28s} {'calls':>9s} {'total_ms':>12s} {'self_ms':>12s}")
        for name, row in tracer.table().items():
            print(f"# {name:28s} {row['calls']:9d} {row['total_ms']:12.3f} {row['self_ms']:12.3f}")
    path = os.path.join(_outdir(), f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
