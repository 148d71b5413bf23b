"""Byte digest of the benchmark's ops on two source trees.

Usage, from the root of a checkout:

    python3 tools/digest.py BASE CHANGE --seconds 30 [--limit N]

BASE and CHANGE are the roots of two checkouts.  For each of the three
workloads, the ops of the ``--seconds`` plan of ``bench/run.py`` at seed
1 (``Workload.plan``; every seed makes the same ops) are rebuilt with
each tree's own ``bench/workloads.py``, run against that tree's own
``src`` and judged with the workload's own check, each tree in its own
process with one BLAS thread.  ``--limit N`` keeps the first N ops of
each plan.  Per op the digest hashes the
returned value (every array's dtype, shape and bytes, every field of a
trace or report, recursively), the text of an exception raised, the
warnings the call gave (category and text), what it printed and the
bytes of the CSV file it wrote.

Output, one line each:

    DIFF <workload> <index> <kind> <parts>
    FLIP <workload> <index> <kind> <base status> -> <change status>: <detail>
    <workload> ops=<count> differ=<count> flips=<count> failed=<base> -> <change>

A DIFF line names an op whose bytes differ between the trees, ``parts``
being the comma-separated parts that differ (result, error, warnings,
output, csv).  A FLIP line names an op whose status (``ok``, ``known``
or ``fail``) differs, with the change's check detail.  The summary line
ends each workload; ``failed`` counts the ops not ``ok`` on each tree.
The exit status is 1 if an op that is ``ok`` on BASE is not ``ok`` on
CHANGE, 2 if a tree could not be run, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings

WORKLOADS = ("closed-sweep", "long-horizon", "point-query")
PARTS = ("result", "error", "warnings", "output", "csv")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", nargs="?", help="root of the changed checkout")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.run and args.change is None:
        parser.error("the change tree is required")
    return args


def _feed(h, value) -> None:
    """Hash a value by its type and bytes: arrays, dataclasses, exceptions,
    sequences and scalars, recursively."""
    import numpy as np

    if isinstance(value, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(value)
        h.update(f"array {arr.dtype.str} {arr.shape}|".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(value, f.name))
        h.update(b")")
    elif isinstance(value, BaseException):
        h.update(f"{type(value).__name__}: {value}|".encode())
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}[{len(value)}]".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(b"float " + struct.pack("<d", value))
    elif value is None or isinstance(value, (bool, int, str)):
        h.update(f"{type(value).__name__} {value!r}|".encode())
    else:
        raise TypeError(f"digest: no rule for a {type(value).__name__}")


def _digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def run_tree(args) -> None:
    """Run the planned ops against the tree ``args.base`` and print one JSON
    record per op."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.path.abspath(args.base)
    src, bench = os.path.join(root, "src"), os.path.join(root, "bench")
    sys.path[:0] = [src, bench]
    import nabladelay
    if not os.path.abspath(nabladelay.__file__).startswith(src + os.sep):
        raise SystemExit(f"digest: imported nabladelay from {nabladelay.__file__}, not {src}")
    from workloads import WORKLOADS as BUILDERS

    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"digest-{name}-")
        try:
            workload = BUILDERS[name](1, workdir)
            for index in workload.plan(args.seconds)[: args.limit]:
                print(json.dumps(_run_op(name, workload, index)), flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def _run_op(name, workload, index) -> dict:
    op = workload.op(index)
    printed = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        warnings.simplefilter("always")
        try:
            result = workload.run(op)
        except Exception as exc:  # an op's error is part of its digest
            result = exc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = workload.check(op, result)
    out = op.inputs.get("out")
    csv = b""
    if isinstance(out, str) and os.path.exists(out):
        with open(out, "rb") as fh:
            csv = fh.read()
    workload.release(op)
    error = isinstance(result, Exception)
    parts = {
        "result": _digest(None if error else result),
        "error": _digest(result if error else None),
        "warnings": _digest([(w.category.__name__, str(w.message)) for w in caught]),
        "output": _digest(printed.getvalue()),
        "csv": hashlib.sha256(csv).hexdigest()[:16],
    }
    return {"workload": name, "index": index, "kind": op.kind, "status": outcome.status,
            "detail": outcome.detail, "parts": parts}


def compare(base: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """The report lines of two trees' records, and whether an op left ``ok``."""
    lines, left_ok = [], False
    names = list(dict.fromkeys(r["workload"] for r in base + change))
    for name in names:
        ours = {r["index"]: r for r in change if r["workload"] == name}
        theirs = {r["index"]: r for r in base if r["workload"] == name}
        differ = flips = 0
        for index, old in theirs.items():
            new = ours.get(index)
            if new is None:
                lines.append(f"DIFF {name} {index} {old['kind']} missing")
                differ += 1
                left_ok |= old["status"] == "ok"
                continue
            parts = [p for p in PARTS if old["parts"][p] != new["parts"][p]]
            if parts:
                lines.append(f"DIFF {name} {index} {old['kind']} {','.join(parts)}")
                differ += 1
            if old["status"] != new["status"]:
                lines.append(f"FLIP {name} {index} {old['kind']} "
                             f"{old['status']} -> {new['status']}: {new['detail']}")
                flips += 1
                left_ok |= old["status"] == "ok"
        failed = [sum(r["status"] != "ok" for r in side.values()) for side in (theirs, ours)]
        lines.append(f"{name} ops={len(theirs)} differ={differ} flips={flips} "
                     f"failed={failed[0]} -> {failed[1]}")
    return lines, left_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.run:
        run_tree(args)
        return 0
    command = [sys.executable, os.path.abspath(__file__), "--run", "--seconds", repr(args.seconds)]
    if args.limit is not None:
        command += ["--limit", str(args.limit)]
    runs = [subprocess.Popen(command + [tree], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True) for tree in (args.base, args.change)]
    records = []
    for tree, proc in zip((args.base, args.change), runs):
        out, err = proc.communicate()
        if proc.returncode:
            sys.stderr.write(f"digest: the run of {tree} exited {proc.returncode}\n{err}")
            return 2
        records.append([json.loads(line) for line in out.splitlines()])
    lines, left_ok = compare(*records)
    print("\n".join(lines))
    return 1 if left_ok else 0


if __name__ == "__main__":
    sys.exit(main())
