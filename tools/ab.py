"""In-process A/B timing of the benchmark's ops on two source trees.

Usage, from the root of a checkout:

    python3 tools/ab.py BASE CHANGE --seconds S [--passes P] [--limit N]

BASE and CHANGE are the roots of two checkouts.  Each tree's ``src`` and
``bench/workloads.py`` are imported into this one process as a set of
modules of its own, and BASE a second time as the control: a third set
from the same files, whose ratio to BASE is the spread of the method
itself.  For each of the three workloads, the ops of the ``--seconds``
plan of ``bench/run.py`` at seed 1 (``Workload.plan``) are built once per
tree.  Each of ``--passes`` passes (default 5) runs every op once on each
tree, the trees alternating op by op, their order rotated at every op
and every pass, and each op keeps its least time on each tree.  Only the
library call is timed, as ``bench/run.py`` times it, with one BLAS
thread; an op that raises is timed up to its exception.  ``--limit N``
keeps the first N ops of each plan.

Output, one line each:

    <workload> <kind> ops=<count> base=<ms> change=<ms> control=<ms> change/base=<ratio> control/base=<ratio>
    <workload> total ops=<count> base=<ms> ...
    <workload> median-op ops=<count> base=<ms> ...

A kind line sums the least times of the workload's ops of one kind, in
ms; the total line sums them over every op of the workload; the
median-op line gives the median over its ops of the least times.  The
ratios divide the change's and the control's figures by the base's.
The exit status is 2 if a tree could not be imported, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import warnings

from digest import THREAD_VARS, WORKLOADS

# The modules a tree brings: its package and the bench modules it imports.
OWN = ("nabladelay", "workloads", "reference", "tracer")
LABELS = ("base", "change", "control")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    return args


def _own(name: str) -> bool:
    return name.partition(".")[0] in OWN


class Tree:
    """One tree's modules, imported afresh, and a work directory for its ops."""

    def __init__(self, label: str, root: str) -> None:
        root = os.path.abspath(root)
        src, bench = os.path.join(root, "src"), os.path.join(root, "bench")
        for name in [name for name in sys.modules if _own(name)]:
            del sys.modules[name]
        sys.path[:0] = [src, bench]
        try:
            package = importlib.import_module("nabladelay")
            if not os.path.abspath(package.__file__).startswith(src + os.sep):
                raise SystemExit(f"ab: imported nabladelay from {package.__file__}, not {src}")
            self.workloads = importlib.import_module("workloads").WORKLOADS
        finally:
            del sys.path[:2]
        self.modules = {name: module for name, module in sys.modules.items() if _own(name)}
        self.workdir = tempfile.mkdtemp(prefix=f"ab-{label}-")

    def enter(self) -> None:
        # The tree's modules stand in sys.modules while its code runs, for
        # any import made at call time.
        sys.modules.update(self.modules)


def _timed(tree: Tree, workload, op) -> float:
    tree.enter()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            workload.run(op)
        except Exception:  # a failing op is timed as it fails
            pass
        return time.perf_counter() - t0


def _line(name: str, label: str, count: int, figures: list[float]) -> str:
    base, change, control = figures
    return (f"{name} {label} ops={count} base={base:.3f} change={change:.3f} "
            f"control={control:.3f} change/base={change / base:.3f} "
            f"control/base={control / base:.3f}")


def run_workload(name: str, trees: list[Tree], seconds: float, passes: int, limit) -> list[str]:
    """Time the planned ops of one workload on every tree; its report lines."""
    workloads, ops = [], []
    for tree in trees:
        tree.enter()
        workload = tree.workloads[name](1, tree.workdir)
        workloads.append(workload)
        ops.append([workload.op(index) for index in workload.plan(seconds)[:limit]])
    count = len(ops[0])
    best = [[math.inf] * count for _ in trees]
    for p in range(passes):
        for j in range(count):
            for x in range(len(trees)):
                t = (p + j + x) % len(trees)
                best[t][j] = min(best[t][j], _timed(trees[t], workloads[t], ops[t][j]))
    for tree, workload, built in zip(trees, workloads, ops):
        tree.enter()
        for op in built:
            workload.release(op)
    kinds = list(dict.fromkeys(op.kind for op in ops[0]))
    lines = []
    for kind in kinds:
        mine = [j for j, op in enumerate(ops[0]) if op.kind == kind]
        lines.append(_line(name, kind, len(mine),
                           [1e3 * sum(times[j] for j in mine) for times in best]))
    lines.append(_line(name, "total", count, [1e3 * sum(times) for times in best]))
    lines.append(_line(name, "median-op", count,
                       [1e3 * statistics.median(times) for times in best]))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before any tree imports numpy
        os.environ[var] = "1"
    trees = []
    try:
        for label, root in zip(LABELS, (args.base, args.change, args.base)):
            try:
                trees.append(Tree(label, root))
            except (ImportError, SystemExit) as exc:
                sys.stderr.write(f"ab: could not import the {label} tree {root}: {exc}\n")
                return 2
        for name in WORKLOADS:
            lines = run_workload(name, trees, args.seconds, args.passes, args.limit)
            print("\n".join(lines), flush=True)
    finally:
        for tree in trees:
            shutil.rmtree(tree.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
