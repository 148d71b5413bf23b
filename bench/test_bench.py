"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from reference import rounding_bound  # noqa: E402
from workloads import RTOL, WORKLOADS  # noqa: E402


def _operands(workload, indices):
    """Every array and scalar that goes into the ops ``indices`` names."""
    out = []
    for index in indices:
        op = workload.op(index)
        items = [op.kind, op.n, op.delay, op.horizon]
        for key, value in sorted(op.inputs.items()):
            if key == "system":
                items += [value.alpha, value.M, value.N, value.phi.values, value.forcing.values]
            elif key == "params":
                items += [value.alpha, value.beta, value.r, value.M, value.N]
            elif key == "z":
                items += [value.base, value.values]
            elif key == "config":
                with open(value, encoding="utf-8") as fh:
                    items.append(fh.read())
            elif key != "out":
                items.append(value)
        workload.release(op)
        out.append(items)
    return out


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    plan = WORKLOADS[name](7, str(tmp_path)).plan(2.0)
    assert WORKLOADS[name](7, str(tmp_path)).plan(2.0) == plan
    first = _operands(WORKLOADS[name](7, str(tmp_path)), plan[:30])
    again = _operands(WORKLOADS[name](7, str(tmp_path)), plan[:30])
    shuffled = WORKLOADS[name](8, str(tmp_path))
    other = _operands(shuffled, shuffled.plan(2.0)[:30])
    assert _same(first, again)
    assert not _same(first, other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_runs_the_same_ops(name, tmp_path):
    workload = WORKLOADS[name](7, str(tmp_path))
    plans = [WORKLOADS[name](seed, str(tmp_path)).plan(30.0) for seed in (7, 8, 9)]
    assert len(set(map(tuple, plans))) == 3
    assert all(sorted(plan) == list(range(len(plans[0]))) for plan in plans)
    assert len(plans[0]) % workload.BLOCK == 0
    other = WORKLOADS[name](8, str(tmp_path))
    assert _same(_operands(workload, [0, 5]), _operands(other, [0, 5]))


def _certified_op(workload, kinds, max_horizon):
    """First op of the given kinds whose closed form the rounding bound vouches for."""
    for index in range(200):
        op = workload.op(index)
        if op.kind not in kinds or op.horizon > max_horizon:
            continue
        s = op.inputs.get("system")
        if s is None:
            return op
        bound = rounding_bound(s.alpha, s.delay, s.M, s.N, s.phi.values, s.forcing.values,
                               s.horizon)
        if bound < 1e-3 * RTOL:
            return op
    raise AssertionError("no certified op in the first 200")


def test_perturbed_closed_form_result_fails(tmp_path):
    workload = WORKLOADS["closed-sweep"](3, str(tmp_path))
    for kind in ("verify", "commutative", "delta"):
        op = _certified_op(workload, (kind,), 80)
        result = workload.run(op)
        assert workload.check(op, result).status == "ok"
        trace = result.closed if kind == "verify" else result
        values = trace.values.values
        values[-1, 0] += 1e-6 * max(1.0, float(np.max(np.abs(values))))
        assert workload.check(op, result).status == "fail"


def test_perturbed_csv_fails(tmp_path):
    workload = WORKLOADS["long-horizon"](3, str(tmp_path))
    op = workload.op(0)
    code = workload.run(op)
    assert workload.check(op, code).status == "ok"
    with open(op.inputs["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[len(lines) // 2].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    lines[len(lines) // 2] = ",".join(row)
    with open(op.inputs["out"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert workload.check(op, code).status == "fail"
    assert workload.check(op, 1).status == "fail"
    workload.release(op)


def test_perturbed_point_query_fails(tmp_path):
    workload = WORKLOADS["point-query"](3, str(tmp_path))
    seen = set()
    for index in range(40):
        op = workload.op(index)
        if op.kind in seen or (op.kind != "rl_difference" and op.horizon > 40):
            continue
        seen.add(op.kind)
        result = np.array(workload.run(op), dtype=float)
        assert workload.check(op, result).status == "ok", op.kind
        result.flat[0] += 1e-6 * max(1.0, float(np.max(np.abs(result))))
        assert workload.check(op, result).status != "ok", op.kind
        assert workload.check(op, ValueError("boom")).status == "fail", op.kind
    assert {"dpml_eval", "parts", "ml_eval"} <= seen


def _run(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_reported_with_its_unit(name, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    done = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "point-query", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
