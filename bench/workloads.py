"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a closed loop with one caller.  Op ``i`` of a workload
is a pure function of ``i``.  Its sizes, orders and coefficient pair
(M, N) come from a fixed stratified design: each block of ``BLOCK`` ops
covers every size class and every stratum of the continuous ranges in
equal shares.  Its operands (histories, forcing and grid functions) come
from a random stream keyed on ``i``.  The design is fixed because op
cost depends on the sizes, the order and the pair (they set how many
series terms the closed form needs and whether it cancels); with drawn
sizes and pairs the run-to-run spread reached 9% for the median op time
and 20% for throughput.

A run of ``--seconds`` s runs the first ``count`` ops, ``count`` being
``RATE`` ops a second rounded to whole blocks, in an order the seed
draws (``Workload.plan``).  Whether the cancellation defect hits an op
depends on its operands as well as on its sizes, so operands are not
drawn from the seed: then every seed, and every run, attempts the same
ops and fails the same ones, and only the order differs.

An op's outcome is one of

- ``ok``: the output matches the benchmark's reference;
- ``known``: the output is wrong or the call raised, and the benchmark's
  own rounding bound (``reference.rounding_bound``) says float64 cannot
  vouch for the closed-form series there.  This is the cancellation
  defect of the series; it counts as a failure;
- ``fail``: any other wrong output or exception.  The run is then not
  correct.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

import nabladelay as nd
from nabladelay import cli

from reference import (equation_residual, impulse_bound, rl_weights, rounding_bound,
                       sum_weights)

RTOL = 1e-8
NORM = 0.3  # 1-norm of M and of N; their sum stays below 1, so every series converges


@dataclass
class Op:
    index: int
    kind: str
    n: int
    delay: int
    horizon: int
    points: int
    inputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str  # "ok", "known" or "fail"
    detail: str = ""


class _Design:
    """Stratified draws for one block of ``count`` ops."""

    def __init__(self, rng, count):
        self.rng, self.count = rng, count

    def strata(self, lo, hi):
        """One draw from each of ``count`` equal strata of [lo, hi], shuffled."""
        order = self.rng.permutation(self.count)
        return lo + (hi - lo) * (order + self.rng.uniform(size=self.count)) / self.count

    def balanced(self, choices):
        """``choices`` repeated to ``count`` entries, shuffled."""
        return self.rng.permutation(np.resize(np.asarray(choices, dtype=object), self.count))


def _pair(rng, n, commuting=False):
    """Random M, N with 1-norm ``NORM`` each; for ``commuting``, N is a quadratic in M."""
    M = rng.normal(size=(n, n))
    M *= NORM / np.linalg.norm(M, 1)
    if commuting:
        c = rng.uniform(-1.0, 1.0, size=3)
        N = c[0] * np.eye(n) + c[1] * M + c[2] * (M @ M)
    else:
        N = rng.normal(size=(n, n))
    N *= NORM / np.linalg.norm(N, 1)
    return M, N


def _damped_pair(rng, n):
    """M = -0.3 I + S and N with |S|_1 = 0.1, |N|_1 = 0.15: a damped system.

    The damping exceeds the delayed feedback, so the solution stays
    bounded however long the horizon.  Undamped pairs drawn like
    ``_pair`` grow without bound, and over K = 8000 about 3% of them
    overflow float64.
    """
    S, N = _pair(rng, n)
    return -0.3 * np.eye(n) + S / 3.0, N / 2.0


def _scale(values):
    return max(1.0, float(np.max(np.abs(values))))


def _compare(got, want, bound, scale=None):
    """Outcome of a closed-form result against its reference."""
    scale = _scale(want) if scale is None else scale
    got = np.asarray(got)
    if got.shape != np.shape(want) or not np.all(np.isfinite(got)):
        deviation = float("inf")
    else:
        deviation = float(np.max(np.abs(got - want)))
    if deviation <= RTOL * scale:
        return Outcome("ok")
    status = "known" if bound > RTOL * scale else "fail"
    return Outcome(status, f"deviation {deviation:.3e} vs tolerance {RTOL * scale:.3e}, "
                           f"rounding bound {bound:.3e}")


def _raised(error, bound, tolerance):
    """Outcome of a call that raised: the series giving up counts as the known defect
    only where the rounding bound is out of tolerance."""
    known = isinstance(error, nd.DivergenceError) and bound > tolerance
    return Outcome("known" if known else "fail", f"raised {error!r}"[:300])


class Workload:
    """Base class: op generation, the seed's run order and the shared loop hooks."""

    name = ""
    ranges: dict = {}
    BLOCK = 24
    RATE = 12.0  # ops a second of wall time, checks included, on a 2-CPU x86-64 host

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._blocks: dict[int, list] = {}

    def spec(self, index: int) -> dict:
        block, slot = divmod(index, self.BLOCK)
        if block not in self._blocks:
            design = _Design(np.random.default_rng([self.ID, 0, block]), self.BLOCK)
            self._blocks[block] = self.schedule(design)
        return self._blocks[block][slot]

    def op(self, index: int) -> Op:
        pair = np.random.default_rng([self.ID, 1, index])
        rng = np.random.default_rng([self.ID, 2, index])
        return self.build(index, self.spec(index), pair, rng)

    def plan(self, seconds: float) -> list[int]:
        """Indices of the ops a run of ``seconds`` makes, in the seed's order."""
        blocks = max(1, round(seconds * self.RATE / self.BLOCK))
        order = np.random.default_rng([self.seed, self.ID]).permutation(blocks * self.BLOCK)
        return [int(i) for i in order]

    def release(self, op: Op) -> None:
        """Drop files an op left behind."""

    # Subclasses define ID, schedule(design) -> list of BLOCK dicts,
    # build(index, spec, pair_rng, rng) -> Op, run(op) -> result, check(op, result) -> Outcome.


class ClosedSweep(Workload):
    name = "closed-sweep"
    ranges = {"n": [2, 4], "delay": [1, 5], "horizon": [40, 160]}
    ID = 1
    KINDS = ("verify", "verify", "commutative", "delta")

    def schedule(self, d):
        B = self.BLOCK
        kinds = d.balanced(self.KINDS)
        ns = d.balanced((2, 3, 4))
        rs = d.balanced((1, 2, 3, 5))
        Ks = np.round(d.strata(40, 160)).astype(int)
        alphas = d.strata(0.3, 0.9)
        return [dict(kind=str(kinds[i]), n=int(ns[i]), r=int(rs[i]), K=int(Ks[i]),
                     alpha=float(alphas[i])) for i in range(B)]

    def build(self, index, spec, pair, rng):
        n, r, K = spec["n"], spec["r"], spec["K"]
        M, N = _pair(pair, n, commuting=spec["kind"] == "commutative")
        system = nd.DelaySystem(
            alpha=spec["alpha"], delay=r, M=M, N=N, phi=rng.normal(size=(r, n)),
            forcing=rng.normal(size=(K, n)), horizon=K,
        )
        return Op(index, spec["kind"], n, r, K, K + r, {"system": system})

    def run(self, op):
        system = op.inputs["system"]
        if op.kind == "verify":
            return nd.verify(system)
        if op.kind == "commutative":
            return nd.commutative_solve(system)
        return nd.delta_solve(system)

    def check(self, op, result):
        s = op.inputs["system"]
        reference = nd.step_solve(s).values
        ref = reference.values
        residual = equation_residual(s.alpha, s.delay, s.M, s.N, s.forcing.values, ref)
        if reference.base != 1 - s.delay or np.max(residual) > RTOL * _scale(ref):
            return Outcome("fail", "stepping reference fails the equation residual")
        bound = rounding_bound(s.alpha, s.delay, s.M, s.N, s.phi.values, s.forcing.values,
                               s.horizon)
        if op.kind == "verify" and not isinstance(result, Exception):
            if result.closed is None:
                result = nd.DivergenceError(result.message)
            else:
                result = result.closed
        if isinstance(result, Exception):
            return _raised(result, bound, RTOL * _scale(ref))
        base = 2 - s.delay if op.kind == "delta" else 1 - s.delay
        if result.values.base != base:
            return Outcome("fail", f"trace starts at {result.values.base}, expected {base}")
        return _compare(result.values.values, ref, bound)


class LongHorizon(Workload):
    name = "long-horizon"
    ranges = {"n": [4, 8], "delay": [1, 10], "horizon": [2000, 8000]}
    ID = 2
    BLOCK = 12
    RATE = 6.0

    def schedule(self, d):
        B = self.BLOCK
        ns = d.balanced((4, 8))
        rs = d.balanced((1, 3, 10))
        Ks = np.round(d.strata(2000, 8000)).astype(int)
        alphas = d.strata(0.3, 0.9)
        return [dict(n=int(ns[i]), r=int(rs[i]), K=int(Ks[i]), alpha=float(alphas[i]))
                for i in range(B)]

    def build(self, index, spec, pair, rng):
        n, r, K = spec["n"], spec["r"], spec["K"]
        M, N = _damped_pair(pair, n)
        phi = rng.normal(size=(r, n))
        forcing = rng.normal(size=(K, n))
        doc = {
            "alpha": spec["alpha"], "delay": r, "horizon": K,
            "M": M.tolist(), "N": N.tolist(), "phi": phi.tolist(),
            "forcing": {"type": "table", "values": forcing.tolist()},
        }
        config = os.path.join(self.workdir, f"op{index}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        inputs = {"config": config, "out": os.path.join(self.workdir, f"op{index}.csv"),
                  "alpha": spec["alpha"], "M": M, "N": N, "phi": phi, "forcing": forcing}
        return Op(index, "solve-step", n, r, K, K + r, inputs)

    def run(self, op):
        return cli.main(["solve", "--method", "step", "--config", op.inputs["config"],
                         "--out", op.inputs["out"]])

    def check(self, op, result):
        if isinstance(result, Exception):
            return Outcome("fail", f"raised {result!r}"[:300])
        if result != 0:
            return Outcome("fail", f"exit code {result}")
        inp = op.inputs
        with open(inp["out"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = ["k"] + [f"z{i + 1}" for i in range(op.n)]
        if not rows or rows[0] != header:
            return Outcome("fail", "CSV header missing or wrong")
        try:
            table = np.array(rows[1:], dtype=float)
        except ValueError as exc:
            return Outcome("fail", f"CSV body: {exc}"[:300])
        ks = np.arange(1 - op.delay, op.horizon + 1)
        if table.shape != (ks.size, op.n + 1) or not np.array_equal(table[:, 0], ks):
            return Outcome("fail", "CSV rows do not cover [1 - delay, horizon]")
        z = table[:, 1:]
        if not np.array_equal(z[: op.delay], inp["phi"]):
            return Outcome("fail", "CSV history differs from phi")
        residual = equation_residual(inp["alpha"], op.delay, inp["M"], inp["N"],
                                     inp["forcing"], z)
        worst = float(np.max(residual))
        if not worst <= RTOL * _scale(z):
            return Outcome("fail", f"residual {worst:.3e}")
        return Outcome("ok")

    def release(self, op):
        for key in ("config", "out"):
            if os.path.exists(op.inputs[key]):
                os.unlink(op.inputs[key])


def _impulse_dpml(alpha, r, M, N, k):
    """DPML(alpha, alpha, r, M, N) at k >= 1 - r from the stepping oracle.

    With zero history and forcing e_i at k = 1 only, the solution at
    k + r is column i of the DPML value at k.
    """
    n = M.shape[0]
    horizon = k + r
    columns = []
    for i in range(n):
        forcing = np.zeros((horizon, n))
        forcing[0, i] = 1.0
        system = nd.DelaySystem(alpha=alpha, delay=r, M=M, N=N, phi=np.zeros((r, n)),
                                forcing=forcing, horizon=horizon)
        columns.append(nd.step_solve(system).values.at(horizon))
    return np.column_stack(columns)


class PointQuery(Workload):
    name = "point-query"
    ranges = {"n": [1, 4], "delay": [1, 5], "horizon": [1, 600]}
    ID = 3
    BLOCK = 20
    RATE = 108.0
    KINDS = ("dpml_eval", "parts", "special_reductions", "ml_eval", "grid")
    PATTERNS = ("delayed_exponential", "factored_exponential", "exponential_perturbation",
                "delayed_ml", "ml")

    def schedule(self, d):
        B = self.BLOCK
        kinds = d.balanced(self.KINDS)
        ns = d.balanced((2, 3, 4))
        rs = d.balanced((1, 2, 3, 5))
        ks = np.round(d.strata(1, 160)).astype(int)
        spans = np.round(d.strata(50, 600)).astype(int)
        alphas = d.strata(0.3, 0.9)
        patterns = d.balanced(self.PATTERNS)
        grid_ops = d.balanced(("rl_difference", "nabla_sum"))
        specs = []
        for i in range(B):
            kind = str(kinds[i])
            if kind == "special_reductions":
                kind = f"special:{patterns[i]}"
            elif kind == "grid":
                kind = str(grid_ops[i])
            k = int(spans[i]) if kind in ("rl_difference", "nabla_sum") else int(ks[i])
            specs.append(dict(kind=kind, n=int(ns[i]), r=int(rs[i]), k=k,
                              alpha=float(alphas[i])))
        return specs

    def build(self, index, spec, pair, rng):
        kind, n, r, k, alpha = spec["kind"], spec["n"], spec["r"], spec["k"], spec["alpha"]
        inputs = {"alpha": alpha, "k": k}
        if kind in ("rl_difference", "nabla_sum"):
            n -= 1
            a = int(rng.integers(-5, 6))
            inputs.update(a=a, z=nd.GridSeries(a + 1, rng.normal(size=(k, n))))
            return Op(index, kind, n, 0, k, 1, inputs)
        if kind.startswith("special:"):
            pattern = kind.split(":", 1)[1]
            unit = pattern in ("delayed_exponential", "factored_exponential",
                               "exponential_perturbation")
            M, N = _pair(pair, n, commuting=pattern == "factored_exponential")
            if pattern in ("delayed_exponential", "delayed_ml"):
                M = np.zeros_like(M)
            if pattern == "ml":
                N = np.zeros_like(N)
            order = 1.0 if unit else alpha
            inputs.update(alpha=order, pattern=pattern,
                          params=nd.DpmlParams(order, order, r, M, N))
        else:
            M, N = _pair(pair, n)
            inputs.update(M=M, N=N)
            if kind == "parts":
                inputs["system"] = nd.DelaySystem(
                    alpha=alpha, delay=r, M=M, N=N, phi=rng.normal(size=(r, n)),
                    forcing=rng.normal(size=(k, n)), horizon=k,
                )
            elif kind == "dpml_eval":
                inputs["params"] = nd.DpmlParams(alpha, alpha, r, M, N)
        return Op(index, kind, n, r, k, 1, inputs)

    def run(self, op):
        inp = op.inputs
        k = inp["k"]
        if op.kind == "dpml_eval":
            return nd.dpml_eval(inp["params"], k)
        if op.kind == "parts":
            return nd.homogeneous_part(inp["system"], k) + nd.forced_part(inp["system"], k)
        if op.kind == "ml_eval":
            return nd.ml_eval(inp["M"], inp["alpha"], inp["alpha"] - 1.0, k, -op.delay)
        if op.kind == "rl_difference":
            return nd.rl_difference(inp["alpha"], inp["a"], inp["z"], inp["a"] + k)
        if op.kind == "nabla_sum":
            return nd.nabla_sum(inp["alpha"], inp["a"], inp["z"], inp["a"] + k)
        return nd.special_reductions(inp["params"], k, inp["pattern"])

    def check(self, op, result):
        inp = op.inputs
        k, r, alpha = inp["k"], op.delay, inp["alpha"]
        if op.kind in ("rl_difference", "nabla_sum"):
            if isinstance(result, Exception):
                return Outcome("fail", f"raised {result!r}"[:300])
            z = inp["z"].values
            weights = (rl_weights if op.kind == "rl_difference" else sum_weights)(alpha, k)
            terms = weights[::-1, None] * z
            return _compare(result, terms.sum(axis=0), 0.0,
                            scale=max(1.0, float(np.abs(terms).sum())))
        if op.kind == "parts":
            s = inp["system"]
            want = nd.step_solve(s).values.at(k)
            bound = rounding_bound(alpha, r, s.M, s.N, s.phi.values, s.forcing.values, k)
        elif op.kind.startswith("special:") and alpha == 1.0:
            # Unit orders lie outside the stepping oracle (alpha < 1); the
            # general word-sum series is the independent route there.
            params = inp["params"]
            want = nd.dpml_eval(params, k)
            bound = impulse_bound(alpha, r, params.M, params.N, k)
        else:
            if op.kind.startswith("special:"):
                M, N = inp["params"].M, inp["params"].N
            else:
                M = inp["M"]
                N = inp["N"] if op.kind == "dpml_eval" else np.zeros_like(M)
            want = _impulse_dpml(alpha, r, M, N, k)
            bound = impulse_bound(alpha, r, M, N, k)
        if isinstance(result, Exception):
            return _raised(result, bound, RTOL * _scale(want))
        return _compare(result, want, bound)


WORKLOADS = {cls.name: cls for cls in (ClosedSweep, LongHorizon, PointQuery)}
