"""Solvers for linear nabla fractional difference systems with one delay.

The problem model is

    (RL difference of order alpha, based at -r) z(k) = M z(k) + N z(k - r) + f(k)

for k >= 1, with initial history z(k) = phi(k) on [1 - r, 0] and constant
square matrices M, N that need not commute.

Two independent solution routes are provided and kept deliberately
separate so each can check the other:

- :func:`step_solve` rearranges the defining equation at each grid point
  (the Riemann-Liouville kernel has unit leading weight) and steps
  forward; it is the sequential oracle.
- :func:`closed_form_solve` evaluates the explicit representation built
  on the delayed perturbation Mittag-Leffler function: the history enters
  through the weights w(s) = (RL difference of phi)(s) - M phi(s) summed
  against DPML values, the forcing through a discrete convolution.  The
  left endpoint contributes w(1 - r) = (I - M) phi(1 - r) because the
  difference at the first point after the base reduces to the value
  itself.

:func:`verify` runs both routes on one system and reports deviations and
defining-equation residuals; a failing closed form is reported, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dpml import DivergenceError, DpmlFunction, DpmlParams, TruncationPolicy
from .grid_calculus import GridSeries, monomial_run

__all__ = [
    "DelaySystem",
    "SingularityError",
    "SolutionTrace",
    "VerifyReport",
    "closed_form_solve",
    "commutative_solve",
    "delta_solve",
    "forced_part",
    "homogeneous_part",
    "step_solve",
    "verify",
]


class SingularityError(ArithmeticError):
    """Raised when I - M is singular and the implicit step cannot be taken."""


class _SteppingOverflow(DivergenceError):
    """Raised when the stepping trajectory overflows float64; no series is involved."""


@dataclass
class DelaySystem:
    """One delayed fractional difference problem instance.

    ``phi`` must cover exactly the initial interval ``[1 - delay, 0]``
    (the base point ``-delay`` itself carries no data).  ``forcing`` is
    either ``None`` (zero forcing) or a :class:`GridSeries` covering
    ``[1, horizon]``.  Plain arrays are accepted for both and are placed
    on the appropriate grid.

    A delay of 1 is a valid edge case: the initial history then consists
    of the single value phi(0) and every delay block has length one.
    """

    alpha: float
    delay: int
    M: np.ndarray
    N: np.ndarray
    phi: GridSeries
    forcing: GridSeries | None = None
    horizon: int = 1
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not isinstance(self.delay, (int, np.integer)) or self.delay < 1:
            raise ValueError(f"delay must be an integer >= 1, got {self.delay}")
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon}")
        self.alpha = float(self.alpha)
        self.delay = int(self.delay)
        self.horizon = int(self.horizon)
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        self.N = np.atleast_2d(np.asarray(self.N, dtype=float))
        if self.M.shape != self.N.shape or self.M.shape[0] != self.M.shape[1]:
            raise ValueError(
                f"M and N must be square with equal shape, got {self.M.shape} and {self.N.shape}"
            )
        if not isinstance(self.phi, GridSeries):
            self.phi = GridSeries(1 - self.delay, self.phi)
        if self.phi.base != 1 - self.delay or self.phi.end != 0:
            raise ValueError(
                f"phi must cover exactly [{1 - self.delay}, 0], got "
                f"[{self.phi.base}, {self.phi.end}]"
            )
        if self.forcing is not None and not isinstance(self.forcing, GridSeries):
            self.forcing = GridSeries(1, self.forcing)
        if self.forcing is not None and (
            self.forcing.base > 1 or self.forcing.end < self.horizon
        ):
            raise ValueError(
                f"forcing must cover [1, {self.horizon}], got "
                f"[{self.forcing.base}, {self.forcing.end}]"
            )
        for name, arr in (("M", self.M), ("N", self.N)):
            if arr.shape[0] != self.phi.dim:
                raise ValueError(
                    f"{name} has dimension {arr.shape[0]} but phi has {self.phi.dim}"
                )
        if self.forcing is not None and self.forcing.dim != self.phi.dim:
            raise ValueError(
                f"forcing has dimension {self.forcing.dim} but phi has {self.phi.dim}"
            )
        data = {"M": self.M, "N": self.N, "phi": self.phi.values}
        if self.forcing is not None:
            data["forcing"] = self.forcing.values
        for name, arr in data.items():
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                index = tuple(int(i) for i in bad[0])
                raise ValueError(f"{name} has a non-finite entry {arr[index]!r} at index {index}")
        if not isinstance(self.policy, TruncationPolicy):
            raise TypeError("policy must be a TruncationPolicy")

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def forcing_at(self, k: int) -> np.ndarray:
        if self.forcing is None:
            return np.zeros(self.dim)
        return self.forcing.at(k)


@dataclass
class SolutionTrace:
    """A computed trajectory plus optional diagnostics.

    ``residuals`` is ``None`` as a route returns the trace; :func:`verify`
    fills it on the closed-form trace it checked with the max-norm
    defining-equation residual at k = 1 .. horizon, index k - 1.
    ``condition`` is the 1-norm condition number of I - M when the
    producing route factored it.
    """

    values: GridSeries
    residuals: np.ndarray | None = None
    method: str = ""
    condition: float | None = None


def _eigenvalue_nearest_one(M: np.ndarray) -> str:
    eigenvalues = np.linalg.eigvals(M)
    ev = eigenvalues[int(np.argmin(np.abs(eigenvalues - 1.0)))]
    if abs(ev.imag) < 1e-12:
        return f"{ev.real:.6g}"
    return f"{ev:.6g}"


def _factor_implicit(system: DelaySystem) -> tuple[np.ndarray, float]:
    ImM = np.eye(system.dim) - system.M
    try:
        cond = float(np.linalg.cond(ImM, 1))
    except np.linalg.LinAlgError:
        cond = float("inf")
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise SingularityError(
            f"I - M is numerically singular (condition {cond:.3e}): "
            f"M has eigenvalue {_eigenvalue_nearest_one(system.M)}"
        )
    return ImM, cond


def step_solve(system: DelaySystem) -> SolutionTrace:
    """Sequential solution of the defining equation; the oracle route.

    The Riemann-Liouville kernel weight at the current point is exactly 1,
    so each step solves (I - M) z(k) = N z(k - r) + f(k) - (history sum).
    Raises :class:`SingularityError` when I - M is singular and
    :class:`~nabladelay.dpml.DivergenceError`, naming the first point,
    when the trajectory overflows float64.  The returned trace copies phi
    verbatim on the initial interval; like every route it carries no
    residuals (:func:`verify` computes them for the closed form).
    """
    r, K, n = system.delay, system.horizon, system.dim
    ImM, cond = _factor_implicit(system)
    weights = monomial_run(-system.alpha - 1.0, K + r)
    F = _forcing_rows(system, K)
    V = np.zeros((K + r, n))
    V[:r] = system.phi.values
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            pos = k + r - 1
            history = weights[pos:0:-1] @ V[:pos]
            rhs = system.N @ V[k - 1] + F[k - 1] - history
            V[pos] = np.linalg.solve(ImM, rhs)
    bad = np.flatnonzero(~np.isfinite(V).all(axis=1))
    if bad.size:
        raise _SteppingOverflow(
            f"stepping trajectory overflowed float64 at k = {bad[0] + 1 - r}"
        )
    return SolutionTrace(values=GridSeries(1 - r, V), method="step", condition=cond)


def _forcing_rows(system: DelaySystem, kmax: int) -> np.ndarray:
    """Rows f(1) .. f(kmax) of the forcing, zero when there is none."""
    f = system.forcing
    if f is None:
        return np.zeros((kmax, system.dim))
    f.at(kmax)  # raises GridRangeError past the stored range
    return f.values[1 - f.base : kmax + 1 - f.base]


def _equation_residuals(system: DelaySystem, values: GridSeries) -> np.ndarray:
    """Max-norm residual of the defining equation at k = 1 .. horizon.

    The RL difference of the whole trajectory is one causal convolution
    with the weights monomial(-alpha - 1) per component.
    """
    r, K = system.delay, system.horizon
    if values.base != 1 - r or values.end < K:
        raise ValueError("trace does not cover the solution grid [1 - delay, horizon]")
    z = values.values[: K + r]
    weights = monomial_run(-system.alpha - 1.0, K + r)
    lhs = np.stack([np.convolve(weights, column)[r : K + r] for column in z.T], axis=1)
    defect = lhs - z[r:] @ system.M.T - z[:K] @ system.N.T - _forcing_rows(system, K)
    return np.abs(defect).max(axis=1)


def _closed_trajectory(
    system: DelaySystem,
    kmax: int,
    commutative: bool = False,
    history: bool = True,
    forcing: bool = True,
) -> np.ndarray:
    """Rows z(1 - r) .. z(kmax) of the explicit representation, kmax >= 1 - r.

    One causal convolution z(k) = sum_{s = 1 - r}^{k} Phi(k - r - s + 1) g(s)
    with g = [w; f]: the history weights w(s) on [1 - r, 0] and the forcing
    f(s) from 1 on.  ``history=False`` zeroes w and ``forcing=False`` zeroes
    f, which gives the forced and the homogeneous part on their own.
    """
    alpha, r, M, phi = system.alpha, system.delay, system.M, system.phi.values
    fn = DpmlFunction(
        DpmlParams(alpha, alpha, r, M, system.N, system.policy), commutative=commutative
    )
    length = kmax + r
    g = np.zeros((length, system.dim))
    if history:
        # w(s) at row j = s + r - 1: the RL difference based at -r is the
        # reversed prefix of one kernel run against phi, so w(1 - r) reduces
        # to (I - M) phi(1 - r).
        kernel = monomial_run(-alpha - 1.0, r)
        w = np.array([kernel[j::-1] @ phi[: j + 1] - M @ phi[j] for j in range(r)])
        g[:r] = w[:length]
    if forcing:
        g[r:] = _forcing_rows(system, kmax)
    # Psi(t) = Phi(t + 1 - r) weighs g(q - t) in z at position q.
    psi = fn.stack(1 - r, kmax)
    z = np.zeros_like(g)
    for t in range(length):
        z[t:] += g[: length - t] @ psi[t].T
    return z


def homogeneous_part(system: DelaySystem, k: int) -> np.ndarray:
    """History contribution of the explicit representation at point ``k``.

    Sums DPML values against the history weights w(s) over
    s in [1 - delay, min(k, 0)].  On the initial interval this reproduces
    phi(k) identically; forcing is ignored.
    """
    if k < 1 - system.delay:
        return np.zeros(system.dim)
    return _closed_trajectory(system, k, forcing=False)[-1]


def forced_part(system: DelaySystem, k: int) -> np.ndarray:
    """Forcing contribution of the explicit representation at point ``k``.

    Discrete convolution of DPML values with the forcing over
    s in [1, k]; zero on the initial interval and for zero forcing.
    """
    if k < 1:
        return np.zeros(system.dim)
    return _closed_trajectory(system, k, history=False)[-1]


def _closed_trace(system: DelaySystem, commutative: bool, base: int, method: str) -> SolutionTrace:
    z = _closed_trajectory(system, system.horizon, commutative)
    return SolutionTrace(values=GridSeries(base, z), method=method)


def closed_form_solve(system: DelaySystem) -> SolutionTrace:
    """Explicit DPML representation evaluated on [1 - delay, horizon].

    The trace stores the representation's own values everywhere, including
    the initial interval, so agreement with phi there is a genuine check
    rather than a copy.  Raises :class:`~nabladelay.dpml.DivergenceError`
    when the series truncation rule fails.
    """
    return _closed_trace(system, False, 1 - system.delay, "closed")


def commutative_solve(system: DelaySystem) -> SolutionTrace:
    """Explicit representation with word sums from the commuting closed form.

    Requires MN = NM (checked to 1e-12 relative to the entry scale;
    :class:`~nabladelay.dpml.CommutativityError` otherwise).  Useful as an
    independent route on commuting instances.
    """
    return _closed_trace(system, True, 1 - system.delay, "commutative")


def delta_solve(system: DelaySystem) -> SolutionTrace:
    """Forward-difference analogue of the closed form on the shifted grid.

    Solves the delta-type delayed system whose solution is
    y(k) = z(k - 1); the trace lives on [2 - delay, horizon + 1].
    """
    return _closed_trace(system, False, 2 - system.delay, "delta")


@dataclass
class VerifyReport:
    """Outcome of cross-checking the closed form against the oracle."""

    passed: bool
    tol: float
    closed_form_available: bool
    max_deviation: float | None
    worst_deviation_k: int | None
    max_residual: float | None
    worst_residual_k: int | None
    condition: float | None
    message: str
    oracle: SolutionTrace
    closed: SolutionTrace | None


def verify(system: DelaySystem, tol: float = 1e-8) -> VerifyReport:
    """Run both routes on ``system`` and compare them point by point.

    Passing requires both the max deviation between the traces and the max
    defining-equation residual of the closed form to stay within ``tol``.
    When the DPML series diverges the report flags the closed form as
    unavailable (nothing is raised) and still carries the oracle trace.
    An overflowing oracle raises, as in :func:`step_solve`.
    """
    oracle = step_solve(system)
    max_deviation = worst_deviation_k = max_residual = worst_residual_k = None
    try:
        closed = closed_form_solve(system)
    except DivergenceError as exc:
        closed, passed = None, False
        message = f"closed form unavailable: {exc}"
    else:
        deviations = np.max(np.abs(closed.values.values - oracle.values.values), axis=1)
        residuals = closed.residuals = _equation_residuals(system, closed.values)
        i, j = int(np.argmax(deviations)), int(np.argmax(residuals))
        max_deviation, worst_deviation_k = float(deviations[i]), i + 1 - system.delay
        max_residual, worst_residual_k = float(residuals[j]), j + 1
        passed = max_deviation <= tol and max_residual <= tol
        message = (
            "closed form matches the stepping oracle"
            if passed
            else "closed form deviates from the stepping oracle beyond tolerance"
        )
    return VerifyReport(
        passed=passed,
        tol=tol,
        closed_form_available=closed is not None,
        max_deviation=max_deviation,
        worst_deviation_k=worst_deviation_k,
        max_residual=max_residual,
        worst_residual_k=worst_residual_k,
        condition=oracle.condition,
        message=message,
        oracle=oracle,
        closed=closed,
    )
