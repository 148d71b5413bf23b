"""Solvers for linear nabla fractional difference systems with one delay.

The problem model is

    (RL difference of order alpha, based at -r) z(k) = M z(k) + N z(k - r) + f(k)

for k >= 1, with initial history z(k) = phi(k) on [1 - r, 0] and constant
square matrices M, N that need not commute.

Two independent solution routes are provided and kept deliberately
separate so each can check the other:

- :func:`step_solve` rearranges the defining equation at each grid point
  (the Riemann-Liouville kernel has unit leading weight) and steps
  forward; it is the oracle.  It solves leaves of consecutive points at
  once and adds the history of finished leaves to later ones by FFT
  convolution, O(K log^2 K n) in all, and never uses a series.
- :func:`closed_form_solve` evaluates the explicit representation built
  on the delayed perturbation Mittag-Leffler function: the history enters
  through the weights w(s) = (RL difference of phi)(s) - M phi(s) summed
  against DPML values, the forcing through a discrete convolution.  The
  left endpoint contributes w(1 - r) = (I - M) phi(1 - r) because the
  difference at the first point after the base reduces to the value
  itself.

:func:`closed_form_solve` and its variants check the trajectory they build
against the defining equation and raise rather than return one whose
residual is over budget; the trace carries the residuals.  :func:`verify`
runs both routes on one system and reports deviations and residuals; a
failing closed form is reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dpml import DivergenceError, DpmlFunction, DpmlParams, TruncationPolicy, _require_finite
from .grid_calculus import GridSeries, _kernel_run, _require_count, _require_points, monomial_run

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


class _ResidualOverBudget(DivergenceError):
    """Raised when a closed-form trajectory misses its defining equation beyond budget."""


# Largest defining-equation residual at k that a closed route returns,
# relative to max(1, max|z(k)|).  The residual estimates the series'
# rounding; it does not bound it.  At 1e-8 the gate also rejected
# trajectories within 1e-8 of the stepping oracle (5 of the 360 seed-1
# closed-sweep ops); at 1e-7 it rejected none of them.
_RESIDUAL_BUDGET = 1e-7


def _on_grid(name: str, base: int, values) -> GridSeries:
    # A plain table placed on the grid from ``base``, its error naming the field.
    try:
        return GridSeries(base, values)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


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
        # The delay, M/N pair and policy rules are the DPML layer's.
        params = self.params
        self.alpha, self.delay, self.M, self.N = params.alpha, params.r, params.M, params.N
        self.horizon = _require_count("horizon", self.horizon)
        if not isinstance(self.phi, GridSeries):
            self.phi = _on_grid("phi", 1 - self.delay, self.phi)
        if self.phi.base != 1 - self.delay or self.phi.end != 0:
            raise ValueError(
                f"phi must cover exactly [{1 - self.delay}, 0], got "
                f"[{self.phi.base}, {self.phi.end}]"
            )
        if self.forcing is not None and not isinstance(self.forcing, GridSeries):
            self.forcing = _on_grid("forcing", 1, self.forcing)
        if self.forcing is not None and (
            self.forcing.base > 1 or self.forcing.end < self.horizon
        ):
            raise ValueError(
                f"forcing must cover [1, {self.horizon}], got "
                f"[{self.forcing.base}, {self.forcing.end}]"
            )
        if self.M.shape[0] != self.phi.dim:  # N has M's shape
            raise ValueError(f"M has dimension {self.M.shape[0]} but phi has {self.phi.dim}")
        if self.forcing is not None and self.forcing.dim != self.phi.dim:
            raise ValueError(
                f"forcing has dimension {self.forcing.dim} but phi has {self.phi.dim}"
            )
        _require_finite("phi", self.phi.values)
        if self.forcing is not None:
            _require_finite("forcing", self.forcing.values)

    @property
    def params(self) -> DpmlParams:
        """DpmlParams(alpha, alpha, delay, M, N, policy), built from the fields on each read."""
        return DpmlParams(self.alpha, self.alpha, self.delay, self.M, self.N, self.policy)

    @property
    def dim(self) -> int:
        return self.M.shape[0]


@dataclass
class SolutionTrace:
    """A computed trajectory plus optional diagnostics.

    ``residuals`` holds the max-norm defining-equation residual at
    k = 1 .. horizon, index k - 1, on a trace of the closed form or its
    variants.  Each of them raises instead of returning a trajectory
    whose residual at some k exceeds 1e-7 * max(1, max|z(k)|) or is not
    finite.  It is ``None`` on the stepping oracle's trace.
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
    # inf when I - M is singular: cond raises only on empty or non-square input.
    cond = float(np.linalg.cond(ImM, 1))
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise SingularityError(
            f"I - M is numerically singular (condition {cond:.3e}): "
            f"M has eigenvalue {_eigenvalue_nearest_one(system.M)}"
        )
    return ImM, cond


def _leaf_rows(K: int, n: int) -> int:
    """Rows B of one leaf of the stepping recurrence for K points of n components.

    Building the leaf inverse steps B points and each later leaf costs about
    as much as a step, so B near 2 sqrt(K) balances the two; B n <= 256
    keeps the (B n)^2 product per leaf small.
    """
    return max(1, min(K, 256 // n, math.isqrt(4 * K)))


def _leaf_inverse(ImM: np.ndarray, N: np.ndarray, weights: np.ndarray, r: int, rows: int):
    """Inverse of the leaf system of at most ``rows`` rows, as a (B n, B n) matrix.

    Inside a leaf the unknowns z(k), ..., z(k + B - 1) solve a block lower
    triangular Toeplitz system with blocks I - M on the diagonal, w_j I at
    offset j and w_r I - N at offset r (when r < B).  Its inverse is block
    lower triangular Toeplitz too; the first block column G_0 .. G_{B-1}
    is the impulse response, stepped like the trajectory: G_0 = (I - M)^-1
    and G_i = G_0 (N G_{i-r} - sum_{j=1}^{i} w_j G_{i-j}), the N term only
    for i >= r.  The leaf is cut before the first non-finite G_i, so a
    fast-growing impulse response cannot turn a zero right-hand side into
    nan.  Blocks above the diagonal are exact zeros.
    """
    n = ImM.shape[0]
    C = np.zeros((2 * rows - 1, n, n))  # C[rows - 1 - i] = G_i, zeros after G_0
    flat = C.reshape(2 * rows - 1, n * n)
    G0 = np.linalg.solve(ImM, np.eye(n))
    GN = G0 @ N
    C[rows - 1] = G0
    for i in range(1, rows):
        G = G0 @ -(weights[1 : i + 1] @ flat[rows - i : rows]).reshape(n, n)
        if i >= r:
            G += GN @ C[rows - 1 - i + r]
        C[rows - 1 - i] = G
    finite = np.isfinite(flat[rows - 1 :: -1]).all(axis=1)
    B = rows if finite.all() else int(np.argmin(finite))
    # Row block i of the inverse reads G_{i-j} = C[B - 1 - i + j] at column block j.
    window = sliding_window_view(C[rows - B : rows + B - 1], B, axis=0)
    return window[::-1].transpose(0, 1, 3, 2).reshape(B * n, B * n)


def step_solve(system: DelaySystem) -> SolutionTrace:
    """Solution of the defining equation by stepping it forward; the oracle route.

    The Riemann-Liouville kernel weight at the current point is exactly 1,
    so each point satisfies (I - M) z(k) = N z(k - r) + f(k) - (history sum),
    the sum running over every earlier point.  The points k = 1 .. horizon
    are solved in leaves of B consecutive rows (:func:`_leaf_rows`), each
    by one product with the leaf system's inverse
    (:func:`_leaf_inverse`), never by the DPML series.  History sums are
    filled by FFT causal convolutions: phi's share once, and after every
    leaf the latest aligned run of 2^j solved leaves adds its share to the
    next 2^j leaves, so the cost is O(K log^2 K n) rather than O(K^2 n).
    The result agrees with a point-by-point loop to rounding, not bit for
    bit.

    Raises :class:`SingularityError` when I - M is singular and
    :class:`~nabladelay.dpml.DivergenceError`, naming the first point,
    when the trajectory overflows float64.  That point can differ from
    the one a point-by-point loop names by one or two steps, where a
    partial sum overflows in one scheme and not in the other while |z|
    is still finite.  The returned trace copies phi
    verbatim on the initial interval and carries no residuals: the
    oracle does not check itself.
    """
    r, K, n = system.delay, system.horizon, system.dim
    ImM, cond = _factor_implicit(system)
    weights = monomial_run(-system.alpha - 1.0, K + r)
    F = _forcing_rows(system, K)
    end = K + r
    V = np.zeros((end, n))
    V[:r] = system.phi.values
    H = np.zeros((end, n))  # each row's history sum over the rows solved so far
    kernels = {}  # FFT size -> spectrum of the weights, one per size in this solve

    def add_history(lo: int, mid: int, hi: int) -> None:
        # Rows [lo, mid) of V into the history sums of rows [mid, hi).  A
        # circular convolution of length >= hi - lo leaves those outputs
        # unaliased.  The block is scaled by a power of two, exactly, so
        # the transforms cannot overflow before the trajectory does.
        size = 1 << (hi - lo - 1).bit_length()
        if size not in kernels:
            kernels[size] = np.fft.rfft(weights[:size], size)[:, None]
        exponent = int(np.frexp(np.max(np.abs(V[lo:mid])))[1])
        block = np.fft.rfft(np.ldexp(V[lo:mid], -exponent), size, axis=0)
        spectrum = kernels[size] * block
        H[mid:hi] += np.ldexp(np.fft.irfft(spectrum, size, axis=0)[mid - lo : hi - lo], exponent)

    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _leaf_inverse(ImM, system.N, weights, r, _leaf_rows(K, n))
        B = inverse.shape[0] // n
        add_history(0, r, end)
        for done, lo in enumerate(range(r, end, B), 1):
            hi = min(lo + B, end)
            rhs = F[lo - r : hi - r] - H[lo:hi]
            d = min(hi - lo, r)  # delayed sources that lie before the leaf
            rhs[:d] += V[lo - r : lo - r + d] @ system.N.T
            # A non-finite source ends the solve: 0 * inf is nan, so the product
            # would spread it to earlier rows, and the recurrence is non-finite
            # from that row on.
            finite = np.isfinite(rhs).all(axis=1)
            rows = hi - lo if finite.all() else int(np.argmin(finite))
            m = rows * n
            V[lo : lo + rows] = (inverse[:m, :m] @ rhs[:rows].ravel()).reshape(rows, n)
            if lo + rows < hi:
                V[lo + rows] = np.nan
                break
            width = B * (done & -done)  # the aligned run of leaves just completed
            if hi < end:
                add_history(hi - width, hi, min(hi + width, end))
    bad = np.flatnonzero(~np.isfinite(V).all(axis=1))
    if bad.size:
        raise _SteppingOverflow(
            f"stepping trajectory overflowed float64 at k = {bad[0] + 1 - r}"
        )
    return SolutionTrace(values=GridSeries(1 - r, V), method="step", condition=cond)


def _forcing_rows(system: DelaySystem, kmax: int) -> np.ndarray:
    """Rows f(1) .. f(kmax) of the forcing, zero when there is none."""
    f = system.forcing
    if f is None or kmax < 1:
        return np.zeros((max(0, kmax), system.dim))
    f.at(kmax)  # raises GridRangeError past the stored range
    return f.values[1 - f.base : kmax + 1 - f.base]


def _equation_residuals(system: DelaySystem, z: np.ndarray) -> np.ndarray:
    """Max-norm residual of the defining equation at k = 1 .. horizon.

    ``z`` holds the trajectory's rows z(1 - r) .. z(horizon).  The RL
    difference of the whole trajectory, based at -r, is one kernel run of
    those rows, read from k = 1 on.
    """
    r, K = system.delay, system.horizon
    lhs = _kernel_run(monomial_run(-system.alpha - 1.0, K + r), z)[r:]
    defect = lhs - z[r:] @ system.M.T - z[:K] @ system.N.T - _forcing_rows(system, K)
    return np.abs(defect).max(axis=1)


def _g_rows(system: DelaySystem, s0: int, s1: int) -> np.ndarray:
    """Rows g(s0) .. g(s1) of g = [w; f], s0 >= 1 - r.

    w(s) = (RL difference of phi)(s) - M phi(s) for s <= 0, the difference
    based at -r, so w(1 - r) = (I - M) phi(1 - r); f(s) for s >= 1.  The
    differences at the history rows read one kernel run of phi.
    """
    r = system.delay
    first, end = s0 + r - 1, min(s1, 0) + r  # the history rows are phi[first:end]
    h = max(0, end - first)
    g = np.empty((s1 + 1 - s0, system.dim))
    if h:
        phi = system.phi.values[:end]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf and nan
            run = _kernel_run(monomial_run(-system.alpha - 1.0, end), phi)
            np.subtract(run[first:], phi[first:] @ system.M.T, out=g[:h])
    g[h:] = _forcing_rows(system, s1)[max(s0, 1) - 1 :]
    return g


def _closed_trajectory(system: DelaySystem, kmax: int, commutative: bool = False) -> np.ndarray:
    """Rows z(1 - r) .. z(kmax) of the explicit representation, kmax >= 1 - r.

    One causal convolution z(k) = sum_{s = 1 - r}^{k} Phi(k - r - s + 1) g(s)
    with g = [w; f] (:func:`_g_rows`): row q of z is
    sum_t Psi(t) g(q - t) with Psi(t) = Phi(t + 1 - r).  Its column a is
    sum_b Psi[:, a, b] convolved with g[:, b], and convolution commutes, so
    each b is one kernel run with weights g[:, b] over the n columns
    Psi[:, :, b].  It agrees with the per-lag sum to rounding.
    """
    r = system.delay
    g = _g_rows(system, 1 - r, kmax)
    psi = DpmlFunction(system.params, commutative).stack(1 - r, kmax)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf and nan
        return sum(_kernel_run(g[:, b], psi[:, :, b]) for b in range(system.dim))


def _dpml_sum(system: DelaySystem, k: int, s0: int, s1: int) -> np.ndarray:
    # sum_{s = s0}^{s1} Phi(k - r - s + 1) g(s), g read once the DPML values
    # are in: the values from the lowest grid point up against g from the
    # latest down.  A sum that overflows raises.
    r = system.delay
    phi = DpmlFunction(system.params).stack(k - r - s1 + 1, k - r - s0 + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf and nan
        value = np.tensordot(phi, _g_rows(system, s0, s1)[::-1], axes=([0, 2], [0, 1]))
    if not np.isfinite(value).all():
        raise DivergenceError(f"explicit representation is non-finite at k = {k}")
    return value


def homogeneous_part(system: DelaySystem, k: int) -> np.ndarray:
    """History contribution of the explicit representation at point ``k``.

    Sums DPML values against the history weights w(s) over
    s in [1 - delay, min(k, 0)]: Phi on [max(1 - delay, k + 1 - delay), k],
    at most ``delay`` points.  On the initial interval this reproduces
    phi(k) to rounding; forcing is ignored.  Raises
    :class:`~nabladelay.dpml.DivergenceError` when the series fails its
    truncation rule or the value is not finite.
    """
    _require_points(k=k)
    r = system.delay
    if k < 1 - r:
        return np.zeros(system.dim)
    return _dpml_sum(system, k, 1 - r, min(k, 0))


def forced_part(system: DelaySystem, k: int) -> np.ndarray:
    """Forcing contribution of the explicit representation at point ``k``.

    Discrete convolution of DPML values on [1 - delay, k - delay] with the
    forcing over s in [1, k]; zero on the initial interval and for zero
    forcing.  Raises :class:`~nabladelay.dpml.DivergenceError` as
    :func:`homogeneous_part` does, and
    :class:`~nabladelay.grid_calculus.GridRangeError` for k past the end
    of the stored forcing, which need only cover [1, horizon].
    :func:`homogeneous_part` and an unforced system accept any k.
    """
    _require_points(k=k)
    if k < 1:
        return np.zeros(system.dim)
    return _dpml_sum(system, k, 1, k)


def _closed_trace(system: DelaySystem, commutative: bool, base: int, method: str) -> SolutionTrace:
    # The trajectory and its residuals, checked against _RESIDUAL_BUDGET.
    z = _closed_trajectory(system, system.horizon, commutative)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the test
        residuals = _equation_residuals(system, z)
        ratio = residuals / np.maximum(1.0, np.abs(z[system.delay :]).max(axis=1))
    bad = np.flatnonzero(~(ratio <= _RESIDUAL_BUDGET))
    if bad.size:
        i = bad[0]
        raise _ResidualOverBudget(
            f"closed-form trajectory misses its defining equation at k = {i + 1}: "
            f"residual {float(residuals[i])!r} is {float(ratio[i]):.3g} of max(1, max|z(k)|), "
            f"over the budget {_RESIDUAL_BUDGET:g}"
        )
    return SolutionTrace(values=GridSeries(base, z), residuals=residuals, method=method)


def closed_form_solve(system: DelaySystem) -> SolutionTrace:
    """Explicit DPML representation evaluated on [1 - delay, horizon].

    The trace stores the representation's own values everywhere, including
    the initial interval, so agreement with phi there is a genuine check
    rather than a copy.  Raises :class:`~nabladelay.dpml.DivergenceError`
    when the series truncation rule fails, or when the trajectory's
    defining-equation residual is over budget (:class:`SolutionTrace`),
    naming the first k where it is.
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
    defining-equation residual of the closed form (its trace's own
    ``residuals``) to stay within ``tol``.  When the DPML series diverges
    or the closed form's residual is over its budget, the report flags the
    closed form as unavailable (nothing is raised) and still carries the
    oracle trace.
    An overflowing oracle raises, as in :func:`step_solve`.  ``tol`` must
    be finite and >= 0 (:class:`ValueError` otherwise).
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    oracle = step_solve(system)
    max_deviation = worst_deviation_k = max_residual = worst_residual_k = None
    try:
        closed = closed_form_solve(system)
    except DivergenceError as exc:
        closed, passed = None, False
        message = f"closed form unavailable: {exc}"
    else:
        deviations = np.max(np.abs(closed.values.values - oracle.values.values), axis=1)
        residuals = closed.residuals
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
