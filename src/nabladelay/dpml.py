"""Delayed perturbation Mittag-Leffler (DPML) matrix function.

For a pair of square coefficient matrices ``(M, N)``, fractional orders
``(alpha, beta)`` and an integer delay ``r >= 1``, the DPML function is a
piecewise matrix series over *word sums*: sums of all ordered products of
``i`` factors drawn from ``{M, N}`` that contain exactly ``j`` factors
``N``.  Each word sum is weighted by a fractional Taylor monomial based at
a multiple of the delay.  The function is the fundamental solution of
linear Riemann-Liouville nabla difference systems with one constant delay
and generally non-commuting coefficients.

Value conventions
-----------------
``value(k)`` is the zero matrix for ``k <= -r - 1`` and the identity at
the base point ``k = -r``.  For ``k >= 1 - r`` the series over word sums
applies, with the number of delay blocks ``p = max(0, ceil(k / r))``
selecting which monomial base points contribute.

Truncation
----------
The series index ``i`` is infinite; summation is adaptive under a
:class:`TruncationPolicy` and raises :class:`DivergenceError` when the
stop rule cannot be met.  ``partial_sum`` bypasses the policy and returns
a fixed truncation, which is what diagnostic table output uses for
divergent parameter sets.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid_calculus import _monomial_rows, monomial

__all__ = [
    "CommutativityError",
    "DivergenceError",
    "DpmlFunction",
    "DpmlParams",
    "REDUCTION_PATTERNS",
    "ReductionPatternError",
    "TruncationPolicy",
    "WordSumTable",
    "dpml_eval",
    "ml_eval",
    "ml_partial_sum",
    "special_reductions",
    "word_sum",
    "word_sum_commutative",
]

_COMMUTE_TOL = 1e-12


class DivergenceError(ArithmeticError):
    """Raised when a matrix series fails its adaptive truncation rule."""


class CommutativityError(ValueError):
    """Raised when an operation requiring MN = NM gets a non-commuting pair."""


class ReductionPatternError(ValueError):
    """Raised when a requested closed-form reduction does not match the parameters."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Adaptive stop and divergence rules for the matrix series.

    Summation stops once ``window`` consecutive terms have max-norm below
    ``tol * (1 + |partial sum|)``.  Divergence is declared when term norms
    grow for ``divergence_growth`` consecutive orders past ``i_max / 2``,
    or when ``i_max`` terms never meet the stop rule.
    """

    tol: float = 1e-12
    window: int = 3
    i_max: int = 500
    divergence_growth: int = 10

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.window < 1 or self.i_max < 1 or self.divergence_growth < 1:
            raise ValueError("window, i_max and divergence_growth must be >= 1")


def _non_finite_term(i: int, pol: TruncationPolicy) -> DivergenceError:
    return DivergenceError(
        f"series term at order i={i} is non-finite; treating as divergent ({pol!r})"
    )


def _growing_terms(pol: TruncationPolicy) -> DivergenceError:
    return DivergenceError(
        f"series terms grew for {pol.divergence_growth} consecutive "
        f"orders past i = {pol.i_max // 2}; treating as divergent ({pol!r})"
    )


def _exhausted(pol: TruncationPolicy) -> DivergenceError:
    return DivergenceError(
        f"series did not meet the truncation stop rule within "
        f"i_max = {pol.i_max} terms ({pol!r})"
    )


class _SeriesAccumulator:
    """Tracks a matrix series under the adaptive rules of a TruncationPolicy."""

    def __init__(self, policy: TruncationPolicy, dim: int) -> None:
        self.policy = policy
        self.total = np.zeros((dim, dim))
        self._quiet = 0
        self._growth = 0
        self._prev = None
        self._i = -1

    def add(self, term: np.ndarray) -> bool:
        """Accumulate one term; return True once the stop rule is met."""
        pol = self.policy
        self._i += 1
        self.total += term
        norm = float(np.max(np.abs(term)))
        if not np.isfinite(norm):
            raise _non_finite_term(self._i, pol)
        if norm < pol.tol * (1.0 + float(np.max(np.abs(self.total)))):
            self._quiet += 1
            if self._quiet >= pol.window:
                return True
        else:
            self._quiet = 0
        if self._prev is not None and norm > self._prev:
            self._growth += 1
            if self._growth >= pol.divergence_growth and self._i > pol.i_max // 2:
                raise _growing_terms(pol)
        else:
            self._growth = 0
        self._prev = norm
        return False

    def exhausted(self) -> DivergenceError:
        return _exhausted(self.policy)


def _as_square(A) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(A, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _as_square_pair(M, N) -> tuple[np.ndarray, np.ndarray]:
    M, N = _as_square(M), _as_square(N)
    if M.shape != N.shape:
        raise ValueError(f"matrix dimensions differ: {M.shape} vs {N.shape}")
    return M, N


def _commutation_defect(M: np.ndarray, N: np.ndarray) -> float:
    return float(np.max(np.abs(M @ N - N @ M)))


def _require_commuting(M: np.ndarray, N: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(M))) * float(np.max(np.abs(N))))
    defect = _commutation_defect(M, N)
    if defect > _COMMUTE_TOL * scale:
        raise CommutativityError(
            f"matrices do not commute: max |MN - NM| = {defect:.3e} "
            f"exceeds {_COMMUTE_TOL:g} * {scale:g}"
        )


class WordSumTable:
    """Memoized word sums Q(i, j) for one matrix pair (M, N).

    ``Q(i + 1, j)`` is the sum of all ordered products of ``i`` factors
    from ``{M, N}`` containing exactly ``j`` factors ``N``.  Rows follow
    the two-term recursion

        Q(i + 1, j) = M Q(i, j) + N Q(i, j - 1),

    seeded by Q(1, 0) = I, with Q(0, j) and Q(i, -1) zero.  Rows are grown
    lazily and growth is lock-serialized, so a single table may be shared
    across threads.
    """

    def __init__(self, M, N) -> None:
        self.M, self.N = _as_square_pair(M, N)
        self.dim = self.M.shape[0]
        self._lock = threading.Lock()
        first = np.eye(self.dim)[None]
        first.setflags(write=False)
        # _rows[i] stacks Q(i, j) for j = 0 .. i-1; row 0 is empty.
        self._rows = [np.zeros((0, self.dim, self.dim)), first]

    def row(self, i: int) -> np.ndarray:
        """Read-only stack of Q(i, j) for j = 0 .. i - 1."""
        if i < 0:
            raise ValueError("word length index must be >= 0")
        if i >= len(self._rows):
            self._grow(i)
        return self._rows[i]

    def value(self, i: int, j: int) -> np.ndarray:
        """Q(i, j), the zero matrix outside 0 <= j <= i - 1."""
        if i < 0 or j < -1:
            raise ValueError("word sum indices must satisfy i >= 0, j >= -1")
        if i == 0 or j < 0 or j > i - 1:
            return np.zeros((self.dim, self.dim))
        return self.row(i)[j]

    def _grow(self, i: int) -> None:
        with self._lock:
            while len(self._rows) <= i:
                prev = self._rows[-1]
                nxt = np.zeros((prev.shape[0] + 1, self.dim, self.dim))
                nxt[:-1] = self.M @ prev
                nxt[1:] += self.N @ prev
                nxt.setflags(write=False)
                self._rows.append(nxt)


def word_sum(M, N, i: int, j: int) -> np.ndarray:
    """Sum of all ordered length-(i-1) products of {M, N} with j factors N.

    Convenience wrapper over :class:`WordSumTable`; build a table directly
    when many indices are needed for the same matrix pair.
    """
    return WordSumTable(M, N).value(i, j)


def word_sum_commutative(M, N, i: int, j: int) -> np.ndarray:
    """Closed form of the word sum for a commuting pair.

    When MN = NM all words with the same factor counts coincide, so the
    sum collapses to ``C(i, j) M**(i-j) N**j`` (value of Q(i + 1, j)).
    Commutativity is checked to 1e-12 relative to the entry scale and a
    :class:`CommutativityError` is raised on failure.
    """
    M, N = _as_square_pair(M, N)
    _require_commuting(M, N)
    if i < 0 or j < -1:
        raise ValueError("word sum indices must satisfy i >= 0, j >= -1")
    if j < 0 or j > i:
        return np.zeros_like(M)
    return float(math.comb(i, j)) * (
        np.linalg.matrix_power(M, i - j) @ np.linalg.matrix_power(N, j)
    )


@dataclass
class DpmlParams:
    """Parameter set of one DPML matrix function.

    ``alpha`` must lie in (0, 1]; the value 1 is admitted solely so the
    classical delayed-exponential reductions are expressible, while the
    fractional solvers themselves require alpha < 1.  ``beta`` is any
    real order, ``r`` the integer delay, and ``M``/``N`` square matrices
    of equal dimension.
    """

    alpha: float
    beta: float
    r: int
    M: np.ndarray
    N: np.ndarray
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not isinstance(self.r, (int, np.integer)) or self.r < 1:
            raise ValueError(f"delay must be an integer >= 1, got {self.r}")
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        self.r = int(self.r)
        self.M, self.N = _as_square_pair(self.M, self.N)
        if not isinstance(self.policy, TruncationPolicy):
            raise TypeError("policy must be a TruncationPolicy")

    @property
    def dim(self) -> int:
        return self.M.shape[0]


class DpmlFunction:
    """Evaluator for one DPML parameter set.

    :meth:`stack` sums the series for a whole range of grid points at
    once: each series order is one matrix product of the monomial weights
    of every point still running against one word-sum row.  :meth:`value`
    and :meth:`partial_sum` are one-point calls of the same driver.  The
    word-sum table is kept across calls.  With ``commutative=True`` the
    word sums are produced from the binomial closed form for commuting
    pairs instead of the general recursion (a :class:`CommutativityError`
    is raised if the pair does not commute).

    Concurrent calls on a shared instance are safe: word-sum growth is
    lock-serialized and every call returns fresh arrays.
    """

    def __init__(self, params: DpmlParams, commutative: bool = False) -> None:
        self.params = params
        self.dim = params.dim
        self._lock = threading.Lock()
        if commutative:
            _require_commuting(params.M, params.N)
            self._table = None
            self._mpows = [np.eye(self.dim)]
            self._npows = [np.eye(self.dim)]
        else:
            self._table = WordSumTable(params.M, params.N)
        norm_sum = float(
            np.linalg.norm(params.M, 1) + np.linalg.norm(params.N, 1)
        )
        if norm_sum >= 1.0:
            warnings.warn(
                f"sum of coefficient 1-norms is {norm_sum:.6g} >= 1; "
                "series convergence is not guaranteed",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- monomial table ------------------------------------------------

    def _monomials(self, rows: int, cols: int) -> np.ndarray:
        """Table h[i, m] of the order-(i alpha + beta - 1) monomial at m = k - a.

        Columns 1 .. cols - 1 hold the product recurrence of
        :func:`~nabladelay.grid_calculus.monomial`.  Column 0 is zero: the
        series never reads m = 0 (every live delay block has m >= 1), so
        it pads the blocks past p(k).  High orders overflow to inf, which
        the stop rule reports.
        """
        mu = np.arange(rows) * self.params.alpha + (self.params.beta - 1.0)
        table = np.zeros((rows, cols))
        _monomial_rows(mu, table[:, 1:])
        return table

    # -- word sums -----------------------------------------------------

    def _qrow(self, i: int, jmax: int) -> np.ndarray:
        """Stack of Q(i + 1, j) for j = 0 .. jmax (jmax <= i)."""
        if self._table is not None:
            return self._table.row(i + 1)[: jmax + 1]
        with self._lock:
            while len(self._mpows) <= i:
                self._mpows.append(self._mpows[-1] @ self.params.M)
            while len(self._npows) <= jmax:
                self._npows.append(self._npows[-1] @ self.params.N)
            return np.stack(
                [
                    float(math.comb(i, j)) * (self._mpows[i - j] @ self._npows[j])
                    for j in range(jmax + 1)
                ]
            )

    # -- evaluation ----------------------------------------------------

    def stack(self, kmin: int, kmax: int) -> np.ndarray:
        """DPML values on ``[kmin, kmax]`` as an array of shape (L, n, n).

        Every point is summed under the adaptive truncation rule, with the
        zero/identity branches below the series range.  Raises
        :class:`DivergenceError` when any point fails the rule.
        """
        return self._series(kmin, kmax, None)

    def value(self, k: int) -> np.ndarray:
        """DPML value at grid point ``k`` under the adaptive truncation rule."""
        return self._series(k, k, None)[0]

    def partial_sum(self, k: int, imax: int) -> np.ndarray:
        """Fixed truncation through order ``imax``, bypassing the stop rule.

        Intended for diagnostic output on divergent parameter sets; the
        piecewise zero/identity branches still apply.
        """
        if imax < 0:
            raise ValueError("imax must be >= 0")
        return self._series(k, k, imax)[0]

    def _series(self, kmin: int, kmax: int, imax: int | None) -> np.ndarray:
        # Sums orders 0 .. imax when imax is given, else stops each point on
        # its own under the policy, with the semantics of _SeriesAccumulator.
        r, n = self.params.r, self.dim
        out = np.zeros((max(0, kmax - kmin + 1), n * n))
        if kmin <= -r <= kmax:
            out[-r - kmin] = np.eye(n).ravel()
        first = max(kmin, 1 - r)
        if first > kmax:
            return out.reshape(-1, n, n)
        pol = self.params.policy
        last = pol.i_max if imax is None else imax
        ks = np.arange(first, kmax + 1)
        # Delay block count p(k) and monomial arguments m_j(k) = k - (j-1) r;
        # blocks past p(k) read the zero column.
        p = np.maximum(0, -(-ks // r))
        j = np.arange(int(p.max()) + 1)
        m = np.where(j <= p[:, None], ks[:, None] - (j - 1) * r, 0)
        rows = ks - kmin  # position in out of each point still running
        total = np.zeros((ks.size, n * n))
        quiet = np.zeros(ks.size, dtype=int)
        growth = np.zeros(ks.size, dtype=int)
        prev = np.full(ks.size, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            h = self._monomials(last + 1, kmax + r + 1)
            for i in range(last + 1):
                jmax = min(i, m.shape[1] - 1)
                weights = h[i][m[:, : jmax + 1]]
                q = self._qrow(i, jmax).reshape(jmax + 1, n * n)
                term = weights @ q
                total += term
                if imax is not None:
                    continue
                norm = np.abs(term).max(axis=1)
                if not np.isfinite(norm).all():
                    raise _non_finite_term(i, pol)
                small = norm < pol.tol * (1.0 + np.abs(total).max(axis=1))
                quiet = np.where(small, quiet + 1, 0)
                done = quiet >= pol.window
                growth = np.where(norm > prev, growth + 1, 0)
                if i > pol.i_max // 2 and np.any(~done & (growth >= pol.divergence_growth)):
                    raise _growing_terms(pol)
                prev = norm
                if done.any():
                    out[rows[done]] = total[done]
                    keep = ~done
                    if not keep.any():
                        return out.reshape(-1, n, n)
                    rows, total, quiet, growth, prev, p = (
                        a[keep] for a in (rows, total, quiet, growth, prev, p)
                    )
                    m = m[keep, : int(p.max()) + 1]
        if imax is None:
            raise _exhausted(pol)
        out[rows] = total
        return out.reshape(-1, n, n)


def dpml_eval(params: DpmlParams, k: int) -> np.ndarray:
    """DPML value at ``k``; one-shot wrapper over :class:`DpmlFunction`."""
    return DpmlFunction(params).value(k)


def ml_eval(M, alpha: float, c: float, k: int, a: int,
            policy: TruncationPolicy | None = None) -> np.ndarray:
    """Discrete one-matrix Mittag-Leffler series on the integer grid.

    Evaluates ``sum_i M**i * monomial(i * alpha + c, k, a)`` under the
    adaptive truncation rule.  For ``k < a`` every monomial vanishes and
    the zero matrix is returned; at ``k = a`` only orders with
    ``i * alpha + c == 0`` survive.  ``alpha`` must lie in (0, 1], with 1
    admitted for the classical-exponential corner.
    """
    return _ml_series(M, alpha, c, k, a, None, policy)


def ml_partial_sum(M, alpha: float, c: float, k: int, a: int, imax: int) -> np.ndarray:
    """Fixed truncation of the one-matrix series through order ``imax``."""
    return _ml_series(M, alpha, c, k, a, imax, None)


def _ml_series(M, alpha: float, c: float, k: int, a: int, imax: int | None,
               policy: TruncationPolicy | None) -> np.ndarray:
    # Sums orders 0 .. imax when imax is given, else stops under the policy.
    M = _as_square(M)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if imax is not None and imax < 0:
        raise ValueError("imax must be >= 0")
    if k < a:
        return np.zeros_like(M)
    if k == a:
        # At the base point only orders with i*alpha + c == 0 contribute.
        i = int(round(-c / alpha))
        if i >= 0 and i * alpha + c == 0.0:
            return np.linalg.matrix_power(M, i)
        return np.zeros_like(M)
    pol = policy if policy is not None else TruncationPolicy()
    if imax is None and float(np.linalg.norm(M, 1)) >= 1.0:
        warnings.warn(
            "coefficient 1-norm is >= 1; series convergence is not guaranteed",
            RuntimeWarning,
            stacklevel=3,
        )
    acc = _SeriesAccumulator(pol, M.shape[0])
    power = np.eye(M.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range((pol.i_max if imax is None else imax) + 1):
            term = monomial(i * alpha + c, k, a) * power
            if imax is not None:
                acc.total += term
            elif acc.add(term):
                return acc.total
            power = power @ M
    if imax is None:
        raise acc.exhausted()
    return acc.total


# -- closed-form reductions ---------------------------------------------

REDUCTION_PATTERNS = (
    "delayed_exponential",
    "factored_exponential",
    "exponential_perturbation",
    "delayed_ml",
    "ml",
)


def _piecewise_branch(n: int, r: int, k: int) -> np.ndarray | None:
    # The DPML value convention left of the series range, shared by every
    # closed form: zero for k <= -r - 1, the identity at k = -r, and None
    # where the series applies.
    if k <= -r - 1:
        return np.zeros((n, n))
    if k == -r:
        return np.eye(n)
    return None


def _falling_binomial(x: float, i: int) -> float:
    # C(x, i) with a real upper argument.
    value = 1.0
    for t in range(i):
        value *= (x - t) / (t + 1)
    return value


def _delay_block_sum(N: np.ndarray, r: int, k: int, weight) -> np.ndarray:
    # Finite sum of weight(i) * N**i over the delay blocks i = 0 .. p(k).
    p = max(0, -((-k) // r))
    total = np.zeros_like(N)
    power = np.eye(N.shape[0])
    for i in range(p + 1):
        total += weight(i) * power
        power = power @ N
    return total


def _reduce_delayed_exponential(N: np.ndarray, r: int, k: int) -> np.ndarray:
    # Classical delayed discrete exponential with lag h = r - 1.  The block
    # cutoff i <= p is essential: beyond it the falling binomial no longer
    # matches the vanishing grid monomial.
    return _delay_block_sum(N, r, k, lambda i: _falling_binomial(float(k - (i - 1) * (r - 1)), i))


def _reduce_factored_exponential(M: np.ndarray, N: np.ndarray, r: int, k: int) -> np.ndarray:
    # Commuting pair at unit orders: pull the M-resolvent out of every word
    # and reduce to a delayed exponential of the deformed delay matrix.
    n = M.shape[0]
    resolvent = np.linalg.inv(np.eye(n) - M)
    deformed = np.linalg.matrix_power(np.eye(n) - M, r - 1) @ N
    return np.linalg.matrix_power(resolvent, k + r) @ _reduce_delayed_exponential(
        deformed, r, k
    )


def _reduce_exponential_perturbation(
    M: np.ndarray, N: np.ndarray, r: int, k: int, policy: TruncationPolicy
) -> np.ndarray:
    # Unit orders, general pair: word sums weighted by integer binomials.
    p = max(0, -((-k) // r))
    table = WordSumTable(M, N)
    acc = _SeriesAccumulator(policy, M.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(policy.i_max + 1):
            jmax = min(i, p)
            weights = np.array(
                [_falling_binomial(float(k - (j - 1) * r + i - 1), i) for j in range(jmax + 1)]
            )
            term = np.tensordot(weights, table.row(i + 1)[: jmax + 1], axes=(0, 0))
            if acc.add(term):
                return acc.total
    raise acc.exhausted()


def _reduce_delayed_ml(N: np.ndarray, alpha: float, r: int, k: int) -> np.ndarray:
    # Pure delay term: the series is a finite sum because each order lives
    # on its own delay block.
    return _delay_block_sum(N, r, k, lambda i: monomial(i * alpha + alpha - 1.0, k, (i - 1) * r))


def special_reductions(params: DpmlParams, k: int, pattern: str | None = None) -> np.ndarray:
    """Evaluate the DPML value at ``k`` through a classical closed form.

    Five reductions are supported, each computed from its own defining
    formula rather than the general word-sum series, so they serve as
    independent cross-checks:

    - ``delayed_exponential``: alpha = beta = 1 and M = 0; binomial
      delayed discrete exponential of N.
    - ``factored_exponential``: alpha = beta = 1 and MN = NM; resolvent
      power of (I - M) times a delayed exponential of the deformed delay
      matrix (I - M)**(r-1) N.
    - ``exponential_perturbation``: alpha = beta = 1, general pair; word
      sums with integer binomial weights.
    - ``delayed_ml``: M = 0 and alpha = beta; finite one-matrix sum over
      delay blocks.
    - ``ml``: N = 0; one-matrix Mittag-Leffler series.

    With ``pattern=None`` the most specific applicable pattern is chosen
    in the order above; :class:`ReductionPatternError` is raised when no
    pattern applies, or when an explicitly requested pattern does not
    match the parameters.
    """
    M, N = params.M, params.N
    unit_orders = params.alpha == 1.0 and params.beta == 1.0
    m_zero = not M.any()
    n_zero = not N.any()
    scale = max(1.0, float(np.max(np.abs(M))) * float(np.max(np.abs(N))))
    commuting = _commutation_defect(M, N) <= _COMMUTE_TOL * scale
    applicable = {
        "delayed_exponential": unit_orders and m_zero,
        "factored_exponential": unit_orders and commuting,
        "exponential_perturbation": unit_orders,
        "delayed_ml": m_zero and params.alpha == params.beta,
        "ml": n_zero,
    }
    if pattern is None:
        for name in REDUCTION_PATTERNS:
            if applicable[name]:
                pattern = name
                break
        else:
            raise ReductionPatternError(
                "no closed-form reduction applies: need alpha = beta = 1, "
                "or M = 0 with alpha = beta, or N = 0"
            )
    elif pattern not in REDUCTION_PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {REDUCTION_PATTERNS}")
    elif not applicable[pattern]:
        raise ReductionPatternError(
            f"pattern {pattern!r} does not match the parameters "
            f"(alpha={params.alpha}, beta={params.beta}, M zero: {m_zero}, "
            f"N zero: {n_zero}, commuting: {commuting})"
        )
    value = _piecewise_branch(params.dim, params.r, k)
    if value is not None:
        return value
    if pattern == "delayed_exponential":
        return _reduce_delayed_exponential(N, params.r, k)
    if pattern == "factored_exponential":
        return _reduce_factored_exponential(M, N, params.r, k)
    if pattern == "exponential_perturbation":
        return _reduce_exponential_perturbation(M, N, params.r, k, params.policy)
    if pattern == "delayed_ml":
        return _reduce_delayed_ml(N, params.alpha, params.r, k)
    # No delay term: the one-matrix series based at -r.
    return ml_eval(M, params.alpha, params.beta - 1.0, k, -params.r, params.policy)
