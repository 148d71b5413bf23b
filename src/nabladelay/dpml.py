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
stop rule cannot be met.  ``DpmlFunction.stack(kmin, kmax, imax)``
bypasses the policy and returns the fixed truncation through order
``imax`` at every point of the range, which is what diagnostic table
output uses for divergent parameter sets.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid_calculus import (_monomial_rows, _real_array, _require_count, _require_grid,
                            _require_points, _require_real, _set_fields)

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
    or when ``i_max`` terms never meet the stop rule.  ``tol`` must lie in
    (0, inf); the frozen policy keeps it as given.
    """

    tol: float = 1e-12
    window: int = 3
    i_max: int = 500
    divergence_growth: int = 10

    def __post_init__(self) -> None:
        _require_real("tol", self.tol, "(0, inf)")
        for name in ("window", "i_max", "divergence_growth"):
            _require_count(name, getattr(self, name))


def _checked_policy(policy: TruncationPolicy) -> TruncationPolicy:
    # The one type check of a series policy, made before any series work.
    if not isinstance(policy, TruncationPolicy):
        raise TypeError("policy must be a TruncationPolicy")
    return policy


# Orders per block of the DPML and word-sum series, lone, stacked or
# fixed-order.  Most series stop after a few dozen orders, so a monomial
# table filled for all i_max orders up front would cost more than the sum;
# the block also bounds how many orders a row that met the stop rule
# inside it is summed past its stop.
_ORDER_BLOCK = 32

# Orders per block of a one-matrix series (_power_sum).  Each of its orders
# costs one n x n product, so the calls made once a block weigh more there
# than the orders drawn past the stop.
_POWER_ORDERS = 48

# Cells of one block of terms, (orders, n * n, rows), of one gather of
# monomial weights and of one chunk of falling-binomial running products:
# long stacks take fewer orders per block, so the buffers stay small.
_BLOCK_CELLS = 1 << 15

# Cells of the monomial table of one block.  Every block keeps its terms
# within _BLOCK_CELLS and its table within _TRIANGLE_CELLS.
_TRIANGLE_CELLS = 1 << 20

# Cells of one order of a block, rows * n * n, up to which the running
# totals are one np.cumsum over the orders.  Over more cells np.cumsum,
# which runs along the short order axis, is slower than one add per order.
_NARROW_CELLS = 128


def _block_orders(rows: int, cells: int, width: int, orders: int) -> int:
    # Orders per block, at most `orders`, for `rows` series of `cells`
    # entries each, whose monomial table holds `width` cells an order:
    # every block keeps its terms within _BLOCK_CELLS and its table within
    # _TRIANGLE_CELLS.
    return max(1, min(orders, _BLOCK_CELLS // (rows * cells), _TRIANGLE_CELLS // width))


def _non_finite(policy: TruncationPolicy, order: int) -> DivergenceError:
    return DivergenceError(
        f"series term at order i={order} is non-finite; treating as divergent ({policy!r})"
    )


def _grown(policy: TruncationPolicy) -> DivergenceError:
    return DivergenceError(
        f"series terms grew for {policy.divergence_growth} consecutive "
        f"orders past i = {policy.i_max // 2}; treating as divergent ({policy!r})"
    )


def _exhausted(policy: TruncationPolicy) -> DivergenceError:
    return DivergenceError(
        f"series did not meet the truncation stop rule within "
        f"i_max = {policy.i_max} terms ({policy!r})"
    )


class _StopRule:
    """The adaptive rule of a TruncationPolicy, run on many series at once.

    Each row is one series with its own quiet, growth and previous-norm
    state.  :meth:`block` takes the terms of the consecutive orders
    i0 .. i0 + b - 1, shaped (b, n * n, rows), and the running totals
    before them, shaped (n * n, rows).  Rows come last, so the per-row
    norms reduce with long inner loops.  It turns the terms into the
    running totals after each order, in place, by the sequential adds of
    ``total += term`` per order: one ``np.cumsum`` over the orders on a
    narrow block (at most ``_NARROW_CELLS`` cells an order), one add per
    order on a wider one.  It returns the split of the rows as integer
    indices: the rows that met the stop rule in the block, the offset in
    the block of each one's stop order, and the rows that run on.  Quiet
    and growth run lengths come from ``np.maximum.accumulate`` over the
    block, continuing the runs carried from the block before.  Rows that
    stopped leave the state, so the caller drops them from its own arrays
    too; their terms past the stop order are never inspected.

    It raises :class:`DivergenceError` at the first order where a row
    still running has a non-finite term, or terms grown for
    ``divergence_growth`` orders past ``i_max / 2``, with the text and at
    the order of the rule applied one order at a time.
    """

    def __init__(self, policy: TruncationPolicy, rows: int) -> None:
        self.policy = policy
        self.quiet = np.zeros(rows, dtype=int)
        self.growth = np.zeros(rows, dtype=int)
        self.prev = np.full(rows, np.inf)

    def block(self, i0: int, terms: np.ndarray, total: np.ndarray) -> np.ndarray:
        pol = self.policy
        b = len(terms)
        t = np.arange(b)[:, None]
        norm = np.abs(terms).max(axis=1)
        totals = _running_totals(terms, total)
        small = norm < pol.tol * (1.0 + np.abs(totals).max(axis=1))
        quiet = _runs(small, self.quiet, t)
        done = quiet >= pol.window
        stop = np.where(done.any(axis=0), done.argmax(axis=0), b)  # offset; b runs on
        broken = b
        if not math.isfinite(norm.max()):  # max propagates nan
            broken = _first(~np.isfinite(norm) & (t <= stop))
        # Growth is only tested past i_max // 2, so counting it from
        # divergence_growth orders before that raises at the same order.
        gate = pol.i_max // 2 - pol.divergence_growth
        growth, grown = np.zeros_like(quiet), b
        if i0 + b - 1 > gate:
            prev = np.concatenate((self.prev[None], norm[:-1]))
            growth = _runs((norm > prev) & (t + i0 > gate), self.growth, t)
            tested = (growth >= pol.divergence_growth) & (t + i0 > pol.i_max // 2)
            grown = _first(tested & (t < stop))
        if broken < b and broken <= grown:
            raise _non_finite(pol, i0 + broken)
        if grown < b:
            raise _grown(pol)
        stopped, running = np.flatnonzero(stop < b), np.flatnonzero(stop == b)
        self.quiet, self.growth, self.prev = (x[-1, running] for x in (quiet, growth, norm))
        return stopped, stop[stopped], running


def _fixed_sum(rows: int, cells: int, imax: int, terms, width: int, orders: int) -> np.ndarray:
    # The sum of orders 0 .. imax of `rows` series of `cells` entries, for
    # any row count, in blocks of _block_orders orders, at most `orders`.
    # terms(i0, i, live) is _block_sum's, every row live in every block.
    # Returns the values, shaped (rows, cells).  No row leaves a product and
    # the totals are the sequential adds, so no byte depends on the block
    # length.
    live = np.arange(rows)
    total = np.zeros((cells, rows))
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while i <= imax:
            i0, i = i, min(i + _block_orders(rows, cells, width, orders), imax + 1)
            total = _running_totals(terms(i0, i, live), total)[-1]
    return total.T.copy()


def _block_sum(policy: TruncationPolicy, rows: int, cells: int, terms,
               width: int = 1) -> np.ndarray:
    # The adaptive block loop of the series, for `rows` series of `cells`
    # entries.  terms(i0, i, live) gives the terms of the orders i0 .. i - 1
    # of the rows `live` still running (row indices, ascending), shaped
    # (i - i0, cells, live.size): every order the block asks for.  Stops
    # each row under the policy, picks its running total at its stop order
    # and asks no more terms of it.  A lone series runs _lone_sum, several
    # rows _StopRule.  Returns the values, shaped (rows, cells).  Blocks take
    # _block_orders orders, at most _ORDER_BLOCK, the monomial table holding
    # `width` cells an order.  A row that stops leaves the products at its
    # block's end, and BLAS rounds each row of a product by the rows beside
    # it, so the block length is part of several rows' bytes.
    if rows == 1:
        return _lone_sum(policy, cells, terms, width, _ORDER_BLOCK)
    out = np.empty((rows, cells))
    live = np.arange(rows)
    total = np.zeros((cells, rows))
    rule = _StopRule(policy, rows)
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while i <= policy.i_max:
            i0, i = i, min(i + _block_orders(live.size, cells, width, _ORDER_BLOCK),
                           policy.i_max + 1)
            block = terms(i0, i, live)
            stopped, at, running = rule.block(i0, block, total)
            out[live[stopped]] = block[at, :, stopped]
            if not running.size:
                return out
            live, total = live[running], block[-1][:, running]
    raise _exhausted(policy)


def _lone_sum(policy: TruncationPolicy, cells: int, terms, width: int, orders: int) -> np.ndarray:
    # _block_sum's loop for one series, in blocks of _block_orders orders,
    # at most `orders`.  It applies the rule of _StopRule one order at a
    # time, on Python floats, to the same running totals: it stops, and
    # raises its texts, at the orders _StopRule does, and draws about half
    # a block past its stop.  Its totals are the sequential adds whatever
    # the block length, so are its bytes.
    tol, window, grow = policy.tol, policy.window, policy.divergence_growth
    quiet = growth = 0
    prev = math.inf
    live = np.zeros(1, dtype=int)
    total = np.zeros((cells, 1))
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while i <= policy.i_max:
            i0, i = i, min(i + _block_orders(1, cells, width, orders), policy.i_max + 1)
            block = terms(i0, i, live)
            norms = np.abs(block).max(axis=(1, 2)).tolist()  # max propagates nan
            totals = _running_totals(block, total)
            sizes = np.abs(totals).max(axis=(1, 2)).tolist()
            for order, norm, size in zip(range(i0, i), norms, sizes):
                if not math.isfinite(norm):
                    raise _non_finite(policy, order)
                quiet = quiet + 1 if norm < tol * (1.0 + size) else 0
                if quiet >= window:
                    return totals[order - i0].T.copy()
                # The run counts from order 0: one that reaches past
                # i_max // 2 raises where _StopRule's, counted from its
                # gate, does.
                growth = growth + 1 if norm > prev else 0
                if growth >= grow and order > policy.i_max // 2:
                    raise _grown(policy)
                prev = norm
            total = totals[-1]
    raise _exhausted(policy)


def _running_totals(terms: np.ndarray, total: np.ndarray) -> np.ndarray:
    # The running totals after each order of a block of terms, in place,
    # from `total` before it: the adds of `total += term` in order.  Both
    # paths make the same adds; which is faster depends on the cells an
    # order holds.
    terms[0] += total
    if terms[0].size <= _NARROW_CELLS:
        return np.cumsum(terms, axis=0, out=terms)
    for t in range(1, len(terms)):
        terms[t] += terms[t - 1]
    return terms


def _runs(hits: np.ndarray, seed: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Length of the run of True in each column of hits ending at each row,
    # continuing a run of `seed` before row 0; t is the column of row numbers.
    return t - np.maximum.accumulate(np.where(hits, -1 - seed, t), axis=0)


def _first(hits: np.ndarray) -> int:
    # First row of hits with a True in any column, len(hits) if none.
    rows = hits.any(axis=1)
    return int(rows.argmax()) if rows.any() else len(hits)


def _require_finite(name: str, arr: np.ndarray) -> None:
    if np.isfinite(arr).all():
        return
    index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
    raise ValueError(f"{name} has a non-finite entry {arr[index]!r} at index {index}")


def _as_square(A, name: str) -> np.ndarray:
    # The library's own read-only copy of a checked square matrix.
    arr = np.atleast_2d(_real_array(name, A))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    _require_finite(name, arr)
    arr.flags.writeable = False
    return arr


def _as_square_pair(M, N) -> tuple[np.ndarray, np.ndarray]:
    M, N = _as_square(M, "M"), _as_square(N, "N")
    if M.shape != N.shape:
        raise ValueError(f"N has shape {N.shape}, which does not match M's square shape {M.shape}")
    return M, N


def _warn_convergence(*coefficients: np.ndarray) -> None:
    # The series' convergence warning, when the coefficients' 1-norms sum
    # to >= 1 (inf where the sum overflows), blamed on the first frame
    # outside this package: the caller's line, however deep in the package
    # the series was reached.
    with np.errstate(over="ignore"):
        norm = float(sum(np.abs(A).sum(axis=0).max() for A in coefficients))
    if norm < 1.0:
        return
    prefix = __name__.rpartition(".")[0] + "."
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(prefix):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"sum of coefficient 1-norms is {norm:.6g} >= 1; series convergence is not guaranteed",
        RuntimeWarning,
        stacklevel=level,
    )


def _commutation(M: np.ndarray, N: np.ndarray) -> tuple[bool, float, float]:
    # Whether max |MN - NM| <= _COMMUTE_TOL * max(1, max|M| max|N|), with the
    # defect and the scale.  The products are taken on M and N scaled by the
    # powers of two that bring their largest entries into [0.5, 1): that is
    # exact, so it cannot overflow and every pair whose products do not
    # overflow gets the decision of the unscaled test.  A defect or scale
    # past the float range reads inf.
    big_m, big_n = float(np.max(np.abs(M))), float(np.max(np.abs(N)))
    (fm, a), (fn, b) = math.frexp(big_m), math.frexp(big_n)
    Ms, Ns = np.ldexp(M, -a), np.ldexp(N, -b)
    scaled = float(np.max(np.abs(Ms @ Ns - Ns @ Ms)))  # defect / 2**(a + b)
    with np.errstate(over="ignore"):
        defect = float(np.ldexp(scaled, a + b))
    commutes = scaled <= _COMMUTE_TOL * (fm * fn) or defect <= _COMMUTE_TOL
    return commutes, defect, max(1.0, big_m * big_n)


def _require_commuting(M: np.ndarray, N: np.ndarray) -> None:
    commutes, defect, scale = _commutation(M, N)
    if not commutes:
        raise CommutativityError(
            f"matrices do not commute: max |MN - NM| = {defect:.3e} "
            f"exceeds {_COMMUTE_TOL:g} * {scale:g}"
        )


def _require_series_grid(name: str, kmin: int, kmax: int, r: int, n: int) -> None:
    # The grid rule of the DPML values on [kmin, kmax], named by `name`:
    # kmax - kmin + 1 points of n * n floats, and a monomial table of at
    # most 2 (kmax + r) cells an order.
    _require_grid(name, max(kmax - kmin + 1, 2 * (kmax + r)), n * n)


def _blocks(r: int, k):
    # p(k) = max(0, ceil(k / r)), the last delay block with a live monomial,
    # for an integer or an integer array k.
    return np.maximum(0, -(-k // r))


def _word_sum_rows(M: np.ndarray, N: np.ndarray, width: int):
    """Yield the rows Q(i + 1, j)ᵀ, flattened, j = 0 .. min(i, width), for i = 0, 1, ...

    Each order is one (J, n * n) array.  The word sums follow
    Q(i + 1, j) = M Q(i, j) + N Q(i, j - 1).  Kept as a (J n) × n stack
    of transposes, one product advances every j at once: the stack S of
    Q(i, j)ᵀ gives S Mᵀ, the stack of (M Q(i, j))ᵀ.  The same memory,
    viewed as (J, n * n), is the right operand of a series term.  Each
    array yielded is a view of one of two buffers that take turns, so it
    holds its values only until the second next one is drawn.  Once the
    rows reach full width, from order `width` on, every order reads the
    same views of its buffer, built once.
    """
    n = M.shape[0]
    Mt, Nt = np.ascontiguousarray(M.T), np.ascontiguousarray(N.T)
    cap = (width + 1) * n
    buffers = np.zeros((2, cap, n))  # past its row, a buffer has never been written
    lower = np.empty((cap - n, n))  # the N products
    row = buffers[0, :n]
    row[...] = np.eye(n)
    for i in range(1, width + 1):  # the rows still growing
        yield row.reshape(-1, n * n)
        size = len(row)
        nxt = buffers[i % 2, : size + n]
        row.dot(Mt, out=nxt[:size])
        row.dot(Nt, out=lower[:size])
        nxt[n:] += lower[:size]
        row = nxt
    # Per buffer: the row flattened, whole, without its last block and
    # without its first.
    views = [(b.reshape(-1, n * n), b, b[: cap - n], b[n:]) for b in buffers]
    cur, nxt = views[width % 2], views[1 - width % 2]
    while True:
        flat, row, head, _ = cur
        yield flat
        _, whole, _, tail = nxt
        row.dot(Mt, out=whole)
        head.dot(Nt, out=lower)
        tail += lower
        cur, nxt = nxt, cur


def _commuting_word_sum_rows(M: np.ndarray, N: np.ndarray, width: int):
    """Yield the rows (C(i, j) M**(i - j) N**j)ᵀ, flattened, j = 0 .. min(i, width), ...

    The word sums of a commuting pair, one batched product per order, in
    the layout of :func:`_word_sum_rows`.
    """
    Mt, Nt = np.ascontiguousarray(M.T), np.ascontiguousarray(N.T)
    # (M**i)ᵀ .. (M**(i - jmax))ᵀ and (N**0)ᵀ .. (N**jmax)ᵀ
    mpows = npows = np.eye(M.shape[0])[None]
    binomials = [1]  # C(i, j), exact integers, rounded to float once each
    for i in itertools.count():
        coef = np.array(binomials, dtype=float)
        yield (coef[:, None, None] * (npows @ mpows)).reshape(len(coef), -1)
        binomials = [a + b for a, b in zip(binomials + [0], [0] + binomials)][: width + 1]
        mpows = np.concatenate(((Mt @ mpows[0])[None], mpows[:width]))
        if i < width:
            npows = np.concatenate((npows, (Nt @ npows[-1])[None]))


class WordSumTable:
    """Word sums Q(i, j) for one matrix pair (M, N).

    ``Q(i + 1, j)`` is the sum of all ordered products of ``i`` factors
    from ``{M, N}`` containing exactly ``j`` factors ``N``.  Rows follow
    the two-term recursion

        Q(i + 1, j) = M Q(i, j) + N Q(i, j - 1),

    seeded by Q(1, 0) = I, with Q(0, j) and Q(i, -1) zero.  Each row is
    read afresh from the row source the DPML series reads, so a table
    holds only its matrix pair and every row is a new array.
    """

    def __init__(self, M, N) -> None:
        self.M, self.N = _as_square_pair(M, N)
        self.dim = self.M.shape[0]

    def row(self, i: int) -> np.ndarray:
        """A fresh stack of Q(i, j) for j = 0 .. i - 1: i orders of the recursion."""
        i = _require_count("i", i, 0)
        n = self.dim
        _require_grid("i", i, n * n)  # the row's i blocks of n * n floats
        if i == 0:
            return np.zeros((0, n, n))
        # Order i - 1 of the source, transposed back into a fresh array.
        # Adding 0.0 gives +0.0 where the 1 x 1 products of n = 1 keep a
        # -0.0 that a matrix product sums to +0.0, so the row holds the
        # values of the recursion taken one matrix product at a time.
        # Products that overflow give inf and nan, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            q = next(itertools.islice(_word_sum_rows(self.M, self.N, i - 1), i - 1, None))
            return q.reshape(-1, n, n).transpose(0, 2, 1) + 0.0

    def value(self, i: int, j: int) -> np.ndarray:
        """Q(i, j), the zero matrix outside 0 <= j <= i - 1."""
        i, j = _require_count("i", i, 0), _require_count("j", j, -1)
        if i == 0 or j < 0 or j > i - 1:
            return np.zeros((self.dim, self.dim))
        return self.row(i)[j]


def word_sum_commutative(M, N, i: int, j: int) -> np.ndarray:
    """Closed form of the word sum for a commuting pair.

    When MN = NM all words with the same factor counts coincide, so the
    sum of the words of length ``i`` with ``j`` factors N collapses to
    ``C(i, j) M**(i-j) N**j``.  That is Q(i + 1, j): the index is the word
    length, one less than :class:`WordSumTable`'s, so the value equals
    ``WordSumTable(M, N).value(i + 1, j)``.
    Commutativity is checked to 1e-12 relative to the entry scale and a
    :class:`CommutativityError` is raised on failure.  A fresh copy of
    entry j of order i of the row source the commutative route sums,
    transposed back.
    """
    M, N = _as_square_pair(M, N)
    _require_commuting(M, N)
    i, j = _require_count("i", i, 0), _require_count("j", j, -1)
    if j < 0 or j > i:
        return np.zeros_like(M)
    _require_grid("i", i + 1, M.size)  # i + 1 orders of up to i + 1 blocks of n * n floats
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf and nan
        q = next(itertools.islice(_commuting_word_sum_rows(M, N, j), i, None))
    return q[j].reshape(M.shape).T.copy()


@dataclass(frozen=True, eq=False)
class DpmlParams:
    """Parameter set of one DPML matrix function.

    ``alpha`` must lie in (0, 1]; the value 1 is admitted solely so the
    classical delayed-exponential reductions are expressible, while the
    fractional solvers themselves require alpha < 1.  ``beta`` lies in
    (-inf, inf), ``r`` is the integer delay, and ``M``/``N`` are nonempty
    square matrices of equal dimension.

    The fields are checked and normalised once, at construction, and the
    set is frozen: assigning a field raises
    :class:`dataclasses.FrozenInstanceError`, and ``dataclasses.replace``
    builds a new set through the same checks.  ``M`` and ``N`` are the
    set's own read-only float64 copies: writing into them raises
    ``ValueError``, and no later write into the caller's arrays reaches
    them.  Sets compare and hash by identity.
    """

    alpha: float
    beta: float
    r: int
    M: np.ndarray
    N: np.ndarray
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        alpha = _require_real("alpha", self.alpha, "(0, 1]")
        r = _require_count("delay", self.r)
        beta = _require_real("beta", self.beta, "(-inf, inf)")
        M, N = _as_square_pair(self.M, self.N)
        _checked_policy(self.policy)
        _set_fields(self, alpha=alpha, beta=beta, r=r, M=M, N=N)

    @property
    def dim(self) -> int:
        return self.M.shape[0]


class DpmlFunction:
    """Evaluator for one DPML parameter set.

    :meth:`stack` sums the series for a whole range of grid points at
    once, under the adaptive rule or through a fixed order: each series
    order is one matrix product of the monomial weights of every point
    still running against one row of word sums.  :meth:`value` is a
    one-point call of the same sum.  Every call builds its own word sums
    from the general recursion or, with ``commutative=True``, from the
    binomial closed form for commuting pairs (a :class:`CommutativityError`
    is raised if the pair does not commute); nothing is kept across calls.

    An instance holds only its parameters and route flag, so concurrent
    calls on a shared instance are safe, and every call returns fresh
    arrays.
    """

    def __init__(self, params: DpmlParams, commutative: bool = False) -> None:
        self.params = params
        self.commutative = commutative
        if commutative:
            _require_commuting(params.M, params.N)
        _warn_convergence(params.M, params.N)

    # -- evaluation ----------------------------------------------------

    def stack(self, kmin: int, kmax: int, imax: int | None = None) -> np.ndarray:
        """DPML values on ``[kmin, kmax]`` as an array of shape (L, n, n).

        Every point is summed under the adaptive truncation rule, with the
        zero/identity branches below the series range.  Raises
        :class:`DivergenceError` when any point fails the rule.  With
        ``imax`` given, every point is the fixed sum of orders 0 .. imax
        instead, the stop rule bypassed: the diagnostic output of divergent
        parameter sets.

        A point's value can depend on the points beside it: BLAS rounds
        each row of a product by its neighbours, so ``stack(k, k)`` and
        ``k`` in a longer stack may differ in the last bits, or by a whole
        term where a term near the tolerance moves the stop order.  A
        fixed sum has no stop order to move, but its last bits can still
        change with the range: it is within the rounding bound of the
        exact truncated sum, not byte-stable per point.
        """
        _require_points(kmin=kmin, kmax=kmax)
        if imax is not None:
            imax = _require_count("imax", imax, 0)
        _require_series_grid("kmax", kmin, kmax, self.params.r, self.params.dim)
        return self._series(kmin, kmax, imax)

    def value(self, k: int) -> np.ndarray:
        """DPML value at grid point ``k`` under the adaptive truncation rule."""
        _require_points(k=k)
        _require_series_grid("k", k, k, self.params.r, self.params.dim)
        return self._series(k, k, None)[0]

    def _series(self, kmin: int, kmax: int, imax: int | None) -> np.ndarray:
        # Sums orders 0 .. imax when imax is given, else stops each point on
        # its own under the policy.  The word sums come transposed, so the
        # terms and `out` hold each value transposed, flattened, until the
        # end.
        r, n = self.params.r, self.params.dim
        out = np.zeros((max(0, kmax - kmin + 1), n * n))
        if kmin <= -r <= kmax:
            out[-r - kmin] = np.eye(n).ravel()
        first = max(kmin, 1 - r)
        if first > kmax:
            return out.reshape(-1, n, n)
        pol, alpha, beta = self.params.policy, self.params.alpha, self.params.beta
        p = int(_blocks(r, kmax))  # delay block count p(kmax)
        source = _commuting_word_sum_rows if self.commutative else _word_sum_rows
        qrows = source(self.params.M, self.params.N, min(p, pol.i_max if imax is None else imax))

        def terms(i0: int, i: int, pos: np.ndarray) -> np.ndarray:
            # pos holds k - first of each point still running, ascending.
            pmax = int(_blocks(r, pos[-1] + first))
            cols = min(i - 1, pmax) + 1  # delay blocks j live at the block's last order
            # h[t, pad + m - 1] is the order-(i alpha + beta - 1) monomial at
            # m = k - a for the order i = i0 + t, by the product recurrence
            # of grid_calculus.monomial: rows are orders, each independent
            # of the others, and the zero pad columns hold m <= 0, read for
            # the delay blocks past p(k).  High orders overflow to inf,
            # which the stop rule reports.
            pad = (cols - 1) * r
            h = np.zeros((i - i0, pad + kmax + r))
            _monomial_rows(np.arange(i0, i) * alpha + (beta - 1.0), h[:, pad:])
            # view[x, t, j] = h[t, pad + m - 1] at m = k - (j - 1) r for
            # the point k = first + x, pad = (cols - 1) r, through
            # strides alone.
            view = np.ndarray(
                (kmax + 1 - first, i - i0, cols), buffer=h,
                offset=(h.shape[1] - 1 - (kmax - first)) * h.itemsize,
                strides=(h.itemsize, h.strides[0], -r * h.itemsize),
            )
            step = max(1, _BLOCK_CELLS // (pos.size * cols))
            products = np.empty((i - i0, pos.size, n * n))
            # From offset `full` on, an order reads all `cols` delay blocks.
            # Those orders' word sums are copied into `batch`, and each
            # chunk of weights takes one np.matmul over them: the BLAS call
            # of one product per order, item by item, so the same bits.
            # Orders still growing take one product each, at their own
            # width: padding them to `cols` would round otherwise.
            full = max(0, cols - 1 - i0)
            batch = np.empty((i - i0 - full, cols, n * n))
            for t, q in zip(range(i - i0), qrows):
                if t % step == 0:
                    # A copy of the running rows, unit stride along j:
                    # BLAS takes its slices, where the view's negative
                    # stride would send the product to NumPy's own loop,
                    # which rounds otherwise.  A lone point's is one basic
                    # slice, copied: no fancy gather.
                    weights = (view[pos[0], t : t + step].copy()[None] if pos.size == 1
                               else view[pos, t : t + step])
                if t < full:
                    weights[:, t % step, : i0 + t + 1].dot(q[: i0 + t + 1], out=products[t])
                    continue
                batch[t - full] = q[:cols]
                if t % step == step - 1 or t == i - i0 - 1:  # the chunk's last order
                    lo = max(full, t - t % step)
                    np.matmul(weights[:, lo - t - 1 :].transpose(1, 0, 2),
                              batch[lo - full : t + 1 - full], out=products[lo : t + 1])
            # Rows last, as the stop rule reduces them: one copy a block,
            # none for a lone point, whose transpose is already contiguous.
            return np.ascontiguousarray(products.transpose(0, 2, 1))

        # A block's table has at most kmax + (p + 1) r columns.
        rows, width = kmax + 1 - first, kmax + (p + 1) * r
        out[first - kmin :] = (_block_sum(pol, rows, n * n, terms, width) if imax is None
                               else _fixed_sum(rows, n * n, imax, terms, width, _ORDER_BLOCK))
        return _transposed(out, n)


def _transposed(flat: np.ndarray, n: int) -> np.ndarray:
    # Fresh (L, n, n) values from rows holding each one transposed, flattened.
    return np.ascontiguousarray(flat.reshape(-1, n, n).transpose(0, 2, 1))


def dpml_eval(params: DpmlParams, k: int) -> np.ndarray:
    """DPML value at ``k``; one-shot wrapper over :class:`DpmlFunction`."""
    return DpmlFunction(params).value(k)


# ml_eval's policy=None: the frozen default, built once.
_DEFAULT_POLICY = TruncationPolicy()


def ml_eval(M, alpha: float, c: float, k: int, a: int,
            policy: TruncationPolicy | None = None) -> np.ndarray:
    """Discrete one-matrix Mittag-Leffler series on the integer grid.

    Evaluates ``sum_i M**i * monomial(i * alpha + c, k, a)`` under the
    adaptive truncation rule.  For ``k < a`` every monomial vanishes and
    the zero matrix is returned; at ``k = a`` only orders with
    ``i * alpha + c == 0`` survive.  ``alpha`` must lie in (0, 1], with 1
    admitted for the classical-exponential corner, and ``c`` in
    (-inf, inf).  ``policy=None`` means the default
    :class:`TruncationPolicy`; any other value that is not a
    :class:`TruncationPolicy` raises :class:`TypeError`.
    """
    policy = _DEFAULT_POLICY if policy is None else _checked_policy(policy)
    return _ml_series(M, alpha, c, k, a, None, policy)


def ml_partial_sum(M, alpha: float, c: float, k: int, a: int, imax: int) -> np.ndarray:
    """Fixed truncation of the one-matrix series through order ``imax``."""
    return _ml_series(M, alpha, c, k, a, imax, None)


def _ml_series(M, alpha: float, c: float, k: int, a: int, imax: int | None,
               policy: TruncationPolicy | None) -> np.ndarray:
    # Sums orders 0 .. imax when imax is given, else stops under the policy.
    _require_points(k=k, a=a)
    M = _as_square(M, "M")
    alpha, c = _require_real("alpha", alpha, "(0, 1]"), _require_real("c", c, "(-inf, inf)")
    if imax is not None:
        imax = _require_count("imax", imax, 0)
    _require_grid("k", k - a, 1)  # the monomial table of a block: m = 1 .. k - a
    if k < a:
        return np.zeros_like(M)
    if k == a:
        # At the base point only orders with i*alpha + c == 0 contribute;
        # none is in reach when -c / alpha overflows.
        q = -c / alpha
        i = int(round(q)) if math.isfinite(q) else -1
        if i >= 0 and i * alpha + c == 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                power = np.linalg.matrix_power(M, i)
            if not np.isfinite(power).all():
                raise DivergenceError(
                    f"series value at the base point k = {a} is M**{i}, which is non-finite"
                )
            return power.copy()  # M itself at i = 1
        return np.zeros_like(M)
    if imax is None:
        _warn_convergence(M)

    def weights(i0: int, i: int) -> np.ndarray:
        # monomial(i * alpha + c, k, a) for the orders i0 .. i - 1.
        return _monomials_at(np.arange(i0, i) * alpha + c, k - a)

    return _power_sum(M, weights, imax, policy, k - a)


def _monomials_at(mu: np.ndarray, m: int) -> np.ndarray:
    # monomial(mu[i], k, a) for every order i at one m = k - a >= 1: the
    # product of (t + mu[i]) / t over t = 1 .. m - 1, multiplied in the
    # order of t, as a row of _monomial_rows is, so with its bytes.  The
    # orders come last, so each product over t is one multiply along them,
    # and no (orders x m) table is built to read one column of.
    t = np.arange(1.0, m)[:, None]
    factors = np.empty((m - 1, mu.size))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(t, mu, out=factors)
        factors /= t
        return np.multiply.reduce(factors, axis=0)


def _power_sum(A: np.ndarray, weights, imax: int | None,
               policy: TruncationPolicy | None = None, width: int = 1) -> np.ndarray:
    # Sum of w_i A**i, a lone series in blocks of at most _POWER_ORDERS
    # orders: orders 0 .. imax on _fixed_sum when imax is given, else
    # stopped under the policy on _lone_sum.  weights(i0, i) gives the w_i
    # of orders i0 .. i - 1, from a table of `width` cells an order.
    orders = _POWER_ORDERS
    buffer = np.empty((orders + 1, *A.shape))
    powers = list(buffer)  # powers[t] holds A**(i0 + t) in the block from order i0
    powers[0][...] = np.eye(len(A))

    def terms(i0: int, i: int, live: np.ndarray) -> np.ndarray:
        b = i - i0
        for t in range(b):
            powers[t].dot(A, out=powers[t + 1])
        block = (weights(i0, i)[:, None] * buffer[:b].reshape(b, A.size))[:, :, None]
        powers[0][...] = powers[b]  # A**i, for the next block
        return block

    values = (_lone_sum(policy, A.size, terms, width, orders) if imax is None
              else _fixed_sum(1, A.size, imax, terms, width, orders))
    return values.reshape(A.shape)


# -- closed-form reductions ---------------------------------------------

REDUCTION_PATTERNS = (
    "delayed_exponential",
    "factored_exponential",
    "exponential_perturbation",
    "delayed_ml",
    "ml",
)


def _falling_binomials(uppers: np.ndarray, index: np.ndarray, first: int) -> np.ndarray:
    # C(uppers[index[a, b]], first + a) for a 2-D array index, whose line a
    # holds entries of order first + a.  The running products of the
    # factors (u - t) / (t + 1), t = 0, 1, ..., multiplied in that order,
    # are built once for each distinct upper argument u, and every entry is
    # read off the products of its argument.  They form a table with one
    # column per argument and one line per order, built in chunks of about
    # _BLOCK_CELLS cells: each chunk starts from the last line of the one
    # before, and the lines of index whose orders it holds are read from
    # it as it is built.
    top = first + len(index) - 1
    step = max(1, _BLOCK_CELLS // uppers.size)
    t = np.arange(top + 1.0)[:, None]  # the t and t + 1, as floats: no casts
    table = np.empty((min(step, top) + 1, uppers.size))
    table[-1] = 1.0  # the order-0 line, carried into the first chunk
    out = np.empty(index.shape)
    for t0 in range(0, max(top, 1), step):
        chunk = table[: min(step, top - t0) + 1]
        chunk[0] = table[-1]  # the last line of the chunk before
        np.subtract(uppers, t[t0 : t0 + len(chunk) - 1], out=chunk[1:])
        chunk[1:] /= t[t0 + 1 : t0 + len(chunk)]
        np.multiply.accumulate(chunk, out=chunk)
        lo, hi = max(t0 - first, 0), max(t0 + len(chunk) - first, 0)
        out[lo:hi] = chunk[np.arange(first + lo - t0, first + hi - t0)[:, None], index[lo:hi]]
    return out


def _reduce_delayed_exponential(N: np.ndarray, r: int, k: int) -> np.ndarray:
    # Classical delayed discrete exponential with lag h = r - 1: block i
    # weighs N**i by C(k - (i - 1)(r - 1), i).  The block cutoff i <= p is
    # essential: beyond it the falling binomial no longer matches the
    # vanishing grid monomial.  index maps each block to its upper
    # argument: at r = 1 every block has the argument k, so one row of
    # running products serves them all.
    index = np.arange(_blocks(r, k) + 1)[:, None] * (r > 1)
    uppers = (k + r - 1.0) - (r - 1) * index[: index[-1, 0] + 1, 0]
    weights = _falling_binomials(uppers, index, 0)[:, 0]
    return _power_sum(N, lambda i0, i: weights[i0:i], len(weights) - 1)


def _reduce_factored_exponential(
    resolvent: np.ndarray, M: np.ndarray, N: np.ndarray, r: int, k: int
) -> np.ndarray:
    # Commuting pair at unit orders: pull the M-resolvent (I - M)^-1 out of
    # every word and reduce to a delayed exponential of the deformed delay
    # matrix.
    deformed = np.linalg.matrix_power(np.eye(M.shape[0]) - M, r - 1) @ N
    return np.linalg.matrix_power(resolvent, k + r) @ _reduce_delayed_exponential(
        deformed, r, k
    )


def _reduce_exponential_perturbation(
    M: np.ndarray, N: np.ndarray, r: int, k: int, policy: TruncationPolicy
) -> np.ndarray:
    # Unit orders, general pair: word sums weighted by integer binomials.
    p = _blocks(r, k)
    qrows = _word_sum_rows(M, N, min(p, policy.i_max))  # transposed

    def terms(i0: int, i: int, live: np.ndarray) -> np.ndarray:
        # Order o weighs delay block j by C(X, o), X = k - 1 + r + (o - j r):
        # the orders and delay blocks of a block read one row of running
        # products for each d = o - j r from i0 - jmax r to i - 1, jmax the
        # last live delay block.  index holds d - (i0 - jmax r), so its
        # first entry is jmax r.  Each weight row is contiguous: a strided
        # one sends the product down another BLAS path, whose sums can
        # differ in the last bit.
        index = np.arange(i - i0)[:, None] + r * np.arange(min(i - 1, p), -1, -1)
        weights = _falling_binomials((k - 1.0 + r) + np.arange(i0 - index[0, 0], i), index, i0)
        block = np.empty((i - i0, M.size))
        for w, q, out in zip(weights, qrows, block):
            w[: len(q)].dot(q, out=out)
        return block[:, :, None]

    return _lone_sum(policy, M.size, terms, 1, _ORDER_BLOCK).reshape(M.shape).T.copy()


def _reduce_delayed_ml(N: np.ndarray, alpha: float, r: int, k: int) -> np.ndarray:
    # Pure delay term: the series is a finite sum because each order lives
    # on its own delay block.  Block i weighs N**i by
    # monomial(i * alpha + alpha - 1, k, (i - 1) r), m = k - (i - 1) r >= 1:
    # the order-0 row is the longest, k + r cells.

    def weights(i0: int, i: int) -> np.ndarray:
        # Off rows of the product recurrence as long as the largest m, the
        # first order's.
        orders = np.arange(i0, i)
        m = k - (orders - 1) * r
        table = _monomial_rows(orders * alpha + alpha - 1.0, np.empty((orders.size, m[0])))
        return table[np.arange(orders.size), m - 1]

    return _power_sum(N, weights, int(_blocks(r, k)), width=k + r)


def special_reductions(params: DpmlParams, k: int, pattern: str | None = None) -> np.ndarray:
    """Evaluate the DPML value at ``k`` through a classical closed form.

    Five reductions are supported, each computed from its own defining
    formula rather than the general word-sum series, so they serve as
    independent cross-checks:

    - ``delayed_exponential``: alpha = beta = 1 and M = 0; binomial
      delayed discrete exponential of N.
    - ``factored_exponential``: alpha = beta = 1, MN = NM and I - M
      invertible; resolvent power of (I - M) times a delayed exponential
      of the deformed delay matrix (I - M)**(r-1) N.
    - ``exponential_perturbation``: alpha = beta = 1, general pair; word
      sums with integer binomial weights.
    - ``delayed_ml``: M = 0 and alpha = beta; finite one-matrix sum over
      delay blocks.
    - ``ml``: N = 0; one-matrix Mittag-Leffler series.

    With ``pattern=None`` detection follows :data:`REDUCTION_PATTERNS`,
    the order above, and picks the first, most specific, pattern that
    applies; :class:`ReductionPatternError` is raised when no pattern
    applies, or when an explicitly requested pattern does not match the
    parameters.  A value that overflows raises
    :class:`DivergenceError` naming the pattern and ``k``.
    """
    _require_points(k=k)
    M, N, r, alpha, policy = params.M, params.N, params.r, params.alpha, params.policy
    unit_orders = alpha == 1.0 and params.beta == 1.0
    m_zero, n_zero = not M.any(), not N.any()
    commuting = _commutation(M, N)[0]
    resolvent = None
    if unit_orders and commuting:
        try:
            resolvent = np.linalg.inv(np.eye(params.dim) - M)
        except np.linalg.LinAlgError:
            pass  # I - M is singular: the factored form does not apply.
    # Each pattern's applicability and formula, keyed by name.
    reductions = {
        "delayed_exponential": (unit_orders and m_zero,
                                lambda: _reduce_delayed_exponential(N, r, k)),
        "factored_exponential": (resolvent is not None,
                                 lambda: _reduce_factored_exponential(resolvent, M, N, r, k)),
        "exponential_perturbation": (unit_orders,
                                     lambda: _reduce_exponential_perturbation(M, N, r, k, policy)),
        "delayed_ml": (m_zero and alpha == params.beta, lambda: _reduce_delayed_ml(N, alpha, r, k)),
        # No delay term: the one-matrix series based at -r.
        "ml": (n_zero, lambda: ml_eval(M, alpha, params.beta - 1.0, k, -r, policy)),
    }
    if pattern is None:
        pattern = next((name for name in REDUCTION_PATTERNS if reductions[name][0]), None)
        if pattern is None:
            raise ReductionPatternError(
                "no closed-form reduction applies: need alpha = beta = 1, "
                "or M = 0 with alpha = beta, or N = 0"
            )
    elif pattern not in REDUCTION_PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {REDUCTION_PATTERNS}")
    elif pattern == "factored_exponential" and unit_orders and commuting and resolvent is None:
        raise ReductionPatternError(f"pattern {pattern!r} needs I - M invertible; it is singular")
    elif not reductions[pattern][0]:
        raise ReductionPatternError(
            f"pattern {pattern!r} does not match the parameters "
            f"(alpha={alpha}, beta={params.beta}, M zero: {m_zero}, "
            f"N zero: {n_zero}, commuting: {commuting})"
        )
    # The DPML value convention left of the series range.
    if k <= -r - 1:
        return np.zeros((params.dim, params.dim))
    if k == -r:
        return np.eye(params.dim)
    _require_series_grid("k", k, k, r, params.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        value = reductions[pattern][1]()
    if not np.isfinite(value).all():
        raise DivergenceError(f"reduction {pattern!r} is non-finite at k = {k}")
    return value
