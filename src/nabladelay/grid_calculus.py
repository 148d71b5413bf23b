"""Nabla fractional calculus on uniform integer grids.

Provides the fractional Taylor monomial together with the two operators
built from it: the nabla fractional sum and the Riemann-Liouville nabla
fractional difference.  Both operators act on finitely supported grid
functions (:class:`GridSeries`) and reduce to finite weighted sums, so
everything here is exact up to floating-point rounding; no quadrature and
no gamma-function evaluation is involved.

Conventions
-----------
The backward jump on the integer grid is ``rho(k) = k - 1``.  A monomial
of order ``mu`` based at ``a`` vanishes for ``k <= a`` (the empty grid
interval), with the single exception ``mu = 0, k = a`` where it equals 1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GridRangeError",
    "GridSeries",
    "monomial",
    "monomial_run",
    "nabla_sum",
    "rl_difference",
]


class GridRangeError(IndexError):
    """Raised when a grid function is read outside its stored range."""


def _require_points(**points) -> None:
    # The one type check of the grid point arguments of the public point
    # entries, each named in the error: an int or np.integer, not a bool.
    for name, value in points.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer grid point, got {value!r}")


def _require_count(name: str, count, lowest: int = 1) -> int:
    # The one check of a count or index argument, named in the error: an int
    # or np.integer >= lowest, not a bool.
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < lowest:
        raise ValueError(f"{name} must be an integer >= {lowest}, got {count!r}")
    return int(count)


def monomial(mu: float, k: int, a: int) -> float:
    """Fractional Taylor monomial of order ``mu`` based at ``a``.

    For ``m = k - a >= 1`` the value is the rising-factorial ratio

        prod_{t=1}^{m-1} (t + mu) / t,

    which equals Gamma(m + mu) / (Gamma(m) * Gamma(mu + 1)) wherever the
    gamma functions are finite, but stays well defined for negative
    non-integer ``mu`` where the gamma form would need pole bookkeeping.
    For ``m <= 0`` the monomial is 0 except for the order-zero case
    ``monomial(0.0, a, a) == 1``.

    Parameters
    ----------
    mu : float
        Order of the monomial.
    k, a : int
        Evaluation point and base point.
    """
    _require_points(k=k, a=a)
    m = k - a
    if m < 1:
        return 1.0 if (m == 0 and mu == 0.0) else 0.0
    value = 1.0
    for t in range(1, m):
        value *= (t + mu) / t
    return value


def monomial_run(mu: float, count: int) -> np.ndarray:
    """Monomial values for ``m = k - a = 1 .. count`` as a vector.

    Entry ``j`` holds ``monomial(mu, a + j + 1, a)``; the whole run is
    produced by the same product recurrence as :func:`monomial`, one
    multiplication per step, so it agrees with the pointwise routine to
    the last bit.
    """
    count = _require_count("count", count, 0)
    return _monomial_rows(np.array([mu], dtype=float), np.empty((1, count)))[0]


def _monomial_rows(mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The product recurrence of monomial for every order at once: row i of
    # out receives monomial(mu[i], a + j + 1, a) in column j.  High orders
    # overflow to inf, as the scalar loop does, without a warning.
    t = np.arange(1, out.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, :1] = 1.0
        np.add(t, mu[:, None], out=out[:, 1:])
        out[:, 1:] /= t
        np.cumprod(out, axis=1, out=out)
    return out


class GridSeries:
    """Vector-valued function on a contiguous integer grid.

    Stores samples for grid points ``base, base + 1, ..., base + L`` as a
    float array of shape ``(L + 1, n)``.  Reading outside the stored range
    raises :class:`GridRangeError`; grid functions never extend themselves
    silently with zeros.
    """

    def __init__(self, base: int, values) -> None:
        _require_points(base=base)
        arr = np.array(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("values must be a nonempty sequence of equal-length vectors")
        self.base = int(base)
        self.values = arr

    @classmethod
    def constant(cls, base: int, end: int, vector) -> "GridSeries":
        """Series holding the same vector at every point of ``[base, end]``."""
        _require_points(base=base, end=end)
        vec = np.atleast_1d(np.asarray(vector, dtype=float))
        if end < base:
            raise ValueError("end must be >= base")
        return cls(base, np.tile(vec, (end - base + 1, 1)))

    @classmethod
    def from_function(cls, base: int, end: int, fn) -> "GridSeries":
        """Sample ``fn(k)`` (scalar or vector valued) on ``[base, end]``."""
        _require_points(base=base, end=end)
        if end < base:
            raise ValueError("end must be >= base")
        rows = [np.atleast_1d(np.asarray(fn(k), dtype=float)) for k in range(base, end + 1)]
        return cls(base, np.vstack(rows))

    @property
    def dim(self) -> int:
        """Number of components of each sample vector."""
        return self.values.shape[1]

    @property
    def end(self) -> int:
        """Last grid point with a stored value."""
        return self.base + self.values.shape[0] - 1

    def points(self) -> range:
        """The stored grid points, in order."""
        return range(self.base, self.end + 1)

    def at(self, k: int) -> np.ndarray:
        """Value at grid point ``k`` (shape ``(n,)``).

        Raises :class:`TypeError` when ``k`` is not an integer and
        :class:`GridRangeError` outside the stored range.
        """
        _require_points(k=k)
        if k < self.base or k > self.end:
            raise GridRangeError(
                f"grid point {k} outside stored range [{self.base}, {self.end}]"
            )
        return self.values[k - self.base]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridSeries(base={self.base}, end={self.end}, dim={self.dim})"


def _kernel_sum(order: float, a: int, z: GridSeries, k: int) -> np.ndarray:
    # Common core of both operators: sum_{s=a+1}^{k} H_order(k, s-1) z(s).
    if z.base > a + 1 or z.end < k:
        raise GridRangeError(
            f"operand stored on [{z.base}, {z.end}] does not cover [{a + 1}, {k}]"
        )
    # The weight of z(s) is the monomial at m = k - s + 1, so the run is
    # read backwards against z(a + 1) .. z(k).
    weights = monomial_run(order, k - a)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf and nan
        return weights @ z.values[a + 1 - z.base : k + 1 - z.base]


def _kernel_run(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    # The package's one direct causal convolution: row j of the (L, n)
    # result is sum_{t <= j} weights[t] values[j - t], one np.convolve per
    # column.  With monomial_run(order, L) as weights it is _kernel_sum at
    # every point of a run stored from a + 1: row j is the sum at
    # k = a + 1 + j against rows 0 .. j of `values`.  Direct, O(L^2), as an
    # FFT would round each early point against the whole run's scale.
    # np.convolve sets no floating-point flags: overflow gives inf and nan.
    length = len(values)
    out = np.empty((length, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.convolve(weights, values[:, c])[:length]
    return out


def nabla_sum(alpha: float, a: int, z: GridSeries, k: int) -> np.ndarray:
    """Nabla fractional sum of order ``alpha`` based at ``a``.

    Evaluates ``sum_{s=a+1}^{k} monomial(alpha - 1, k, s - 1) z(s)``; for
    ``k <= a`` the sum is empty and the zero vector is returned.  ``z``
    must be stored at least on ``[a + 1, k]``.  ``alpha`` must be positive
    and finite (:class:`ValueError` otherwise).
    """
    _require_points(a=a, k=k)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"fractional sum order must be positive and finite, got {alpha}")
    if k <= a:
        return np.zeros(z.dim)
    return _kernel_sum(alpha - 1.0, a, z, k)


def rl_difference(alpha: float, a: int, z: GridSeries, k: int) -> np.ndarray:
    """Riemann-Liouville nabla fractional difference of order ``alpha``.

    Evaluates ``sum_{s=a+1}^{k} monomial(-alpha - 1, k, s - 1) z(s)`` for
    ``k >= a + 1``.  The ``s = k`` weight is exactly 1, which is what makes
    sequential solvers for implicit fractional difference equations
    possible.
    """
    _require_points(a=a, k=k)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"difference order must lie in (0, 1), got {alpha}")
    if k < a + 1:
        raise ValueError(f"evaluation point {k} must be >= {a + 1}")
    return _kernel_sum(-alpha - 1.0, a, z, k)
