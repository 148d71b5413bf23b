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
import numbers
from dataclasses import dataclass

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


def _shown(value) -> str:
    # The argument as a rule's text shows it: its repr, or for an int past
    # Python's int-to-str digit limit its sign and bit length.
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _span(lo: int, hi: int) -> str:
    # The grid interval [lo, hi] as a range text shows it, each end an int
    # through _shown.
    return f"[{_shown(int(lo))}, {_shown(int(hi))}]"


def _set_fields(obj, **fields) -> None:
    # The checked fields of a frozen dataclass, stored once by its __post_init__.
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _require_count(name: str, count, lowest: int = 1) -> int:
    # The one check of a count or index argument, named in the error: an int
    # or np.integer >= lowest, not a bool.
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < lowest:
        raise ValueError(f"{name} must be an integer >= {lowest}, got {_shown(count)}")
    return int(count)


# Grid points times floats per point past which a grid is rejected before
# anything is allocated.  2**56 floats are 512 PiB, more than any memory,
# and far below the sizes at which NumPy raises ValueError or
# OverflowError instead of MemoryError: an array it cannot even describe.
_MAX_GRID_CELLS = 2**56


def _require_grid(name: str, points: int, cells: int) -> None:
    # The one grid-size rule, named by the argument that sets the grid:
    # `points` grid points of `cells` floats each, the most any array of
    # the call holds per point.
    if points * cells > _MAX_GRID_CELLS:
        raise ValueError(
            f"{name}: the grid does not fit in memory ({_shown(points)} points x {cells} floats)"
        )


# The open float bounds (low, high) of each interval text a real argument
# may be held to: low < x < high for exactly its floats, a closed end's
# bound being the float next past it.
_INTERVALS = {"(0, 1]": (0, math.nextafter(1, 2)), "(0, 1)": (0, 1), "(0, inf)": (0, math.inf),
              "[0, inf)": (math.nextafter(0, -1), math.inf), "(-inf, inf)": (-math.inf, math.inf)}


def _require_real(name: str, value, interval: str) -> float:
    # The one check of a real argument, named in the error: a real number,
    # not a bool (TypeError), lying in `interval`, a key of _INTERVALS
    # (ValueError; NaN and an int past the float range lie in none).  float
    # and int are tested before the ABC, whose test is several times slower.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    low, high = _INTERVALS[interval]
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not low < number < high:
        raise ValueError(f"{name} must lie in {interval}, got {_shown(value)}")
    return number


def _real_array(name: str, values) -> np.ndarray:
    # The one entry rule of array input, named in the error: a rectangular
    # array (ValueError otherwise) whose NumPy dtype is int, uint or float
    # (TypeError otherwise: bool, str, complex, object), read into the
    # library's own float64 copy, so no later write by the caller reaches it.
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{name} must be a rectangular array, got ragged input") from exc
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold int or float entries, got dtype {arr.dtype}")
    return arr.astype(float)


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
        Order of the monomial, in (-inf, inf); a finite order may still
        overflow to inf.
    k, a : int
        Evaluation point and base point.
    """
    _require_points(k=k, a=a)
    mu = _require_real("mu", mu, "(-inf, inf)")
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
    the last bit.  ``mu`` must lie in (-inf, inf), as in :func:`monomial`.
    """
    mu = _require_real("mu", mu, "(-inf, inf)")
    count = _require_count("count", count, 0)
    _require_grid("count", count, 1)
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


@dataclass(frozen=True, eq=False)
class GridSeries:
    """Vector-valued function on a contiguous integer grid.

    Stores samples for grid points ``base, base + 1, ..., base + L`` as a
    float array ``values`` of shape ``(L + 1, n)``, the series' own copy of
    the input.  Reading outside the stored range raises
    :class:`GridRangeError`; grid functions never extend themselves
    silently with zeros.

    The fields are checked once, at construction, and frozen: assigning
    ``base`` or ``values`` raises :class:`dataclasses.FrozenInstanceError`.
    The values stay writeable unless the series belongs to a
    ``DelaySystem``, whose tables are read-only.  Series compare and hash
    by identity.
    """

    base: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _require_points(base=self.base)
        arr = _real_array("values", self.values)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("values must be a nonempty sequence of equal-length vectors")
        _set_fields(self, base=int(self.base), values=arr)

    @classmethod
    def constant(cls, base: int, end: int, vector) -> "GridSeries":
        """Series holding the same vector at every point of ``[base, end]``."""
        _require_points(base=base, end=end)
        vec = np.atleast_1d(_real_array("vector", vector))
        if end < base:
            raise ValueError("end must be >= base")
        _require_grid("end", end - base + 1, vec.size)
        return cls(base, np.tile(vec, (end - base + 1, 1)))

    @classmethod
    def from_function(cls, base: int, end: int, fn) -> "GridSeries":
        """Sample ``fn(k)`` (scalar or vector valued) on ``[base, end]``."""
        _require_points(base=base, end=end)
        if end < base:
            raise ValueError("end must be >= base")
        return cls(base, [np.atleast_1d(fn(k)) for k in range(base, end + 1)])

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
        :class:`GridRangeError` outside the stored range.  The row is a
        fresh copy: writing into it leaves the series as it was.
        """
        _require_points(k=k)
        if k < self.base or k > self.end:
            raise GridRangeError(
                f"grid point {_shown(int(k))} outside stored range {_span(self.base, self.end)}"
            )
        return self.values[k - self.base].copy()


def _kernel_sum(order: float, a: int, z: GridSeries, k: int) -> np.ndarray:
    # Common core of both operators: sum_{s=a+1}^{k} H_order(k, s-1) z(s).
    if z.base > a + 1 or z.end < k:
        raise GridRangeError(
            f"operand stored on {_span(z.base, z.end)} does not cover {_span(a + 1, k)}"
        )
    # The weight of z(s) is the monomial at m = k - s + 1, so the run is
    # read backwards against z(a + 1) .. z(k): monomial_run(order, k - a)'s
    # recurrence, its checks made by the callers.
    weights = _monomial_rows(np.array([order]), np.empty((1, k - a)))[0, ::-1]
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
    must be stored at least on ``[a + 1, k]``.  ``alpha`` must lie in
    (0, inf).
    """
    _require_points(a=a, k=k)
    alpha = _require_real("alpha", alpha, "(0, inf)")
    if k <= a:
        return np.zeros(z.dim)
    return _kernel_sum(alpha - 1.0, a, z, k)


def rl_difference(alpha: float, a: int, z: GridSeries, k: int) -> np.ndarray:
    """Riemann-Liouville nabla fractional difference of order ``alpha``.

    Evaluates ``sum_{s=a+1}^{k} monomial(-alpha - 1, k, s - 1) z(s)`` for
    ``k >= a + 1``.  The ``s = k`` weight is exactly 1, which is what makes
    sequential solvers for implicit fractional difference equations
    possible.  ``alpha`` must lie in (0, 1).
    """
    _require_points(a=a, k=k)
    alpha = _require_real("alpha", alpha, "(0, 1)")
    if k < a + 1:
        raise ValueError(f"evaluation point {_shown(int(k))} must be >= {_shown(int(a) + 1)}")
    return _kernel_sum(-alpha - 1.0, a, z, k)
