"""A high-precision reference solution of the delayed fractional difference system.

Steps the defining equation

    sum_{t = 0}^{k + r - 1} w_t z(k - t) = M z(k) + N z(k - r) + f(k),   k = 1 .. K,

with z = phi on [1 - r, 0], in stdlib :mod:`decimal` at a chosen number of
significant digits.  The inputs are converted with ``Decimal(float(x))``,
which is exact, so the only roundings are the context's.  The
Riemann-Liouville weights come from their product recurrence
w_0 = 1, w_j = w_{j - 1} (j - alpha - 1) / j, and each step solves
(I - M) z(k) = N z(k - r) + f(k) - sum_{t >= 1} w_t z(k - t) by Gaussian
elimination with partial pivoting.  Nothing here imports the package
under test, so it checks the package's routes against the true solution
rather than against one of their own.
"""

from __future__ import annotations

from decimal import Decimal, localcontext


def _decimals(rows) -> list[list[Decimal]]:
    return [[Decimal(float(x)) for x in row] for row in rows]


def _solve(A: list[list[Decimal]], b: list[Decimal]) -> list[Decimal]:
    # Gaussian elimination with partial pivoting on copies of A and b.
    n = len(b)
    A = [row[:] + [value] for row, value in zip(A, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(A[i][col]))
        A[col], A[pivot] = A[pivot], A[col]
        for i in range(col + 1, n):
            factor = A[i][col] / A[col][col]
            for j in range(col, n + 1):
                A[i][j] -= factor * A[col][j]
    x = [Decimal(0)] * n
    for i in reversed(range(n)):
        tail = sum((A[i][j] * x[j] for j in range(i + 1, n)), Decimal(0))
        x[i] = (A[i][n] - tail) / A[i][i]
    return x


def reference_solve(alpha, M, N, phi, horizon: int, forcing=None,
                    digits: int = 60) -> list[list[Decimal]]:
    """Rows z(1 - r) .. z(horizon) of the solution, r = len(phi), as Decimals.

    ``M`` and ``N`` are n x n, ``phi`` holds r vectors ordered
    k = 1 - r .. 0 and ``forcing``, when given, at least ``horizon``
    vectors ordered k = 1 .. horizon.  All arithmetic runs at ``digits``
    significant digits.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        a = Decimal(float(alpha))
        M, N, z = _decimals(M), _decimals(N), _decimals(phi)
        n, r = len(M), len(z)
        f = _decimals(forcing) if forcing is not None else [[Decimal(0)] * n] * horizon
        weights = [Decimal(1)]
        for j in range(1, horizon + r):
            weights.append(weights[-1] * (j - a - 1) / j)
        ImM = [[(1 if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)]
        for k in range(1, horizon + 1):
            q = k + r - 1  # the row of z(k)
            delayed = z[q - r]
            rhs = []
            for c in range(n):
                history = sum((weights[t] * z[q - t][c] for t in range(1, q + 1)), Decimal(0))
                coupling = sum((N[c][j] * delayed[j] for j in range(n)), Decimal(0))
                rhs.append(coupling + f[k - 1][c] - history)
            z.append(_solve(ImM, rhs))
    return z
