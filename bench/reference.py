"""The benchmark's own numerics, written without importing ``nabladelay``.

These are the independent references the correctness checks use:

- the Grunwald-Letnikov weights of (1 - x)**alpha and (1 - x)**(-alpha),
  which are the Riemann-Liouville difference and nabla sum kernels;
- the defining-equation residual of a trajectory, by FFT convolution;
- a majorant of the closed-form series, which says where float64 cannot
  vouch for the series (see ``rounding_bound``).
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def rl_weights(alpha: float, count: int) -> np.ndarray:
    """Coefficients c_0 .. c_{count-1} of (1 - x)**alpha."""
    c = np.empty(count)
    c[0] = 1.0
    for m in range(1, count):
        c[m] = c[m - 1] * (m - 1 - alpha) / m
    return c


def sum_weights(alpha: float, count: int) -> np.ndarray:
    """Coefficients d_0 .. d_{count-1} of (1 - x)**(-alpha)."""
    d = np.empty(count)
    d[0] = 1.0
    for m in range(1, count):
        d[m] = d[m - 1] * (m - 1 + alpha) / m
    return d


def causal_convolution(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[p] = sum_{j <= p} weights[j] * values[p - j], column by column, via FFT."""
    length = values.shape[0]
    size = 1 << (2 * length - 1).bit_length()
    spectrum = np.fft.rfft(weights[:length], size)[:, None] * np.fft.rfft(values, size, axis=0)
    return np.fft.irfft(spectrum, size, axis=0)[:length]


def equation_residual(alpha, r, M, N, forcing, trajectory) -> np.ndarray:
    """Max-norm residual of the defining equation at k = 1 .. K.

    ``trajectory`` holds z on [1 - r, K] (row 0 is k = 1 - r) and
    ``forcing`` holds f on [1, K].  The Riemann-Liouville difference is
    based at -r, where z carries no data, so the convolution starts at
    row 0.
    """
    K = forcing.shape[0]
    lhs = causal_convolution(rl_weights(alpha, K + r), trajectory)[r:]
    current = trajectory[r:]
    delayed = trajectory[: K]
    defect = lhs - current @ M.T - delayed @ N.T - forcing
    return np.max(np.abs(defect), axis=1)


def history_weights(alpha, M, phi) -> np.ndarray:
    """w(s) = (RL difference of phi)(s) - M phi(s) on [1 - r, 0]."""
    return causal_convolution(rl_weights(alpha, phi.shape[0]), phi) - phi @ M.T


def majorant_dpml(alpha: float, r: int, A, B, kmax: int) -> np.ndarray:
    """DPML(alpha, alpha, r, |A|, |B|) on k = -r .. kmax, by stepping.

    Every series term of the DPML of (A, B) is bounded entrywise by the
    matching term of the series on (|A|, |B|), whose terms are all
    nonnegative, so this value bounds the sum of term magnitudes the signed
    series accumulates.  It is the response of the delayed equation on
    (|A|, |B|) to a unit impulse at k = 1, shifted by r.
    """
    A, B = np.abs(A), np.abs(B)
    n = A.shape[0]
    horizon = kmax + r
    c = rl_weights(alpha, horizon + r)
    solve = np.linalg.inv(np.eye(n) - A)
    v = np.zeros((horizon + r, n, n))
    for k in range(1, horizon + 1):
        pos = k + r - 1
        rhs = B @ v[k - 1] - np.tensordot(c[pos:0:-1], v[:pos], axes=(0, 0))
        if k == 1:
            rhs += np.eye(n)
        v[pos] = solve @ rhs
    # v[pos] at k holds Phi(k - r); Phi(-r) is the identity.
    return np.concatenate((np.eye(n)[None], v[r:]))


def rounding_bound(alpha, r, M, N, phi, forcing, horizon) -> float:
    """Rounding error float64 can leave in the closed form on [1 - r, K].

    The closed form at k sums DPML values Phi(k - r - s + 1) against
    g(s) = [w; f](s), and each DPML value sums its series terms, so
    eps * sum_s |Phi|(k - r - s + 1) |g(s)| (with the majorant |Phi|) is the
    size of the rounding error it can carry.  Where that exceeds the
    check tolerance, cancellation in the series can wipe out the answer:
    the library has no such estimate of its own yet.
    """
    if np.max(np.sum(np.abs(M), axis=0)) >= 1.0:
        return float("inf")
    big_phi = majorant_dpml(alpha, r, M, N, horizon)
    g = np.abs(history_weights(alpha, M, phi))
    if forcing is not None:
        g = np.concatenate((g, np.abs(forcing[:horizon])))
    # Row q of the result is z at k = q + 1 - r; Phi index k + r = q + 1.
    L = horizon + r
    size = 1 << (2 * L - 1).bit_length()
    spectrum = np.einsum("fij,fj->fi", np.fft.rfft(big_phi[1 : L + 1], size, axis=0),
                         np.fft.rfft(g[:L], size, axis=0))
    bound = np.fft.irfft(spectrum, size, axis=0)[:L]
    return float(EPS * np.max(bound))


def impulse_bound(alpha, r, M, N, k) -> float:
    """Rounding error float64 can leave in one DPML value at k."""
    if np.max(np.sum(np.abs(M), axis=0)) >= 1.0:
        return float("inf")
    return float(EPS * np.max(majorant_dpml(alpha, r, M, N, k)[-1]))
