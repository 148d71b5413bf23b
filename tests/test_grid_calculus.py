"""Tests for fractional Taylor monomials and the two grid operators.

Core claims:
- the product recurrence reproduces the gamma-ratio value of the monomial
  wherever the latter is finite, and pins the empty-interval conventions;
- nabla_sum and rl_difference are the stated finite weighted sums, with
  unit leading weight for the difference, and the kernel run of a stored
  run is the one-point kernel sum at each of its points;
- the classical identities hold numerically: sum composition, the
  Chu-Vandermonde monomial sum, sum-after-difference recovery, and the
  difference rule for parameter-dependent sums.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, gammasgn

from nabladelay import (
    GridRangeError,
    GridSeries,
    monomial,
    monomial_run,
    nabla_sum,
    rl_difference,
)
from nabladelay.grid_calculus import _kernel_run, _kernel_sum


def gamma_ratio(mu: float, m: int) -> float:
    """Independent monomial oracle: Gamma(m + mu) / (Gamma(m) Gamma(mu + 1))."""
    sign = gammasgn(m + mu) * gammasgn(m) * gammasgn(mu + 1.0)
    return float(sign * np.exp(gammaln(m + mu) - gammaln(m) - gammaln(mu + 1.0)))


class TestMonomial:
    def test_negative_integer_order_unit_gap(self):
        assert monomial(-1.0, 5, 4) == 1.0

    def test_negative_integer_order_wider_gap_vanishes(self):
        assert monomial(-1.0, 5, 2) == 0.0

    def test_half_order(self):
        assert monomial(0.5, 3, 0) == pytest.approx(1.875, abs=1e-15)

    def test_negative_fractional_order(self):
        assert monomial(-1.5, 1, -2) == pytest.approx(-0.125, abs=1e-15)

    def test_empty_interval_conventions(self):
        assert monomial(0.0, 7, 7) == 1.0
        assert monomial(0.3, 7, 7) == 0.0
        assert monomial(0.0, 5, 7) == 0.0
        assert monomial(-2.5, 5, 7) == 0.0

    def test_unit_weight_of_difference_kernel(self):
        # H_{-alpha-1}(k, k-1) = 1: the stepping solver relies on this.
        for alpha in (0.1, 0.5, 0.99):
            assert monomial(-alpha - 1.0, 11, 10) == 1.0

    def test_matches_gamma_ratio_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.integers(1, 201))
            mu = float(rng.uniform(-5.0, 5.0))
            if abs(mu - round(mu)) < 1e-6:
                continue  # oracle poles live at integer orders
            want = gamma_ratio(mu, m)
            assert monomial(mu, m, 0) == pytest.approx(want, rel=1e-12)

    def test_run_matches_pointwise(self):
        run = monomial_run(-1.3, 40)
        for m in range(1, 41):
            assert run[m - 1] == monomial(-1.3, m, 0)
        # Fractional, negative integer (exact zeros), zero and positive orders
        # agree with the scalar loop bit for bit over a long run.  Order 600
        # passes 1.8e308 before m = 600: the run must give inf there, as the
        # loop does, without a warning.
        for mu in (-1.3, -1.6, -1.0, -2.0, 0.0, 2.5, 600.0):
            want = np.array([monomial(mu, m, 0) for m in range(1, 601)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert monomial_run(mu, 600).tobytes() == want.tobytes()
        assert want[-1] == np.inf

    def test_run_rejects_negative_count(self):
        with pytest.raises(ValueError):
            monomial_run(0.5, -1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_order(self, mu):
        # (5, 7) is the empty interval, where a NaN order read 0.0.  A finite
        # order that overflows still gives inf (test_run_matches_pointwise).
        for call in (lambda: monomial(mu, 3, 0), lambda: monomial(mu, 5, 7),
                     lambda: monomial_run(mu, 5)):
            with pytest.raises(ValueError, match=rf"^mu must lie in \(-inf, inf\), got {mu!r}$"):
                call()


class TestGridSeries:
    def test_scalar_values_get_column_shape(self):
        z = GridSeries(3, [1.0, 2.0, 3.0])
        assert z.dim == 1
        assert z.base == 3 and z.end == 5
        assert z.at(4) == pytest.approx([2.0])

    def test_range_error_outside_storage(self):
        z = GridSeries(0, [[1.0, 2.0]])
        with pytest.raises(GridRangeError):
            z.at(1)
        with pytest.raises(GridRangeError):
            z.at(-1)

    def test_constant_and_from_function(self):
        c = GridSeries.constant(-2, 2, [1.5, -0.5])
        assert c.dim == 2
        assert np.all(c.values == np.array([1.5, -0.5]))
        f = GridSeries.from_function(1, 4, lambda k: [k, k * k])
        assert f.at(3) == pytest.approx([3.0, 9.0])

    @pytest.mark.parametrize("build", [lambda: GridSeries.constant(3, 2, [1.0]),
                                       lambda: GridSeries.from_function(3, 2, float)],
                             ids=["constant", "from_function"])
    def test_rejects_end_before_base(self, build):
        with pytest.raises(ValueError, match=r"^end must be >= base$"):
            build()

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            GridSeries(0, np.zeros((0, 2)))


class TestNablaSum:
    def test_empty_sum_is_zero(self):
        z = GridSeries.constant(1, 5, [2.0])
        assert nabla_sum(0.7, 0, z, 0) == pytest.approx([0.0])

    def test_order_one_is_plain_summation(self):
        z = GridSeries.constant(1, 5, [1.0])
        assert nabla_sum(1.0, 0, z, 3) == pytest.approx([3.0])

    def test_chu_vandermonde_point(self):
        z = GridSeries.from_function(1, 10, lambda k: monomial(0.3 - 1.0, k, 0))
        assert nabla_sum(0.7, 0, z, 10)[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_order(self):
        z = GridSeries.constant(1, 5, [1.0])
        with pytest.raises(ValueError):
            nabla_sum(0.0, 0, z, 3)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    @pytest.mark.parametrize("k", [0, 3])
    def test_rejects_non_finite_order(self, alpha, k):
        z = GridSeries.constant(1, 5, [1.0])
        with pytest.raises(ValueError, match=rf"^alpha must lie in \(0, inf\), got {alpha!r}$"):
            nabla_sum(alpha, 0, z, k)

    def test_range_error_when_grid_too_short(self):
        z = GridSeries.constant(1, 3, [1.0])
        with pytest.raises(GridRangeError):
            nabla_sum(0.5, 0, z, 4)


class TestRlDifference:
    def test_single_point_has_unit_weight(self):
        z = GridSeries(1, [[4.25]])
        assert rl_difference(0.7, 0, z, 1) == pytest.approx([4.25])

    def test_constant_example(self):
        z = GridSeries.constant(-1, 5, [1.0])
        assert rl_difference(0.5, -2, z, 1)[0] == pytest.approx(0.375, abs=1e-15)

    def test_maps_monomial_down_by_alpha(self):
        # difference of H_{beta-1}(., a) is H_{beta-alpha-1}(., a)
        a, alpha, beta = -1, 0.3, 0.8
        z = GridSeries.from_function(a + 1, a + 15, lambda k: monomial(beta - 1.0, k, a))
        for k in range(a + 1, a + 16):
            want = monomial(beta - alpha - 1.0, k, a)
            assert rl_difference(alpha, a, z, k)[0] == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_rejects_order_outside_unit_interval(self):
        z = GridSeries.constant(1, 3, [1.0])
        with pytest.raises(ValueError):
            rl_difference(1.0, 0, z, 2)
        with pytest.raises(ValueError):
            rl_difference(0.5, 0, z, 0)


@pytest.mark.parametrize("operator, order", [(nabla_sum, 0.4 - 1.0), (rl_difference, -0.4 - 1.0)])
def test_operators_match_pointwise_kernel_sum_on_long_spans(operator, order):
    rng = np.random.default_rng(17)
    a, k = -3, 597  # k - a = 600
    z = GridSeries(a + 1, rng.normal(size=(k - a, 2)))
    terms = np.array([monomial(order, k, s - 1) * z.at(s) for s in range(a + 1, k + 1)])
    got = operator(0.4, a, z, k)
    assert np.max(np.abs(got - terms.sum(axis=0))) <= 1e-13 * np.abs(terms).sum()


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind", ["difference", "sum"])
def test_kernel_run_is_the_kernel_sum_at_every_point(kind, n):
    # Orders -alpha - 1 (difference) and alpha - 1 (sum); each point of the
    # run within 1e-14 of the sum of its terms' sizes.
    rng = np.random.default_rng(31 * n + len(kind))
    for length in range(1, 41):
        alpha, a = rng.uniform(0.05, 0.95), int(rng.integers(-6, 6))
        order = -alpha - 1.0 if kind == "difference" else alpha - 1.0
        values = rng.normal(size=(length, n))
        got = _kernel_run(monomial_run(order, length), values)
        assert got.shape == values.shape
        z = GridSeries(a + 1, values)
        for j in range(length):
            want = _kernel_sum(order, a, z, a + 1 + j)
            size = np.abs(monomial_run(order, j + 1))[::-1] @ np.abs(values[: j + 1])
            assert np.all(np.abs(got[j] - want) <= 1e-14 * size), (length, j)


@pytest.mark.parametrize("n", [1, 3])
def test_kernel_run_is_a_causal_convolution(n):
    # Row j is sum_{t <= j} weights[t] values[j - t] for any weights, as
    # the closed trajectory uses it; within 1e-14 of the terms' sizes.
    rng = np.random.default_rng(47 + n)
    for length in range(1, 41):
        weights = rng.normal(size=length)
        values = rng.normal(size=(length, n))
        got = _kernel_run(weights, values)
        assert got.shape == values.shape
        for j in range(length):
            terms = weights[: j + 1, None] * values[j::-1]
            assert np.all(np.abs(got[j] - terms.sum(axis=0)) <= 1e-14 * np.abs(terms).sum(axis=0))


class TestIdentities:
    """Randomized checks of the classical operator identities."""

    def test_sum_composition(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            a = int(rng.integers(-10, 11))
            length = int(rng.integers(4, 51))
            alpha = float(rng.uniform(0.05, 3.0))
            beta = float(rng.uniform(0.05, 3.0))
            z = GridSeries(a + 1, rng.normal(size=length))
            k = a + length
            inner = GridSeries(
                a + 1, [nabla_sum(beta, a, z, s)[0] for s in range(a + 1, k + 1)]
            )
            lhs = nabla_sum(alpha, a, inner, k)
            rhs = nabla_sum(alpha + beta, a, z, k)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_monomial_sum_identity(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            a = int(rng.integers(-10, 11))
            gap = int(rng.integers(1, 61))
            alpha = float(rng.uniform(0.05, 3.0))
            beta = float(rng.uniform(0.05, 3.0))
            k = a + gap
            z = GridSeries.from_function(a + 1, k, lambda s: monomial(beta - 1.0, s, a))
            lhs = nabla_sum(alpha, a, z, k)[0]
            rhs = monomial(alpha + beta - 1.0, k, a)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_sum_after_difference_recovers_values(self):
        rng = np.random.default_rng(303)
        for _ in range(40):
            a = int(rng.integers(-10, 11))
            length = int(rng.integers(3, 51))
            beta = float(rng.uniform(0.05, 0.95))
            z = GridSeries(a, rng.normal(size=length + 1))  # includes z(a)
            k = a + length
            inner = GridSeries(
                a + 1,
                [rl_difference(beta, a - 1, z, s)[0] for s in range(a + 1, k + 1)],
            )
            lhs = nabla_sum(beta, a, inner, k)[0]
            rhs = z.at(k)[0] - monomial(beta - 1.0, k, a - 1) * z.at(a)[0]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_difference_rule_for_parameter_dependent_sums(self):
        # nabla of k -> sum_{s=a+1}^{k} z(k, s) splits into the summed
        # partial difference plus the new diagonal term.
        rng = np.random.default_rng(404)
        a = 0
        top = 12
        kernel = rng.normal(size=(top + 2, top + 2))  # kernel[k][s]

        def total(k: int) -> float:
            return sum(kernel[k][s] for s in range(a + 1, k + 1))

        for k in range(a + 2, top + 1):
            lhs = total(k) - total(k - 1)
            rhs = sum(kernel[k][s] - kernel[k - 1][s] for s in range(a + 1, k + 1))
            rhs += kernel[k - 1][k]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_one_matrix_series_solves_its_own_equation(self):
        # The geometric-kernel series based one step left of the operator
        # base satisfies the eigen-relation (difference = b * value) at the
        # first solution point and beyond.
        from nabladelay import ml_eval

        b, alpha, base = 0.5, 0.5, -1
        series = GridSeries.from_function(
            base + 1, 30, lambda k: ml_eval([[b]], alpha, alpha - 1.0, k, base)[0, 0]
        )
        for k in range(base + 2, 31):
            lhs = rl_difference(alpha, base, series, k)[0]
            rhs = b * series.at(k)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
