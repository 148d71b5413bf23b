"""Tests for the delayed fractional difference solver layer.

Two independent routes compute every solution: the implicit stepping
recurrence (oracle) and the explicit DPML representation.  The tests pin
hand-derived values for the stepping route, then check the explicit route
against the oracle on homogeneous-only, forced-only, and mixed problems,
plus the commutative and delta-grid variants and the verification report.
"""

import warnings

import numpy as np
import pytest

from nabladelay import (
    CommutativityError,
    DelaySystem,
    DivergenceError,
    DpmlParams,
    GridSeries,
    SingularityError,
    TruncationPolicy,
    closed_form_solve,
    commutative_solve,
    delta_solve,
    dpml_eval,
    forced_part,
    homogeneous_part,
    ml_eval,
    monomial_run,
    rl_difference,
    step_solve,
    verify,
)
from nabladelay.solver import _equation_residuals

M2 = np.array([[0.2, 0.1], [0.0, 0.3]])
N2 = np.array([[0.1, 0.0], [0.4, 0.2]])


def scalar_system(alpha=0.5, delay=2, m=0.2, n=0.1, phi=1.0, forcing=None, horizon=12):
    phi_values = np.full((delay, 1), float(phi))
    if forcing is not None and np.isscalar(forcing):
        forcing = np.full((horizon, 1), float(forcing))
    return DelaySystem(
        alpha=alpha,
        delay=delay,
        M=[[m]],
        N=[[n]],
        phi=phi_values,
        forcing=forcing,
        horizon=horizon,
    )


def planar_system(horizon=20, scale=1.0, forcing=None, seed=7):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(2, 2))
    return DelaySystem(
        alpha=0.5,
        delay=2,
        M=M2 * scale,
        N=N2 * scale,
        phi=phi,
        forcing=forcing,
        horizon=horizon,
    )


class TestDelaySystem:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            scalar_system(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            scalar_system(alpha=1.0)

    def test_delay_bounds(self):
        with pytest.raises(ValueError, match="delay"):
            scalar_system(delay=0)

    def test_horizon_bounds(self):
        with pytest.raises(ValueError, match="horizon"):
            scalar_system(horizon=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            DelaySystem(alpha=0.5, delay=1, M=np.eye(2), N=np.eye(3), phi=np.zeros((1, 2)))

    def test_phi_must_cover_initial_interval(self):
        with pytest.raises(ValueError, match="phi"):
            DelaySystem(alpha=0.5, delay=2, M=[[0.1]], N=[[0.1]], phi=np.zeros((3, 1)))

    def test_phi_dimension_must_match_matrices(self):
        with pytest.raises(ValueError, match="dimension"):
            DelaySystem(alpha=0.5, delay=2, M=np.eye(2), N=np.eye(2), phi=np.zeros((2, 3)))

    def test_forcing_must_cover_horizon(self):
        with pytest.raises(ValueError, match="forcing"):
            scalar_system(forcing=np.ones((3, 1)), horizon=5)

    def test_forcing_defaults_to_zero(self):
        system = scalar_system()
        np.testing.assert_array_equal(system.forcing_at(3), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["M", "N", "phi", "forcing"])
    def test_non_finite_entries_rejected(self, field, bad):
        data = {
            "M": np.full((2, 2), 0.1),
            "N": np.full((2, 2), 0.1),
            "phi": np.ones((2, 2)),
            "forcing": np.ones((5, 2)),
        }
        data[field][1, 0] = bad
        with pytest.raises(ValueError, match=rf"{field} has a non-finite entry"):
            DelaySystem(alpha=0.5, delay=2, horizon=5, **data)

    def test_delay_one_admitted(self):
        system = DelaySystem(alpha=0.5, delay=1, M=[[0.5]], N=[[0.0]], phi=[[2.0]], horizon=4)
        assert system.phi.base == 0 and system.phi.end == 0


class TestStepSolve:
    def test_first_step_frozen_value(self):
        # alpha = 1/2, r = 2, M = 1/5, N = 1/10, phi = 1, f = 0:
        # (1 - 1/5) z(1) = 1/10 - 1/2 - 1/8 * (-1) + 1/2  =>  z(1) = 29/32.
        trace = step_solve(scalar_system(horizon=1))
        assert trace.values.at(1)[0] == pytest.approx(0.90625, abs=1e-14)

    def test_trace_covers_full_grid_and_reproduces_history(self):
        system = scalar_system(horizon=9)
        trace = step_solve(system)
        assert trace.values.base == -1 and trace.values.end == 9
        np.testing.assert_array_equal(trace.values.at(-1), system.phi.at(-1))
        np.testing.assert_array_equal(trace.values.at(0), system.phi.at(0))

    def test_zero_data_gives_zero_trace(self):
        system = scalar_system(m=0.0, n=0.0, phi=0.0, horizon=8)
        np.testing.assert_array_equal(step_solve(system).values.values, np.zeros((10, 1)))

    def test_residuals_vanish_on_the_stepping_route(self):
        trace = step_solve(planar_system(horizon=25))
        assert trace.residuals is not None and trace.residuals.shape == (25,)
        assert float(np.max(trace.residuals)) <= 1e-12

    def test_reports_conditioning_and_method(self):
        trace = step_solve(scalar_system())
        assert trace.method == "step"
        assert trace.condition is not None and trace.condition >= 1.0

    def test_matches_one_matrix_series_without_delay_term(self):
        # Single-delay history of one point, N = 0: the solution is the
        # one-matrix fractional series with value 2 at the initial point.
        system = DelaySystem(
            alpha=0.5, delay=1, M=[[0.5]], N=[[0.0]], phi=[[2.0]], horizon=30
        )
        trace = step_solve(system)
        for k in range(1, 31):
            want = ml_eval([[0.5]], 0.5, -0.5, k, -1)[0, 0]
            assert trace.values.at(k)[0] == pytest.approx(want, rel=1e-9)

    def test_singular_implicit_matrix_raises(self):
        with pytest.raises(SingularityError, match="eigenvalue"):
            step_solve(scalar_system(m=1.0))

    def test_overflow_raises_naming_the_first_point(self):
        # Undamped growth overflows float64 at k = 262; nothing may leak as
        # a RuntimeWarning and no inf/nan trajectory may be returned.
        system = scalar_system(alpha=0.6, delay=1, m=0.9, n=0.9, horizon=3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="overflowed float64 at k = 262$"):
                step_solve(system)

    def test_linearity_in_the_data(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(2, 1))
        f = rng.normal(size=(10, 1))
        base = DelaySystem(0.5, 2, [[0.3]], [[0.2]], phi, forcing=f, horizon=10)
        doubled = DelaySystem(0.5, 2, [[0.3]], [[0.2]], 2 * phi, forcing=2 * f, horizon=10)
        np.testing.assert_allclose(
            step_solve(doubled).values.values,
            2.0 * step_solve(base).values.values,
            atol=1e-12,
        )


class TestEquationResiduals:
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("delay", [1, 3])
    def test_measures_the_defect_of_a_wrong_trajectory(self, delay, dim, forced):
        # A random trajectory solves nothing, so every residual is O(1); each
        # must equal the one-point RL difference minus M z(k), N z(k - r) and
        # f(k), up to rounding relative to the sum of the terms' sizes.
        rng = np.random.default_rng(100 * delay + 10 * dim + forced)
        K, alpha = 40, 0.7
        M, N = 0.3 * rng.normal(size=(dim, dim)), 0.3 * rng.normal(size=(dim, dim))
        system = DelaySystem(
            alpha, delay, M, N, rng.normal(size=(delay, dim)),
            forcing=rng.normal(size=(K, dim)) if forced else None, horizon=K,
        )
        z = GridSeries(1 - delay, rng.normal(size=(K + delay, dim)))
        got = _equation_residuals(system, z)
        assert got.shape == (K,)
        for k in range(1, K + 1):
            zk, zd, f = z.at(k), z.at(k - delay), system.forcing_at(k)
            defect = rl_difference(alpha, -delay, z, k) - M @ zk - N @ zd - f
            weights = np.abs(monomial_run(-alpha - 1.0, k + delay))[::-1]
            size = (
                weights @ np.abs(z.values[: k + delay])
                + np.abs(M) @ np.abs(zk) + np.abs(N) @ np.abs(zd) + np.abs(f)
            )
            want = np.max(np.abs(defect))
            assert abs(got[k - 1] - want) <= 1e-13 * (1.0 + np.max(size))
        assert np.max(got) > 0.1


class TestHomogeneousPart:
    def test_reproduces_history_on_initial_interval(self):
        system = planar_system(horizon=6)
        for k in (-1, 0):
            np.testing.assert_allclose(homogeneous_part(system, k), system.phi.at(k), atol=1e-12)

    def test_zero_history_gives_zero(self):
        system = scalar_system(phi=0.0)
        for k in range(1, 8):
            np.testing.assert_array_equal(homogeneous_part(system, k), np.zeros(1))

    def test_dpml_history_is_an_eigenfunction(self):
        # Seeding the history with the DPML's own initial-interval values
        # must continue it: the homogeneous solution IS the DPML function.
        params = DpmlParams(0.5, 0.5, 2, [[0.3]], [[0.2]])
        phi = np.array([[dpml_eval(params, k)[0, 0]] for k in (-1, 0)])
        system = DelaySystem(0.5, 2, [[0.3]], [[0.2]], phi, horizon=20)
        for k in range(1, 21):
            want = dpml_eval(params, k)[0, 0]
            assert homogeneous_part(system, k)[0] == pytest.approx(want, abs=1e-10)

    def test_matches_oracle_without_forcing(self):
        system = planar_system(horizon=25)
        oracle = step_solve(system)
        for k in range(1, 26):
            np.testing.assert_allclose(
                homogeneous_part(system, k), oracle.values.at(k), atol=1e-8
            )


class TestForcedPart:
    def test_vanishes_before_the_first_step(self):
        system = scalar_system(forcing=1.0)
        np.testing.assert_array_equal(forced_part(system, 0), np.zeros(1))

    def test_zero_forcing_gives_zero(self):
        system = scalar_system()
        for k in range(1, 8):
            np.testing.assert_array_equal(forced_part(system, k), np.zeros(1))

    def test_matches_oracle_with_zero_history(self):
        system = scalar_system(m=0.3, n=0.2, phi=0.0, forcing=1.0, horizon=20)
        oracle = step_solve(system)
        for k in range(1, 21):
            got = forced_part(system, k)[0]
            assert got == pytest.approx(oracle.values.at(k)[0], rel=1e-8)


class TestClosedFormSolve:
    def test_equals_homogeneous_part_without_forcing(self):
        system = planar_system(horizon=12)
        trace = closed_form_solve(system)
        for k in range(1, 13):
            np.testing.assert_allclose(
                trace.values.at(k), homogeneous_part(system, k), atol=1e-12
            )

    def test_equals_forced_part_with_zero_history(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(12, 2))
        system = DelaySystem(0.5, 2, M2, N2, np.zeros((2, 2)), forcing=f, horizon=12)
        trace = closed_form_solve(system)
        for k in range(1, 13):
            np.testing.assert_allclose(trace.values.at(k), forced_part(system, k), atol=1e-12)

    def test_initial_interval_reproduced(self):
        system = planar_system(horizon=10)
        trace = closed_form_solve(system)
        for k in (-1, 0):
            np.testing.assert_allclose(trace.values.at(k), system.phi.at(k), atol=1e-9)

    def test_matches_oracle_on_mixed_problem(self):
        rng = np.random.default_rng(17)
        f = rng.normal(size=(40, 2)) * 0.5
        system = DelaySystem(
            alpha=0.5,
            delay=2,
            M=M2,
            N=N2,
            phi=rng.normal(size=(2, 2)),
            forcing=f,
            horizon=40,
        )
        closed = closed_form_solve(system)
        oracle = step_solve(system)
        gap = float(np.max(np.abs(closed.values.values - oracle.values.values)))
        assert gap <= 1e-8

    def test_superposition(self):
        rng = np.random.default_rng(23)
        phi = rng.normal(size=(2, 2))
        f = rng.normal(size=(15, 2))
        mixed = DelaySystem(0.5, 2, M2, N2, phi, forcing=f, horizon=15)
        history_only = DelaySystem(0.5, 2, M2, N2, phi, horizon=15)
        forcing_only = DelaySystem(0.5, 2, M2, N2, np.zeros((2, 2)), forcing=f, horizon=15)
        np.testing.assert_allclose(
            closed_form_solve(mixed).values.values,
            closed_form_solve(history_only).values.values
            + closed_form_solve(forcing_only).values.values,
            atol=1e-10,
        )

    def test_method_label(self):
        trace = closed_form_solve(scalar_system(horizon=4))
        assert trace.method == "closed"


class TestCommutativeSolve:
    def test_matches_general_route_on_commuting_pair(self):
        rng = np.random.default_rng(29)
        M = np.diag([0.3, -0.2])
        N = np.diag([0.2, 0.1])
        f = rng.normal(size=(18, 2))
        system = DelaySystem(0.5, 2, M, N, rng.normal(size=(2, 2)), forcing=f, horizon=18)
        np.testing.assert_allclose(
            commutative_solve(system).values.values,
            closed_form_solve(system).values.values,
            atol=1e-10,
        )

    def test_zero_delay_matrix_commutes_with_anything(self):
        system = DelaySystem(
            0.5, 2, M2, np.zeros((2, 2)), np.ones((2, 2)), horizon=14
        )
        np.testing.assert_allclose(
            commutative_solve(system).values.values,
            closed_form_solve(system).values.values,
            atol=1e-10,
        )

    def test_non_commuting_pair_rejected(self):
        system = planar_system(horizon=5)
        with pytest.raises(CommutativityError):
            commutative_solve(system)

    def test_method_label(self):
        system = scalar_system(horizon=4)
        assert commutative_solve(system).method == "commutative"


class TestDeltaSolve:
    def test_grid_is_shifted_by_one(self):
        system = scalar_system(horizon=9)
        trace = delta_solve(system)
        assert trace.values.base == 0  # 2 - delay with delay = 2
        assert trace.values.end == 10  # horizon + 1

    def test_zero_data_gives_zero(self):
        system = scalar_system(m=0.0, n=0.0, phi=0.0, horizon=6)
        np.testing.assert_array_equal(delta_solve(system).values.values, np.zeros((8, 1)))

    def test_first_point_is_the_shifted_history(self):
        system = scalar_system(horizon=6, phi=1.0)
        trace = delta_solve(system)
        # y(1) corresponds to the backward-grid value at 0, i.e. phi(0).
        np.testing.assert_allclose(trace.values.at(1), system.phi.at(0), atol=1e-10)

    def test_matches_index_shifted_oracle(self):
        system = scalar_system(m=0.3, n=0.2, phi=1.0, forcing=0.5, horizon=25)
        delta = delta_solve(system)
        oracle = step_solve(system)
        for k in range(0, 27):  # [2 - r, horizon + 1]
            np.testing.assert_allclose(
                delta.values.at(k), oracle.values.at(k - 1), atol=1e-8
            )

    def test_matches_index_shifted_oracle_planar(self):
        rng = np.random.default_rng(31)
        f = rng.normal(size=(20, 2)) * 0.3
        system = DelaySystem(0.4, 3, M2, N2, rng.normal(size=(3, 2)), forcing=f, horizon=20)
        delta = delta_solve(system)
        oracle = step_solve(system)
        for k in range(-1, 22):
            np.testing.assert_allclose(
                delta.values.at(k), oracle.values.at(k - 1), atol=1e-8
            )

    def test_equals_closed_form_on_shifted_grid(self):
        rng = np.random.default_rng(41)
        f = rng.normal(size=(15, 2))
        system = DelaySystem(0.6, 3, M2, N2, rng.normal(size=(3, 2)), forcing=f, horizon=15)
        delta = delta_solve(system)
        closed = closed_form_solve(system)
        assert delta.values.base == closed.values.base + 1
        np.testing.assert_array_equal(delta.values.values, closed.values.values)

    def test_method_label(self):
        assert delta_solve(scalar_system(horizon=4)).method == "delta"


class TestVerify:
    def test_passes_on_convergent_mixed_problem(self):
        rng = np.random.default_rng(37)
        f = rng.normal(size=(20, 2)) * 0.4
        system = DelaySystem(0.5, 2, M2, N2, rng.normal(size=(2, 2)), forcing=f, horizon=20)
        report = verify(system)
        assert report.passed
        assert report.closed_form_available
        assert report.max_deviation is not None and report.max_deviation <= 1e-8
        assert report.max_residual is not None and report.max_residual <= 1e-8
        assert report.condition is not None and report.condition >= 1.0
        assert 1 - system.delay <= report.worst_deviation_k <= system.horizon
        assert 1 <= report.worst_residual_k <= system.horizon

    def test_fails_at_unattainable_tolerance(self):
        system = planar_system(horizon=15)
        report = verify(system, tol=1e-16)
        assert not report.passed
        assert report.closed_form_available

    def test_divergent_series_reported_with_oracle_intact(self):
        system = DelaySystem(
            alpha=0.9,
            delay=2,
            M=[[5.0]],
            N=[[3.0]],
            phi=np.ones((2, 1)),
            horizon=25,
            policy=TruncationPolicy(i_max=120),
        )
        with pytest.warns(RuntimeWarning):
            report = verify(system)
        assert not report.passed
        assert not report.closed_form_available
        assert "TruncationPolicy" in report.message
        assert report.max_deviation is None
        assert report.oracle is not None
        assert np.all(np.isfinite(report.oracle.values.values))

    def test_tolerance_is_respected(self):
        system = scalar_system(horizon=10)
        strict = verify(system, tol=1e-8)
        loose = verify(system, tol=1e-2)
        assert strict.tol == 1e-8 and loose.tol == 1e-2
        assert loose.passed
