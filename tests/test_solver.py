"""Tests for the delayed fractional difference solver layer.

Two independent routes compute every solution: the implicit stepping
recurrence (oracle) and the explicit DPML representation.  The tests pin
hand-derived values for the stepping route, then check the explicit route
against the oracle on homogeneous-only, forced-only, and mixed problems,
plus the commutative and delta-grid variants and the verification report.
"""

import dataclasses
import inspect
import json
import math
import re
import warnings
from decimal import Decimal

import numpy as np
import pytest
from _reference import reference_solve

from nabladelay import grid_calculus, solver
from nabladelay import (
    CommutativityError,
    DelaySystem,
    DivergenceError,
    DpmlFunction,
    DpmlParams,
    GridRangeError,
    GridSeries,
    SingularityError,
    TruncationPolicy,
    WordSumTable,
    closed_form_solve,
    commutative_solve,
    delta_solve,
    dpml_eval,
    forced_part,
    homogeneous_part,
    ml_eval,
    ml_partial_sum,
    monomial,
    monomial_run,
    nabla_sum,
    rl_difference,
    special_reductions,
    step_solve,
    verify,
    word_sum_commutative,
)
from nabladelay.cli import main
from nabladelay.solver import _closed_trajectory, _equation_residuals

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


def forcing_at(system, k):
    """f(k), the zero vector when the system has no forcing."""
    if system.forcing is None:
        return np.zeros(system.dim)
    return system.forcing.at(k)


def _direct_step(system):
    """Rows z(1 - r) .. z(horizon) stepped point by point: the O(K^2 n) loop.

    Each point solves (I - M) z(k) = N z(k - r) + f(k) - (history sum) with
    its own dot product and ``np.linalg.solve``.  It stops after the first
    non-finite row, leaving zeros after it.  This is the reference the
    blocked :func:`step_solve` must reproduce to rounding.
    """
    r, K, n = system.delay, system.horizon, system.dim
    ImM = np.eye(n) - system.M
    weights = monomial_run(-system.alpha - 1.0, K + r)
    V = np.zeros((K + r, n))
    V[:r] = system.phi.values
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            pos = k + r - 1
            history = weights[pos:0:-1] @ V[:pos]
            rhs = system.N @ V[k - 1] + forcing_at(system, k) - history
            V[pos] = np.linalg.solve(ImM, rhs)
            if not np.isfinite(V[pos]).all():
                break
    return V


def stepping_system(kind, n, delay, horizon, forced, seed):
    """A random system of one of three kinds for the stepping agreement tests.

    ``damped``: M = -0.3 I + S as in the long-horizon benchmark; ``growing``:
    undamped, |z| reaches 1e5-1e81 by k = 611; ``ill``: I - M has
    condition about 1e8 (one heavily damped direction, rotated).
    """
    rng = np.random.default_rng(seed)
    A, C = rng.normal(size=(2, n, n))
    A /= np.linalg.norm(A, 1)
    C /= np.linalg.norm(C, 1)
    if kind == "damped":
        M, N = -0.3 * np.eye(n) + 0.1 * A, 0.15 * C
    elif kind == "growing":
        M, N = 0.3 * np.eye(n) + 0.1 * A, 0.3 * C
    else:
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        M, N = np.eye(n) - Q @ np.diag([1e8] + [1.0] * (n - 1)) @ Q.T, 0.15 * C
    forcing = rng.normal(size=(horizon, n)) if forced else None
    return DelaySystem(0.6, delay, M, N, rng.normal(size=(delay, n)), forcing, horizon)


def assert_agrees_with_direct_loop(system):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = step_solve(system).values.values
        want = _direct_step(system)
    assert np.isfinite(want).all()
    np.testing.assert_array_equal(got[: system.delay], system.phi.values)
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(want).max(axis=1)))
    deviation = np.abs(got - want).max(axis=1)
    assert np.all(deviation <= 1e-12 * scale), (system.delay, system.horizon)
    return got


KINDS = [("damped", 1), ("damped", 3), ("damped", 8), ("growing", 1), ("growing", 3),
         ("growing", 8), ("ill", 3), ("ill", 8)]


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

    def test_forcing_dimension_must_match_phi(self):
        with pytest.raises(ValueError, match=r"^forcing has dimension 1 but phi has 2$"):
            DelaySystem(0.5, 2, M2, N2, np.zeros((2, 2)), forcing=np.ones((3, 1)), horizon=3)

    def test_forcing_must_cover_horizon(self):
        with pytest.raises(ValueError, match="forcing"):
            scalar_system(forcing=np.ones((3, 1)), horizon=5)

    @pytest.mark.parametrize("field", ["phi", "forcing"])
    @pytest.mark.parametrize("values", [[], [[0.1], [0.1, 0.2]]], ids=["empty", "ragged"])
    def test_table_faults_name_the_field(self, field, values):
        tables = {"phi": [[0.1], [0.2]], "forcing": [[0.0]] * 3, field: values}
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            DelaySystem(0.5, 2, [[0.1]], [[0.1]], horizon=3, **tables)

    def test_no_forcing_steps_as_a_zero_table(self):
        unforced = planar_system(horizon=20)
        zero = planar_system(horizon=20, forcing=np.zeros((20, 2)))
        assert step_solve(unforced).values.values.tobytes() == (
            step_solve(zero).values.values.tobytes())

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

    @pytest.mark.parametrize("fault", [
        {"delay": 0}, {"delay": 1.5}, {"N": np.eye(2)}, {"policy": {"tol": 1e-9}},
    ], ids=["delay-zero", "delay-float", "pair-shapes", "policy-type"])
    def test_shared_rules_raise_the_dpml_parameters_text(self, fault):
        # The delay, M/N pair and policy rules are DpmlParams', so a system
        # that breaks one raises its error and text.
        fields = {"delay": 1, "M": [[0.1]], "N": [[0.1]], "policy": TruncationPolicy(), **fault}
        with pytest.raises((ValueError, TypeError)) as want:
            DpmlParams(0.5, 0.5, fields["delay"], fields["M"], fields["N"], fields["policy"])
        with pytest.raises(type(want.value)) as got:
            DelaySystem(0.5, phi=[[1.0]], horizon=3, **fields)
        assert str(got.value) == str(want.value)

    def test_params_follow_the_fields(self):
        # The system is checked once and frozen: its params are built once,
        # and a system with another field is a new one, checked again.
        system = planar_system(horizon=5)
        params = system.params
        assert (params.alpha, params.beta, params.r) == (0.5, 0.5, 2)
        assert params.M is system.M and params.N is system.N
        assert params.policy is system.policy
        assert system.params is params
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.N = 0.5 * N2
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got 1\.5$"):
            dataclasses.replace(system, alpha=1.5)
        np.testing.assert_array_equal(dataclasses.replace(system, N=0.5 * N2).params.N, 0.5 * N2)

    @pytest.mark.parametrize("build", [
        lambda: planar_system(horizon=5, forcing=np.ones((5, 2))),
        lambda: DpmlParams(0.5, 0.5, 2, M2, N2),
        lambda: GridSeries(1, [[1.0, 2.0]]),
    ], ids=["DelaySystem", "DpmlParams", "GridSeries"])
    def test_every_field_is_frozen(self, build):
        # No field can be set past the checks, not even to its own value.
        instance = build()
        for f in dataclasses.fields(instance):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, f.name, getattr(instance, f.name))

    @pytest.mark.parametrize("edit", [1.0, np.nan], ids=["singular", "nan"])
    def test_a_later_edit_of_the_callers_arrays_changes_nothing(self, edit):
        # The system holds its own copies: M = 0.2 edited to 1.0 (I - M
        # singular) or nan after construction, and phi and forcing given as
        # a GridSeries edited alike, leave the solve as it was.
        M, N = np.array([[0.2]]), np.array([[0.1]])
        phi, forcing = GridSeries(-1, [[1.0], [1.0]]), GridSeries(1, np.ones((6, 1)))
        system = DelaySystem(0.5, 2, M, N, phi, forcing, horizon=6)
        assert system.phi is not phi and system.forcing is not forcing
        assert (system.phi.base, system.forcing.base) == (-1, 1)
        want = step_solve(system).values.values.tobytes()
        for caller in (M, N, phi.values, forcing.values):
            caller[0, 0] = edit
        assert step_solve(system).values.values.tobytes() == want
        assert system.condition == np.linalg.cond([[0.8]], 1)

    @pytest.mark.parametrize("held", [
        lambda s: s.M, lambda s: s.N, lambda s: s.params.M, lambda s: s.params.N,
        lambda s: s.phi.values, lambda s: s.forcing.values,
    ], ids=["M", "N", "params.M", "params.N", "phi", "forcing"])
    def test_held_arrays_are_read_only(self, held):
        system = planar_system(horizon=5, forcing=np.ones((5, 2)))
        with pytest.raises(ValueError, match="read-only"):
            held(system)[0, 0] = np.nan

    @pytest.mark.parametrize("build", [
        lambda: planar_system(horizon=5),
        lambda: DpmlParams(0.5, 0.5, 2, M2, N2),
    ], ids=["DelaySystem", "DpmlParams"])
    def test_compares_and_hashes_by_identity(self, build):
        # Two n = 2 instances built alike are two values: == neither
        # raises on their arrays nor calls them equal.
        a, b = build(), build()
        assert a == a and not a == b and a != b
        assert len({a, b}) == 2

    def test_condition_is_the_one_norm_condition_of_i_minus_m(self):
        system = planar_system(horizon=5)
        assert type(system.condition) is float
        assert system.condition == np.linalg.cond(np.eye(2) - M2, 1)
        # A singular I - M still builds; only the stepping oracle rejects it.
        singular = scalar_system(m=1.0, horizon=5)
        assert singular.condition == math.inf
        with pytest.raises(SingularityError, match="M has eigenvalue 1$"):
            step_solve(singular)


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
        system = planar_system(horizon=25)
        trace = step_solve(system)
        assert trace.residuals is None
        residuals = _equation_residuals(system, trace.values.values)
        assert residuals.shape == (25,)
        assert float(np.max(residuals)) <= 1e-12

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

    @pytest.mark.parametrize("M, eigenvalue", [
        ([[1.0]], "1"), ([[1.0, 1.0], [-1e-16, 1.0]], "1+1e-08j"),
    ], ids=["exactly-singular", "complex-eigenvalue"])
    def test_singular_implicit_matrix_names_the_nearest_eigenvalue(self, tmp_path, M, eigenvalue):
        # I - M is exactly singular, or has condition 1e16 with the complex
        # pair 1 +- 1e-8j nearest 1: the library raises, the CLI exits 1.
        n = len(M)
        system = DelaySystem(0.5, 1, M, np.zeros((n, n)), np.ones((1, n)), horizon=3)
        with pytest.raises(SingularityError, match=rf"M has eigenvalue {re.escape(eigenvalue)}$"):
            step_solve(system)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.5, "delay": 1, "horizon": 3, "M": M,
                                      "N": np.zeros((n, n)).tolist(), "phi": [[1.0] * n]}))
        out = tmp_path / "o.csv"
        assert main(["solve", "--method", "step", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()

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


class TestBlockedStepping:
    """The blocked FFT recurrence of step_solve against the point-by-point loop."""

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("kind,dim", KINDS)
    def test_agrees_at_every_leaf_edge(self, monkeypatch, kind, dim, forced):
        # Leaves of B = 8 rows: one partial leaf, exact multiples of B, one
        # row past them, and delays on both sides of the leaf length.
        B = 8
        monkeypatch.setattr(solver, "_leaf_rows", lambda K, n: min(K, B))
        for delay in (1, B - 1, B, B + 1, 10):
            for horizon in (1, 2, B - 1, B, B + 1, 203):
                assert_agrees_with_direct_loop(
                    stepping_system(kind, dim, delay, horizon, forced, seed=delay + horizon)
                )

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("kind,dim", KINDS)
    def test_agrees_at_the_default_leaf_length(self, kind, dim, forced):
        for horizon in (203, 437, 611):
            B = solver._leaf_rows(horizon, dim)
            for delay in (1, B - 1, B, B + 1, 10):
                assert_agrees_with_direct_loop(
                    stepping_system(kind, dim, delay, horizon, forced, seed=delay + horizon)
                )

    def test_near_singular_implicit_matrix_with_an_idle_direction(self):
        # I - M has the eigenvalue 1e-8 (condition about 7e7) on a component
        # that no datum feeds, so the recurrence keeps it at exactly 0.  The
        # leaf's impulse response grows by 5e7 a point there and overflows
        # within 40 points; leaves must stop short of that, or inf * 0 would
        # put nan into the trajectory.
        horizon = 2000
        assert solver._leaf_rows(horizon, 2) > 60
        system = DelaySystem(
            0.5, 2, np.diag([1.0 - 1e-8, 0.3]), np.diag([0.0, 0.2]),
            [[0.0, 1.0], [0.0, -0.5]], horizon=horizon,
        )
        assert step_solve(system).condition > 1e7
        assert not np.any(assert_agrees_with_direct_loop(system)[:, 0])

    # alpha, delay, diagonal of M, diagonal of N, phi, dimension, horizon and
    # where the first overflow falls relative to the default leaves.
    OVERFLOWS = [
        (0.6, 1, 0.9, 0.9, 1.0, 1, 3000, "mid-leaf"),
        (0.9, 3, 0.95, 2.0, 1.0, 3, 1900, "mid-leaf"),
        (0.3, 4, 0.6, 0.5, 1e-100, 2, 6000, "mid-leaf"),
        (0.6, 1, 0.9, 0.9, 1.0, 1, 1900, "leaf boundary"),
        (0.5, 1, 0.999, 0.5, 1.0, 1, 300, "leaf boundary"),
        (0.5, 1, 0.999, 0.5, 1.0, 1, 3000, "first leaf"),
        (0.8, 1, 0.999, 0.9, 1.0, 1, 6000, "first leaf"),
        # Slow growth keeps |z| above 1e300 for long: transforms of unscaled
        # blocks would overflow five points before the trajectory does.
        (0.3, 1, 0.5, 0.55, 1.0, 1, 1900, "mid-leaf"),
        # N z(k - 20) overflows for a row late in the leaf while the first
        # rows are still finite: its inf must not reach them as 0 * inf.
        (0.5, 20, 0.3, 2.7, 1.0, 1, 5283, "mid-leaf"),
    ]

    @pytest.mark.parametrize("alpha,delay,m,n,phi,dim,horizon,where", OVERFLOWS)
    def test_overflow_names_the_first_point_of_the_direct_loop(
        self, alpha, delay, m, n, phi, dim, horizon, where
    ):
        M = m * np.eye(dim) + 0.05 * (np.ones((dim, dim)) - np.eye(dim))
        system = DelaySystem(
            alpha, delay, M, n * np.eye(dim), np.full((delay, dim), phi), horizon=horizon
        )
        direct = _direct_step(system)
        first = int(np.flatnonzero(~np.isfinite(direct).all(axis=1))[0]) + 1 - delay
        u, B = first - 1, solver._leaf_rows(horizon, dim)
        assert where == ("first leaf" if u < B else "leaf boundary" if u % B == 0 else "mid-leaf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"overflowed float64 at k = {first}$"):
                step_solve(system)


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
        got = _equation_residuals(system, z.values)
        assert got.shape == (K,)
        for k in range(1, K + 1):
            zk, zd, f = z.at(k), z.at(k - delay), forcing_at(system, k)
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

    def test_zero_before_the_initial_interval(self):
        system = planar_system(horizon=6)
        for k in (-2, -7):
            assert homogeneous_part(system, k).tobytes() == np.zeros(2).tobytes()

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


    def test_raises_past_the_stored_forcing(self):
        # The forcing need only cover [1, horizon]; past its end forced_part
        # raises, while homogeneous_part and an unforced system take any k.
        forced = scalar_system(forcing=np.ones((14, 1)), horizon=12)
        forced_part(forced, 14)
        with pytest.raises(GridRangeError, match=r"grid point 15 outside stored range \[1, 14\]"):
            forced_part(forced, 15)
        assert np.isfinite(homogeneous_part(forced, 40)).all()
        np.testing.assert_array_equal(forced_part(scalar_system(horizon=12), 40), np.zeros(1))
        # The range is checked before any series work: a divergent pair
        # raises the range error, with no convergence warning first.
        divergent = DelaySystem(0.9, 1, [[0.9]], [[0.9]], [[1.0]], forcing=np.ones((5, 1)),
                                horizon=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = "grid point 60 outside stored range [1, 5]"
            with pytest.raises(GridRangeError, match=rf"^{re.escape(text)}$"):
                forced_part(divergent, 60)


class TestGRows:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("r", [1, 2, 5, 10])
    def test_history_rows_are_the_pointwise_weights(self, r, n):
        # w(s) = rl_difference(alpha, -r, phi, s) - M phi(s), within 1e-14
        # of the sum of its terms' sizes, at every history point.
        rng = np.random.default_rng(10 * r + n)
        M, N = 0.3 * rng.normal(size=(2, n, n))
        system = DelaySystem(0.6, r, M, N, rng.normal(size=(r, n)), horizon=5)
        got = solver._g_rows(system, 1 - r, 0)
        assert got.shape == (r, n)
        phi = system.phi
        for s in range(1 - r, 1):
            want = rl_difference(0.6, -r, phi, s) - M @ phi.at(s)
            weights = np.abs(monomial_run(-1.6, s + r))[::-1]
            size = weights @ np.abs(phi.values[: s + r]) + np.abs(M) @ np.abs(phi.at(s))
            assert np.all(np.abs(got[s + r - 1] - want) <= 1e-14 * size), s

    @pytest.mark.parametrize("r", [1, 3])
    def test_windows_read_the_history_then_the_forcing(self, r):
        rng = np.random.default_rng(r)
        M, N = 0.3 * rng.normal(size=(2, 2, 2))
        system = DelaySystem(0.6, r, M, N, rng.normal(size=(r, 2)),
                             forcing=rng.normal(size=(6, 2)), horizon=6)
        full = solver._g_rows(system, 1 - r, 6)
        assert full.shape == (6 + r, 2)
        assert full[r:].tobytes() == system.forcing.values.tobytes()
        assert solver._g_rows(system, 1, 4).tobytes() == full[r : r + 4].tobytes()
        for s1 in range(1 - r, 1):
            np.testing.assert_allclose(solver._g_rows(system, 1 - r, s1), full[: s1 + r],
                                       rtol=1e-14, atol=0)


class TestPartsReadOnlyWhatTheyUse:
    """Each part asks for the DPML values it sums, in one stack call, and
    equals the matching part of the full trajectory."""

    @staticmethod
    def system(r, forced, seed=5):
        rng = np.random.default_rng(seed + r)
        M, N = 0.15 * rng.normal(size=(2, 2)), 0.15 * rng.normal(size=(2, 2))
        forcing = rng.normal(size=(40, 2)) if forced else None
        return DelaySystem(0.6, r, M, N, rng.normal(size=(r, 2)), forcing=forcing, horizon=40)

    @staticmethod
    def majorant(system, k):
        """1 + sum_s |Phi|(k - r - s + 1) |g(s)|, with Phi of (|M|, |N|): it
        bounds the sum of term magnitudes either route adds up at k."""
        r = system.delay
        params = DpmlParams(0.6, 0.6, r, np.abs(system.M), np.abs(system.N))
        phi = np.abs(solver.DpmlFunction(params).stack(1 - r, k))
        g = np.abs(solver._g_rows(system, 1 - r, k))
        return 1.0 + np.tensordot(phi, g[::-1], axes=([0, 2], [0, 1])).max()

    @staticmethod
    def record_stacks(monkeypatch):
        calls = []
        stack = solver.DpmlFunction.stack

        def recording(fn, kmin, kmax):
            calls.append((kmin, kmax))
            return stack(fn, kmin, kmax)

        monkeypatch.setattr(solver.DpmlFunction, "stack", recording)
        return calls

    @pytest.mark.parametrize("r", [1, 3])
    def test_stack_calls(self, r, monkeypatch):
        calls = self.record_stacks(monkeypatch)
        system = self.system(r, True)
        for k in (1 - r, 0, 1, r, r + 1, 40):
            calls.clear()
            homogeneous_part(system, k)
            assert calls == [(max(1 - r, k + 1 - r), k)]
            assert k - calls[0][0] + 1 <= r
            calls.clear()
            forced_part(system, k)
            assert calls == ([(1 - r, k - r)] if k >= 1 else [])

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_parts_equal_the_trajectory(self, r, forced):
        system = self.system(r, forced)
        history_only = DelaySystem(0.6, r, system.M, system.N, system.phi, horizon=40)
        forcing_only = DelaySystem(0.6, r, system.M, system.N, np.zeros((r, 2)),
                                   forcing=system.forcing, horizon=40)
        for k in (1 - r, 0, 1, r, r + 1, 40):
            # One stack row and a many-row stack round differently, as do
            # the contraction and the trajectory loop.
            bound = 1e-13 * self.majorant(system, k)
            z_history = _closed_trajectory(history_only, k)[-1]
            z_forcing = _closed_trajectory(forcing_only, k)[-1]
            assert np.abs(homogeneous_part(system, k) - z_history).max() <= bound
            assert np.abs(forced_part(system, k) - z_forcing).max() <= bound
            if not forced:
                np.testing.assert_array_equal(forced_part(system, k), np.zeros(2))


def per_lag_trajectory(system, kmax, commutative=False):
    """Rows z(1 - r) .. z(kmax) summed lag by lag, with the sizes of their terms.

    z(q) = sum_t Psi(t) g(q - t), Psi(t) = Phi(t + 1 - r), one matrix
    product per lag t: the reference the convolution in
    :func:`_closed_trajectory` must reproduce to rounding.
    """
    r = system.delay
    length = kmax + r
    g = solver._g_rows(system, 1 - r, kmax)
    psi = DpmlFunction(system.params, commutative).stack(1 - r, kmax)
    z, size = np.zeros_like(g), np.zeros_like(g)
    for t in range(length):
        z[t:] += g[: length - t] @ psi[t].T
        size[t:] += np.abs(g[: length - t]) @ np.abs(psi[t]).T
    return z, size


class TestClosedTrajectory:
    @staticmethod
    def system(n, r, K, commuting):
        rng = np.random.default_rng(100 * n + 10 * r + K)
        if commuting:
            # One orthogonal basis diagonalises both, so MN = NM to rounding.
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            M, N = (Q * rng.uniform(-0.2, 0.2, size=(2, 1, n))) @ Q.T
        else:
            M, N = rng.normal(size=(2, n, n))
            M *= 0.2 / np.linalg.norm(M, 1)
            N *= 0.2 / np.linalg.norm(N, 1)
        return DelaySystem(0.6, r, M, N, rng.normal(size=(r, n)),
                           forcing=rng.normal(size=(K, n)), horizon=K)

    @pytest.mark.parametrize("commutative", [False, True], ids=["plain", "commutative"])
    @pytest.mark.parametrize("K", [1, 40, 160])
    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_the_per_lag_sum(self, n, r, K, commutative):
        # Within 1e-14 of the sum of the terms' sizes at every entry.
        system = self.system(n, r, K, commutative)
        got = _closed_trajectory(system, K, commutative)
        want, size = per_lag_trajectory(system, K, commutative)
        assert got.shape == (K + r, n)
        assert np.all(np.abs(got - want) <= 1e-14 * size)


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

    @staticmethod
    def probe_system(seed):
        """The cancellation probe system of ROADMAP.md: n = 2, r = 2, K = 400,
        alpha = 0.6, M and N normal with 1-norm 0.3, phi normal."""
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(2, 2))
        M *= 0.3 / np.linalg.norm(M, 1)
        N = rng.normal(size=(2, 2))
        N *= 0.3 / np.linalg.norm(N, 1)
        return DelaySystem(0.6, 2, M, N, rng.normal(size=(2, 2)), horizon=400)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_oracle_pointwise_on_growing_solutions(self, seed):
        # The probe seeds where the series is accurate: |z| grows to
        # 1e10 .. 1e20, and every point must match the oracle to 1e-10 of
        # its own size, not of the largest.  A whole-trajectory FFT
        # convolution scaled by powers of two misses this at early points
        # by 1e-6 to 2e5 relative.
        system = self.probe_system(seed)
        closed = closed_form_solve(system).values.values
        oracle = step_solve(system).values.values
        gap = np.abs(closed - oracle).max(axis=1)
        assert np.all(gap <= 1e-10 * np.abs(oracle).max(axis=1))

    @pytest.mark.parametrize("seed", [1, 2, 4, 5, 6, 7, 8, 10, 11])
    def test_raises_or_matches_oracle_on_cancelling_seeds(self, seed):
        # The probe seeds where float64 cannot vouch for the series: the
        # closed form must raise DivergenceError or stay within 1e-8 of the
        # trajectory's size of the oracle.
        system = self.probe_system(seed)
        try:
            closed = closed_form_solve(system).values.values
        except DivergenceError:
            return
        oracle = step_solve(system).values.values
        assert np.abs(closed - oracle).max() <= 1e-8 * np.abs(oracle).max()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_trace_carries_the_residuals_it_was_checked_by(self, seed):
        # Seed 0's series is accurate, seed 7's cancels: its relative
        # residual first passes the budget at k = 147.
        system = self.probe_system(seed)
        for route in (closed_form_solve, delta_solve):
            if seed == 7:
                with pytest.raises(DivergenceError, match=r"at k = 147\b"):
                    route(system)
                continue
            trace = route(system)
            z = trace.values.values
            want = _equation_residuals(system, z)
            assert trace.residuals.tobytes() == want.tobytes()
            assert np.all(trace.residuals <= 1e-7 * np.maximum(1.0, np.abs(z[2:]).max(axis=1)))

    def test_cli_exits_3_naming_k_on_a_cancelling_seed(self, tmp_path, capsys):
        system = self.probe_system(7)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "alpha": system.alpha, "delay": system.delay, "horizon": system.horizon,
            "M": system.M.tolist(), "N": system.N.tolist(), "phi": system.phi.values.tolist(),
        }))
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and "at k = 147:" in err
        assert not out.exists()
        assert main(["verify", "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert "closed form unavailable: " in captured.err
        assert "at k = 147:" in captured.err
        assert captured.out.rstrip().endswith("FAIL")

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


@pytest.fixture(scope="module")
def probe_reference():
    """reference_solve of a probe seed's system at 60 digits, one solve per seed."""
    solved = {}

    def solve(seed):
        if seed not in solved:
            s = TestClosedFormSolve.probe_system(seed)
            solved[seed] = reference_solve(s.alpha, s.M, s.N, s.phi.values, s.horizon)
        return solved[seed]

    return solve


def pointwise_error(got, want):
    """Max over k of max|got(k) - want(k)| / max|want(k)|, in Decimal.

    Rows of floats or Decimals; Decimal(x) of a float is exact.
    """
    return max(
        max(abs(Decimal(g) - w) for g, w in zip(got_row, want_row))
        / max(abs(w) for w in want_row)
        for got_row, want_row in zip(got, want)
    )


class TestReferenceSolution:
    """The stepping oracle against the 60-digit stepper of tests/_reference.py."""

    @pytest.mark.parametrize("seed", range(12))
    def test_step_solve_matches_the_reference_pointwise(self, probe_reference, seed):
        # Measured 1.7e-15 .. 3.7e-14 over the 12 probe seeds, relative to
        # |z(k)| at each point, where |z| spans 0.6 .. 1.6e20.
        want = probe_reference(seed)
        got = step_solve(TestClosedFormSolve.probe_system(seed)).values.values
        assert len(got) == len(want) == 402
        assert pointwise_error(got, want) <= 1e-12

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("seed", [0, 7, 8])
    def test_stepped_impulse_response_matches_the_reference_pointwise(self, seed, i):
        # Zero phi and forcing e_i at s = 1 give column i of Phi(k - r) at
        # k >= 1, the stepped impulse response.  Measured 1.1e-15 .. 3.7e-14
        # over the 12 probe seeds and both columns, relative to |z(k)| at
        # each point.
        probe = TestClosedFormSolve.probe_system(seed)
        forcing = np.zeros((probe.horizon, 2))
        forcing[0, i - 1] = 1.0
        system = DelaySystem(probe.alpha, probe.delay, probe.M, probe.N, np.zeros((2, 2)),
                             forcing=forcing, horizon=probe.horizon)
        want = reference_solve(system.alpha, system.M, system.N, system.phi.values,
                               system.horizon, forcing)
        got = step_solve(system).values.values
        assert len(got) == len(want) == 402
        assert pointwise_error(got[2:], want[2:]) <= 1e-12

    def test_reference_digits_suffice(self, probe_reference):
        # 60 and 90 digits agree to 5e-58 relative on seed 0.
        s = TestClosedFormSolve.probe_system(0)
        finer = reference_solve(s.alpha, s.M, s.N, s.phi.values, s.horizon, digits=90)
        assert pointwise_error(probe_reference(0), finer) <= Decimal("1e-50")

    def test_reference_solves_the_hand_worked_first_step(self):
        # alpha = 1/2, r = 2, M = 1/5, N = 1/10, phi = 1, f = 0: z(1) = 29/32.
        z = reference_solve(0.5, [[0.2]], [[0.1]], [[1.0], [1.0]], 1)
        assert abs(z[2][0] - Decimal(29) / 32) < Decimal("1e-16")


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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_tolerance(self, tol):
        with pytest.raises(ValueError, match=rf"^tol must lie in \[0, inf\), got {tol!r}$"):
            verify(scalar_system(delay=2, horizon=8), tol=tol)

    def test_tolerance_is_respected(self):
        system = scalar_system(horizon=10)
        strict = verify(system, tol=1e-8)
        loose = verify(system, tol=1e-2)
        assert strict.tol == 1e-8 and loose.tol == 1e-2
        assert loose.passed


def count_calls(monkeypatch, name, *modules):
    """Wrap ``name`` wherever one of ``modules`` binds it; return the call log."""
    calls = []

    def wrap(original):
        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return counting

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return calls


class TestCallStructure:
    """Each closed route computes its trajectory and checks it once; verify
    reads that check, and the stepping oracle computes no residuals."""

    def test_closed_routes_compute_the_residuals_once(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, "_equation_residuals", solver)
        system = planar_system(horizon=12)
        trace = step_solve(system)
        assert calls == []
        assert trace.residuals is None
        commuting = DelaySystem(0.5, 2, np.diag([0.2, 0.1]), np.diag([0.1, 0.3]),
                                np.ones((2, 2)), horizon=12)
        for route, routed in ((closed_form_solve, system), (commutative_solve, commuting),
                              (delta_solve, system)):
            calls.clear()
            assert route(routed).residuals.shape == (12,)
            assert len(calls) == 1
        calls.clear()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "alpha": 0.5, "delay": 2, "horizon": 12, "M": M2.tolist(), "N": N2.tolist(),
            "phi": system.phi.values.tolist(),
        }))
        argv = ["solve", "--config", str(config), "--method", "step",
                "--out", str(tmp_path / "trace.csv")]
        assert main(argv) == 0
        assert calls == []
        report = verify(system)
        assert len(calls) == 1
        assert report.oracle.residuals is None
        assert report.closed.residuals.shape == (12,)

    def test_routes_read_the_parts_the_system_built_once(self, monkeypatch):
        # A built system's DpmlParams and cond(I - M) are read, never rebuilt,
        # by the parts and every route; construction makes each once.
        system = planar_system(horizon=12, forcing=np.ones((12, 2)))
        builds = count_calls(monkeypatch, "DpmlParams", solver)
        conds = count_calls(monkeypatch, "cond", np.linalg)
        homogeneous_part(system, 5)
        forced_part(system, 5)
        closed_form_solve(system)
        step_solve(system)
        verify(system)
        assert builds == [] and conds == []
        planar_system(horizon=12)
        assert len(builds) == 1 and len(conds) == 1

    def test_every_route_carries_the_condition_number(self):
        # The same float as the stepping oracle's, bit for bit, on every trace.
        system = DelaySystem(0.5, 2, np.diag([0.2, 0.1]), np.diag([0.1, 0.3]),
                             np.ones((2, 2)), horizon=12)
        want = step_solve(system).condition
        assert type(want) is float and want == system.condition
        report = verify(system)
        traces = [route(system) for route in (closed_form_solve, commutative_solve, delta_solve)]
        for trace in traces + [report.oracle, report.closed]:
            assert type(trace.condition) is float
            assert np.float64(trace.condition).tobytes() == np.float64(want).tobytes()

    def test_closed_form_takes_its_rl_differences_from_two_kernel_runs(self, monkeypatch):
        # The RL differences of phi (the history weights) and of the whole
        # trajectory (the residual) are each one grid_calculus kernel run,
        # told apart from the trajectory's convolution by their
        # monomial_run(-alpha - 1, .) weights, over phi's r rows and then
        # over k = 1 - r .. horizon; no per-point rl_difference.
        # homogeneous_part takes one run, of the weights.
        system = scalar_system(delay=4, horizon=10)
        expected = closed_form_solve(system).values.values
        runs = count_calls(monkeypatch, "_kernel_run", grid_calculus, solver)
        differences = count_calls(monkeypatch, "rl_difference", grid_calculus, solver)

        def rl_runs():
            return [values.shape for weights, values in runs
                    if weights.tobytes() == monomial_run(-1.5, len(weights)).tobytes()]

        np.testing.assert_array_equal(closed_form_solve(system).values.values, expected)
        assert rl_runs() == [(4, 1), (14, 1)]
        assert differences == []
        runs.clear()
        homogeneous_part(system, 3)
        assert rl_runs() == [(4, 1)]
        assert differences == []

    def test_closed_trajectory_is_one_kernel_run_per_column_of_phi(self, monkeypatch):
        # The trajectory sums Phi * g as n kernel runs, one per column b of
        # the DPML values, weighted by g[:, b]; no per-lag loop.
        system = planar_system(horizon=10)
        g = solver._g_rows(system, -1, 10)
        runs = count_calls(monkeypatch, "_kernel_run", grid_calculus, solver)
        _closed_trajectory(system, 10)
        trajectory = [(weights.tobytes(), values.shape) for weights, values in runs[1:]]
        assert trajectory == [(g[:, b].tobytes(), (12, 2)) for b in range(2)]


def warning_call(entry, tmp_path):
    """One entry point and its arguments on a pair whose 1-norms sum to 1.1."""
    M, N = [[0.6]], [[0.5]]
    params = DpmlParams(0.5, 0.5, 2, M, N)
    system = DelaySystem(0.5, 2, M, N, [[1.0], [1.0]], horizon=3)
    figure = ["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "0.6", "--n", "0.5",
              "--delay", "2", "--kmax", "3", "--out", str(tmp_path / "figure.csv")]
    return {
        "DpmlFunction": (DpmlFunction, params),
        "dpml_eval": (dpml_eval, params, 3),
        "ml_eval": (ml_eval, [[0.0, 1.1], [0.0, 0.0]], 0.5, -0.5, 3, 0),
        "closed_form_solve": (closed_form_solve, system),
        "commutative_solve": (commutative_solve, system),
        "delta_solve": (delta_solve, system),
        "homogeneous_part": (homogeneous_part, system, 2),
        "forced_part": (forced_part, system, 2),
        "verify": (verify, system),
        "figure": (main, figure),
    }[entry]


@pytest.mark.parametrize("entry", [
    "DpmlFunction", "dpml_eval", "ml_eval", "closed_form_solve", "commutative_solve",
    "delta_solve", "homogeneous_part", "forced_part", "verify", "figure",
])
def test_convergence_warning_points_at_the_callers_line(tmp_path, entry):
    # However deep in the package the series is reached, the warning names
    # the line that called into it, so a filter on the caller's module
    # selects it.
    call, *args = warning_call(entry, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        call(*args)
    assert [(w.category, w.filename, w.lineno) for w in caught] == [
        (RuntimeWarning, __file__, line)]
    assert "sum of coefficient 1-norms is 1.1 >= 1" in str(caught[0].message)


def overflow_call(entry, tmp_path):
    """One entry point on finite input whose products overflow float64, with
    its outcome: the DivergenceError the series or a closed-form route
    raises, or the inf or nan the products give."""
    big = [[1e308, 1e308], [1e308, -1e308]]
    system = DelaySystem(0.5, 2, big, big, np.ones((2, 2)), horizon=4)
    forced = DelaySystem(0.5, 2, 0.1 * M2, 0.1 * N2, np.ones((2, 2)),
                         np.full((4, 2), 1e308), horizon=4)
    for name in ("m", "n"):
        (tmp_path / f"{name}.json").write_text(json.dumps(big))
    qtable = ["qtable", "--m", str(tmp_path / "m.json"), "--n", str(tmp_path / "n.json"),
              "--imax", "4"]
    return {
        "dpml_eval": (DivergenceError, dpml_eval, DpmlParams(0.5, 0.5, 2, big, big), 3),
        "ml_eval": (DivergenceError, ml_eval, big, 0.5, 0.2, 5, 0),
        "closed_form_solve": (DivergenceError, closed_form_solve, system),
        "commutative_solve": (DivergenceError, commutative_solve, system),
        "homogeneous_part": (DivergenceError, homogeneous_part, system, 2),
        "forced_part": (DivergenceError, forced_part, forced, 3),
        "closed_form_solve-forcing": (DivergenceError, closed_form_solve, forced),
        "nabla_sum": (np.inf, nabla_sum, 0.5, 0, GridSeries(1, np.full((5, 2), 1e308)), 5),
        "WordSumTable.row": (np.nan, WordSumTable(big, big).row, 4),
        "word_sum_commutative": (np.inf, word_sum_commutative, big, big, 3, 1),
        "qtable": (0, main, qtable),
    }[entry]


@pytest.mark.parametrize("entry", [
    "dpml_eval", "ml_eval", "closed_form_solve", "commutative_solve", "homogeneous_part",
    "forced_part", "closed_form_solve-forcing", "nabla_sum", "WordSumTable.row",
    "word_sum_commutative", "qtable",
])
def test_overflow_raises_no_numpy_warning(tmp_path, capsys, entry):
    # Products past the float range give inf and nan, or the series'
    # DivergenceError, and no RuntimeWarning of numpy's: the package's own
    # convergence warning is the only one that may reach the caller.
    want, call, *args = overflow_call(entry, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if want is DivergenceError:
            with pytest.raises(DivergenceError):
                call(*args)
        else:
            got = call(*args)
    assert [str(w.message) for w in caught
            if "sum of coefficient 1-norms" not in str(w.message)] == []
    if entry == "qtable":
        assert got == 0 and "nan" in capsys.readouterr().out
    elif want is not DivergenceError:
        assert (np.isnan(got) if np.isnan(want) else np.isinf(got)).any()


@pytest.mark.parametrize("field", ["delay", "window", "i_max", "divergence_growth", "horizon"])
def test_counts_reject_a_bool(field):
    # True is an int to Python, but not a count: each count field raises
    # the text it raises for 0.
    build = {
        "delay": lambda v: DpmlParams(0.5, 0.5, v, [[0.1]], [[0.1]]),
        "horizon": lambda v: DelaySystem(0.5, 1, [[0.1]], [[0.1]], [[1.0]], horizon=v),
    }.get(field, lambda v: TruncationPolicy(**{field: v}))
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1, got True$"):
        build(True)
    if field == "delay":
        with pytest.raises(ValueError, match=r"^delay must be an integer >= 1, got True$"):
            DelaySystem(0.5, True, [[0.1]], [[0.1]], [[1.0]], horizon=3)


def point_calls():
    """Each public point entry, as a call of its grid point arguments by name."""
    params = DpmlParams(0.5, 0.5, 2, [[0.2]], [[0.1]])
    unit = DpmlParams(1.0, 1.0, 2, [[0.0]], [[0.1]])
    system = scalar_system(forcing=1.0)
    z = GridSeries(-2, np.ones((12, 1)))
    return {
        "DpmlFunction.value": (lambda k: DpmlFunction(params).value(k), "k"),
        "DpmlFunction.stack-kmin": (lambda kmin: DpmlFunction(params).stack(kmin, 4), "kmin"),
        "DpmlFunction.stack-kmax": (lambda kmax: DpmlFunction(params).stack(1, kmax), "kmax"),
        "DpmlFunction.stack-truncated": (
            lambda kmin: DpmlFunction(params).stack(kmin, kmin, 5)[0], "kmin"),
        "dpml_eval": (lambda k: dpml_eval(params, k), "k"),
        "ml_eval-k": (lambda k: ml_eval([[0.2]], 0.5, -0.5, k, 0), "k"),
        "ml_eval-a": (lambda a: ml_eval([[0.2]], 0.5, -0.5, 4, a), "a"),
        "ml_partial_sum-k": (lambda k: ml_partial_sum([[0.2]], 0.5, -0.5, k, 0, 5), "k"),
        "ml_partial_sum-a": (lambda a: ml_partial_sum([[0.2]], 0.5, -0.5, 4, a, 5), "a"),
        "special_reductions": (lambda k: special_reductions(unit, k), "k"),
        "homogeneous_part": (lambda k: homogeneous_part(system, k), "k"),
        "forced_part": (lambda k: forced_part(system, k), "k"),
        "GridSeries.at": (lambda k: z.at(k), "k"),
        "rl_difference-a": (lambda a: rl_difference(0.5, a, z, 8), "a"),
        "rl_difference-k": (lambda k: rl_difference(0.5, -3, z, k), "k"),
        "nabla_sum-a": (lambda a: nabla_sum(0.5, a, z, 8), "a"),
        "nabla_sum-k": (lambda k: nabla_sum(0.5, -3, z, k), "k"),
    }


@pytest.mark.parametrize("point", [3.0, 3.5, np.float64(3.0), "3", True],
                         ids=["float", "fraction", "numpy-float", "str", "bool"])
@pytest.mark.parametrize("entry", list(point_calls()))
def test_point_entries_reject_a_non_integer_point(entry, point):
    # One TypeError naming the argument, not a raw numpy error or an
    # IndexError that reads as a range fault.
    call, name = point_calls()[entry]
    with pytest.raises(TypeError, match=rf"^{name} must be an integer grid point, got "):
        call(point)
    want = call(3)
    assert call(np.int64(3)).tobytes() == want.tobytes()


def _placed(series):
    # Where a series sits and what it holds, as one array.
    return np.append([series.base, series.end], series.values)


def integer_calls():
    """Each public integer argument outside point_calls(), as (call, name, lowest).

    A grid point (lowest None) follows the grid point rule, a TypeError; a
    count or index follows the count rule from ``lowest``, a ValueError.
    """
    params = DpmlParams(0.5, 0.5, 2, [[0.2]], [[0.1]])
    table = WordSumTable(M2, N2)
    D = np.diag([0.2, 0.3])
    return {
        "monomial-k": (lambda k: np.float64(monomial(0.5, k, 0)), "k", None),
        "monomial-a": (lambda a: np.float64(monomial(0.5, 6, a)), "a", None),
        "GridSeries-base": (lambda base: _placed(GridSeries(base, [1.0, 2.0])), "base", None),
        "GridSeries.constant-base": (
            lambda base: _placed(GridSeries.constant(base, 5, [1.0])), "base", None),
        "GridSeries.constant-end": (
            lambda end: _placed(GridSeries.constant(1, end, [1.0])), "end", None),
        "GridSeries.from_function-base": (
            lambda base: _placed(GridSeries.from_function(base, 5, float)), "base", None),
        "GridSeries.from_function-end": (
            lambda end: _placed(GridSeries.from_function(1, end, float)), "end", None),
        "monomial_run": (lambda count: monomial_run(0.5, count), "count", 0),
        "DpmlParams-delay": (
            lambda r: np.float64(DpmlParams(0.5, 0.5, r, [[0.2]], [[0.1]]).r), "delay", 1),
        "DelaySystem-horizon": (
            lambda h: np.float64(DelaySystem(0.5, 1, [[0.1]], [[0.1]], [[1.0]], None, h).horizon),
            "horizon", 1),
        "WordSumTable.row": (lambda i: table.row(i), "i", 0),
        "WordSumTable.value-i": (lambda i: table.value(i, 1), "i", 0),
        "WordSumTable.value-j": (lambda j: table.value(4, j), "j", -1),
        "word_sum_commutative-i": (lambda i: word_sum_commutative(D, D, i, 1), "i", 0),
        "word_sum_commutative-j": (lambda j: word_sum_commutative(D, D, 4, j), "j", -1),
        "DpmlFunction.stack-imax": (
            lambda imax: DpmlFunction(params).stack(4, 4, imax)[0], "imax", 0),
        "ml_partial_sum": (
            lambda imax: ml_partial_sum([[0.2]], 0.5, -0.5, 4, 0, imax), "imax", 0),
    }


@pytest.mark.parametrize("entry", list(integer_calls()))
def test_integer_arguments_follow_one_rule(entry):
    # A fraction, a bool and the first integer below the floor each raise
    # the rule's own exception and text, not a raw error or a silently
    # truncated value; an np.integer reads as the int it holds.
    call, name, lowest = integer_calls()[entry]
    if lowest is None:
        cases = [(TypeError, v, f"{name} must be an integer grid point, got {v!r}")
                 for v in (3.5, True)]
    else:
        cases = [(ValueError, v, f"{name} must be an integer >= {lowest}, got {v!r}")
                 for v in (3.5, True, lowest - 1)]
        cases.append((ValueError, -10 ** 5000,
                      f"{name} must be an integer >= {lowest}, got a negative int of 16610 bits"))
    for error, value, text in cases:
        with pytest.raises(error, match=rf"^{re.escape(text)}$"):
            call(value)
    assert call(np.int64(3)).tobytes() == call(3).tobytes()


def real_calls():
    """Each public real argument, as (call, name, interval).

    ``call`` returns what the argument reaches: the stored value of a
    field, else the result computed from it.
    """
    z = GridSeries(-2, np.ones((12, 1)))
    system = scalar_system(delay=2, horizon=6)
    return {
        "DpmlParams-alpha": (
            lambda v: DpmlParams(v, 0.5, 2, [[0.2]], [[0.1]]).alpha, "alpha", "(0, 1]"),
        "DpmlParams-beta": (
            lambda v: DpmlParams(0.5, v, 2, [[0.2]], [[0.1]]).beta, "beta", "(-inf, inf)"),
        "ml_eval-alpha": (lambda v: ml_eval([[0.2]], v, -0.5, 4, 0), "alpha", "(0, 1]"),
        "ml_eval-c": (lambda v: ml_eval([[0.2]], 0.5, v, 4, 0), "c", "(-inf, inf)"),
        "ml_partial_sum-alpha": (
            lambda v: ml_partial_sum([[0.2]], v, -0.5, 4, 0, 5), "alpha", "(0, 1]"),
        "ml_partial_sum-c": (
            lambda v: ml_partial_sum([[0.2]], 0.5, v, 4, 0, 5), "c", "(-inf, inf)"),
        "DelaySystem-alpha": (
            lambda v: DelaySystem(v, 1, [[0.1]], [[0.1]], [[1.0]], horizon=3).alpha,
            "alpha", "(0, 1)"),
        "rl_difference": (lambda v: rl_difference(v, -3, z, 8), "alpha", "(0, 1)"),
        "nabla_sum": (lambda v: nabla_sum(v, -3, z, 8), "alpha", "(0, inf)"),
        # The frozen policy keeps the value it is given: the series it
        # stops shows what it read.
        "TruncationPolicy-tol": (
            lambda v: ml_eval([[0.2]], 0.5, -0.5, 9, 0, TruncationPolicy(tol=v)),
            "tol", "(0, inf)"),
        "verify-tol": (lambda v: verify(system, tol=v).tol, "tol", "[0, inf)"),
        "monomial": (lambda v: monomial(v, 6, 0), "mu", "(-inf, inf)"),
        "monomial_run": (lambda v: monomial_run(v, 5), "mu", "(-inf, inf)"),
    }


@pytest.mark.parametrize("entry", list(real_calls()))
def test_real_arguments_follow_one_rule(entry):
    # A value of another type is a TypeError; NaN, +-inf, an int past the
    # float range and an open finite end of the interval are a ValueError,
    # each with the rule's own text, not a raw error or a value kept as
    # given.  A NumPy real reads as the Python float it holds.
    call, name, interval = real_calls()[entry]
    ends = [0.0] * interval.startswith("(0") + [1.0] * interval.endswith("1)")
    cases = [(TypeError, v, f"{name} must be a real number, got {v!r}")
             for v in (True, "0.5", None, 1j)]
    cases += [(ValueError, v, f"{name} must lie in {interval}, got {v!r}")
              for v in [math.nan, math.inf, -math.inf, 10 ** 400, *ends]]
    # An int past Python's int-to-str digit limit is shown by its size.
    cases.append(
        (ValueError, 10 ** 5000, f"{name} must lie in {interval}, got an int of 16610 bits"))
    for error, value, text in cases:
        with pytest.raises(error, match=rf"^{re.escape(text)}$"):
            call(value)
    pairs = [(np.float64(0.5), 0.5)] + [(np.int64(1), 1.0)] * (not interval.endswith("1)"))
    for value, plain in pairs:
        got, want = call(value), call(plain)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def array_calls():
    """Each reader of array input, as (call, name, square, kept).

    The matrices (``square``) go through ``dpml._as_square``, the grid
    tables through the ``GridSeries`` constructor.  A ``kept`` call returns
    the array a checked object holds, which is read-only.
    """
    zero = np.zeros((2, 2))
    small = [[0.1, 0.0], [0.0, 0.1]]
    phi = [[1.0, 1.0], [1.0, 1.0]]
    return {
        "DpmlParams-M": (lambda A: DpmlParams(0.5, 0.5, 2, A, zero).M, "M", True, True),
        "DpmlParams-N": (lambda A: DpmlParams(0.5, 0.5, 2, zero, A).N, "N", True, True),
        "WordSumTable-M": (lambda A: WordSumTable(A, zero).row(3), "M", True, False),
        "word_sum_commutative-M": (
            lambda A: word_sum_commutative(A, zero, 3, 0), "M", True, False),
        # At the base point the series is M**2 for c = -2 alpha.
        "ml_eval-M": (lambda A: ml_eval(A, 0.5, -1.0, 0, 0), "M", True, False),
        "GridSeries": (lambda A: GridSeries(1, A).values, "values", False, False),
        "DelaySystem-phi": (lambda A: DelaySystem(0.5, 2, small, small, A, horizon=3).phi.values,
                            "phi: values", False, True),
        "DelaySystem-forcing": (
            lambda A: DelaySystem(0.5, 2, small, small, phi, A, horizon=2).forcing.values,
            "forcing: values", False, True),
    }


@pytest.mark.parametrize("entry", list(array_calls()))
def test_array_entries_follow_one_rule(entry):
    # Entries NumPy reads as other than int, uint or float are a TypeError,
    # ragged rows and an empty matrix a ValueError, each naming the field,
    # not a raw numpy error or a value read as 0.1, 1.0 or NaN; int and
    # uint entries read as the floats they hold.  The reader takes its own
    # copy: a later edit of the caller's array changes nothing, and the
    # array a checked object keeps is read-only.
    call, name, square, kept = array_calls()[entry]
    for x in ("0.1", True, None, 1j):
        bad = [[x, x], [x, x]]
        text = f"{name} must hold int or float entries, got dtype {np.asarray(bad).dtype}"
        with pytest.raises(TypeError, match=rf"^{re.escape(text)}$"):
            call(bad)
    text = f"{name} must be a rectangular array, got ragged input"
    with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
        call([[0.1, 0.2], [0.3]])
    if square:
        text = f"{name} must be a nonempty square matrix, got shape (0, 0)"
        with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
            call(np.zeros((0, 0)))
    want = call([[1.0, 0.0], [0.0, 1.0]]).tobytes()
    assert call([[1, 0], [0, 1]]).tobytes() == want
    for dtype in (np.int64, np.uint8, np.float32):
        assert call(np.array([[1, 0], [0, 1]], dtype=dtype)).tobytes() == want
    caller = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = call(caller)
    caller[0, 0] = np.nan
    assert got.tobytes() == want
    assert got.flags.writeable is not kept


def _held(obj):
    """``obj`` if it is an array, else every array the checked object holds."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (GridSeries, DpmlParams, DelaySystem, WordSumTable)):
        return [a for value in vars(obj).values() for a in _held(value)]
    return []


def reduction_params(M, N, D, E, Z):
    """A parameter set of each reduction pattern, in REDUCTION_PATTERNS
    order: D and E commute, Z is zero."""
    return {
        "delayed_exponential": DpmlParams(1.0, 1.0, 2, Z, E),
        "factored_exponential": DpmlParams(1.0, 1.0, 2, D, E),
        "exponential_perturbation": DpmlParams(1.0, 1.0, 2, M, N),
        "delayed_ml": DpmlParams(0.5, 0.5, 2, Z, E),
        "ml": DpmlParams(0.5, 0.5, 2, D, Z),
    }


def value_calls():
    """Each public entry that returns an array, as (calls, inputs).

    ``calls`` maps a name to a call of the entry; ``inputs`` are the
    caller's arrays and the checked objects the calls read.
    """
    rng = np.random.default_rng(5)
    M, N = M2.copy(), N2.copy()
    D, E, Z = np.diag([0.2, 0.3]), np.diag([0.1, 0.2]), np.zeros((2, 2))
    phi, forcing, values = rng.normal(size=(2, 2)), rng.normal(size=(6, 2)), rng.normal(size=(8, 2))
    params = DpmlParams(0.5, 0.5, 2, M, N)
    patterns = reduction_params(M, N, D, E, Z)
    system = DelaySystem(0.5, 2, M, N, phi, forcing, horizon=6)
    commuting = DelaySystem(0.5, 2, D, E, phi, horizon=6)
    table, z = WordSumTable(M, N), GridSeries(0, values)
    trace = step_solve(system).values
    calls = {
        "dpml_eval": lambda: dpml_eval(params, 4),
        "dpml_eval-identity": lambda: dpml_eval(params, -2),
        "DpmlFunction.stack": lambda: DpmlFunction(params).stack(-3, 6),
        "DpmlFunction.stack-imax": lambda: DpmlFunction(params).stack(-3, 6, 4),
        "DpmlFunction.value": lambda: DpmlFunction(params).value(4),
        "ml_eval": lambda: ml_eval(M, 0.5, 0.5, 6, 0),
        # At the base point the series is M**i for c = -i alpha.
        "ml_eval-base-i0": lambda: ml_eval(M, 0.5, 0.0, 3, 3),
        "ml_eval-base-i1": lambda: ml_eval(M, 0.5, -0.5, 3, 3),
        "ml_eval-left": lambda: ml_eval(M, 0.5, 0.5, 2, 3),
        "ml_partial_sum": lambda: ml_partial_sum(M, 0.5, 0.5, 6, 0, 5),
        "ml_partial_sum-base-i1": lambda: ml_partial_sum(M, 0.5, -0.5, 3, 3, 5),
        "WordSumTable.row": lambda: table.row(3),
        "WordSumTable.value": lambda: table.value(3, 1),
        "WordSumTable.value-zero": lambda: table.value(3, 5),
        "word_sum_commutative": lambda: word_sum_commutative(D, E, 3, 1),
        "word_sum_commutative-zero": lambda: word_sum_commutative(D, E, 3, 5),
        "homogeneous_part": lambda: homogeneous_part(system, 4),
        "homogeneous_part-zero": lambda: homogeneous_part(system, -5),
        "forced_part": lambda: forced_part(system, 4),
        "forced_part-zero": lambda: forced_part(system, 0),
        "nabla_sum": lambda: nabla_sum(0.5, 0, z, 4),
        "nabla_sum-empty": lambda: nabla_sum(0.5, 4, z, 4),
        "rl_difference": lambda: rl_difference(0.5, 0, z, 4),
        "monomial_run": lambda: monomial_run(0.5, 6),
        "step_solve": lambda: step_solve(system).values.values,
        "closed_form_solve": lambda: closed_form_solve(system).values.values,
        "commutative_solve": lambda: commutative_solve(commuting).values.values,
        "delta_solve": lambda: delta_solve(system).values.values,
        "verify-oracle": lambda: verify(system).oracle.values.values,
        "verify-closed": lambda: verify(system).closed.values.values,
        "GridSeries.at-trace": lambda: trace.at(1),
        "GridSeries.at-phi": lambda: system.phi.at(0),
    }
    for name, pattern_params in patterns.items():
        # k = 4 in the series range, k = -2 = -r and k = -3 on the left branch.
        for k in (4, -2, -3):
            calls[f"special_reductions-{name}-{k}"] = (
                lambda p=pattern_params, k=k, name=name: special_reductions(p, k, name))
    inputs = [M, N, D, E, Z, phi, forcing, values, params, *patterns.values(), system,
              commuting, table, z, trace]
    return calls, inputs


@pytest.mark.parametrize("entry", list(value_calls()[0]))
def test_value_entries_return_fresh_arrays(entry):
    # Each result is the caller's own: a writeable float64 array that shares
    # no memory with an argument or with an array a checked object holds.
    calls, inputs = value_calls()
    got = calls[entry]()
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.flags.writeable
    for held in (a for obj in inputs for a in _held(obj)):
        assert not np.shares_memory(got, held)


HUGE = 10 ** 5000  # past Python's int-to-str digit limit: 16610 bits


@pytest.mark.parametrize("call, error, text", [
    (lambda: GridSeries(0, [[1.0]]).at(HUGE), GridRangeError,
     "grid point an int of 16610 bits outside stored range [0, 0]"),
    (lambda: nabla_sum(0.5, 0, GridSeries(0, [[1.0]]), HUGE), GridRangeError,
     "operand stored on [0, 0] does not cover [1, an int of 16610 bits]"),
    (lambda: rl_difference(0.5, HUGE, GridSeries(0, [[1.0]]), 0), ValueError,
     "evaluation point 0 must be >= an int of 16610 bits"),
    (lambda: DelaySystem(0.5, 1, [[0.1]], [[0.1]], GridSeries(HUGE, [[1.0]])), ValueError,
     "phi must cover exactly [0, 0], got [an int of 16610 bits, an int of 16610 bits]"),
    (lambda: DelaySystem(0.5, 1, [[0.1]], [[0.1]], [[1.0]], [[1.0]], HUGE), ValueError,
     "forcing must cover [1, an int of 16610 bits], got [1, 1]"),
], ids=["GridSeries.at", "kernel-range", "rl_difference-point", "DelaySystem-phi",
        "DelaySystem-forcing"])
def test_grid_point_texts_show_a_huge_int_by_its_size(call, error, text):
    # Each text keeps its exception and prefix; the int is shown by its
    # size, not through str, which raises past the digit limit.
    with pytest.raises(error, match=rf"^{re.escape(text)}$"):
        call()


def grid_calls():
    """Each entry that sizes a grid from an int argument, as (name, call):
    the argument its text names and a call of the entry at that int.  The
    word-sum entries size a row from its order i."""
    params = DpmlParams(0.5, 0.5, 2, M2, N2)
    phi = np.ones((2, 2))
    unforced = DelaySystem(0.5, 2, M2, N2, phi)
    forced = DelaySystem(0.5, 2, M2, N2, phi, np.ones((3, 2)), horizon=3)
    calls = {
        "dpml_eval": ("k", lambda k: dpml_eval(params, k)),
        "DpmlFunction.value": ("k", lambda k: DpmlFunction(params).value(k)),
        "DpmlFunction.stack-point": ("kmax", lambda k: DpmlFunction(params).stack(k, k)),
        "DpmlFunction.stack-range": ("kmax", lambda k: DpmlFunction(params).stack(0, k)),
        "DpmlFunction.stack-imax": ("kmax", lambda k: DpmlFunction(params).stack(0, k, 3)),
        "DpmlFunction.stack-left": ("kmax", lambda k: DpmlFunction(params).stack(-k, 0)),
        "homogeneous_part": ("k", lambda k: homogeneous_part(unforced, k)),
        "forced_part-unforced": ("k", lambda k: forced_part(unforced, k)),
        "forced_part-forced": ("k", lambda k: forced_part(forced, k)),
        "ml_eval": ("k", lambda k: ml_eval(M2, 0.5, 0.5, k, 0)),
        "ml_partial_sum": ("k", lambda k: ml_partial_sum(M2, 0.5, 0.5, k, 0, 3)),
        "monomial_run": ("count", lambda k: monomial_run(0.5, k)),
        "GridSeries.constant": ("end", lambda k: GridSeries.constant(0, k, [1.0])),
        "DelaySystem": ("horizon", lambda k: DelaySystem(0.5, 2, M2, N2, phi, horizon=k)),
        "WordSumTable.row": ("i", lambda k: WordSumTable(M2, N2).row(k)),
        "WordSumTable.value": ("i", lambda k: WordSumTable(M2, N2).value(k, 1)),
        "word_sum_commutative": (
            "i", lambda k: word_sum_commutative(np.diag([0.2, 0.3]), np.diag([0.1, 0.2]), k, k // 2)),
    }
    patterns = reduction_params(M2, N2, np.diag([0.2, 0.3]), np.diag([0.1, 0.2]), np.zeros((2, 2)))
    for pattern, pattern_params in patterns.items():
        calls[f"special_reductions-{pattern}"] = (
            "k", lambda k, p=pattern_params, pattern=pattern: special_reductions(p, k, pattern))
    return calls


@pytest.mark.parametrize("size", [2**61, 2**63, 10**20], ids=["2**61", "2**63", "10**20"])
@pytest.mark.parametrize("entry", list(grid_calls()))
def test_a_grid_past_memory_is_refused_by_name(entry, size):
    # Past int64, or past what NumPy can describe, the one grid rule raises
    # before any array is made, where NumPy's own OverflowError or
    # ValueError leaked.
    name, call = grid_calls()[entry]
    text = rf"^{name}: the grid does not fit in memory \(\d+ points x \d+ floats\)$"
    with pytest.raises(ValueError, match=text):
        call(size)
