"""Tests for word sums and the delayed perturbation Mittag-Leffler function.

Core claims:
- the word-sum recursion enumerates ordered {M, N} products exactly, with
  binomial collapse for commuting pairs;
- the DPML evaluator honors the piecewise zero/identity conventions and
  matches an independent direct-summation oracle;
- truncation policy semantics: adaptive stop, divergence detection with a
  policy-naming message, a convergence warning for large coefficients, and
  soundness of reported values under tolerance tightening;
- every series driver stops where the order-by-order accumulator below
  stops, with the same value or error text;
- non-finite input is rejected with a ValueError naming the field;
- a shared evaluator instance and a shared word-sum table are safe under
  concurrent reads, and an evaluator keeps no state across calls;
- the per-call word-sum sources, kept transposed, give the rows of the
  recursion taken one matrix product at a time and the sequential-power
  binomial products bit for bit, and the memo table and qtable read them;
- the series, the running totals, the delay-block sums and the monomial
  weights give the bytes of the per-order loops they replaced;
- the commutation test decides as the unscaled test wherever that one
  does not overflow, and rejects overflowing pairs without a warning;
- each classical reduction, computed from its own formula, agrees with the
  general series.
"""

import itertools
import math
import pickle
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import gammaln, gammasgn

from nabladelay import dpml
from nabladelay import (
    CommutativityError,
    DivergenceError,
    DpmlFunction,
    DpmlParams,
    REDUCTION_PATTERNS,
    ReductionPatternError,
    TruncationPolicy,
    WordSumTable,
    dpml_eval,
    ml_eval,
    ml_partial_sum,
    monomial,
    monomial_run,
    special_reductions,
    word_sum_commutative,
)

M2 = np.array([[0.2, 0.1], [0.0, 0.3]])
N2 = np.array([[0.1, 0.0], [0.4, 0.2]])


class _SeriesAccumulator:
    """One matrix series under the adaptive rules of a TruncationPolicy.

    The scalar, order-by-order form of the library's stop rule, with the
    same error texts.  It is the reference the series drivers are
    compared against.
    """

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
            raise DivergenceError(
                f"series term at order i={self._i} is non-finite; "
                f"treating as divergent ({pol!r})"
            )
        if norm < pol.tol * (1.0 + float(np.max(np.abs(self.total)))):
            self._quiet += 1
            if self._quiet >= pol.window:
                return True
        else:
            self._quiet = 0
        if self._prev is not None and norm > self._prev:
            self._growth += 1
            if self._growth >= pol.divergence_growth and self._i > pol.i_max // 2:
                raise DivergenceError(
                    f"series terms grew for {pol.divergence_growth} consecutive "
                    f"orders past i = {pol.i_max // 2}; treating as divergent ({pol!r})"
                )
        else:
            self._growth = 0
        self._prev = norm
        return False

    def exhausted(self) -> DivergenceError:
        return DivergenceError(
            f"series did not meet the truncation stop rule within "
            f"i_max = {self.policy.i_max} terms ({self.policy!r})"
        )


def gamma_ratio(mu: float, m: int) -> float:
    if m < 1:
        return 1.0 if (m == 0 and mu == 0.0) else 0.0
    sign = gammasgn(m + mu) * gammasgn(m) * gammasgn(mu + 1.0)
    return float(sign * np.exp(gammaln(m + mu) - gammaln(m) - gammaln(mu + 1.0)))


def enumerated_word_sum(M: np.ndarray, N: np.ndarray, length: int, n_count: int) -> np.ndarray:
    """Sum of all ordered products of `length` factors with `n_count` N's."""
    total = np.zeros_like(M)
    for bits in itertools.product((0, 1), repeat=length):
        if sum(bits) != n_count:
            continue
        product = np.eye(M.shape[0])
        for bit in bits:
            product = product @ (N if bit else M)
        total += product
    return total


class TestWordSum:
    def test_base_case_identity(self):
        np.testing.assert_array_equal(WordSumTable(M2, N2).value(1, 0), np.eye(2))

    def test_length_two_mixed(self):
        np.testing.assert_allclose(WordSumTable(M2, N2).value(3, 1), M2 @ N2 + N2 @ M2,
                                   atol=1e-15)

    def test_length_three_two_delays(self):
        want = M2 @ N2 @ N2 + N2 @ (M2 @ N2 + N2 @ M2)
        np.testing.assert_allclose(WordSumTable(M2, N2).value(4, 2), want, atol=1e-15)

    def test_out_of_range_is_zero(self):
        table = WordSumTable(M2, N2)
        np.testing.assert_array_equal(table.value(2, 5), np.zeros((2, 2)))
        np.testing.assert_array_equal(table.value(2, -1), np.zeros((2, 2)))
        np.testing.assert_array_equal(table.value(0, 0), np.zeros((2, 2)))

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (3, 1), (6, 0), (6, 5), (2, 5), (4, -1)])
    def test_value_is_a_fresh_writable_array(self, i, j):
        table = WordSumTable(M2, N2)
        want = table.value(i, j).copy()
        got = table.value(i, j)
        assert got.flags.writeable and (got.dtype, got.shape) == (np.float64, (2, 2))
        got[...] = 99.0
        assert table.value(i, j).tobytes() == want.tobytes()

    def test_rejects_indices_below_domain(self):
        table = WordSumTable(M2, N2)
        with pytest.raises(ValueError):
            table.value(-1, 0)
        with pytest.raises(ValueError):
            table.value(2, -2)

    def test_matches_explicit_enumeration(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(2, 2)) * 0.4
        N = rng.normal(size=(2, 2)) * 0.4
        table = WordSumTable(M, N)
        for length in range(0, 7):
            for n_count in range(0, length + 1):
                want = enumerated_word_sum(M, N, length, n_count)
                np.testing.assert_allclose(
                    table.value(length + 1, n_count), want, atol=1e-12
                )

    def test_row_sums_are_powers_of_the_pair_sum(self):
        table = WordSumTable(M2, N2)
        for i in range(13):
            got = sum(table.value(i + 1, j) for j in range(i + 1))
            want = np.linalg.matrix_power(M2 + N2, i)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_pure_rows_are_exact_powers(self):
        table = WordSumTable(M2, N2)
        for i in range(13):
            np.testing.assert_allclose(
                table.value(i + 1, 0), np.linalg.matrix_power(M2, i), atol=1e-14
            )
            np.testing.assert_allclose(
                table.value(i + 1, i), np.linalg.matrix_power(N2, i), atol=1e-14
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WordSumTable(np.eye(2), np.eye(3))


class TestWordSumCommutative:
    def test_scalar_multiples_of_identity(self):
        got = word_sum_commutative(2 * np.eye(2), 3 * np.eye(2), 2, 1)
        np.testing.assert_allclose(got, 12 * np.eye(2), atol=1e-12)

    def test_zero_delay_matrix_keeps_only_m_words(self):
        M = np.diag([0.4, -0.2])
        for i in range(6):
            np.testing.assert_allclose(
                word_sum_commutative(M, np.zeros((2, 2)), i, 0),
                np.linalg.matrix_power(M, i),
                atol=1e-14,
            )

    def test_agrees_with_recursion_on_commuting_pair(self):
        rng = np.random.default_rng(13)
        M = np.diag(rng.uniform(-0.5, 0.5, size=2))
        N = np.diag(rng.uniform(-0.5, 0.5, size=2))
        table = WordSumTable(M, N)
        for i in range(13):
            for j in range(i + 1):
                np.testing.assert_allclose(
                    word_sum_commutative(M, N, i, j),
                    table.value(i + 1, j),
                    atol=1e-10,
                )

    def test_out_of_range_is_zero(self):
        np.testing.assert_array_equal(
            word_sum_commutative(np.eye(2), np.eye(2), 2, 3), np.zeros((2, 2))
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reads_the_source_the_commutative_route_sums(self, n):
        # Bit for bit entry j of order i of the commuting row source, at the
        # width a long commutative stack draws it, transposed back; the
        # -0.0 entries stay as the source leaves them.
        rng = np.random.default_rng(61 + n)
        A = rng.normal(size=(n, n))
        M = 0.4 * A / np.linalg.norm(A, 1)
        M[np.abs(M) < 0.1] = -0.0
        # A pair built from M, and a diagonal one with -0.0 off the diagonal.
        pairs = [(M, 0.1 * np.eye(n) - M @ M),
                 (-np.diag(np.arange(n) / (n + 1.0)), -np.diag(0.3 + np.arange(n) / 10))]
        for M, N in pairs:
            rows = list(itertools.islice(dpml._commuting_word_sum_rows(M, N, 40), 41))
            for i, row in enumerate(rows):
                for j in range(i + 1):
                    got = word_sum_commutative(M, N, i, j)
                    assert got.flags.c_contiguous and got.flags.writeable
                    assert got.tobytes() == row[j].reshape(n, n).T.tobytes()

    def test_non_commuting_pair_rejected(self):
        with pytest.raises(CommutativityError):
            word_sum_commutative(M2, N2, 3, 1)

    def test_overflowing_pair_rejected_without_warning(self):
        # Unscaled, MN - NM is inf - inf = nan here, which no tolerance
        # comparison rejects.
        M = 1e200 * np.array([[1.0, 2.0], [3.0, 4.0]])
        N = 1e200 * np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CommutativityError):
                word_sum_commutative(M, N, 3, 1)
            with pytest.raises(CommutativityError):
                DpmlFunction(DpmlParams(0.5, 0.5, 2, M, N), commutative=True)
            params = DpmlParams(1.0, 1.0, 2, M, N, TIGHT)
            with pytest.raises(ReductionPatternError, match="commuting: False"):
                special_reductions(params, 3, pattern="factored_exponential")

    def test_decision_matches_unscaled_test(self):
        # Pairs at every scale whose products stay finite, with defects on
        # both sides of the tolerance: the same decision and message as the
        # plain test max|MN - NM| <= 1e-12 * max(1, max|M| max|N|).
        rng = np.random.default_rng(21)
        for scale_m, scale_n, size in itertools.product(
            (1e-150, 1e-7, 0.5, 3.0, 1e9, 1e150), (1e-140, 1e-3, 1.0, 7.0, 1e120), (1, 2, 3)
        ):
            if scale_m * scale_n > 1e300:
                continue
            E = rng.normal(size=(size, size))
            for gap in (0.0, 1e-16, 1e-13, 3e-13, 1e-12, 4e-12, 1e-9, 1e-3):
                M = scale_m * np.diag(rng.uniform(-1.0, 1.0, size))
                N = scale_n * (np.diag(rng.uniform(-1.0, 1.0, size)) + gap * E)
                defect = float(np.max(np.abs(M @ N - N @ M)))
                bound = max(1.0, float(np.max(np.abs(M))) * float(np.max(np.abs(N))))
                if defect <= 1e-12 * bound:
                    word_sum_commutative(M, N, 2, 1)
                    continue
                want = (
                    f"matrices do not commute: max |MN - NM| = {defect:.3e} "
                    f"exceeds 1e-12 * {bound:g}"
                )
                with pytest.raises(CommutativityError) as info:
                    word_sum_commutative(M, N, 2, 1)
                assert str(info.value) == want


def sequential_commuting_rows(M, N, width, count):
    """C(i, j) M**(i - j) N**j for j <= min(i, width), one product per j,
    with the powers built by sequential matrix products."""
    mpows, npows = [np.eye(M.shape[0])], [np.eye(M.shape[0])]
    for _ in range(count):
        mpows.append(mpows[-1] @ M)
        npows.append(npows[-1] @ N)
    return [
        np.stack(
            [float(math.comb(i, j)) * (mpows[i - j] @ npows[j]) for j in range(min(i, width) + 1)]
        )
        for i in range(count)
    ]


def reference_word_sum_rows(M, N, width):
    """Q(i + 1, j), j = 0 .. min(i, width), for i = 0, 1, ...: the recursion
    Q(i + 1, j) = M Q(i, j) + N Q(i, j - 1) with one matrix product per j,
    as the series drew its word sums before they were kept transposed."""
    row = np.eye(M.shape[0])[None]
    while True:
        yield row
        size = min(len(row), width) + 1
        nxt = np.zeros((size, *M.shape))
        nxt[: len(row)] = M @ row
        nxt[1:] += N @ row[: size - 1]
        row = nxt


def reference_commuting_rows(M, N, width):
    """C(i, j) M**(i - j) N**j, j = 0 .. min(i, width), for i = 0, 1, ..., as
    the commutative route drew them before they were kept transposed."""
    mpows = npows = np.eye(M.shape[0])[None]
    for i in itertools.count():
        coef = np.array([float(math.comb(i, j)) for j in range(len(npows))])
        yield coef[:, None, None] * (mpows @ npows)
        mpows = np.concatenate(((mpows[0] @ M)[None], mpows[:width]))
        if i < width:
            npows = np.concatenate((npows, (npows[-1] @ N)[None]))


def untransposed(row):
    """The (J, n, n) stack of a row source's (J, n * n) transposes.  Adding
    0.0 turns the -0.0 a 1 × 1 product can keep into the +0.0 of a matrix
    product; the series sums every term onto a +0.0 total either way."""
    n = math.isqrt(row.shape[1])
    return row.reshape(-1, n, n).transpose(0, 2, 1) + 0.0


class TestWordSumSources:
    """The per-call word-sum row sources of the series."""

    ORDERS = 70  # C(i, j) passes 2**53 from i = 57 on

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_general_source_equals_table_rows(self, n):
        rng = np.random.default_rng(31 + n)
        M, N = 0.3 * rng.normal(size=(n, n)), 0.3 * rng.normal(size=(n, n))
        M[0, 0] = N[-1, 0] = -0.0
        table = WordSumTable(M, N)
        rows = [table.row(i + 1) for i in range(self.ORDERS)]
        # Widths below, equal to and above the order i.
        for width in (0, 1, 5, 13, self.ORDERS - 1, 80):
            want = reference_word_sum_rows(M, N, width)
            for row, got, expected in zip(rows, dpml._word_sum_rows(M, N, width), want):
                assert got.shape == (len(expected), n * n)
                assert untransposed(got).tobytes() == expected.tobytes()
                assert row[: width + 1].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_general_source_past_the_cap(self, n):
        # Past order width a row stops growing, and its two buffers are
        # reused from then on without being cleared.
        rng = np.random.default_rng(51 + n)
        M, N = 0.4 * rng.normal(size=(n, n)), 0.4 * rng.normal(size=(n, n))
        M[-1, 0] = N[0, -1] = -0.0
        for width in (0, 1, 3):
            want = reference_word_sum_rows(M, N, width)
            got = dpml._word_sum_rows(M, N, width)
            for _, row, expected in zip(range(width + 8), got, want):
                assert untransposed(row).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_commutative_source_equals_sequential_powers(self, n):
        rng = np.random.default_rng(41 + n)
        A = rng.normal(size=(n, n))
        M = 0.3 * A / np.linalg.norm(A, 1)
        N = 0.2 * np.eye(n) + M @ M
        for width in (0, 1, 5, 13, self.ORDERS - 1, 80):
            rows = dpml._commuting_word_sum_rows(M, N, width)
            want = reference_commuting_rows(M, N, width)
            for _, got, expected in zip(range(self.ORDERS), rows, want):
                assert untransposed(got).tobytes() == expected.tobytes()
        # The reference agrees with one product per j and sequential powers.
        for width in (0, 5, 40):
            want = sequential_commuting_rows(M, N, width, 14)
            for got, expected in zip(reference_commuting_rows(M, N, width), want):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("commutative", [False, True, "table"])
    def test_evaluator_keeps_no_state_across_calls(self, commutative):
        M, N = np.diag([0.3, -0.2]), np.diag([0.2, 0.1])
        if commutative == "table":
            obj = WordSumTable(M, N)
            calls = [lambda: obj.row(30), lambda: obj.value(17, 4), lambda: obj.row(9)]
        else:
            obj = DpmlFunction(DpmlParams(0.6, 0.7, 2, M, N), commutative=commutative)
            calls = [lambda: obj.stack(-3, 30), lambda: obj.value(17), lambda: obj.stack(9, 9, 12)]
        before, state = dict(vars(obj)), pickle.dumps(vars(obj))
        for call in calls:
            call()
        assert vars(obj).keys() == before.keys() and pickle.dumps(vars(obj)) == state
        assert all(vars(obj)[key] is value for key, value in before.items())


class TestTruncationPolicy:
    def test_defaults(self):
        policy = TruncationPolicy()
        assert policy.tol == 1e-12
        assert policy.window == 3
        assert policy.i_max == 500
        assert policy.divergence_growth == 10

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(window=0)
        with pytest.raises(ValueError):
            TruncationPolicy(i_max=0)

    @pytest.mark.parametrize(
        "field, value",
        [("window", 2.5), ("i_max", 10.5), ("i_max", "12"), ("divergence_growth", 3.0)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # A float i_max once passed here and raised a raw TypeError in the series.
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
            TruncationPolicy(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        policy = TruncationPolicy(window=np.int64(2), i_max=np.int32(40))
        params = DpmlParams(0.5, 0.5, 1, [[0.1]], [[0.1]], policy)
        assert np.isfinite(DpmlFunction(params).value(5)).all()

    @pytest.mark.parametrize("policy", ["tight", {"i_max": 20}], ids=["str", "dict"])
    @pytest.mark.parametrize("call", [
        lambda policy: ml_eval([[0.1]], 0.5, -0.5, 5, 0, policy=policy),
        lambda policy: ml_eval([[0.1]], 0.5, -0.5, -1, 0, policy=policy),
        lambda policy: DpmlParams(0.5, 0.5, 1, [[0.1]], [[0.1]], policy),
    ], ids=["ml_eval", "ml_eval-below-base", "DpmlParams"])
    def test_rejects_a_policy_of_another_type(self, call, policy):
        # ml_eval once passed a str policy on to the series, which raised a
        # raw AttributeError; below its base point it was never read.
        with pytest.raises(TypeError, match="^policy must be a TruncationPolicy$"):
            call(policy)

    def test_ml_eval_reads_none_as_the_default_policy(self):
        want = ml_eval(M2, 0.5, -0.5, 9, 0, TruncationPolicy())
        assert ml_eval(M2, 0.5, -0.5, 9, 0, policy=None).tobytes() == want.tobytes()

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_tol(self, tol):
        # An infinite tol once stopped every series after `window` terms.
        text = f"tol must lie in (0, inf), got {tol!r}"
        with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
            TruncationPolicy(tol=tol)


INF = [[math.inf]]
NAN = [[0.1, math.nan], [0.0, 0.1]]
# The tails of the texts that name INF's and NAN's first bad entry.
INF_AT = f"has a non-finite entry {np.float64(math.inf)!r} at index (0, 0)"
NAN_AT = f"has a non-finite entry {np.float64(math.nan)!r} at index (0, 1)"


class TestNonFiniteInput:
    """Bad input is a ValueError naming the field, not a divergent series."""

    @pytest.mark.parametrize(
        "call, text",
        [
            pytest.param(lambda: DpmlParams(0.5, 0.5, 2, INF, [[0.1]]), f"M {INF_AT}",
                         id="params-M"),
            pytest.param(lambda: DpmlParams(0.5, 0.5, 2, [[0.1]], INF), f"N {INF_AT}",
                         id="params-N"),
            pytest.param(lambda: DpmlParams(0.5, math.nan, 2, [[0.1]], [[0.1]]),
                         "beta must lie in (-inf, inf), got nan", id="params-beta-nan"),
            pytest.param(lambda: DpmlParams(0.5, -math.inf, 2, [[0.1]], [[0.1]]),
                         "beta must lie in (-inf, inf), got -inf", id="params-beta-inf"),
            pytest.param(lambda: WordSumTable(NAN, np.eye(2)), f"M {NAN_AT}", id="table-M"),
            pytest.param(lambda: WordSumTable(np.eye(2), NAN), f"N {NAN_AT}", id="table-N"),
            pytest.param(lambda: word_sum_commutative(INF, [[0.1]], 2, 1), f"M {INF_AT}",
                         id="word_sum_commutative-M"),
            pytest.param(lambda: ml_eval(NAN, 0.5, -0.5, 4, 0), f"M {NAN_AT}", id="ml_eval-M"),
            pytest.param(lambda: ml_partial_sum(INF, 0.5, -0.5, 4, 0, 3), f"M {INF_AT}",
                         id="ml_partial_sum-M"),
            pytest.param(lambda: ml_eval(M2, 0.5, math.nan, 4, 0),
                         "c must lie in (-inf, inf), got nan", id="ml_eval-c-nan"),
            pytest.param(lambda: ml_eval(M2, 0.5, math.inf, 0, 0),
                         "c must lie in (-inf, inf), got inf", id="ml_eval-c-base-point"),
        ],
    )
    def test_rejected_with_the_field_named(self, call, text):
        with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
            call()

    def test_message_names_the_first_bad_entry(self):
        M = np.zeros((3, 4, 4))
        M[1, 2, 3], M[2, 0, 0] = -math.inf, math.nan
        with pytest.raises(ValueError) as info:
            dpml._require_finite("M", M)
        assert str(info.value) == f"M has a non-finite entry {M[1, 2, 3]!r} at index (1, 2, 3)"
        with pytest.raises(ValueError) as info:
            DpmlParams(0.5, 0.5, 2, NAN, [[0.1, 0.0], [0.0, 0.1]])
        bad = np.asarray(NAN)[0, 1]
        assert str(info.value) == f"M has a non-finite entry {bad!r} at index (0, 1)"


class TestDpmlEval:
    def test_identity_at_base_point(self):
        params = DpmlParams(0.5, 0.5, 2, M2, N2)
        np.testing.assert_array_equal(dpml_eval(params, -2), np.eye(2))

    def test_zero_left_of_base(self):
        params = DpmlParams(0.5, 0.5, 2, M2, N2)
        np.testing.assert_array_equal(dpml_eval(params, -6), np.zeros((2, 2)))

    def test_no_delay_matrix_reduces_to_one_matrix_series(self):
        params = DpmlParams(0.6, 0.8, 2, M2, np.zeros((2, 2)))
        for k in range(-1, 13):
            np.testing.assert_allclose(
                dpml_eval(params, k),
                ml_eval(M2, 0.6, 0.8 - 1.0, k, -2),
                atol=1e-13,
            )

    def test_scalar_value_matches_direct_summation_oracle(self):
        # Independent route: explicit word enumeration through i = 12, the
        # plain recursion beyond, and gamma-ratio monomials throughout.
        alpha = beta = 0.5
        r, k = 2, 3
        M = np.array([[0.3]])
        N = np.array([[0.2]])
        p = 2
        total = 0.0
        q_prev = {0: 1.0}  # scalar Q(i+1, j) for the tail recursion
        for i in range(61):
            if i <= 12:
                q_row = {
                    j: float(enumerated_word_sum(M, N, i, j)[0, 0])
                    for j in range(i + 1)
                }
            else:
                q_row = {
                    j: 0.3 * q_prev.get(j, 0.0) + 0.2 * q_prev.get(j - 1, 0.0)
                    for j in range(i + 1)
                }
            for j in range(min(i, p) + 1):
                total += q_row[j] * gamma_ratio(i * alpha + beta - 1.0, k - (j - 1) * r)
            q_prev = q_row
        got = dpml_eval(DpmlParams(alpha, beta, r, M, N), k)[0, 0]
        assert got == pytest.approx(total, abs=1e-12)
        assert got == pytest.approx(1.956950600940083, abs=1e-12)

    def test_initial_interval_branch_ignores_delay_matrix(self):
        # For k in [1-r, 0] only the j = 0 block contributes, so the value
        # coincides with the one-matrix series regardless of N.
        params = DpmlParams(0.7, 0.4, 3, M2, N2)
        for k in (-2, -1, 0):
            np.testing.assert_allclose(
                dpml_eval(params, k),
                ml_eval(M2, 0.7, 0.4 - 1.0, k, -3),
                atol=1e-13,
            )

    def test_truncation_soundness_under_tol_halving(self):
        for tol in (1e-6, 1e-8, 1e-10):
            loose = DpmlFunction(DpmlParams(0.5, 0.5, 2, M2, N2, TruncationPolicy(tol=tol)))
            tight = DpmlFunction(
                DpmlParams(0.5, 0.5, 2, M2, N2, TruncationPolicy(tol=tol / 2))
            )
            for k in (1, 5, 9):
                gap = float(np.max(np.abs(loose.value(k) - tight.value(k))))
                scale = 1.0 + float(np.max(np.abs(tight.value(k))))
                assert gap <= tol * scale

    def test_divergent_parameters_raise_and_name_the_policy(self):
        with pytest.warns(RuntimeWarning):
            fn = DpmlFunction(DpmlParams(0.9, 0.6, 2, [[5.0]], [[3.0]]))
        with pytest.raises(DivergenceError, match="TruncationPolicy"):
            fn.value(12)

    def test_warning_threshold_on_coefficient_norms(self):
        with pytest.warns(RuntimeWarning):
            DpmlFunction(DpmlParams(0.5, 0.5, 2, [[0.7]], [[0.3]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DpmlFunction(DpmlParams(0.5, 0.5, 2, [[0.6]], [[0.3]]))

    def test_truncated_stack_keeps_piecewise_branches(self):
        with pytest.warns(RuntimeWarning):
            fn = DpmlFunction(DpmlParams(0.9, 0.6, 2, [[5.0]], [[3.0]], TruncationPolicy()))
        np.testing.assert_array_equal(fn.stack(-6, -6, 10)[0], np.zeros((1, 1)))
        np.testing.assert_array_equal(fn.stack(-2, -2, 10)[0], np.eye(1))
        assert np.isfinite(fn.stack(10, 10, 60)[0, 0, 0])
        values = fn.stack(-6, 10, 60)
        np.testing.assert_array_equal(values[:4], np.zeros((4, 1, 1)))
        np.testing.assert_array_equal(values[4], np.eye(1))
        assert np.isfinite(values).all()

    def test_truncated_stack_converges_to_adaptive_value(self):
        fn = DpmlFunction(DpmlParams(0.5, 0.5, 2, M2, N2))
        for k in (0, 3, 7):
            np.testing.assert_allclose(fn.stack(k, k, 200)[0], fn.value(k), atol=1e-12)
        np.testing.assert_allclose(fn.stack(-3, 7, 200), fn.stack(-3, 7), atol=1e-12)

    def test_cached_values_are_isolated_from_callers(self):
        fn = DpmlFunction(DpmlParams(0.5, 0.5, 2, M2, N2))
        first = fn.value(4)
        first[0, 0] = 123.0
        assert fn.value(4)[0, 0] != 123.0

    def test_concurrent_reads_match_sequential(self):
        commuting = (np.diag([0.3, -0.2]), np.diag([0.2, 0.1]))
        for (M, N), commutative in (((M2, N2), False), (commuting, True)):
            params = DpmlParams(0.5, 0.5, 2, M, N)
            sequential = {
                k: DpmlFunction(params, commutative).value(k) for k in range(-3, 21)
            }
            shared = DpmlFunction(params, commutative)
            points = [k for k in range(-3, 21)] * 4
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda k: (k, shared.value(k)), points))
            for k, value in results:
                np.testing.assert_array_equal(value, sequential[k])

    def test_commutative_source_matches_recursion(self):
        M = np.diag([0.3, -0.2])
        N = np.diag([0.2, 0.1])
        general = DpmlFunction(DpmlParams(0.6, 0.6, 2, M, N))
        binomial = DpmlFunction(DpmlParams(0.6, 0.6, 2, M, N), commutative=True)
        for k in range(-2, 16):
            np.testing.assert_allclose(binomial.value(k), general.value(k), atol=1e-10)

    def test_commutative_source_rejects_non_commuting_pair(self):
        with pytest.raises(CommutativityError):
            DpmlFunction(DpmlParams(0.5, 0.5, 2, M2, N2), commutative=True)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            DpmlParams(0.0, 0.5, 2, M2, N2)
        with pytest.raises(ValueError):
            DpmlParams(1.2, 0.5, 2, M2, N2)
        DpmlParams(1.0, 1.0, 2, M2, N2)  # unit corner admitted for reductions

    def test_delay_domain(self):
        with pytest.raises(ValueError):
            DpmlParams(0.5, 0.5, 0, M2, N2)


def reference_stack(params, kmin, kmax, qrow):
    """Per-k DPML values from word-sum rows and the scalar accumulator.

    ``qrow(i, jmax)`` stacks Q(i + 1, j) for j = 0 .. jmax.  Each point is
    summed on its own, order by order, as the evaluator did before it was
    batched.  A DivergenceError it raises carries the order as ``order``.
    """
    r, n, pol = params.r, params.dim, params.policy
    runs = {}
    out = []
    for k in range(kmin, kmax + 1):
        if k <= -r - 1:
            out.append(np.zeros((n, n)))
            continue
        if k == -r:
            out.append(np.eye(n))
            continue
        p = max(0, -(-k // r))
        acc = _SeriesAccumulator(pol, n)
        try:
            for i in range(pol.i_max + 1):
                if i not in runs:
                    runs[i] = monomial_run(i * params.alpha + (params.beta - 1.0), kmax + r)
                jmax = min(i, p)
                weights = [runs[i][k - (j - 1) * r - 1] for j in range(jmax + 1)]
                if acc.add(np.tensordot(weights, qrow(i, jmax), axes=1)):
                    break
            else:
                raise acc.exhausted()
        except DivergenceError as exc:
            exc.order = acc._i  # the order the point raised at, for first_error
            raise
        out.append(acc.total)
    return np.array(out)


def recursion_rows(M, N):
    """Q(i + 1, j), j = 0 .. jmax, each order drawn once from the reference recursion."""
    source, rows = reference_word_sum_rows(M, N, sys.maxsize), []

    def qrow(i, jmax):
        rows.extend(itertools.islice(source, max(0, i + 1 - len(rows))))
        return rows[i][: jmax + 1]

    return qrow


def commutative_rows(M, N):
    cache = {}

    def qrow(i, jmax):
        for j in range(jmax + 1):
            if (i, j) not in cache:
                cache[i, j] = word_sum_commutative(M, N, i, j)
        return np.stack([cache[i, j] for j in range(jmax + 1)])

    return qrow


def stack_case(n, r, commutative):
    """Signed pair with 1-norms 0.3 (commuting when asked), alpha 0.7, beta 0.4."""
    rng = np.random.default_rng(100 * n + 10 * r + commutative)
    A = rng.normal(size=(n, n))
    M = 0.3 * A / np.linalg.norm(A, 1)
    if commutative:
        B = 0.5 * np.eye(n) + M @ M
    else:
        B = rng.normal(size=(n, n))
    N = 0.3 * B / np.linalg.norm(B, 1)
    return DpmlParams(0.7, 0.4, r, M, N)


def rounding_scale(params, kmin, kmax):
    """1 + max|Phi| of the pair (|M|, |N|), per point.

    With beta > 0 every monomial weight is positive, so this majorizes
    the sum of |weight| * |Q| over all terms.  Two summation orders of
    the signed series may differ by a small multiple of eps times this;
    where terms do not cancel it equals 1 + max|Phi|.
    """
    M, N = np.abs(params.M), np.abs(params.N)
    absolute = DpmlParams(params.alpha, params.beta, params.r, M, N, params.policy)
    values = reference_stack(absolute, kmin, kmax, recursion_rows(M, N))
    return 1.0 + np.abs(values).max(axis=(1, 2))


class TestBatchedStack:
    K = 60

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("n", [1, 3])
    def test_stack_equals_value_at_every_point(self, n, r):
        params = stack_case(n, r, False)
        fn = DpmlFunction(params)
        got = fn.stack(-r - 2, self.K)
        assert got.shape == (self.K + r + 3, n, n)
        np.testing.assert_array_equal(got[:2], np.zeros((2, n, n)))
        np.testing.assert_array_equal(got[2], np.eye(n))
        want = np.array([fn.value(k) for k in range(-r - 2, self.K + 1)])
        # A one-row and a many-row BLAS product round differently, so the
        # series values agree to rounding, not bit for bit.
        gap = np.abs(got - want).max(axis=(1, 2))
        assert np.all(gap <= 1e-13 * rounding_scale(params, -r - 2, self.K))

    @pytest.mark.parametrize("commutative", [False, True])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("n", [1, 3])
    def test_stack_matches_per_point_reference(self, n, r, commutative):
        params = stack_case(n, r, commutative)
        rows = (commutative_rows if commutative else recursion_rows)(params.M, params.N)
        got = DpmlFunction(params, commutative=commutative).stack(-r - 2, self.K)
        want = reference_stack(params, -r - 2, self.K, rows)
        gap = np.abs(got - want).max(axis=(1, 2))
        assert np.all(gap <= 1e-13 * rounding_scale(params, -r - 2, self.K))

    def test_stack_on_divergent_parameters_names_the_policy(self):
        with pytest.warns(RuntimeWarning):
            fn = DpmlFunction(DpmlParams(0.9, 0.6, 2, [[5.0]], [[3.0]]))
        with pytest.raises(DivergenceError, match="TruncationPolicy"):
            fn.stack(-2, 20)

    def test_value_sweep_leaks_no_runtime_warning(self):
        # Large k once grew the monomial table far past the orders needed,
        # outside np.errstate, and leaked overflow warnings to callers.
        M = [[0.1, 0.05], [0.0, 0.1]]
        N = [[0.1, 0.0], [0.05, 0.1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = DpmlFunction(DpmlParams(0.9, 0.9, 2, M, N))
            for k in range(-2, 161):
                fn.value(k)


class TestMlEval:
    def test_zero_matrix_order_zero_offset(self):
        got = ml_eval(np.zeros((2, 2)), 0.5, 0.0, 7, 0)
        np.testing.assert_array_equal(got, np.eye(2))

    def test_base_point_vanishes_for_fractional_offset(self):
        assert ml_eval([[0.5]], 0.6, 0.6 - 1.0, 3, 3)[0, 0] == 0.0

    def test_base_point_degenerate_order_hit(self):
        # i * alpha + c = 0 at i = 1 contributes M^1 at the base point.
        got = ml_eval([[0.5]], 0.5, -0.5, 3, 3)
        assert got[0, 0] == pytest.approx(0.5)
        np.testing.assert_array_equal(ml_partial_sum(M2, 0.5, -1.0, 3, 3, 0), M2 @ M2)

    def test_first_point_geometric_series(self):
        assert ml_eval([[0.5]], 0.6, 0.6 - 1.0, 4, 3)[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_left_of_base_is_zero(self):
        np.testing.assert_array_equal(ml_eval(M2, 0.5, -0.5, 1, 5), np.zeros((2, 2)))
        np.testing.assert_array_equal(ml_partial_sum(M2, 0.5, -0.5, 4, 5, 30), np.zeros((2, 2)))

    def test_partial_sum_matches_adaptive_on_convergent_input(self):
        np.testing.assert_allclose(
            ml_partial_sum(M2, 0.5, -0.5, 9, 0, 200),
            ml_eval(M2, 0.5, -0.5, 9, 0),
            atol=1e-12,
        )

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            ml_eval(M2, 1.5, 0.0, 3, 0)

    @pytest.mark.parametrize("c", [1e308, -1e308])
    def test_base_point_with_out_of_reach_order(self, c):
        # -c / alpha overflows, so no integer order can make i*alpha + c zero.
        zero = np.zeros((1, 1))
        np.testing.assert_array_equal(ml_eval([[0.1]], 0.5, c, 0, 0), zero)
        np.testing.assert_array_equal(ml_partial_sum([[0.1]], 0.5, c, 0, 0, 3), zero)


    @pytest.mark.parametrize("c", [-1e3, -1e300])
    def test_base_point_overflowing_power_raises(self, c):
        # i * alpha + c = 0 at i = -2c, and M**i overflows: a DivergenceError
        # naming the base point, with no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: ml_eval([[2.0]], 0.5, c, 0, 0),
                         lambda: ml_partial_sum([[2.0]], 0.5, c, 0, 0, 3)):
                with pytest.raises(DivergenceError, match="base point k = 0 .* non-finite"):
                    call()
            np.testing.assert_array_equal(ml_eval([[1.0]], 0.5, c, 0, 0), [[1.0]])

TIGHT = TruncationPolicy(i_max=20, divergence_growth=3)
STOP_MESSAGES = ("is non-finite", "grew for", "did not meet")


def outcome(call):
    """The array a series call returns, or the text of its DivergenceError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return call()
        except DivergenceError as exc:
            return str(exc)


def assert_same_outcome(got, want):
    """Bit-for-bit equal arrays, or equal error texts."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_ml(M, alpha, c, k, a, policy, imax=None, stops=None):
    """The one-matrix series for k > a, order by order: scalar monomials
    and the accumulator, or a plain sum through ``imax``.  The stop order
    is appended to the list ``stops`` when one is given."""
    M = np.asarray(M, dtype=float)
    acc = _SeriesAccumulator(policy, M.shape[0])
    power = np.eye(M.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range((policy.i_max if imax is None else imax) + 1):
            term = monomial(i * alpha + c, k, a) * power
            if imax is not None:
                acc.total += term
            elif acc.add(term):
                if stops is not None:
                    stops.append(i)
                return acc.total
            power = power @ M
    if imax is None:
        raise acc.exhausted()
    return acc.total


def falling_binomial(x, i):
    value = 1.0
    for t in range(i):
        value *= (x - t) / (t + 1)
    return value


def reference_exponential_perturbation(M, N, r, k, policy):
    """Unit-order word-sum series for k >= 1 - r, order by order."""
    p = max(0, -(-k // r))
    acc = _SeriesAccumulator(policy, M.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, q in zip(range(policy.i_max + 1), reference_word_sum_rows(M, N, p)):
            weights = [falling_binomial(float(k - (j - 1) * r + i - 1), i) for j in range(len(q))]
            if acc.add(np.tensordot(weights, q, axes=(0, 0))):
                return acc.total
    raise acc.exhausted()


def reference_delayed_exponential(N, r, k):
    """Sum of C(k - (i - 1)(r - 1), i) N**i over the delay blocks, with
    scalar falling binomials."""
    total = np.zeros_like(N)
    power = np.eye(N.shape[0])
    for i in range(max(0, -(-k // r)) + 1):
        total += falling_binomial(float(k - (i - 1) * (r - 1)), i) * power
        power = power @ N
    return total


class TestOneRowDrivers:
    """ml_eval and the exponential-perturbation reduction stop exactly where
    the order-by-order accumulator stops, with the same value or error."""

    ML_PAIRS = (M2, 0.9 * M2 / np.linalg.norm(M2, 1), 1.6 * M2, [[1e300]])

    @pytest.mark.parametrize("policy", [TruncationPolicy(), TIGHT], ids=["default", "tight"])
    def test_ml_eval_matches_accumulator(self, policy):
        seen = set()
        for M, alpha, c, m in itertools.product(
            self.ML_PAIRS, (0.5, 0.8, 1.0), (-0.3, 0.0, 0.4), (1, 2, 9, 40)
        ):
            c = alpha - 1.0 if c == 0.4 else c
            want = outcome(lambda: reference_ml(M, alpha, c, m - 2, -2, policy))
            got = outcome(lambda: ml_eval(M, alpha, c, m - 2, -2, policy))
            assert_same_outcome(got, want)
            seen.update(text for text in STOP_MESSAGES if text in str(want))
        if policy is TIGHT:
            assert seen == set(STOP_MESSAGES)

    def test_ml_partial_sum_matches_plain_sum(self):
        for M, m, imax in itertools.product(self.ML_PAIRS, (1, 2, 9, 40), (0, 1, 5, 33, 70)):
            want = outcome(lambda: reference_ml(M, 0.7, -0.3, m, 0, TIGHT, imax))
            assert_same_outcome(outcome(lambda: ml_partial_sum(M, 0.7, -0.3, m, 0, imax)), want)

    # Scalars M whose ml_eval(M, 0.7, -0.3, 20, -2) stops at the last and the
    # first order of the one-matrix series' blocks of _POWER_ORDERS = 48
    # orders: 47 and 48, 95 and 96.
    ML_EDGES = [(0.2762, 47), (0.2829, 48), (0.5082, 95), (0.5115, 96)]

    def test_ml_eval_stops_at_block_edges(self, monkeypatch):
        blocks = []
        weights = dpml._monomials_at

        def spy(mu, m):
            blocks.append(mu.size)
            return weights(mu, m)

        monkeypatch.setattr(dpml, "_monomials_at", spy)
        for m, order in self.ML_EDGES:
            stops, blocks[:] = [], []
            want = reference_ml([[m]], 0.7, -0.3, 20, -2, TruncationPolicy(), stops=stops)
            assert stops == [order]
            assert ml_eval([[m]], 0.7, -0.3, 20, -2).tobytes() == want.tobytes()
            # Whole blocks of 48 orders, the last one holding the stop.
            assert blocks == [48] * (order // 48 + 1)

    @pytest.mark.parametrize("policy", [TruncationPolicy(), TIGHT], ids=["default", "tight"])
    def test_ml_eval_on_long_and_overflowing_weights(self, policy):
        # m = k - a = 165 and 400 rows of the product recurrence, and orders
        # whose monomials pass the float range: the order-0 weight at
        # c = 1000, later weights at alpha = 1, c = 150.
        seen = set()
        for M, (alpha, c), m in itertools.product(
            ([[0.3]], 0.2 * M2, -0.9 * M2 / np.linalg.norm(M2, 1)),
            ((0.3, -0.7), (0.9, 0.5), (1.0, 150.0), (0.5, 1e3)), (165, 400),
        ):
            want = outcome(lambda: reference_ml(M, alpha, c, m - 3, -3, policy))
            got = outcome(lambda: ml_eval(M, alpha, c, m - 3, -3, policy))
            assert_same_outcome(got, want)
            seen.add("values" if isinstance(want, np.ndarray) else want)
        assert "values" in seen and any("is non-finite" in text for text in seen)

    def test_one_column_weights_match_the_table_column(self):
        # The weights of one m for every order, multiplied along the orders,
        # give the bytes of column m - 1 of _monomial_rows' table, inf and
        # nan included: -1100 overflows before its zero factor at t = 1100.
        rng = np.random.default_rng(11)
        seen = set()
        for m in (1, 2, 7, 165, 400, 1200):
            for mu in (0.7 * np.arange(48) - 0.3, rng.uniform(-3.0, 3.0, 24),
                       rng.uniform(-50.0, 500.0, 1), np.array([-1100.0, -3.0, -0.5, 350.5, 1e3])):
                want = dpml._monomial_rows(mu, np.empty((mu.size, m)))[:, m - 1]
                got = dpml._monomials_at(mu, m)
                assert got.tobytes() == want.tobytes()
                seen.update(name for name, hit in (("inf", np.isinf), ("nan", np.isnan))
                            if hit(want).any())
        assert seen == {"inf", "nan"}

    @pytest.mark.parametrize("policy", [TruncationPolicy(), TIGHT], ids=["default", "tight"])
    def test_exponential_perturbation_matches_accumulator(self, policy):
        seen = set()
        pairs = [(0.3 * M2, 0.3 * N2), ([[1e200]], [[1e200]])]
        if policy is TIGHT:
            # Growing terms; under the default policy each point would run
            # 250 orders of the reference before it raises.
            pairs.append((3.0 * M2, 2.0 * N2))
        for (M, N), r in itertools.product(pairs, (1, 3)):
            params = DpmlParams(1.0, 1.0, r, M, N, policy)
            for k in range(1 - r, 12):
                want = outcome(
                    lambda: reference_exponential_perturbation(params.M, params.N, r, k, policy)
                )
                got = outcome(
                    lambda: special_reductions(params, k, pattern="exponential_perturbation")
                )
                assert_same_outcome(got, want)
                seen.update(text for text in STOP_MESSAGES if text in str(want))
        # Long horizons give up to p + 1 weights per order; there a strided
        # weight vector sends the product down another BLAS path.
        long_horizons = [(1, 20), (1, 40), (1, 80), (1, 120), (1, 160), (3, 120), (5, 160)]
        for scale, (r, k) in itertools.product((0.05, 0.1, 0.3), long_horizons):
            params = DpmlParams(1.0, 1.0, r, scale * np.array(M2), scale * np.array(N2), policy)
            want = outcome(
                lambda: reference_exponential_perturbation(params.M, params.N, r, k, policy)
            )
            got = outcome(
                lambda: special_reductions(params, k, pattern="exponential_perturbation")
            )
            assert_same_outcome(got, want)
        if policy is TIGHT:
            assert seen == set(STOP_MESSAGES)

    @pytest.mark.parametrize("cells", [None, 1, 7, 100])
    def test_falling_binomial_weights_match_scalar_rule(self, cells, monkeypatch):
        # The running products of the falling binomials are built in chunks
        # of at most `cells` cells; every cut gives the scalar rule's products.
        if cells is not None:
            monkeypatch.setattr(dpml, "_TRIANGLE_CELLS", cells)
            monkeypatch.setattr(dpml, "_BLOCK_CELLS", cells)
        N = 0.3 * np.array(N2)
        for r, k in itertools.product((1, 2, 4), (0, 1, 5, 30, 90)):
            params = DpmlParams(1.0, 1.0, r, np.zeros((2, 2)), N)
            got = special_reductions(params, k, pattern="delayed_exponential")
            assert got.tobytes() == reference_delayed_exponential(N, r, k).tobytes()
        for r, k in itertools.product((1, 3), (4, 40)):
            params = DpmlParams(1.0, 1.0, r, 0.1 * np.array(M2), 0.1 * np.array(N2))
            want = reference_exponential_perturbation(params.M, params.N, r, k, params.policy)
            got = special_reductions(params, k, pattern="exponential_perturbation")
            assert got.tobytes() == want.tobytes()
        # An (orders × delay blocks) argument array, as a block of the
        # exponential-perturbation reduction passes it, with signed and
        # non-integer upper arguments.
        for r, k, shift in itertools.product((1, 3), (0, 7, 40), (0.0, 0.5, -0.25)):
            orders = np.broadcast_to(np.arange(5, 17)[:, None], (12, 6))
            x = (k + orders - 1.0) - (np.arange(6) - 1) * r + shift
            want = np.vectorize(falling_binomial)(x, orders)
            got = dpml._falling_binomials(x.ravel(), np.arange(x.size).reshape(x.shape), 5)
            assert got.shape == x.shape and got.tobytes() == want.tobytes()
        # Upper arguments shared across the lines and columns of the array, as
        # in a block of the reduction, from order 0 on, negative and
        # non-integer: a chunk can end inside the entries of one argument.
        for r, first, shift in itertools.product((1, 2, 3), (0, 1, 6), (-30.5, -2.0, 0.25, 9.0)):
            orders = np.arange(first, first + 12)
            low = first - 5 * r
            index = (orders - low)[:, None] - r * np.arange(6)
            uppers = shift + np.arange(low, first + 12)
            want = np.vectorize(falling_binomial)(uppers[index], orders[:, None])
            got = dpml._falling_binomials(uppers, index, first)
            assert got.shape == index.shape and got.tobytes() == want.tobytes()
        for upper, first in itertools.product((-3.0, -0.75, 2.5, 7.0, 40.0), (0, 3)):
            index = np.zeros((12, 6), dtype=int)
            want = np.vectorize(falling_binomial)(upper, np.arange(first, first + 12)[:, None])
            got = dpml._falling_binomials(np.array([upper]), index, first)
            assert got.tobytes() == np.broadcast_to(want, index.shape).tobytes()


class TestSpecialReductions:
    def test_pure_delay_matches_series_everywhere(self):
        params = DpmlParams(0.5, 0.5, 2, np.zeros((2, 2)), N2)
        for k in range(-2, 21):
            np.testing.assert_allclose(
                special_reductions(params, k), dpml_eval(params, k), atol=1e-10
            )

    def test_no_delay_matches_one_matrix_series(self):
        params = DpmlParams(0.6, 0.8, 2, M2, np.zeros((2, 2)))
        for k in range(-2, 21):
            np.testing.assert_allclose(
                special_reductions(params, k), dpml_eval(params, k), atol=1e-10
            )

    def test_unit_orders_pure_delay_is_delayed_exponential(self):
        params = DpmlParams(1.0, 1.0, 3, np.zeros((2, 2)), N2)
        for k in range(-3, 21):
            np.testing.assert_allclose(
                special_reductions(params, k), dpml_eval(params, k), atol=1e-10
            )

    def test_unit_orders_commuting_factored_form(self):
        M = np.array([[0.2, 0.1], [0.0, 0.2]])
        N = np.array([[0.15, 0.1], [0.0, 0.15]])
        params = DpmlParams(1.0, 1.0, 2, M, N)
        assert special_reductions(params, 0) is not None
        for k in range(-2, 16):
            np.testing.assert_allclose(
                special_reductions(params, k, pattern="factored_exponential"),
                dpml_eval(params, k),
                atol=1e-10,
            )

    def test_unit_orders_general_pair_binomial_series(self):
        params = DpmlParams(1.0, 1.0, 2, M2 * 0.8, N2 * 0.8)
        for k in range(-2, 16):
            np.testing.assert_allclose(
                special_reductions(params, k, pattern="exponential_perturbation"),
                dpml_eval(params, k),
                atol=1e-10,
            )

    @pytest.mark.parametrize("orders", [(1.0, 1.0), (1.0, 0.6), (0.6, 0.6), (0.6, 0.8)])
    @pytest.mark.parametrize("n_kind", ["zero", "nonzero"])
    @pytest.mark.parametrize("m_kind", ["zero", "commuting", "non-commuting", "singular"])
    def test_detection_prefers_most_specific_pattern(self, m_kind, n_kind, orders):
        # alpha = beta = 1 with M = 0 satisfies three patterns; the delayed
        # exponential is the most specific and must win.  Every parameter
        # set gets the first pattern of REDUCTION_PATTERNS whose rule, as
        # the docstring states it, admits it.
        N = {"zero": np.zeros((2, 2)), "nonzero": N2}[n_kind]
        M = {
            "zero": np.zeros((2, 2)),
            "commuting": 0.5 * N + 0.1 * np.eye(2),
            "non-commuting": M2,
            "singular": np.eye(2),  # I - M = 0
        }[m_kind]
        params = DpmlParams(*orders, 2, M, N, TIGHT)
        unit = orders == (1.0, 1.0)
        m_zero, n_zero = m_kind == "zero", n_kind == "zero"
        commuting = m_kind != "non-commuting" or n_zero
        rules = {
            "delayed_exponential": unit and m_zero,
            "factored_exponential": unit and commuting and m_kind != "singular",
            "exponential_perturbation": unit,
            "delayed_ml": m_zero and orders[0] == orders[1],
            "ml": n_zero,
        }
        admitted = [name for name in REDUCTION_PATTERNS if rules[name]]
        if not admitted:
            with pytest.raises(ReductionPatternError, match="no closed-form reduction applies"):
                special_reductions(params, 5)
            return
        for k in (-2, 5):
            want = outcome(lambda: special_reductions(params, k, pattern=admitted[0]))
            assert_same_outcome(outcome(lambda: special_reductions(params, k)), want)

    def test_requested_pattern_mismatch_raises(self):
        params = DpmlParams(0.5, 0.5, 2, M2, N2)
        with pytest.raises(ReductionPatternError):
            special_reductions(params, 3, pattern="ml")

    def test_no_applicable_pattern_raises(self):
        params = DpmlParams(0.5, 0.4, 2, M2, N2)
        with pytest.raises(ReductionPatternError):
            special_reductions(params, 3)

    def test_unknown_pattern_name_rejected(self):
        params = DpmlParams(0.5, 0.5, 2, M2, N2)
        with pytest.raises(ValueError, match="unknown pattern"):
            special_reductions(params, 3, pattern="fourier")

    @pytest.mark.parametrize("pattern", REDUCTION_PATTERNS)
    @pytest.mark.parametrize("r", [1, 3])
    def test_piecewise_branches_left_of_the_series(self, pattern, r):
        zero = np.zeros((2, 2))
        params = {
            "delayed_exponential": DpmlParams(1.0, 1.0, r, zero, N2),
            "factored_exponential": DpmlParams(1.0, 1.0, r, 0.2 * np.eye(2), N2),
            "exponential_perturbation": DpmlParams(1.0, 1.0, r, M2, N2),
            "delayed_ml": DpmlParams(0.6, 0.6, r, zero, N2),
            "ml": DpmlParams(0.6, 0.8, r, M2, zero),
        }[pattern]
        for k in (-r - 2, -r - 1):
            np.testing.assert_array_equal(special_reductions(params, k, pattern), zero)
        np.testing.assert_array_equal(special_reductions(params, -r, pattern), np.eye(2))

    @pytest.mark.parametrize(
        "M", [np.eye(2), np.diag([1.0, 0.3])], ids=["identity", "unit-eigenvalue"]
    )
    def test_singular_resolvent_makes_factored_form_inapplicable(self, M):
        params = DpmlParams(1.0, 1.0, 2, M, np.diag([0.1, 0.2]), TIGHT)
        with pytest.raises(ReductionPatternError, match="I - M"):
            special_reductions(params, 3, pattern="factored_exponential")
        # Detection moves on to the next pattern, the word-sum series.
        for k in (-2, 0, 3, 9):
            want = outcome(lambda: special_reductions(params, k, "exponential_perturbation"))
            assert_same_outcome(outcome(lambda: special_reductions(params, k)), want)

    @pytest.mark.parametrize(
        "pattern, params, k",
        [
            ("delayed_exponential", DpmlParams(1.0, 1.0, 1, 0 * np.eye(2), 5 * np.eye(2)), 2000),
            ("delayed_ml", DpmlParams(0.6, 0.6, 1, 0 * np.eye(2), 50 * np.eye(2)), 400),
            ("factored_exponential", DpmlParams(1.0, 1.0, 1, 0.999 * np.eye(2), N2), 200),
        ],
        ids=["delayed_exponential", "delayed_ml", "factored_exponential"],
    )
    def test_overflowing_reduction_raises_without_warning(self, pattern, params, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"'{pattern}'.* k = {k}"):
                special_reductions(params, k, pattern)

    def test_pattern_registry_is_stable(self):
        assert REDUCTION_PATTERNS == (
            "delayed_exponential",
            "factored_exponential",
            "exponential_perturbation",
            "delayed_ml",
            "ml",
        )


# An i_max that is a multiple of none of the block lengths below.
ODD = TruncationPolicy(i_max=45, divergence_growth=4)


def first_error(errors):
    """The text of the error the block rule raises among (order, text) pairs:
    the lowest order, and at one order a non-finite term before growth
    before running out of orders."""
    rank = {text: j for j, text in enumerate(STOP_MESSAGES)}
    return min(
        (order, next(rank[t] for t in STOP_MESSAGES if t in text), text) for order, text in errors
    )[2]


def reference_outcome(params, kmin, kmax, qrow):
    """What stack(kmin, kmax) gives: reference_stack's values, or the error
    its batched stop rule meets first over all points."""
    errors = []
    for k in range(kmin, kmax + 1):
        try:
            reference_stack(params, k, k, qrow)
        except DivergenceError as exc:
            errors.append((exc.order, str(exc)))
    return first_error(errors) if errors else reference_stack(params, kmin, kmax, qrow)


def drive_rule(policy, terms, lengths):
    """Run dpml._StopRule over terms shaped (orders, cells, rows) in blocks of
    the given lengths, cycled, dropping finished rows as the series drivers
    do.  Returns {row: (stop order, total bytes)} or the error text."""
    rows = np.arange(terms.shape[2])
    rule = dpml._StopRule(policy, rows.size)
    total = np.zeros(terms.shape[1:])
    found = {}
    i = 0
    for b in itertools.cycle(lengths):
        if i > policy.i_max:
            return str(dpml._exhausted(policy))
        block = terms[i : min(i + b, policy.i_max + 1)][:, :, rows].copy()
        try:
            stopped, at, running = rule.block(i, block, total)
        except DivergenceError as exc:
            return str(exc)
        for j, t in zip(stopped, at):
            found[int(rows[j])] = (i + int(t), block[t, :, j].tobytes())
        if not running.size:
            return found
        rows, total = rows[running], block[-1][:, running]
        i += len(block)


def accumulate_rows(policy, terms):
    """Each row of terms through _SeriesAccumulator on its own: the same
    {row: (stop order, total bytes)}, or the error the block rule must raise."""
    found, errors = {}, []
    for row in range(terms.shape[2]):
        acc = _SeriesAccumulator(policy, 2)
        try:
            for i in range(policy.i_max + 1):
                if acc.add(terms[i, :, row].reshape(2, 2)):
                    found[row] = (i, acc.total.tobytes())
                    break
            else:
                raise acc.exhausted()
        except DivergenceError as exc:
            errors.append((acc._i, str(exc)))
    return first_error(errors) if errors else found


def norm_row(norms, orders=TIGHT.i_max + 1):
    """Terms of one row, shaped (orders, 4), with max-norms `norms` (padded
    with tiny terms); the other entries are signed fractions of it."""
    norms = np.concatenate((norms, np.full(orders - len(norms), 1e-20)))
    return norms[:, None] * np.array([0.25, -1.0, 0.5, -0.75])


def big(count):
    return np.ones(count)


# Rows for TIGHT (window 3; growth is tested past i = 10) and blocks of 4,
# which start at orders 0, 4, 8, 12, ...
ROWS = {
    "stops-at-block-start": norm_row(big(6)),  # quiet at 6, 7, 8: stops at 8
    "stops-at-block-end": norm_row(big(9)),  # stops at 11
    "stops-early": norm_row(big(2)),  # stops at 4
    "stops-late": norm_row(big(15)),  # stops at 17
    "inf-after-stop": norm_row(np.r_[big(3), 1e-20, 1e-20, 1e-20, np.inf, np.nan]),  # stops at 5
    "grows-across-blocks": norm_row(np.r_[big(10), 2.0 ** np.arange(1, 12)]),  # raises at 12
    # Grown for 3 orders at i = 10, which is not past i_max // 2: raises at 11.
    "grows-at-the-gate": norm_row(np.r_[big(8), 2.0 ** np.arange(1, 14)]),
    "inf-while-running": norm_row(np.r_[big(13), np.inf, big(7)]),  # raises at 13
    "inf-as-growth-raises": norm_row(np.r_[big(12), np.inf, big(8)]),  # raises at 12
    # Stops at 8, then tiny terms grow at 9, 10, 11 in the same block.
    "grows-after-stop": norm_row(np.r_[big(6), 1e-20, 1e-20, 1e-20, 1e-19, 1e-18, 1e-17]),
    "never-stops": norm_row(big(TIGHT.i_max + 1)),
}


def terms_of(*names):
    return np.stack([ROWS[name] for name in names], axis=2)


class TestBlockStopRule:
    """The block-wise stop rule stops, and raises, where the order-by-order
    accumulator does, whatever the block lengths."""

    LENGTHS = [(4,), (1,), (3,), (32,), (5, 2, 7)]

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_rows_stop_where_the_accumulator_stops(self, lengths):
        names = ["stops-at-block-start", "stops-at-block-end", "stops-early", "stops-late",
                 "inf-after-stop"]
        terms = terms_of(*names)
        want = accumulate_rows(TIGHT, terms)
        stops = {row: order for row, (order, _) in want.items()}
        assert stops == dict(enumerate([8, 11, 4, 17, 5]))
        assert drive_rule(TIGHT, terms, lengths) == want

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    @pytest.mark.parametrize(
        "names, message",
        [
            (("stops-at-block-start", "grows-across-blocks"), "grew for 3"),
            (("stops-late", "inf-while-running"), "order i=13 is non-finite"),
            (("grows-across-blocks", "inf-while-running"), "grew for 3"),
            (("grows-across-blocks", "inf-as-growth-raises"), "order i=12 is non-finite"),
            (("grows-after-stop", "stops-late"), None),
            (("stops-early", "never-stops"), "did not meet"),
            (("inf-after-stop",), None),
        ],
        ids=["growth", "non-finite", "growth-first", "non-finite-first", "growth-after-stop",
             "exhausted", "inf-after-stop"],
    )
    def test_raises_where_the_accumulator_raises(self, names, message, lengths):
        terms = terms_of(*names)
        want = accumulate_rows(TIGHT, terms)
        if message is None:
            # The non-finite or growing terms come after the row stopped.
            assert want[0][0] in (5, 8)
        else:
            assert message in want
        assert drive_rule(TIGHT, terms, lengths) == want

    @pytest.mark.parametrize("block", [1, 4, 7, 32])
    @pytest.mark.parametrize("policy", [TIGHT, ODD], ids=["tight", "odd"])
    def test_stack_matches_reference(self, policy, block, monkeypatch):
        # Block lengths the orders of TIGHT and ODD are no multiple of; the
        # pairs scaled up grow, and [[1e150]] overflows.
        monkeypatch.setattr(dpml, "_ORDER_BLOCK", block)
        seen = set()
        for n, r, scale in itertools.product((1, 2), (1, 3), (0.1, 1.0, 4.0, 8.0)):
            base = stack_case(n, r, False)
            params = DpmlParams(0.7, 0.4, r, scale * base.M, scale * base.N, policy)
            seen.update(self.check(params, -r - 2, 14))
        seen.update(self.check(DpmlParams(0.7, 0.4, 2, [[1e150]], [[1e150]], policy), -2, 9))
        assert seen == {"values", *STOP_MESSAGES}

    @staticmethod
    def check(params, kmin, kmax):
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_outcome(params, kmin, kmax, recursion_rows(params.M, params.N))
        got = outcome(lambda: DpmlFunction(params).stack(kmin, kmax))
        if isinstance(want, str):
            assert got == want
            return {text for text in STOP_MESSAGES if text in want}
        scale = rounding_scale(
            DpmlParams(params.alpha, params.beta, params.r, params.M, params.N), kmin, kmax
        )
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale)
        return {"values"}


def accumulate_row(policy, row):
    """(order, total bytes) where _SeriesAccumulator stops one row of terms,
    shaped (orders, 4), or (order, error text) where it raises."""
    acc = _SeriesAccumulator(policy, 2)
    try:
        for i in range(policy.i_max + 1):
            if acc.add(row[i].reshape(2, 2)):
                return i, acc.total.tobytes()
        raise acc.exhausted()
    except DivergenceError as exc:
        return acc._i, str(exc)


def drive_lone(policy, row, lengths, monkeypatch):
    """One row of terms, shaped (orders, 4), alone through dpml._block_sum in
    blocks of the given lengths, cycled.  Returns the blocks (i0, i) it drew
    and the total bytes or the error text."""
    cycle = itertools.cycle(lengths)
    monkeypatch.setattr(dpml, "_LONE_ORDERS", 1 << 30)
    monkeypatch.setattr(dpml, "_block_orders", lambda rows, cells, width: next(cycle))
    blocks = []

    def terms(i0, i, live):
        assert live.tolist() == [0]
        blocks.append((i0, i))
        return row[i0:i, :, None].copy()

    try:
        return blocks, dpml._block_sum(policy, 1, 4, None, terms).tobytes()
    except DivergenceError as exc:
        return blocks, str(exc)


class TestLoneStopRule:
    """A lone adaptive series runs _block_sum's one-row loop.  Every designed
    row stops, and raises, where the order-by-order accumulator does, in the
    block holding that order, whatever the block lengths."""

    @pytest.mark.parametrize("lengths", TestBlockStopRule.LENGTHS, ids=str)
    @pytest.mark.parametrize("name", list(ROWS))
    def test_stops_and_raises_where_the_accumulator_does(self, name, lengths, monkeypatch):
        order, want = accumulate_row(TIGHT, ROWS[name])
        blocks, got = drive_lone(TIGHT, ROWS[name], lengths, monkeypatch)
        assert got == want
        # Consecutive blocks from order 0, the last one holding the order.
        assert [i0 for i0, _ in blocks] == [0] + [i for _, i in blocks[:-1]]
        assert blocks[-1][0] <= order < blocks[-1][1]


# -- byte references of the vectorised drivers ----------------------------


def reference_series(params, kmin, kmax, imax=None, commutative=False):
    """DpmlFunction._series as it was before its products were batched.

    An (L × W) table of monomial arguments, one gather and one
    ``weights @ q`` per order with untransposed word sums, running totals
    added order by order, and blocks of at most _ORDER_BLOCK orders,
    _BLOCK_CELLS cells of terms and _TRIANGLE_CELLS cells of a monomial
    table of kmax + (p(kmax) + 1) r cells an order, the bound of
    DpmlFunction's own table.  Returns the values and {k: stop order} of the
    points it summed under the policy; raises the stop rule's
    DivergenceError.
    """
    r, n = params.r, params.dim
    out = np.zeros((max(0, kmax - kmin + 1), n * n))
    if kmin <= -r <= kmax:
        out[-r - kmin] = np.eye(n).ravel()
    stops = {}
    first = max(kmin, 1 - r)
    if first > kmax:
        return out.reshape(-1, n, n), stops
    pol = params.policy
    last = pol.i_max if imax is None else imax
    ks = np.arange(first, kmax + 1)
    p = np.maximum(0, -(-ks // r))
    j = np.arange(int(p.max()) + 1)
    m = np.where(j <= p[:, None], ks[:, None] - (j - 1) * r, 0)
    rows = ks - kmin
    width = kmax + (int(p.max()) + 1) * r
    total = np.zeros((n * n, ks.size))
    rule = dpml._StopRule(pol, ks.size)
    source = reference_commuting_rows if commutative else reference_word_sum_rows
    qrows = source(params.M, params.N, m.shape[1] - 1)
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while i <= last:
            b = max(1, min(dpml._ORDER_BLOCK, dpml._BLOCK_CELLS // (rows.size * n * n),
                           dpml._TRIANGLE_CELLS // width))
            i0, i = i, min(i + b, last + 1)
            h = np.zeros((i - i0, kmax + r + 1))
            for t in range(i - i0):
                h[t, 1:] = monomial_run((i0 + t) * params.alpha + (params.beta - 1.0), kmax + r)
            terms = np.empty((i - i0, n * n, rows.size))
            for t, q in zip(range(i - i0), qrows):
                jmax = min(i0 + t, m.shape[1] - 1)
                weights = h[t][m[:, : jmax + 1]]
                terms[t] = (weights @ q[: jmax + 1].reshape(jmax + 1, n * n)).T
            if imax is not None:
                for term in terms:
                    total += term
                continue
            stopped, at, running = rule.block(i0, terms, total)
            out[rows[stopped]] = terms[at, :, stopped]
            stops.update(zip((rows[stopped] + kmin).tolist(), (i0 + at).tolist()))
            if not running.size:
                return out.reshape(-1, n, n), stops
            rows, total, p = rows[running], terms[-1][:, running], p[running]
            m = m[running, : int(p.max()) + 1]
    if imax is None:
        raise dpml._exhausted(pol)
    out[rows] = total.T
    return out.reshape(-1, n, n), stops


def quiet(call):
    """outcome() of a call, with the convergence warning silenced too."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return outcome(call)


def reference_values(call):
    """outcome() of a reference_series call, without the stop orders."""
    got = quiet(call)
    return got if isinstance(got, str) else got[0]


class ProductCounter:
    """Counts the word-sum orders DpmlFunction's series draws and the items
    of its batched np.matmul calls, through dpml's own names: the orders
    not batched took one product each."""

    def __init__(self, monkeypatch):
        self.drawn = self.batched = 0
        for name in ("_word_sum_rows", "_commuting_word_sum_rows"):
            monkeypatch.setattr(dpml, name, self.counted(getattr(dpml, name)))
        monkeypatch.setattr(dpml, "np", self)

    def counted(self, source):
        def rows(*args):
            for row in source(*args):
                self.drawn += 1
                yield row
        return rows

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out):
        self.batched += len(b)
        return np.matmul(a, b, out=out)


class TestSeriesBytes:
    """stack, with and without imax, and value give the bytes and error
    texts of the per-order loop of reference_series."""

    @pytest.mark.parametrize("policy", [TruncationPolicy(), TIGHT, ODD],
                             ids=["default", "tight", "odd"])
    @pytest.mark.parametrize("r", [1, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_per_order_loop(self, n, r, policy):
        seen = set()
        for commutative, scale in itertools.product((False, True), (0.3, 1.0, 4.0)):
            base = stack_case(n, r, commutative)
            params = DpmlParams(0.7, 0.4, r, scale * base.M, scale * base.N, policy)
            fn = quiet(lambda: DpmlFunction(params, commutative=commutative))

            def check(call, kmin, kmax, imax=None, point=False):
                got = quiet(call)
                want = reference_values(
                    lambda: reference_series(params, kmin, kmax, imax, commutative)
                )
                if point and not isinstance(want, str):
                    want = want[0]
                assert_same_outcome(got, want)
                seen.add("values" if isinstance(got, np.ndarray) else got[:40])

            for kmin, kmax in ((-r - 2, 30), (-r, -r), (1 - r, 1 - r), (2, 9)):
                check(lambda: fn.stack(kmin, kmax), kmin, kmax)
            for k in (-r - 1, -r, 1 - r, 0, 1, 7, 30):
                check(lambda: fn.value(k), k, k, point=True)
            for k, imax in ((1 - r, 0), (5, 3), (12, 33), (30, 70)):
                check(lambda: fn.stack(k, k, imax)[0], k, k, imax, point=True)
            for kmin, kmax, imax in ((-r - 2, 30, 0), (-r, 9, 33), (2, 30, 70)):
                check(lambda: fn.stack(kmin, kmax, imax), kmin, kmax, imax)
        assert "values" in seen
        if policy is TIGHT:
            assert any(text in seen_text for text in STOP_MESSAGES for seen_text in seen)

    @pytest.mark.parametrize("block", [4, 32])
    @pytest.mark.parametrize("n, r", [(1, 1), (2, 3)])
    def test_small_blocks_gather_weights_in_parts(self, n, r, block, monkeypatch):
        # 256 cells a block: the 31-point stack at n = r = 1 takes at most 8
        # orders a block and gathers the weights of fewer orders at a time
        # once more than 8 delay blocks are live.
        monkeypatch.setattr(dpml, "_ORDER_BLOCK", block)
        monkeypatch.setattr(dpml, "_BLOCK_CELLS", 256)
        for commutative, scale in itertools.product((False, True), (0.3, 1.0)):
            base = stack_case(n, r, commutative)
            params = DpmlParams(0.7, 0.4, r, scale * base.M, scale * base.N, TIGHT)
            fn = quiet(lambda: DpmlFunction(params, commutative=commutative))
            got = quiet(lambda: fn.stack(-r - 2, 30))
            want = reference_values(lambda: reference_series(params, -r - 2, 30, None, commutative))
            assert_same_outcome(got, want)

    @pytest.mark.parametrize("cells", [48, 200, 1 << 15])
    @pytest.mark.parametrize("n, r", [(1, 1), (2, 2), (2, 5)])
    def test_full_width_orders_take_one_product_a_chunk(self, n, r, cells, monkeypatch):
        # An order that reads every live delay block of its block joins one
        # np.matmul a chunk of weights; the orders before it, still
        # growing, take one product each.  Chunks of _BLOCK_CELLS //
        # (points x delay blocks) orders put the first full-width order
        # inside a chunk (at n = r = 1, 48 cells: the 2-order chunk of
        # orders 22 and 23 of k = 29), and both branches must run.
        monkeypatch.setattr(dpml, "_BLOCK_CELLS", cells)
        counter = ProductCounter(monkeypatch)
        for commutative in (False, True):
            base = stack_case(n, r, commutative)
            params = DpmlParams(0.7, 0.4, r, 0.3 * base.M, 0.3 * base.N)
            fn = quiet(lambda: DpmlFunction(params, commutative=commutative))
            for k in (1, 7, 29, 30, 41):
                want = reference_values(lambda: reference_series(params, k, k, None, commutative))
                assert_same_outcome(quiet(lambda: fn.stack(k, k)), want)
                assert_same_outcome(quiet(lambda: fn.value(k)), want[0])
                want = reference_values(lambda: reference_series(params, k, k, 40, commutative))
                assert_same_outcome(quiet(lambda: fn.stack(k, k, 40)), want)
            for kmin, kmax, imax in ((1 - r, 30, None), (5, 30, 70), (12, 13, None)):
                want = reference_values(
                    lambda: reference_series(params, kmin, kmax, imax, commutative))
                assert_same_outcome(quiet(lambda: fn.stack(kmin, kmax, imax)), want)
        assert counter.batched > 0 and counter.drawn > counter.batched

    # (M, N) scalars whose value at k = 20 stops at the last and the first
    # order of a lone series' blocks of _LONE_ORDERS = 24 orders (23 and 24,
    # 47 and 48), and at 63 and 64, where its 64-order blocks met.
    EDGE_PAIRS = [((0.0595, 0.0595), 23), ((0.066, 0.066), 24), ((0.2235, 0.2235), 47),
                  ((0.23, 0.23), 48), ((0.3241, 0.3241), 63), ((0.3286, 0.3286), 64)]

    def test_lone_series_stops_at_block_edges(self):
        for (m, nn), want in self.EDGE_PAIRS:
            params = DpmlParams(0.7, 0.4, 1, [[m]], [[nn]])
            values, stops = reference_series(params, 20, 20)
            assert stops == {20: want}
            got = DpmlFunction(params).value(20)
            assert got.tobytes() == values[0].tobytes()
            stacked = DpmlFunction(params).stack(20, 20)
            assert stacked.tobytes() == values.tobytes()


def sequential_totals(terms, total):
    """The running totals after each order by ``total += term``, copied."""
    total = total.copy()
    out = []
    for term in terms:
        total += term
        out.append(total.copy())
    return np.array(out)


def nan_canonical(values):
    """Bytes of values with every NaN as np.nan.  IEEE 754 leaves open which
    NaN an add of two NaNs returns, and the order of its operands picks it
    on x86; every other bit of a sum is fixed."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


class TestRunningTotals:
    """Both paths of _running_totals, one np.cumsum on narrow blocks and one
    add per order on wide ones, make the sequential adds bit for bit, up to
    which NaN an add of two NaNs returns."""

    SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324])

    # Up to _NARROW_CELLS = 128 cells an order (16 × 8) the cumsum path runs,
    # from 16 × 9 on the add per order.
    @pytest.mark.parametrize("cells, rows", [(1, 1), (4, 1), (16, 8), (16, 9), (9, 40), (1, 300)])
    def test_paths_match_sequential_adds(self, cells, rows):
        rng = np.random.default_rng(cells * 1000 + rows)
        for orders in (1, 2, 7, 64):
            # Mostly specials, so -0.0 + -0.0, inf - inf and nan all occur.
            terms = rng.choice(self.SPECIAL, size=(orders, cells, rows))
            plain = rng.random(terms.shape) < 0.3
            terms[plain] = rng.normal(size=plain.sum())
            total = rng.choice(self.SPECIAL, size=(cells, rows))
            with np.errstate(invalid="ignore", over="ignore"):
                want = sequential_totals(terms, total)
                got = dpml._running_totals(terms.copy(), total)
            assert nan_canonical(got) == nan_canonical(want)


def reference_delay_block_sum(N, weights):
    """Sum of weights[i] * N**i by ``total += weight * power``, one matrix
    product per power."""
    total = np.zeros_like(N)
    power = np.eye(N.shape[0])
    for weight in weights:
        total += weight * power
        power = power @ N
    return total


class TestDelayBlockSums:
    """The finite sums of the delay-block reductions run on _power_sum, the
    lone-series driver of ml_eval, stopped at the last delay block."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_delay_block_sum_matches_power_loop(self, n):
        rng = np.random.default_rng(70 + n)
        # 65 and 130 weights cross the 64-order blocks of a lone fixed-order sum.
        for count in (1, 2, 5, 40, 65, 130):
            for N in (0.5 * rng.normal(size=(n, n)), -0.0 * np.ones((n, n)),
                      np.where(rng.random((n, n)) < 0.5, -0.0, -0.3)):
                # Signed and zero weights give -0.0 products.
                weights = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=count)
                got = dpml._power_sum(N, lambda i0, i: weights[i0:i], count - 1)
                assert got.tobytes() == reference_delay_block_sum(N, weights).tobytes()

    @pytest.mark.parametrize("cells", [None, 1, 7, 100])
    def test_delayed_ml_weights_match_scalar_monomial(self, cells, monkeypatch):
        # A block's table of monomial products holds at most `cells` cells,
        # and the blocks take at most 2 * _ORDER_BLOCK orders; every cut
        # gives the scalar rule's products and the sum's bytes.  At r = 1,
        # k = 200 the sum runs over 201 orders, past three block edges.
        if cells is not None:
            monkeypatch.setattr(dpml, "_TRIANGLE_CELLS", cells)
        N = 0.3 * np.array(N2)
        cases = itertools.chain(
            itertools.product((0.3, 0.75, 1.0), (1, 2, 5), (-1, 0, 1, 7, 60)),
            itertools.product((0.3, 0.75, 1.0), (1,), (199, 200)),
        )
        for alpha, r, k in cases:
            if k <= -r:
                continue
            weights = [
                monomial(i * alpha + alpha - 1.0, k, (i - 1) * r)
                for i in range(max(0, -(-k // r)) + 1)
            ]
            want = reference_delay_block_sum(N, weights).tobytes()
            for block in (32, 5, 1):
                monkeypatch.setattr(dpml, "_ORDER_BLOCK", block)
                assert dpml._reduce_delayed_ml(N, alpha, r, k).tobytes() == want


def traced_peak(call):
    """The call's result and the peak of the memory tracemalloc traced in it."""
    tracemalloc = pytest.importorskip("tracemalloc")
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeriesMemory:
    def test_stack_holds_no_point_by_block_table(self):
        # At r = 1 there are as many delay blocks as points; an (L × W)
        # argument table held 65 MiB here, K = 2000.
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        M, N = 0.03 * A / np.linalg.norm(A, 1), 0.03 * B / np.linalg.norm(B, 1)
        fn = DpmlFunction(DpmlParams(0.6, 0.6, 1, M, N))
        _, peak = traced_peak(lambda: fn.stack(0, 2000))
        assert peak < 8 * 2**20

    def test_lone_series_table_stays_small(self):
        # A lone series reads one column of its (orders × m) monomial table;
        # 64 orders of it held 99 MiB here, at m = k - a = 2e5.
        M = 0.05 * M2
        got, peak = traced_peak(lambda: ml_eval(M, 0.2, -0.3, 200_000, 0))
        assert peak < 16 * 2**20
        want = reference_ml(M, 0.2, -0.3, 200_000, 0, TruncationPolicy())
        assert got.tobytes() == want.tobytes()

    def test_every_block_table_within_cap(self, monkeypatch):
        # Two points at r = 2 keep each block's monomial table within
        # _TRIANGLE_CELLS, as a lone point does: 32 orders of it held 100,096
        # cells here.  Unbounded, homogeneous_part at r = 2, k = 2e5 peaked
        # at 50.5 MiB.  The reference takes the same block lengths.
        cap, k = 1 << 14, 3000
        monkeypatch.setattr(dpml, "_TRIANGLE_CELLS", cap)
        tables = []
        rows = dpml._monomial_rows

        def spy(mu, out):
            tables.append(out.size if out.base is None else out.base.size)
            return rows(mu, out)

        monkeypatch.setattr(dpml, "_monomial_rows", spy)
        params = DpmlParams(0.5, 0.5, 2, [[0.01]], [[0.01]])
        got = DpmlFunction(params).stack(k - 1, k)
        assert tables and max(tables) <= cap
        assert got.tobytes() == reference_series(params, k - 1, k)[0].tobytes()

    def test_exponential_perturbation_triangle_stays_small(self):
        # The weights of a block of orders are read off running products
        # built in chunks of _BLOCK_CELLS cells.  Unchunked, the table of one
        # block held 1.9 and 2.6 MiB at (r, k) = (3, 600) and (5, 800) with
        # the point-query benchmark's 1-norms 0.3.
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        for norm, r, k in ((0.05, 1, 160), (0.3, 3, 600), (0.3, 5, 800)):
            params = DpmlParams(1.0, 1.0, r, norm * A / np.linalg.norm(A, 1),
                                norm * B / np.linalg.norm(B, 1))
            got, peak = traced_peak(
                lambda: special_reductions(params, k, pattern="exponential_perturbation")
            )
            assert peak < 2**20
            want = reference_exponential_perturbation(params.M, params.N, r, k, params.policy)
            assert got.tobytes() == want.tobytes()
