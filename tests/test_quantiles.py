import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecp.quantiles import (
    DiscreteDistribution,
    check_nonnegative,
    check_prob,
    check_real,
    column_quant_bounds,
    left_quantile,
    mixture_quantile_rows,
    quant_minus,
    quant_plus,
    rank_minus,
    rank_plus,
    right_quantile,
)
from mecp.evaluation import _env_covered
from mecp.weighted import score_from_thresholds
from oracles import (
    oracle_float_cumsum_quantile_rows,
    oracle_left_quantile,
    oracle_quant_minus,
    oracle_quant_plus,
    oracle_right_quantile,
)


RANK_ALPHAS = (0.1, 0.2, 0.3, 0.7, 0.9, 1 / 3, 1e-9, 1 - 1e-9)


class TestCheckProb:
    def test_returns_a_float_for_real_numbers(self):
        for value in (0.25, np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
            got = check_prob(value, "p")
            assert type(got) is float and got == 0.25

    @pytest.mark.parametrize("value", ["0.1", b"0.1", True, False, np.True_, None, [0.1],
                                       np.array([0.1])])
    def test_refuses_what_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match="p must be a finite number"):
            check_prob(value, "p")

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 2.0, math.nan, math.inf, 0, 1])
    def test_refuses_values_outside_the_open_unit_interval(self, value):
        with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
            check_prob(value, "p")


HUGE = 10**400  # 401 digits: a JSON integer no float can hold


class TestScalarRule:
    """The three scalar checks share one type gate and differ only in range."""

    CHECKS = (check_real, check_prob, check_nonnegative)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("value", [Fraction(1, 2), np.float32(0.5), np.float64(0.5)])
    def test_accept_real_numbers_as_floats(self, check, value):
        got = check(value, "v")
        assert type(got) is float and got == 0.5

    @pytest.mark.parametrize("value", [3, np.int64(3)])
    def test_accept_integers_and_apply_only_their_range(self, value):
        for check in (check_real, check_nonnegative):
            got = check(value, "v")
            assert type(got) is float and got == 3.0
        with pytest.raises(ValueError, match="v must lie strictly between 0 and 1, got 3.0"):
            check_prob(value, "v")

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5", b"0.5", None, [0.5]])
    def test_refuse_what_is_not_a_real_number(self, check, value):
        with pytest.raises(ValueError, match="v must be a finite number, got "):
            check(value, "v")

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("value", [HUGE, -HUGE, Fraction(HUGE, 7)])
    def test_refuse_a_number_too_large_for_a_float_by_saying_so(self, check, value):
        with pytest.raises(ValueError, match="got a number too large for a float$") as info:
            check(value, "v")
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32(math.inf)])
    def test_non_finite_values_fail_each_range(self, value):
        with pytest.raises(ValueError, match="v must be a finite number, got (nan|-?inf)$"):
            check_real(value, "v")
        with pytest.raises(ValueError, match="v must be finite and nonnegative"):
            check_nonnegative(value, "v")
        with pytest.raises(ValueError, match="v must lie strictly between 0 and 1"):
            check_prob(value, "v")

    def test_nonnegative_takes_zero_and_refuses_below(self):
        assert check_nonnegative(0, "v") == 0.0
        with pytest.raises(ValueError, match="v must be finite and nonnegative, got -0.5"):
            check_nonnegative(-0.5, "v")


class TestCachedRanks:
    """Memoized ranks against the rational formulas they cache."""

    def test_ranks_match_the_exact_formulas(self):
        for alpha in RANK_ALPHAS:
            a = Fraction(alpha)
            for n in range(1, 301):
                plus = math.ceil((1 - a) * (n + 1))
                minus = math.floor(a * (n + 1))
                score = math.floor((1 - a) * n) + 1
                bar = math.ceil((1 - a) * n)
                values = np.arange(1.0, n + 1)
                # twice: a fresh computation, then the cached value
                for _ in range(2):
                    assert rank_plus(n, alpha) == plus
                    assert rank_minus(n, alpha) == minus
                    assert quant_plus(values, alpha) == (plus if plus <= n else math.inf)
                    assert quant_minus(values, alpha) == (minus if minus >= 1 else -math.inf)
                    assert score_from_thresholds(values, alpha) == score
                    assert _env_covered(bar, n, alpha, "fraction")
                    assert not _env_covered(bar - 1, n, alpha, "fraction")

    def test_decimal_boundary(self):
        # the double nearest 0.3 lies below it, so (1 - alpha) * 10 exceeds 7
        # in exact arithmetic and the rank is 8; the float product rounds to 7
        assert quant_plus(np.arange(1.0, 10.0), 0.3) == 8.0
        assert quant_plus(list(range(1, 10)), 0.3) == 8.0


class TestSampleQuantiles:
    def test_hand_values_four_points(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert quant_plus(vals, 0.25) == 4.0
        assert quant_plus(vals, 0.05) == math.inf
        assert quant_minus(vals, 0.25) == 1.0
        assert quant_minus(vals, 0.05) == -math.inf

    def test_hand_values_ten_points(self):
        vals = list(range(1, 11))
        assert quant_plus(vals, 0.25) == 9.0
        assert quant_minus(vals, 0.25) == 2.0

    def test_frozen_irregular_sample(self):
        # expected values frozen from the exact-index oracle
        vals = [3.5, -1.25, 0.75, 9.0, 2.0, -4.5, 6.25]
        assert quant_plus(vals, 0.1) == math.inf
        assert quant_minus(vals, 0.1) == -math.inf
        assert quant_plus(vals, 0.3) == 6.25
        assert quant_minus(vals, 0.3) == -1.25
        assert quant_plus(vals, 0.45) == 3.5
        assert quant_minus(vals, 0.45) == 0.75

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=13)
        for a in (0.1, 0.37, 0.8):
            assert quant_plus(vals, a) == quant_plus(np.sort(vals)[::-1], a)

    def test_negation_identity(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 17):
            vals = rng.normal(size=n)
            for a in rng.uniform(0.01, 0.99, size=8):
                assert quant_minus(vals, a) == -quant_plus(-vals, a)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quant_plus([], 0.5)
        with pytest.raises(ValueError):
            quant_plus([1.0, math.nan], 0.5)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                quant_plus([1.0], bad)
            with pytest.raises(ValueError):
                quant_minus([1.0], bad)

    def test_infinite_values_sort_as_extended_reals(self):
        assert quant_plus([math.inf, 1.0, 2.0], 0.5) == 2.0
        assert quant_plus([math.inf, math.inf, 1.0], 0.4) == math.inf
        assert quant_minus([-math.inf, 1.0, 2.0], 0.5) == 1.0
        assert quant_minus([-math.inf, 1.0, 2.0], 0.3) == -math.inf

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
        st.floats(0.001, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, vals, alpha):
        assert quant_plus(vals, alpha) == oracle_quant_plus(vals, alpha)
        assert quant_minus(vals, alpha) == oracle_quant_minus(vals, alpha)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=30),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_level(self, vals, a1, a2):
        lo_a, hi_a = min(a1, a2), max(a1, a2)
        # smaller alpha pushes quant_plus up and quant_minus down
        assert quant_plus(vals, lo_a) >= quant_plus(vals, hi_a)
        assert quant_minus(vals, lo_a) <= quant_minus(vals, hi_a)


def _dist(locs, weights):
    return DiscreteDistribution(np.asarray(locs, float), np.asarray(weights, float))


class TestDiscreteQuantiles:
    def test_two_atom_boundary(self):
        d = _dist([1.0, 2.0], [0.5, 0.5])
        assert left_quantile(d, 0.5) == 1.0
        assert left_quantile(d, 0.500001) == 2.0
        assert right_quantile(d, 0.5) == 1.0

    def test_duplicate_atoms_merge_additively(self):
        d = _dist([1.0, 1.0, 2.0], [0.3, 0.3, 0.4])
        assert left_quantile(d, 0.55) == 1.0
        merged = _dist([1.0, 2.0], [0.6, 0.4])
        for a in (0.1, 0.55, 0.61, 0.99):
            assert left_quantile(d, a) == left_quantile(merged, a)

    def test_infinite_atoms(self):
        d = _dist([-math.inf, 5.0], [1 / 3, 2 / 3])
        # the -inf atom holds mass 1/3 >= 0.3, so it catches level 0.3
        assert left_quantile(d, 0.3) == -math.inf
        assert left_quantile(d, 0.4) == 5.0
        up = _dist([0.0, math.inf], [0.5, 0.5])
        assert left_quantile(up, 0.75) == math.inf
        assert left_quantile(up, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _dist([1.0, 2.0], [0.7, 0.7])
        with pytest.raises(ValueError):
            _dist([1.0, 2.0], [-0.1, 1.1])
        with pytest.raises(ValueError):
            _dist([math.nan], [1.0])
        with pytest.raises(ValueError):
            _dist([], [])
        with pytest.raises(ValueError):
            left_quantile(_dist([0.0], [1.0]), 1.0)

    @given(
        st.lists(
            st.tuples(st.floats(-1e3, 1e3, allow_nan=False), st.floats(0.01, 1.0)),
            min_size=1,
            max_size=25,
        ),
        st.floats(0.001, 0.999),
        st.sampled_from([0, 1, 2]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, atoms, alpha, inf_mode):
        locs = [a for a, _ in atoms]
        weights = np.array([w for _, w in atoms])
        if inf_mode == 1:
            locs.append(-math.inf)
            weights = np.append(weights, 0.5)
        elif inf_mode == 2:
            locs.append(math.inf)
            weights = np.append(weights, 0.5)
        weights = weights / weights.sum()
        d = _dist(locs, weights)
        assert left_quantile(d, alpha) == oracle_left_quantile(locs, weights, alpha)
        assert right_quantile(d, alpha) == oracle_right_quantile(locs, weights, alpha)

    def test_row_mixture_matches_scalar_path(self):
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.05, 1.0, size=9)
        weights /= weights.sum()
        rows = rng.normal(size=(40, 9))
        rows[:, -1] = math.inf
        for level in (0.1, 0.45, 0.9):
            got = mixture_quantile_rows(rows, weights, level)
            want = [left_quantile(_dist(r, weights), level) for r in rows]
            assert np.array_equal(got, np.asarray(want))

    def test_row_mixture_matches_scalar_path_bitwise_on_ties(self):
        # ties between atoms of unequal weight, repeated +-inf atoms and
        # -0.0/0.0 pairs: the summation order and the sign of zero must match
        rng = np.random.default_rng(11)
        pool = np.array([-math.inf, -1.5, -0.0, 0.0, 0.1, 0.7, 2.0, math.inf])
        for width in (2, 3, 7, 12):
            weights = rng.uniform(0.01, 1.0, size=width)
            weights /= weights.sum()
            rows = rng.choice(pool, size=(300, width))
            rows[:10] = rng.normal(size=(10, width))  # untied rows mixed in
            cum = np.cumsum(weights)
            levels = [0.05, 0.3, 0.5, 0.95, *cum[:-1]]
            for level in levels:
                got = mixture_quantile_rows(rows, weights, level)
                want = np.array([left_quantile(_dist(r, weights), level) for r in rows])
                assert (got == want).all()
                assert (np.signbit(got) == np.signbit(want)).all()

    def test_row_mixture_permuted_ties_match_scalar_path(self):
        # the same multiset of atoms in every order, each with its own weight
        weights = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        base = np.array([0.0, -0.0, 1.0, 1.0, math.inf])
        rows = np.array([base[list(perm)] for perm in itertools.permutations(range(5))])
        for level in (0.1, 0.3, 0.45, 0.6, 0.75, 0.9):
            got = mixture_quantile_rows(rows, weights, level)
            want = np.array([left_quantile(_dist(r, weights), level) for r in rows])
            assert (got == want).all()
            assert (np.signbit(got) == np.signbit(want)).all()


def hier_rows(rng, t, m, n, side, decimals=None):
    """Rows in the hierarchical jackknife+ layout and their weights.

    ``m * n`` finite atoms of weight ``1/((m+1) n)`` around one centre per
    row, then a reserved ``1/(m+1)`` column at ``-inf`` (side -1) or
    ``+inf`` (side +1).
    """
    res = np.abs(rng.normal(size=m * n))
    if decimals is not None:
        res = np.round(res, decimals)  # rounded residuals tie
    rows = np.hstack([rng.normal(size=(t, 1)) + side * res, np.full((t, 1), side * math.inf)])
    weights = np.append(np.full(m * n, 1.0 / ((m + 1) * n)), 1.0 / (m + 1))
    return rows, weights


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()


class TestSortRouteOnFixedOrderLayouts:
    """Hier and hcp weight layouts against the float-cumsum contract, bit for bit."""

    def check(self, rows, weights, levels):
        for level in levels:
            want = oracle_float_cumsum_quantile_rows(rows, weights, level)
            assert_bitwise(mixture_quantile_rows(rows, weights, level), want)

    def test_all_equal_weights(self):
        rng = np.random.default_rng(81)
        for width in (1, 2, 3, 9, 40):
            rows = np.round(rng.normal(size=(30, width)), 1)
            rows[:5, 0] = -math.inf
            rows[5:10, -1] = math.inf
            weights = np.full(width, 1.0 / width)
            self.check(rows, weights, (0.05, 0.1, 0.5, 0.9, 0.999, *np.cumsum(weights)[:-1]))

    def test_reserved_infinite_last_column(self):
        rng = np.random.default_rng(82)
        for m, n in ((1, 1), (1, 2), (3, 1), (4, 2), (6, 5), (19, 3)):
            for side in (-1, 1):
                rows, weights = hier_rows(rng, 25, m, n, side, decimals=1)
                cum = np.cumsum(np.roll(weights, 1) if side < 0 else weights)
                self.check(rows, weights, (0.01, 0.1, 0.35, 0.5, 0.9, 0.99, *cum[:-1]))

    def test_ties_and_signed_zeros_at_the_selected_rank(self):
        rng = np.random.default_rng(83)
        pool = np.array([-1.5, -0.0, 0.0, 0.5])
        for width in (2, 3, 5, 8):
            weights = np.full(width, 1.0 / width)
            rows = rng.choice(pool, size=(200, width))
            self.check(rows, weights, (0.1, 0.3, 0.5, 0.7, 0.9, *np.cumsum(weights)[:-1]))
            for side in (-1, 1):
                reserved = np.hstack([rows, np.full((200, 1), side * math.inf)])
                w = np.append(np.full(width, 0.5 / width), 0.5)
                self.check(reserved, w, (0.1, 0.3, 0.5, 0.7, 0.9, 0.6, 0.75))

    def test_single_row_and_tiny_widths(self):
        rng = np.random.default_rng(84)
        for m, n in ((1, 1), (2, 1), (1, 2), (5, 7)):
            for side in (-1, 1):
                rows, weights = hier_rows(rng, 1, m, n, side)
                self.check(rows, weights, (0.05, 0.2, 0.5, 0.8, 0.95))
        self.check(np.array([[-0.0]]), np.array([1.0]), (0.5,))
        self.check(np.array([[0.0, -0.0]]), np.array([0.5, 0.5]), (0.25, 0.5, 0.75))

    def test_loo_refit_shape(self):
        # 20 environments of 50 rows: weights 1/1050 and a reserved 1/21
        rng = np.random.default_rng(85)
        lows, weights = hier_rows(rng, 250, 20, 50, -1)
        highs, _ = hier_rows(rng, 250, 20, 50, 1)
        assert weights[0] == 1.0 / 1050 and weights[-1] == 1.0 / 21
        self.check(lows, weights, (0.1,))
        self.check(highs, weights, (0.9,))
        # every cumsum boundary, on a few rows
        for rows, sorted_w in ((lows, np.roll(weights, 1)), (highs, weights)):
            self.check(rows[:3], weights, np.cumsum(sorted_w)[:-1])

    def test_fallback_inputs(self):
        rng = np.random.default_rng(86)
        # unequal environment sizes
        sizes = np.array([3, 5, 4])
        weights = np.append(np.repeat(1.0 / (4 * sizes), sizes), 0.25)
        rows = np.hstack([np.round(rng.normal(size=(40, 12)), 1), np.full((40, 1), -math.inf)])
        self.check(rows, weights, (0.1, 0.3, 0.5, 0.9))
        # a free -inf atom ties with the reserved one and comes first
        rows, weights = hier_rows(rng, 40, 4, 3, -1)
        rows[::3, 2] = -math.inf
        self.check(rows, weights, (0.1, 0.2, 0.21, 0.3, 0.5))
        # the last column is infinite in only some rows
        rows, weights = hier_rows(rng, 40, 4, 3, 1)
        rows[::2, -1] = rng.normal(size=20)
        self.check(rows, weights, (0.1, 0.5, 0.79, 0.8, 0.81, 0.9))



class TestColumnQuantBounds:
    def test_matches_per_column_sample_quantiles(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5, 20):
            lows = rng.normal(size=(n, 15))
            highs = lows + rng.uniform(0.0, 2.0, size=(n, 15))
            lows[rng.random((n, 15)) < 0.1] = -math.inf
            highs[rng.random((n, 15)) < 0.1] = math.inf
            for alpha in (0.01, 0.1, 0.25, 0.5, 0.7, 0.99):
                lo, hi = column_quant_bounds(lows, highs, alpha)
                for j in range(15):
                    assert lo[j] == quant_minus(lows[:, j], alpha)
                    assert hi[j] == quant_plus(highs[:, j], alpha)

    def test_overflow_to_infinities(self):
        lo, hi = column_quant_bounds(np.zeros((2, 3)), np.ones((2, 3)), 0.1)
        assert (lo == -math.inf).all() and (hi == math.inf).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            column_quant_bounds(np.zeros((0, 2)), np.zeros((0, 2)), 0.1)
        with pytest.raises(ValueError):
            column_quant_bounds(np.zeros((2, 2)), np.zeros((3, 2)), 0.1)
        with pytest.raises(ValueError):
            column_quant_bounds(np.full((2, 2), np.nan), np.zeros((2, 2)), 0.1)
        with pytest.raises(ValueError):
            column_quant_bounds(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
