"""Hand-computed thresholds, dual certificates, and quantile equivalences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mecp.data import EnvironmentSample
from mecp.nested_sets import SymmetricFamily
from mecp.quantiles import quant_plus
from mecp.weighted import (
    dual_eta,
    env_score,
    randomized_threshold,
    score_from_thresholds,
    weighted_threshold,
)
from oracles import oracle_env_score, oracle_weighted_threshold

# slack allowed on the box bounds of returned multipliers
BOX_TOLERANCE = 1e-10


class StubRng:
    """Degenerate generator pinning the uniform draw."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def ones_features(m):
    return np.ones((m + 1, 1))


def group_features(sizes, test_group):
    rows = []
    for g, size in enumerate(sizes):
        block = np.zeros((size, len(sizes)))
        block[:, g] = 1.0
        rows.append(block)
    test = np.zeros((1, len(sizes)))
    test[0, test_group] = 1.0
    return np.vstack(rows + [test])


def lp_test_reach(phi, delta, sign):
    """Largest (sign 1) or least (sign -1) box-feasible test multiplier."""
    n = phi.shape[0]
    objective = np.zeros(n)
    objective[-1] = -sign
    res = linprog(objective, A_eq=phi.T, b_eq=np.zeros(phi.shape[1]),
                  bounds=[(-delta, 1.0 - delta)] * n, method="highs")
    assert res.status == 0
    return -sign * res.fun


def lp_dual_value(full_scores, phi, delta):
    """Independent route: solve the box dual directly as a linear program."""
    n = full_scores.size
    res = linprog(-full_scores, A_eq=phi.T, b_eq=np.zeros(phi.shape[1]),
                  bounds=[(-delta, 1.0 - delta)] * n, method="highs")
    assert res.status == 0
    return -res.fun


def lp_face_eta(full_scores, phi, delta):
    """Independent route: the largest test multiplier on the box dual's optimal face.

    Stage 1 solves the box dual as a linear program; stage 2 maximizes the
    test (last) multiplier over the points within a cut of the optimal
    value, widened once when the first cut sits inside solver noise. Both
    run HiGHS at feasibility tolerance 1e-10.
    """
    n = full_scores.size
    common = dict(A_eq=phi.T, b_eq=np.zeros(phi.shape[1]), bounds=[(-delta, 1.0 - delta)] * n,
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    first = linprog(-full_scores, **common)
    assert first.status == 0
    value = -first.fun
    objective = np.zeros(n)
    objective[-1] = -1.0
    for face_tol in (1e-10 * (1.0 + abs(value)), 1e-8 * (1.0 + abs(value))):
        res = linprog(objective, A_ub=-full_scores[None, :], b_ub=[-(value - face_tol)], **common)
        if res.status == 0:
            return float(res.x[-1])
    return float(first.x[-1])


class TestScoreFromThresholds:
    def test_hand_values_four_points(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert score_from_thresholds(vals, 0.25) == 4.0
        assert score_from_thresholds(vals, 0.5) == 3.0
        assert score_from_thresholds(vals, 0.75) == 2.0

    def test_fraction_must_exceed_level_strictly(self):
        # two of four covered is exactly one half, not enough at alpha = 0.5
        assert score_from_thresholds([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_single_observation(self):
        assert score_from_thresholds([7.5], 0.9) == 7.5
        assert score_from_thresholds([7.5], 0.05) == 7.5

    def test_unsorted_input(self):
        assert score_from_thresholds([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0

    @given(
        values=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
        alpha=st.floats(0.01, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, values, alpha):
        assert score_from_thresholds(values, alpha) == oracle_env_score(values, alpha)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            score_from_thresholds([], 0.5)
        with pytest.raises(ValueError):
            score_from_thresholds([1.0, math.nan], 0.5)
        with pytest.raises(ValueError):
            score_from_thresholds([1.0], 0.0)
        with pytest.raises(ValueError):
            score_from_thresholds([1.0], 1.0)

    def test_env_score_uses_family_thresholds(self):
        env = EnvironmentSample(
            env_id="e0",
            x=np.zeros((4, 1)),
            y=np.array([0.0, 1.0, -2.0, 4.0]),
        )
        family = SymmetricFamily(predict=lambda xs: np.zeros(xs.shape[0]))
        # thresholds are |y|; half coverage needs the third order statistic
        assert env_score(env, family, 0.5) == 2.0
        assert env_score(env, family, 0.1) == 4.0


class TestDualEta:
    def test_hand_case_two_environments(self):
        sol = dual_eta(np.array([0.0]), ones_features(1), delta=0.5,
                       ridge_weight=0.0, s=-1.0)
        assert sol.eta[0] == 0.5
        assert sol.eta[1] == -0.5
        assert sol.objective == 0.5

    def test_large_imputed_score_saturates(self):
        scores = np.array([0.0, 1.0, 2.0])
        sol = dual_eta(scores, ones_features(3), delta=0.5, ridge_weight=0.0, s=1e6)
        assert sol.eta[-1] == 0.5
        sol = dual_eta(scores, ones_features(3), delta=0.5, ridge_weight=0.0, s=-1e6)
        assert sol.eta[-1] == -0.5

    @given(
        scores=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=8),
        delta=st.floats(0.02, 0.98),
        s=st.floats(-2e3, 2e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_box_and_constraint_feasibility(self, scores, delta, s):
        scores = np.asarray(scores)
        sol = dual_eta(scores, ones_features(scores.size), delta, 0.0, s)
        assert (sol.eta >= -delta - BOX_TOLERANCE).all()
        assert (sol.eta <= 1.0 - delta + BOX_TOLERANCE).all()
        assert abs(sol.eta.sum()) <= 1e-9

    def test_objective_matches_direct_linear_program(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = int(rng.integers(1, 8))
            delta = float(rng.uniform(0.05, 0.95))
            scores = rng.normal(size=m)
            s = float(rng.normal())
            sol = dual_eta(scores, ones_features(m), delta, 0.0, s)
            want = lp_dual_value(np.append(scores, s), ones_features(m), delta)
            assert sol.objective == pytest.approx(want, abs=1e-7 * (1 + abs(want)))

    def test_group_indicators_reduce_to_own_group(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=3), rng.normal(size=3)
        feats = group_features([3, 3], test_group=0)
        atoms = np.sort(a)
        probes = np.concatenate([atoms + 0.37 * np.diff(atoms, prepend=atoms[0] - 1.0),
                                 [atoms[0] - 2.0, atoms[-1] + 2.0]])
        for s in probes:
            full = dual_eta(np.concatenate([a, b]), feats, 0.3, 0.0, float(s))
            own = dual_eta(a, ones_features(3), 0.3, 0.0, float(s))
            assert full.eta[-1] == pytest.approx(own.eta[-1], abs=1e-6)

    def test_test_multiplier_monotone_without_regularization(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=5)
        span = scores.max() - scores.min()
        grid = np.linspace(scores.min() - 2 * span, scores.max() + 2 * span, 100)
        etas = [dual_eta(scores, ones_features(5), 0.25, 0.0, float(s)).eta[-1]
                for s in grid]
        assert (np.diff(etas) >= 0.0).all()

    @pytest.mark.parametrize("kind", ["scaled constant", "groups"])
    def test_test_multiplier_monotone_on_group_features(self, kind):
        # from the box's lower end far below the test group's scores to its
        # upper end far above, through every atom
        rng = np.random.default_rng(12)
        scores = rng.normal(size=6)
        if kind == "scaled constant":
            features = -0.7 * ones_features(6)
        else:
            features = group_features([3, 3], test_group=1) * [2.5, -0.7]
        span = scores.max() - scores.min()
        grid = np.sort(np.concatenate([
            np.linspace(scores.min() - 2 * span, scores.max() + 2 * span, 100), scores]))
        etas = [dual_eta(scores, features, 0.25, 0.0, float(s)).eta[-1] for s in grid]
        assert (np.diff(etas) >= 0.0).all()
        # a tie fill at a span end gives the box end exactly, even where
        # dividing by a scaled column's entry would round off it
        assert etas[0] == -0.25
        assert etas[-1] == 0.75

    def test_calibration_tie_filling_its_span_gives_the_box_end(self):
        # every score tied: the test group's two calibration multipliers are
        # filled to the end of their span on a column scaled by -0.7
        features = group_features([2, 2], test_group=1) * [2.5, -0.7]
        eta = dual_eta(np.zeros(4), features, 0.1, 0.0, 0.0).eta
        assert eta[2] == eta[3] == -0.1

    def test_partial_tie_fill_lands_on_the_box_end(self):
        # every score tied: after the test multiplier takes its upper end, the
        # test group's three calibration multipliers share the rest exactly;
        # a float fill on the -0.7 column stops the last a few ulps inside
        features = group_features([3, 3], test_group=1) * [2.5, -0.7]
        eta = dual_eta(np.zeros(6), features, 0.25, 0.0, 0.0).eta
        assert eta[3] == eta[4] == eta[5] == -0.25
        assert eta[6] == 0.75

    @pytest.mark.parametrize("m", [1, 3, 5, 9])
    def test_integer_rank_splits_the_scores_at_the_median(self, m):
        # ridge 0, delta 0.5 and odd m make (m + 1)(1 - delta) an integer: the
        # subgradient reaches zero at the lower middle score, where the tie
        # fill leaves one vertex, the upper half at 1 - delta, the rest at -delta
        rng = np.random.default_rng(m)
        for _ in range(75):
            scores = rng.normal(size=m)
            s = float(rng.normal())
            eta = dual_eta(scores, ones_features(m), 0.5, 0.0, s).eta
            upper = np.sum(np.append(scores, s) > s) < (m + 1) // 2
            assert eta[-1] == (0.5 if upper else -0.5)
            assert eta.sum() == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dual_eta(np.array([1.0]), np.ones((1, 1)), 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            dual_eta(np.array([math.nan]), ones_features(1), 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            dual_eta(np.array([1.0]), ones_features(1), 0.5, -0.1, 0.0)


class TestWeightedThreshold:
    def test_matches_plain_quantile_on_random_sets(self):
        rng = np.random.default_rng(20260814)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.05, 0.95))
            scale = 10.0 ** float(rng.integers(-2, 3))
            scores = rng.normal(size=m) * scale
            got = weighted_threshold(scores, ones_features(m), delta=delta)
            assert got == quant_plus(scores, delta)

    def test_overflow_goes_to_infinity(self):
        scores = np.array([1.0, 2.0])
        assert quant_plus(scores, 0.2) == math.inf
        assert weighted_threshold(scores, ones_features(2), 0.2) == math.inf

    def test_all_equal_scores(self):
        scores = np.full(5, 3.25)
        assert weighted_threshold(scores, ones_features(5), 0.4) == 3.25

    def test_group_indicators_decouple(self):
        scores = np.array([1.0, 2.0, 9.0, 10.0])
        in_a = group_features([2, 2], test_group=0)
        in_b = group_features([2, 2], test_group=1)
        assert weighted_threshold(scores, in_a, 0.35) == 2.0
        assert weighted_threshold(scores, in_b, 0.35) == 10.0
        assert weighted_threshold(scores, ones_features(4), 0.35) == 10.0

    def test_rejects_bad_levels(self):
        scores = np.array([1.0])
        with pytest.raises(ValueError):
            weighted_threshold(scores, ones_features(1), 0.0)
        with pytest.raises(ValueError):
            weighted_threshold(scores, ones_features(1), 1.0)


class TestRandomizedThreshold:
    scores = np.array([0.5, 1.5, 2.5])

    def threshold(self, u):
        return randomized_threshold(self.scores, ones_features(3), delta=0.4, rng=StubRng(u))

    def test_full_draw_overflows_upward(self):
        assert self.threshold(1.0) == math.inf

    def test_zero_draw_stays_below_plain_quantile(self):
        assert self.threshold(0.0) == 1.5
        assert self.threshold(0.0) <= quant_plus(self.scores, 0.4)

    def test_intermediate_draws(self):
        # the test multiplier steps through -0.4, 0.2, 0.6 at the atoms
        assert self.threshold(0.5) == 1.5
        assert self.threshold(0.9) == 2.5

    def test_deterministic_given_seed(self):
        a = randomized_threshold(self.scores, ones_features(3), 0.4,
                                 rng=np.random.default_rng(5))
        b = randomized_threshold(self.scores, ones_features(3), 0.4,
                                 rng=np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_levels(self):
        for delta in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="delta"):
                randomized_threshold(self.scores, ones_features(3), delta, StubRng(0.5))

    def test_coverage_is_exact_on_average(self):
        # Coverage of a fresh score equals 1 - delta exactly once the
        # acceptance draw is uniform. Event identity used for speed: the
        # fresh score falls below the randomized threshold iff its own
        # multiplier respects the drawn level (monotone in the score).
        rng = np.random.default_rng(99)
        delta, m, trials = 0.3, 4, 1000
        hits = 0
        for _ in range(trials):
            scores = rng.normal(size=m)
            s_test = float(rng.normal())
            u = float(rng.uniform())
            eta = dual_eta(scores, ones_features(m), delta, 0.0, s_test).eta[-1]
            hits += eta <= u - delta
        rate = hits / trials
        se = math.sqrt(rate * (1.0 - rate) / trials)
        assert abs(rate - (1.0 - delta)) <= 3.0 * se


class TestGroupCoverage:
    def test_threshold_event_equals_multiplier_event(self):
        # bridge for the Monte Carlo below: compare the full search against
        # the single dual solve it is replaced with
        rng = np.random.default_rng(17)
        feats = group_features([3, 3], test_group=0)
        for _ in range(10):
            scores = rng.normal(size=6)
            s_test = float(rng.normal())
            tau = weighted_threshold(scores, feats, 0.3)
            eta = dual_eta(scores, feats, 0.3, 0.0, s_test).eta[-1]
            assert (s_test <= tau) == (eta < 0.7)

    def test_per_group_coverage_holds(self):
        rng = np.random.default_rng(23)
        delta, trials = 0.3, 300
        feats = [group_features([3, 3], test_group=g) for g in (0, 1)]
        hits = [0, 0]
        for _ in range(trials):
            scores = np.concatenate([rng.normal(size=3),
                                     3.0 * rng.normal(size=3) + 1.0])
            tests = [float(rng.normal()), float(3.0 * rng.normal() + 1.0)]
            for g in (0, 1):
                eta = dual_eta(scores, feats[g], delta, 0.0, tests[g]).eta[-1]
                hits[g] += eta < 1.0 - delta
        for g in (0, 1):
            rate = hits[g] / trials
            se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
            assert rate >= 1.0 - delta - 3.0 * se


    def test_randomized_per_group_coverage_is_exact_on_average(self):
        # the randomized threshold covers each group at exactly 1 - delta,
        # read on the same multiplier event as the plain Monte Carlo above
        rng = np.random.default_rng(29)
        delta, trials = 0.3, 1000
        feats = [group_features([3, 4], test_group=g) for g in (0, 1)]
        hits = [0, 0]
        for _ in range(trials):
            scores = np.concatenate([rng.normal(size=3), 3.0 * rng.normal(size=4) + 1.0])
            tests = [float(rng.normal()), float(3.0 * rng.normal() + 1.0)]
            for g in (0, 1):
                u = float(rng.uniform())
                hits[g] += dual_eta(scores, feats[g], delta, 0.0, tests[g]).eta[-1] <= u - delta
        for g in (0, 1):
            rate = hits[g] / trials
            se = math.sqrt(rate * (1.0 - rate) / trials)
            assert abs(rate - (1.0 - delta)) <= 3.0 * se


def closed_form_cases():
    """(scores, delta) pairs: random, tied, all-equal, m = 1 and overflow."""
    rng = np.random.default_rng(606)
    cases = []
    for _ in range(40):
        m = int(rng.integers(1, 13))
        scale = 10.0 ** float(rng.uniform(-2.0, 2.0))
        cases.append((rng.normal(size=m) * scale, float(rng.uniform(0.02, 0.95))))
    for _ in range(10):
        m = int(rng.integers(2, 10))
        tied = rng.choice(rng.normal(size=3), size=m)
        cases.append((tied, float(rng.uniform(0.02, 0.95))))
    cases += [
        (np.full(5, 3.25), 0.4),
        (np.full(4, -1.5), 0.15),
        (np.array([0.7]), 0.3),
        (np.array([0.7]), 0.9),
        (np.array([1.0, 2.0]), 0.2),
    ]
    return cases


class TestClosedFormThreshold:
    @pytest.mark.parametrize("m, delta, want", [(9, 0.3, 8.0), (9, 0.6, 5.0),
                                                (19, 0.3, 15.0)])
    def test_boundary_levels_read_the_rank_rule(self, m, delta, want):
        # (1 - delta)(m + 1) is an integer in decimal; the float delta lies
        # just below its decimal, so the exact rank is one atom higher
        scores = np.arange(1.0, m + 1.0)
        assert quant_plus(scores, delta) == want
        assert weighted_threshold(scores, ones_features(m), delta) == want

    @pytest.mark.parametrize("m, delta, u, want", [(4, 0.1, 0.5, 4.0), (9, 0.1, 0.0, 8.0),
                                                   (9, 0.2, 0.0, 7.0)])
    def test_randomized_boundary_levels_read_the_exact_rank(self, m, delta, u, want):
        # (1 - delta)(m + 1) + u is an integer in decimal; the float delta
        # lies just above its decimal, so the exact rank is one atom lower
        scores = np.arange(1.0, m + 1.0)
        got = randomized_threshold(scores, ones_features(m), delta, StubRng(u))
        assert got == want

    def test_plain_equals_definition_without_regularization(self):
        for scores, delta in closed_form_cases():
            m = scores.size
            want = oracle_weighted_threshold(
                scores, lambda s: dual_eta(scores, ones_features(m), delta, 0.0, s).eta[-1],
                delta)
            assert weighted_threshold(scores, ones_features(m), delta) == want
            assert want == quant_plus(scores, delta)

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_randomized_equals_definition_without_regularization(self, u):
        for scores, delta in closed_form_cases():
            m = scores.size
            want = oracle_weighted_threshold(
                scores, lambda s: dual_eta(scores, ones_features(m), delta, 0.0, s).eta[-1],
                delta, u=u)
            got = randomized_threshold(scores, ones_features(m), delta, StubRng(u))
            assert got == want

    def test_randomized_rank_below_one_is_empty(self):
        scores = np.array([0.7])
        assert randomized_threshold(scores, ones_features(1), 0.9, StubRng(0.1)) == -math.inf

    def test_scaled_constant_feature_keeps_the_quantile(self):
        scores = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
        for c in (2.5, -0.3):
            features = c * ones_features(5)
            assert weighted_threshold(scores, features, 0.35) == quant_plus(scores, 0.35)

class TestBlockDual:
    def test_block_indicators_match_the_face_lp(self):
        # the per-block scans against the dual LP: the test multiplier is the
        # largest on the optimal face, and the objective reaches the optimum
        rng = np.random.default_rng(515)
        for case in range(80):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 13))
            phi = np.zeros((n, k))
            cols = rng.integers(-1, k, size=n)
            for i, col in enumerate(cols):
                if col >= 0:
                    phi[i, col] = float(rng.choice([1.0, rng.uniform(0.3, 3.0),
                                                    -rng.uniform(0.3, 3.0)]))
            scores = rng.normal(size=n)
            delta = float(rng.uniform(0.05, 0.95))
            got = dual_eta(scores[:-1], phi, delta, 0.0, scores[-1])
            assert (got.eta >= -delta).all() and (got.eta <= 1.0 - delta).all()
            assert got.eta[-1] == pytest.approx(lp_face_eta(scores, phi, delta), abs=1e-6)
            assert got.objective >= lp_dual_value(scores, phi, delta) - 1e-9

    def test_test_multiplier_range_is_reached_far_out(self):
        # far above every score the exact block dual returns the largest
        # box-feasible test multiplier, and far below the least one
        rng = np.random.default_rng(516)
        free_test_rows = 0
        for case in range(80):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 13))
            phi = np.zeros((n, k))
            cols = rng.integers(-1, k, size=n)
            if case % 4 == 0:
                cols[-1] = -1
            for i, col in enumerate(cols):
                if col >= 0:
                    phi[i, col] = float(rng.choice([1.0, rng.uniform(0.3, 3.0),
                                                    -rng.uniform(0.3, 3.0)]))
            free_test_rows += cols[-1] < 0
            scores = rng.normal(size=n - 1)
            delta = float(rng.uniform(0.05, 0.95))
            least, most = lp_test_reach(phi, delta, -1.0), lp_test_reach(phi, delta, 1.0)
            far = 1e6 * (1.0 + float(np.abs(scores).max()))
            assert dual_eta(scores, phi, delta, 0.0, -far).eta[-1] == pytest.approx(least, abs=1e-9)
            assert dual_eta(scores, phi, delta, 0.0, far).eta[-1] == pytest.approx(most, abs=1e-9)
        assert free_test_rows >= 20


U_DRAWS = (0.0, 0.5, 1.0 - 2.0**-40, 1.0 - 2.0**-53)


def group_cases(rng, count):
    """(scores, features, delta): 2-3 groups of 0-6 rows, rounded ties."""
    cases = []
    for _ in range(count):
        sizes = [int(v) for v in rng.integers(0, 7, size=int(rng.integers(2, 4)))]
        sizes[int(rng.integers(len(sizes)))] += sum(sizes) == 0
        features = group_features(sizes, test_group=int(rng.integers(len(sizes))))
        scores = np.round(rng.normal(size=sum(sizes)) * 2.0, 1)
        cases.append((scores, features, float(rng.uniform(0.02, 0.95))))
    return cases


class TestGroupFeatureThresholds:
    def test_group_features_equal_definition_without_regularization(self):
        rng = np.random.default_rng(1414)
        empty_test_groups = 0
        for scores, features, delta in group_cases(rng, 60):
            empty_test_groups += not features[:-1, features[-1] != 0.0].any()
            multiplier = lambda s: dual_eta(scores, features, delta, 0.0, s).eta[-1]
            want = oracle_weighted_threshold(scores, multiplier, delta)
            assert weighted_threshold(scores, features, delta) == want
            for u in U_DRAWS + (float(rng.uniform()),):
                want = oracle_weighted_threshold(scores, multiplier, delta, u=u)
                got = randomized_threshold(scores, features, delta, StubRng(u))
                assert got == want
        assert empty_test_groups >= 5

    def test_feature_free_test_row_gives_zero(self):
        # nothing constrains the test multiplier, so it follows the sign of s:
        # -delta below 0 (both criteria hold), 1 - delta above (both fail)
        scores = np.array([1e-7, 2.0, -1.0, 0.5])
        for features in (np.vstack([ones_features(3), [[0.0]]]),
                         np.vstack([group_features([2, 2], 0)[:-1], np.zeros((1, 2))])):
            assert weighted_threshold(scores, features, 0.3) == 0.0
            for u in (0.1, 0.5, 1.0 - 2.0**-53):
                assert randomized_threshold(scores, features, 0.3, StubRng(u)) == 0.0
            for s in (-1e-3, 1e-3):
                eta = dual_eta(scores, features, 0.3, 0.0, s).eta[-1]
                assert eta == (-0.3 if s < 0.0 else 0.7)


    def test_scaled_group_features_keep_the_group_quantile(self):
        # each column scaled by its own nonzero factor names the same groups,
        # so plain and randomized thresholds stay the test group's order
        # statistics
        rng = np.random.default_rng(1415)
        for scores, features, delta in group_cases(rng, 60):
            scaled = features * rng.choice([2.5, -0.7, 1e-3], size=features.shape[1])
            group = scores[features[:-1, features[-1] != 0.0].any(axis=1)]
            want = weighted_threshold(scores, features, delta)
            assert weighted_threshold(scores, scaled, delta) == want
            assert want == (quant_plus(group, delta) if group.size else math.inf)
            for u in U_DRAWS:
                assert (randomized_threshold(scores, scaled, delta, StubRng(u))
                        == randomized_threshold(scores, features, delta, StubRng(u)))

    def test_randomized_full_draw_overflows_on_group_features(self):
        scores = np.array([0.5, 1.5, 2.5, 9.0])
        for features in (group_features([2, 2], 0), -0.7 * ones_features(4),
                         np.vstack([group_features([2, 2], 0)[:-1], np.zeros((1, 2))])):
            assert randomized_threshold(scores, features, 0.4, StubRng(1.0)) == math.inf

    @pytest.mark.parametrize("kind", ["constant", "scaled constant", "groups"])
    def test_tied_scores_match_the_face_lp(self, kind):
        # at every score atom, where the tie fill settles the test multiplier,
        # and at the thresholds themselves, the block dual's test multiplier is
        # the largest on the LP's optimal face and its objective the optimum
        rng = np.random.default_rng(1425)
        if kind == "groups":
            cases = group_cases(rng, 20)
        else:
            cases = []
            for _ in range(20):
                m = int(rng.integers(1, 9))
                scores = rng.choice(np.round(rng.normal(size=3) * 2.0, 1), size=m)
                cases.append((scores, ones_features(m), float(rng.uniform(0.02, 0.95))))
        tied = 0
        for scores, features, delta in cases:
            if kind != "constant":
                features = features * rng.choice([1.0, 2.5, -0.7], size=features.shape[1])
            tied += np.unique(scores).size < scores.size
            probes = {float(v) for v in scores}
            probes |= {weighted_threshold(scores, features, delta),
                       randomized_threshold(scores, features, delta, StubRng(rng.uniform()))}
            for s in sorted(v for v in probes if math.isfinite(v)):
                full = np.append(scores, s)
                got = dual_eta(scores, features, delta, 0.0, s)
                assert got.eta[-1] == pytest.approx(lp_face_eta(full, features, delta), abs=1e-6)
                assert got.objective >= lp_dual_value(full, features, delta) - 1e-9
        assert tied >= 5

    def test_degenerate_rows_match_the_face_lp(self):
        # tied scores, repeated group rows and feature-free rows: a
        # feature-free row takes the sign of its score, and 0 at score 0
        rng = np.random.default_rng(1420)
        zero_rows = 0
        for case in range(40):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(3, 9))
            cols = rng.integers(-1, k, size=n)
            scale = rng.choice([1.0, 2.5, -0.7], size=k)
            phi = np.zeros((n, k))
            for i, col in enumerate(cols):
                if col >= 0:
                    phi[i, col] = scale[col]
            scores = rng.choice([0.0, 0.5, -1.0, 1.5], size=n)
            delta = float(rng.choice([0.1, 0.25, 0.5]))
            got = dual_eta(scores[:-1], phi, delta, 0.0, scores[-1])
            assert got.objective >= lp_dual_value(scores, phi, delta) - 1e-9
            free = cols < 0
            if not free[-1]:
                # at score 0 a free test row's 0 is not the face's largest value
                assert got.eta[-1] == pytest.approx(lp_face_eta(scores, phi, delta), abs=1e-6)
            zero_rows += (free & (scores == 0.0)).sum()
            assert (got.eta[free & (scores == 0.0)] == 0.0).all()
            assert (got.eta[free & (scores > 0.0)] == 1.0 - delta).all()
            assert (got.eta[free & (scores < 0.0)] == -delta).all()
        assert zero_rows >= 5


def feature_columns(rng, rows, k):
    """[1, x_e] (k = 2) or [1, x_e, z_e] (k = 3) rows of normal draws."""
    return np.column_stack([np.ones(rows)] + [rng.normal(size=rows) for _ in range(k - 1)])


def refused_features(kind, rows):
    """[1, x_e] (2), [1, x_e, z_e] (3), or group rows but one spanning two columns ("overlap")."""
    if kind == "overlap":
        features = group_features([2, rows - 3], test_group=0)
        features[1, 1] = 1.0
        return features
    return feature_columns(np.random.default_rng(kind), rows, kind)


@pytest.mark.parametrize("entry, argument, value", [
    *[pytest.param("dual_eta", "ridge_weight", w, id=f"dual_eta-{w}")
      for w in (math.nan, math.inf, -0.1, 0.3)],
    *[(entry, "features", kind) for entry in ("weighted", "randomized", "dual_eta")
      for kind in (2, 3, "overlap")],
])
def test_ridge_weight_must_be_finite_and_nonnegative(entry, argument, value):
    # only the unpenalized dual on group features is left: dual_eta refuses any
    # ridge_weight but 0, and every entry point refuses features with a row
    # nonzero in more than one column, naming the argument
    scores = np.array([0.3, 1.2, 0.7, 2.0, 0.9])
    weight, features = 0.0, ones_features(scores.size)
    if argument == "ridge_weight":
        weight = value
    else:
        features = refused_features(value, scores.size + 1)
    calls = {
        "weighted": lambda: weighted_threshold(scores, features, 0.2),
        "randomized": lambda: randomized_threshold(scores, features, 0.2, StubRng(0.5)),
        "dual_eta": lambda: dual_eta(scores, features, 0.2, weight, 1.0),
    }
    with pytest.raises(ValueError, match=f"^{argument} must"):
        calls[entry]()


def mixed_test_group():
    """Group rows whose test column takes 2.0 on one test-group row and 1.0 elsewhere."""
    features = group_features([2, 2], test_group=0)
    features[0, 0] = 2.0
    return np.array([0.3, 1.2, 0.7, 2.0]), features


@pytest.mark.parametrize("entry", ["weighted", "randomized"])
def test_mixed_values_on_the_test_group_are_refused(entry):
    # such rows have no rank read
    scores, features = mixed_test_group()
    calls = {
        "weighted": lambda: weighted_threshold(scores, features, 0.2),
        "randomized": lambda: randomized_threshold(scores, features, 0.2, StubRng(0.5)),
    }
    with pytest.raises(ValueError, match="^features must take one value"):
        calls[entry]()


def test_dual_eta_scans_mixed_values_on_the_test_group():
    # the block scan needs no rank read, so dual_eta serves such rows
    scores, features = mixed_test_group()
    for s in (-1.0, 0.3, 0.9, 1.2, 3.0):
        full = np.append(scores, s)
        got = dual_eta(scores, features, 0.2, 0.0, s)
        assert got.eta[-1] == pytest.approx(lp_face_eta(full, features, 0.2), abs=1e-6)
        assert got.objective >= lp_dual_value(full, features, 0.2) - 1e-9
