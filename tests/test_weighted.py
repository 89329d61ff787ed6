"""Hand-computed thresholds, dual certificates, and quantile equivalences."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mecp.data import EnvironmentSample
from mecp.nested_sets import SymmetricFamily
from mecp.quantiles import quant_plus
from mecp.predictors import FitError
from mecp.weighted import (
    BOX_TOLERANCE,
    DualSolution,
    _pinned_solve,
    _solve_box_lp,
    constant_feature_map,
    dual_eta,
    env_score,
    feature_matrix,
    fit_pinball_env,
    randomized_threshold,
    score_from_thresholds,
    weighted_threshold,
)
from oracles import (
    oracle_env_score,
    oracle_pinned_kkt,
    oracle_pinned_threshold,
    oracle_test_multiplier,
    oracle_weighted_threshold,
)


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


def pinball_loss(t, delta):
    t = np.asarray(t, dtype=float)
    return (1.0 - delta) * np.clip(t, 0.0, None) + delta * np.clip(-t, 0.0, None)


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


class TestFeatureMatrix:
    def test_constant_map_stacks_ones(self):
        envs = [
            EnvironmentSample(env_id=str(i), x=np.zeros((2, 1)), y=np.zeros(2))
            for i in range(3)
        ]
        out = feature_matrix(envs)
        assert out.shape == (3, 1)
        assert (out == 1.0).all()

    def test_custom_map_and_finiteness(self):
        envs = [
            EnvironmentSample(env_id=str(i), x=np.full((2, 1), float(i)), y=np.zeros(2))
            for i in range(2)
        ]
        out = feature_matrix(envs, phi=lambda e: [1.0, float(e.x.mean())])
        assert out.shape == (2, 2)
        assert out[1, 1] == 1.0
        with pytest.raises(ValueError):
            feature_matrix(envs, phi=lambda e: [math.inf])


class TestFitPinballEnv:
    def pairs(self, values, feats=None):
        if feats is None:
            feats = [np.array([1.0])] * len(values)
        return list(zip(feats, [float(v) for v in values]))

    def test_constant_feature_hand_case(self):
        model = fit_pinball_env(self.pairs([1, 2, 3, 4, 5]), delta=0.2)
        assert model.theta == pytest.approx([4.0], abs=1e-9)
        assert model.objective == pytest.approx(0.4, abs=1e-9)

    def test_constant_feature_median(self):
        model = fit_pinball_env(self.pairs([1, 2, 3, 4, 5]), delta=0.5)
        assert model.theta == pytest.approx([3.0], abs=1e-9)
        assert model.objective == pytest.approx(0.6, abs=1e-9)

    def test_group_indicators_decouple(self):
        feats = [np.array([1.0, 0.0])] * 2 + [np.array([0.0, 1.0])] * 2
        model = fit_pinball_env(self.pairs([1, 2, 9, 10], feats), delta=0.2)
        assert model.theta == pytest.approx([2.0, 10.0], abs=1e-9)
        assert model.objective == pytest.approx(0.1, abs=1e-9)

    def test_ridge_hand_case(self):
        model = fit_pinball_env(self.pairs([1, 2, 3, 4, 5]), delta=0.2,
                                ridge_weight=0.05)
        assert model.theta == pytest.approx([3.0], abs=1e-12)
        assert model.objective == pytest.approx(1.05, abs=1e-12)

    def test_ridge_beats_dense_grid(self):
        rng = np.random.default_rng(31)
        scores = rng.normal(size=7) * 2.0
        delta, weight = 0.37, 0.8
        model = fit_pinball_env(self.pairs(scores), delta=delta, ridge_weight=weight)
        grid = np.linspace(-3.0, 3.0, 6001)
        objectives = [
            float(np.mean(pinball_loss(scores - theta, delta)) + weight * theta**2)
            for theta in grid
        ]
        assert model.objective <= min(objectives) + 1e-9

    def test_model_is_callable(self):
        model = fit_pinball_env(self.pairs([1, 2, 3, 4, 5]), delta=0.2)
        assert model(np.array([1.0])) == pytest.approx(4.0, abs=1e-9)
        batch = model(np.ones((3, 1)))
        assert batch.shape == (3,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_pinball_env([], delta=0.2)
        with pytest.raises(ValueError):
            fit_pinball_env(self.pairs([math.inf]), delta=0.2)
        with pytest.raises(ValueError):
            fit_pinball_env(self.pairs([1.0]), delta=0.2, ridge_weight=-1.0)
        with pytest.raises(ValueError):
            fit_pinball_env(self.pairs([1.0]), delta=1.5)


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
        weight=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_box_and_constraint_feasibility(self, scores, delta, s, weight):
        scores = np.asarray(scores)
        sol = dual_eta(scores, ones_features(scores.size), delta, weight, s)
        assert (sol.eta >= -delta - BOX_TOLERANCE).all()
        assert (sol.eta <= 1.0 - delta + BOX_TOLERANCE).all()
        if weight == 0.0:
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

    def test_test_multiplier_monotone_with_regularization(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(size=5)
        span = scores.max() - scores.min()
        grid = np.linspace(scores.min() - 2 * span, scores.max() + 2 * span, 100)
        etas = [dual_eta(scores, ones_features(5), 0.25, 0.3, float(s)).eta[-1]
                for s in grid]
        assert (np.diff(etas) >= -1e-12).all()

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
            got = weighted_threshold(scores, ones_features(m), alpha=0.1, delta=delta)
            assert got == quant_plus(scores, delta)

    def test_overflow_goes_to_infinity(self):
        scores = np.array([1.0, 2.0])
        assert quant_plus(scores, 0.2) == math.inf
        assert weighted_threshold(scores, ones_features(2), 0.1, 0.2) == math.inf

    def test_all_equal_scores(self):
        scores = np.full(5, 3.25)
        assert weighted_threshold(scores, ones_features(5), 0.1, 0.4) == 3.25

    def test_group_indicators_decouple(self):
        scores = np.array([1.0, 2.0, 9.0, 10.0])
        in_a = group_features([2, 2], test_group=0)
        in_b = group_features([2, 2], test_group=1)
        assert weighted_threshold(scores, in_a, 0.1, 0.35) == 2.0
        assert weighted_threshold(scores, in_b, 0.1, 0.35) == 10.0
        assert weighted_threshold(scores, ones_features(4), 0.1, 0.35) == 10.0

    def test_ridge_search_runs(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=5)
        got = weighted_threshold(scores, ones_features(5), 0.1, 0.4,
                                 ridge_weight=5e-3)
        assert scores.min() <= got <= math.inf

    def test_rejects_bad_levels(self):
        scores = np.array([1.0])
        with pytest.raises(ValueError):
            weighted_threshold(scores, ones_features(1), 0.0, 0.5)
        with pytest.raises(ValueError):
            weighted_threshold(scores, ones_features(1), 0.1, 1.0)


class TestRandomizedThreshold:
    scores = np.array([0.5, 1.5, 2.5])

    def threshold(self, u):
        return randomized_threshold(self.scores, ones_features(3), alpha=0.1,
                                    delta=0.4, rng=StubRng(u))

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
        a = randomized_threshold(self.scores, ones_features(3), 0.1, 0.4,
                                 rng=np.random.default_rng(5))
        b = randomized_threshold(self.scores, ones_features(3), 0.1, 0.4,
                                 rng=np.random.default_rng(5))
        assert a == b

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
            tau = weighted_threshold(scores, feats, 0.1, 0.3)
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


def criterion_holds(scores, features, delta, weight, s, u=None):
    shifted = dual_eta(scores, features, delta, weight, s).eta[-1] + delta
    return shifted < 1.0 if u is None else shifted <= u


def straddles(scores, features, delta, weight, tau, u, rel):
    eps = rel * (1.0 + abs(tau))
    return (criterion_holds(scores, features, delta, weight, tau - eps, u)
            and not criterion_holds(scores, features, delta, weight, tau + eps, u))


class TestClosedFormThreshold:
    @pytest.mark.parametrize("m, delta, want", [(9, 0.3, 8.0), (9, 0.6, 5.0),
                                                (19, 0.3, 15.0)])
    def test_boundary_levels_read_the_rank_rule(self, m, delta, want):
        # (1 - delta)(m + 1) is an integer in decimal; the float delta lies
        # just below its decimal, so the exact rank is one atom higher
        scores = np.arange(1.0, m + 1.0)
        assert quant_plus(scores, delta) == want
        assert weighted_threshold(scores, ones_features(m), 0.1, delta) == want

    @pytest.mark.parametrize("m, delta, u, want", [(4, 0.1, 0.5, 4.0), (9, 0.1, 0.0, 8.0),
                                                   (9, 0.2, 0.0, 7.0)])
    def test_randomized_boundary_levels_read_the_exact_rank(self, m, delta, u, want):
        # (1 - delta)(m + 1) + u is an integer in decimal; the float delta
        # lies just above its decimal, so the exact rank is one atom lower
        scores = np.arange(1.0, m + 1.0)
        got = randomized_threshold(scores, ones_features(m), 0.1, delta, StubRng(u))
        assert got == want

    def test_plain_equals_definition_without_regularization(self):
        for scores, delta in closed_form_cases():
            m = scores.size
            want = oracle_weighted_threshold(
                scores, lambda s: dual_eta(scores, ones_features(m), delta, 0.0, s).eta[-1],
                delta)
            assert weighted_threshold(scores, ones_features(m), 0.1, delta) == want
            assert want == quant_plus(scores, delta)

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_randomized_equals_definition_without_regularization(self, u):
        for scores, delta in closed_form_cases():
            m = scores.size
            want = oracle_weighted_threshold(
                scores, lambda s: dual_eta(scores, ones_features(m), delta, 0.0, s).eta[-1],
                delta, u=u)
            got = randomized_threshold(scores, ones_features(m), 0.1, delta, StubRng(u))
            assert got == want

    def test_randomized_rank_below_one_is_empty(self):
        scores = np.array([0.7])
        assert randomized_threshold(scores, ones_features(1), 0.1, 0.9, StubRng(0.1)) == -math.inf

    def test_scaled_constant_feature_keeps_the_quantile(self):
        scores = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
        for c in (2.5, -0.3):
            features = c * ones_features(5)
            assert weighted_threshold(scores, features, 0.1, 0.35) == quant_plus(scores, 0.35)

    def test_regularized_matches_general_search_and_straddles_the_level(self):
        rng = np.random.default_rng(4242)
        for case in range(200):
            m = int(rng.integers(1, 13))
            delta = float(rng.uniform(0.02, 0.95))
            weight = float(rng.choice([5e-3, 0.05, 0.5, 2.0]))
            scores = rng.normal(size=m) * 10.0 ** float(rng.uniform(-1.0, 1.5))
            features = float(rng.choice([1.0, 2.5, -0.7])) * ones_features(m)
            u = None if case % 2 == 0 else float(rng.choice([0.0, 0.5, rng.uniform()]))
            if u is None:
                tau = weighted_threshold(scores, features, 0.1, delta, ridge_weight=weight)
                level = 1.0 - delta
            else:
                tau = randomized_threshold(scores, features, 0.1, delta, StubRng(u),
                                           ridge_weight=weight)
                level = u - delta
            # the general route's pinned solve on the same one-column rows
            theta, _ = _pinned_solve(features[:-1], scores, delta, 2.0 * (m + 1) * weight,
                                     level * features[-1])
            want = float(features[-1] @ theta)
            assert math.isfinite(tau)
            assert abs(tau - want) <= 1e-7 * max(1.0, abs(want))
            assert straddles(scores, features, delta, weight, tau, u, 1e-9)

    def test_randomized_full_draw_overflows_with_regularization(self):
        scores = np.array([0.5, 1.5, 2.5])
        got = randomized_threshold(scores, ones_features(3), 0.1, 0.4, StubRng(1.0),
                                   ridge_weight=0.05)
        assert got == math.inf


class TestBlockDual:
    def test_block_indicators_match_lp_and_coordinate_ascent(self):
        # the per-block scans against the dual LP at ridge 0 and against the
        # general route's exact active set under a ridge penalty
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
            weight = 0.0 if case % 2 == 0 else float(rng.choice([0.01, 0.3, 2.0]))
            got = dual_eta(scores[:-1], phi, delta, weight, scores[-1])
            if weight == 0.0:
                ref = _solve_box_lp(scores, phi, delta)
            else:
                curv = 2.0 * n * weight
                eta = _pinned_solve(phi, scores, delta, curv, 0.0)[1]
                q = phi.T @ eta
                ref = DualSolution(eta=eta, objective=float(scores @ eta - q @ q / (2.0 * curv)))
            assert (got.eta >= -delta).all() and (got.eta <= 1.0 - delta).all()
            assert got.eta[-1] == pytest.approx(ref.eta[-1], abs=1e-6)
            assert got.objective >= ref.objective - 1e-9

    def test_test_multiplier_range_is_reached_far_out(self):
        # the reach that decides the sign of an unbounded pinned LP: HiGHS's
        # canonical test multiplier at zero scores is the one the exact block
        # dual returns far above every score, and its mirror (delta -> 1 -
        # delta) the one far below; under a ridge penalty they are the box ends
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
            weight = 0.0 if case % 2 == 0 else 0.3
            if weight == 0.0:
                reach = lambda d: _solve_box_lp(np.zeros(n), phi, d).eta[-1]
                least, most = -reach(1.0 - delta), reach(delta)
            else:
                least, most = -delta, 1.0 - delta
            far = 1e6 * (1.0 + float(np.abs(scores).max()))
            assert dual_eta(scores, phi, delta, weight, -far).eta[-1] == pytest.approx(least, abs=1e-9)
            assert dual_eta(scores, phi, delta, weight, far).eta[-1] == pytest.approx(most, abs=1e-9)
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
            assert weighted_threshold(scores, features, 0.1, delta) == want
            for u in U_DRAWS + (float(rng.uniform()),):
                want = oracle_weighted_threshold(scores, multiplier, delta, u=u)
                got = randomized_threshold(scores, features, 0.1, delta, StubRng(u))
                assert got == want
        assert empty_test_groups >= 5

    def test_feature_free_test_row_gives_zero(self):
        # nothing constrains the test multiplier, so it follows the sign of s:
        # -delta below 0 (both criteria hold), 1 - delta above (both fail)
        scores = np.array([1e-7, 2.0, -1.0, 0.5])
        free = np.zeros((1, 2))
        for features in (np.vstack([ones_features(3), [[0.0]]]),
                         np.vstack([group_features([2, 2], 0)[:-1], free]),
                         np.vstack([np.column_stack([np.ones(4), scores]), free])):
            for weight in (0.0, 0.3):
                assert weighted_threshold(scores, features, 0.1, 0.3, weight) == 0.0
                for u in (0.1, 0.5, 1.0 - 2.0**-53):
                    got = randomized_threshold(scores, features, 0.1, 0.3, StubRng(u), weight)
                    assert got == 0.0
                # the LP route's face tolerance blurs eta near s = 0
                for s in (-1e-3, 1e-3):
                    eta = dual_eta(scores, features, 0.3, weight, s).eta[-1]
                    assert eta == pytest.approx(-0.3 if s < 0.0 else 0.7, abs=1e-4)

    def test_group_features_with_regularization_straddle_the_level(self):
        rng = np.random.default_rng(1415)
        for case, (scores, features, delta) in enumerate(group_cases(rng, 60)):
            weight = float(rng.choice([5e-3, 0.3, 2.0]))
            features = features * float(rng.choice([1.0, 2.5, -0.7]))
            u = None if case % 2 == 0 else float(rng.choice(U_DRAWS[:3] + (rng.uniform(),)))
            if u is None:
                tau = weighted_threshold(scores, features, 0.1, delta, ridge_weight=weight)
            else:
                tau = randomized_threshold(scores, features, 0.1, delta, StubRng(u),
                                           ridge_weight=weight)
            assert math.isfinite(tau)
            assert straddles(scores, features, delta, weight, tau, u, 1e-9)

    def test_two_column_features_randomized_without_regularization(self):
        # [1, x_e] rows run the pinned LP. It raises no solver error; a finite
        # threshold straddles the level, read on the exact largest test
        # multiplier (the HiGHS dual_eta blurs it within about 1e-7 of a jump),
        # and an infinite one means the constraints hold every feasible test
        # multiplier on one side of U - delta (HiGHS reach of the test entry).
        rng = np.random.default_rng(1416)
        finite = 0
        for _ in range(60):
            m = int(rng.integers(2, 9))
            features = np.column_stack([np.ones(m + 1), rng.normal(size=m + 1)])
            scores = rng.normal(size=m)
            delta = float(rng.uniform(0.05, 0.95))
            u = float(rng.choice([rng.uniform(), 1.0 - rng.uniform() * 2.0**-31]))
            tau = randomized_threshold(scores, features, 0.1, delta, StubRng(u))
            if math.isfinite(tau):
                finite += 1
                eps = Fraction(1e-8) * (1 + abs(Fraction(tau)))
                level = Fraction(u) - Fraction(delta)
                below = oracle_test_multiplier(scores, features, delta, Fraction(tau) - eps)
                above = oracle_test_multiplier(scores, features, delta, Fraction(tau) + eps)
                assert below <= level < above
            elif tau > 0.0:
                assert lp_test_reach(features, delta, 1.0) + delta <= u + 1e-9
            else:
                assert lp_test_reach(features, delta, -1.0) + delta > u
        assert finite >= 20


def feature_columns(rng, rows, k):
    """[1, x_e] (k = 2) or [1, x_e, z_e] (k = 3) rows of normal draws."""
    return np.column_stack([np.ones(rows)] + [rng.normal(size=rows) for _ in range(k - 1)])


def pinned_threshold(scores, features, delta, weight, u):
    if u is None:
        return weighted_threshold(scores, features, 0.1, delta, ridge_weight=weight)
    return randomized_threshold(scores, features, 0.1, delta, StubRng(u), ridge_weight=weight)


class TestPinnedGeneralRoute:
    def test_two_columns_without_regularization_equal_the_rational_oracle(self):
        # the threshold is rounded once from the exact vertex, so it equals the
        # rational answer rounded to the nearest float; +-inf follows the sign
        # rule of the largest and least feasible test multipliers
        rng = np.random.default_rng(1417)
        finite = infinite = 0
        for case in range(120):
            m = int(rng.integers(2, 10))
            features = feature_columns(rng, m + 1, 2)
            scores = rng.normal(size=m) * 10.0 ** float(rng.uniform(-1.0, 1.0))
            delta = float(rng.uniform(0.05, 0.95))
            for u in (None, float(rng.uniform())):
                got = pinned_threshold(scores, features, delta, 0.0, u)
                want = oracle_pinned_threshold(scores, features, delta, u)
                if math.isinf(want):
                    infinite += 1
                    assert got == want
                else:
                    finite += 1
                    assert got == float(want)
                    assert abs(Fraction(got) - want) <= 1e-15 * abs(want)
        assert finite >= 100 and infinite >= 20

    def test_regularized_thresholds_equal_the_kkt_oracle(self):
        rng = np.random.default_rng(1418)
        for case in range(80):
            k = 2 + case % 2
            m = int(rng.integers(2, 6))
            features = feature_columns(rng, m + 1, k)
            scores = rng.normal(size=m)
            delta = float(rng.uniform(0.05, 0.95))
            weight = float(rng.choice([5e-3, 0.3, 2.0]))
            u = None if case % 3 == 0 else float(rng.uniform())
            level = 1.0 - delta if u is None else u - delta
            theta = oracle_pinned_kkt(features[:-1], scores, delta, 2.0 * (m + 1) * weight,
                                      level * features[-1])
            want = float(features[-1] @ theta)
            got = pinned_threshold(scores, features, delta, weight, u)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_regularized_columns_straddle_the_level(self, k):
        # the [1, x_e] case at ridge 0.3, and one more column: every threshold
        # is finite, raises no solver error and straddles the level on the
        # exact active-set dual_eta
        rng = np.random.default_rng(1419 + k)
        for case in range(60):
            m = int(rng.integers(2, 10))
            features = feature_columns(rng, m + 1, k)
            scores = rng.normal(size=m)
            delta = float(rng.uniform(0.05, 0.95))
            u = None if case % 2 == 0 else float(rng.choice([0.0, rng.uniform()]))
            tau = pinned_threshold(scores, features, delta, 0.3, u)
            assert math.isfinite(tau)
            assert straddles(scores, features, delta, 0.3, tau, u, 1e-9)

    def test_degenerate_rows_match_the_kkt_oracle(self):
        # tied scores, repeated feature rows and feature-free rows; a
        # feature-free row with score 0 gets eta 0, as in the block dual
        rng = np.random.default_rng(1420)
        zero_rows = 0
        for case in range(60):
            k = 2 + case % 2
            n = int(rng.integers(3, 7))
            pool = np.round(rng.normal(size=(3, k)), 1)
            phi = pool[rng.integers(0, 3, size=n)]
            phi[rng.random(n) < 0.2] = 0.0
            scores = rng.choice([0.0, 0.5, -1.0, 1.5], size=n)
            delta = float(rng.choice([0.1, 0.25, 0.5]))
            curv = float(rng.choice([0.1, 1.0, 8.0]))
            tilt = 0.5 * np.round(rng.normal(size=k), 1) * (case % 3 != 0)
            theta, eta = _pinned_solve(phi, scores, delta, curv, tilt)
            want = oracle_pinned_kkt(phi, scores, delta, curv, tilt)
            assert np.abs(theta - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
            assert np.abs(curv * theta - tilt - phi.T @ eta).max() <= 1e-12 * (1.0 + n)
            assert ((eta >= -delta) & (eta <= 1.0 - delta)).all()
            free = ~phi.any(axis=1)
            zero_rows += (free & (scores == 0.0)).sum()
            assert (eta[free & (scores == 0.0)] == 0.0).all()
            assert (eta[free & (scores > 0.0)] == 1.0 - delta).all()
            assert (eta[free & (scores < 0.0)] == -delta).all()
        assert zero_rows >= 5

    def test_iteration_cap_names_the_solver_and_the_held_rows(self):
        rng = np.random.default_rng(1421)
        features = feature_columns(rng, 8, 2)
        with pytest.raises(FitError, match="pinned active set did not converge") as err:
            _pinned_solve(features, rng.normal(size=8), 0.3, 1.0, 0.0, max_iter=2)
        assert err.value.details["solver"] == "pinned active set"
        assert err.value.details["iterations"] == 2
        assert all(0 <= i < 8 for i in err.value.details["held"])

    def test_regularized_env_fit_equals_the_kkt_oracle(self):
        # fit_pinball_env: the same solve with no test row and no tilt
        rng = np.random.default_rng(1422)
        for k in (2, 3):
            features = feature_columns(rng, 6, k)
            scores = rng.normal(size=6)
            model = fit_pinball_env(list(zip(features, scores)), 0.3, ridge_weight=0.2)
            want = oracle_pinned_kkt(features, scores, 0.3, 2.0 * 6 * 0.2, np.zeros(k))
            assert np.abs(model.theta - want).max() <= 1e-12 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("weight", [math.nan, math.inf, -0.1])
@pytest.mark.parametrize("entry", ["weighted", "randomized", "dual_eta", "fit_pinball_env"])
def test_ridge_weight_must_be_finite_and_nonnegative(entry, weight):
    scores = np.array([0.3, 1.2, 0.7, 2.0, 0.9])
    features = ones_features(scores.size)
    calls = {
        "weighted": lambda: weighted_threshold(scores, features, 0.1, 0.2, weight),
        "randomized": lambda: randomized_threshold(scores, features, 0.1, 0.2,
                                                   StubRng(0.5), weight),
        "dual_eta": lambda: dual_eta(scores, features, 0.2, weight, 1.0),
        "fit_pinball_env": lambda: fit_pinball_env(
            list(zip(features[:-1], scores)), 0.2, ridge_weight=weight),
    }
    with pytest.raises(ValueError, match="ridge_weight must be finite and nonnegative"):
        calls[entry]()
