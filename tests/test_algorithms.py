"""Hand-computed cases, oracle reductions, and cross-checks for the constructions."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mecp.algorithms import (
    HierJackknifePlus,
    JackknifeMinmax,
    JackknifePlusQuantile,
    fit_hcp,
    fit_hier_jackknife_plus,
    fit_jackknife_minmax,
    fit_jackknife_plus_quantile,
    fit_resized_calibration,
    fit_resized_split_conformal,
    fit_split_conformal,
    fit_weighted_split_conformal,
    pinball_band_builder,
    resize_for,
    ridge_point_builder,
    ridge_symmetric_builder,
    softmax_sublevel_builder,
)
from mecp.data import EnvironmentSample, MultiEnvDataset, split_environments
from mecp.nested_sets import (
    EMPTY_SET,
    Interval,
    IntervalUnion,
    LabelSet,
    SymmetricFamily,
    contains,
    thresholds,
)
from mecp.quantiles import quant_minus, quant_plus

from oracles import oracle_jackknife_plus_interval


def mean_builder(envs):
    mu = float(np.concatenate([e.y for e in envs]).mean())
    return lambda xs: np.full(np.asarray(xs, dtype=float).shape[0], mu)


def mean_symmetric_builder(envs):
    return SymmetricFamily(predict=mean_builder(envs))


def constant_builder(value):
    def build(envs):
        return lambda xs: np.full(np.asarray(xs, dtype=float).shape[0], float(value))

    return build


def constant_symmetric_builder(value):
    inner = constant_builder(value)

    def build(envs):
        return SymmetricFamily(predict=inner(envs))

    return build


def single_obs_env(env_id, y):
    return EnvironmentSample(env_id=env_id, x=np.zeros((1, 1)), y=np.array([float(y)]))


def env_from_y(env_id, ys):
    ys = np.asarray(ys, dtype=float)
    return EnvironmentSample(env_id=env_id, x=np.zeros((ys.size, 1)), y=ys)


def two_point_dataset():
    return MultiEnvDataset(
        environments=(single_obs_env("a", 0.0), single_obs_env("b", 2.0))
    )


def linear_dataset(rng, m=5, n=12, p=2, env_scale=0.5, noise=0.3):
    w = rng.normal(size=p)
    envs = []
    for i in range(m):
        x = rng.normal(size=(n, p))
        y = x @ w + env_scale * rng.normal() + noise * rng.normal(size=n)
        envs.append(EnvironmentSample(env_id=f"e{i}", x=x, y=y))
    return MultiEnvDataset(environments=tuple(envs))


def find_seed(predicate, limit=2000):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed satisfied the predicate")


def envelope(pred_set):
    if isinstance(pred_set, Interval):
        return pred_set.lo, pred_set.hi
    assert isinstance(pred_set, IntervalUnion) and pred_set.parts
    return pred_set.parts[0].lo, pred_set.parts[-1].hi


class TestJackknifeMinmax:
    def test_two_env_constant_mean_hand_case(self):
        mapping = fit_jackknife_minmax(
            two_point_dataset(), mean_symmetric_builder, alpha=0.5, delta=0.5
        )
        assert mapping.env_scores == (2.0, 2.0)
        assert mapping.tau_hat == 2.0
        for got in mapping.predict_sets(np.array([[0.0], [7.0]])):
            assert got == Interval(-2.0, 4.0)
        for got in mapping.predict_unions(np.array([[0.0]])):
            assert got == Interval(-2.0, 4.0)

    def test_small_delta_overflows_to_full_line(self):
        # m=2: any delta below 1/3 pushes the index past the last score
        mapping = fit_jackknife_minmax(
            two_point_dataset(), mean_symmetric_builder, alpha=0.5, delta=0.2
        )
        assert mapping.tau_hat == math.inf
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == Interval(-math.inf, math.inf)
        assert mapping.metadata()["tau_hat"] == "inf"

    def test_union_mode_keeps_disconnected_components(self):
        far = JackknifeMinmax(
            families=(
                SymmetricFamily(predict=lambda xs: np.zeros(len(xs))),
                SymmetricFamily(predict=lambda xs: np.full(len(xs), 100.0)),
            ),
            env_scores=(1.0, 1.0),
            tau_hat=1.0,
            alpha=0.5,
            delta=0.5,
            mode="union",
        )
        (got,) = far.predict_sets(np.array([[0.0]]))
        assert got == IntervalUnion((Interval(-1.0, 1.0), Interval(99.0, 101.0)))
        (hull,) = replace(far, mode="hull").predict_sets(np.array([[0.0]]))
        assert hull == Interval(-1.0, 101.0)

    def test_union_envelope_matches_hull_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = linear_dataset(rng, m=4, n=8, p=2)
            mapping = fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, 0.4)
            x = rng.normal(size=(6, 2))
            hulls = mapping.predict_sets(x)
            unions = mapping.predict_unions(x)
            for h, u in zip(hulls, unions):
                lo, hi = envelope(u)
                assert h.lo == lo and h.hi == hi

    def test_env_scores_recompute(self):
        rng = np.random.default_rng(3)
        ds = linear_dataset(rng, m=4, n=8, p=2)
        mapping = fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.25, 0.4)
        for i, fam in enumerate(mapping.families):
            env = ds.environments[i]
            expected = quant_plus(thresholds(fam, env.x, env.y), 0.25)
            assert mapping.env_scores[i] == expected

    def test_validation(self):
        ds = MultiEnvDataset(environments=(single_obs_env("only", 1.0),))
        with pytest.raises(ValueError, match="two environments"):
            fit_jackknife_minmax(ds, mean_symmetric_builder, 0.5, 0.5)
        with pytest.raises(ValueError, match="mode"):
            fit_jackknife_minmax(two_point_dataset(), mean_symmetric_builder, 0.5, 0.5, mode="both")
        with pytest.raises(ValueError, match="alpha"):
            fit_jackknife_minmax(two_point_dataset(), mean_symmetric_builder, 0.0, 0.5)
        with pytest.raises(ValueError, match="delta"):
            fit_jackknife_minmax(two_point_dataset(), mean_symmetric_builder, 0.5, 1.0)

    def test_classification_label_sets(self):
        rng = np.random.default_rng(5)
        envs = []
        for i in range(3):
            x = rng.normal(size=(20, 2)) + np.array([0.2 * i, 0.0])
            y = (x[:, 0] + 1.5 * rng.normal(size=20) > 0).astype(float)
            envs.append(EnvironmentSample(env_id=f"c{i}", x=x, y=y))
        ds = MultiEnvDataset(environments=tuple(envs), outcome="classification", n_classes=2)
        mapping = fit_jackknife_minmax(ds, softmax_sublevel_builder(2, tolerance=1e-4), 0.3, 0.5)
        x = rng.normal(size=(4, 2))
        hull_sets = mapping.predict_sets(x)
        union_sets_ = mapping.predict_unions(x)
        assert hull_sets == union_sets_
        for s in hull_sets:
            assert isinstance(s, LabelSet)
            assert set(s.labels) <= {0, 1}

    def test_band_families(self):
        rng = np.random.default_rng(9)
        ds = linear_dataset(rng, m=4, n=30, p=2, noise=0.5)
        mapping = fit_jackknife_minmax(ds, pinball_band_builder(0.1, 0.9), 0.3, 0.5)
        for s in mapping.predict_sets(rng.normal(size=(5, 2))):
            assert isinstance(s, Interval) and s.lo <= s.hi


class TestSplitConformal:
    def test_single_calibration_env_takes_single_score(self):
        envs = (env_from_y("a", [1.0, 2.0, 3.0]), env_from_y("b", [1.0, 2.0, 3.0]))
        ds = MultiEnvDataset(environments=envs)
        mapping = fit_split_conformal(
            ds, constant_symmetric_builder(0.0), alpha=0.5, delta=0.5,
            gamma=0.5, rng=np.random.default_rng(0),
        )
        assert len(mapping.split.d2) == 1
        # n=3 thresholds {1,2,3}: quant_plus at alpha=0.5 picks the 2nd
        assert mapping.env_scores == (2.0,)
        assert mapping.tau_hat == 2.0

    def test_noiseless_constant_data_gives_covering_singletons(self):
        envs = tuple(env_from_y(f"e{i}", [3.0, 3.0, 3.0, 3.0]) for i in range(4))
        ds = MultiEnvDataset(environments=envs)
        mapping = fit_split_conformal(
            ds, mean_symmetric_builder, 0.25, 0.5, 0.5, np.random.default_rng(1)
        )
        assert mapping.tau_hat == 0.0
        for s in mapping.predict_sets(np.zeros((3, 1))):
            assert s == Interval(3.0, 3.0)
            assert contains(s, 3.0)

    def test_matches_direct_regression_route_bitwise(self):
        rng = np.random.default_rng(21)
        from mecp.predictors import DEFAULT_LAMBDA_GRID, fit_ridge

        for seed in range(5):
            ds = linear_dataset(np.random.default_rng(seed), m=6, n=10, p=2)
            mapping = fit_split_conformal(
                ds, ridge_symmetric_builder(), 0.2, 0.4, 0.5, np.random.default_rng(seed + 100)
            )
            d1 = mapping.split.d1
            x1 = np.vstack([ds.environments[i].x for i in d1])
            y1 = np.concatenate([ds.environments[i].y for i in d1])
            model = fit_ridge(x1, y1, DEFAULT_LAMBDA_GRID)
            scores = [
                quant_plus(np.abs(ds.environments[i].y - model.predict(ds.environments[i].x)), 0.2)
                for i in mapping.split.d2
            ]
            tau = quant_plus(scores, 0.4)
            assert tau == mapping.tau_hat
            x = rng.normal(size=(5, 2))
            preds = model.predict(x)
            for p, s in zip(preds, mapping.predict_sets(x)):
                assert s.lo == p - tau and s.hi == p + tau

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError, match="empty side"):
            fit_split_conformal(
                two_point_dataset(), mean_symmetric_builder, 0.5, 0.5, 0.9,
                np.random.default_rng(0),
            )


class TestHierJackknifePlus:
    def hand_dataset(self):
        return MultiEnvDataset(
            environments=(single_obs_env("a", 4.0), single_obs_env("b", 6.0))
        )

    def test_three_atom_hand_case(self):
        # atoms on each side: two at c-/+1 (1/3 each) and one infinite (1/3)
        mapping = fit_hier_jackknife_plus(self.hand_dataset(), constant_builder(5.0), 0.4)
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == Interval(4.0, 6.0)

    def test_infinite_atom_binds_at_small_alpha(self):
        for alpha in (0.3, 0.05):
            mapping = fit_hier_jackknife_plus(self.hand_dataset(), constant_builder(5.0), alpha)
            (got,) = mapping.predict_sets(np.array([[0.0]]))
            assert got == Interval(-math.inf, math.inf)

    def test_single_observation_envs_reduce_to_plain_jackknife_plus(self):
        rng = np.random.default_rng(17)
        envs = tuple(single_obs_env(f"e{i}", rng.normal()) for i in range(7))
        ds = MultiEnvDataset(environments=envs)
        mapping = fit_hier_jackknife_plus(ds, mean_builder, 0.3)
        x = np.zeros((3, 1))
        got = mapping.predict_sets(x)
        preds = np.array([f(x[:1])[0] for f in mapping.predictors])
        residuals = np.array([r[0] for r in mapping.residuals])
        lo, hi = oracle_jackknife_plus_interval(preds, residuals, 0.3)
        for s in got:
            assert s.lo == lo and s.hi == hi

    def test_inverted_quantiles_collapse_to_empty_set(self):
        mapping = HierJackknifePlus(
            predictors=(
                lambda xs: np.zeros(len(xs)),
                lambda xs: np.full(len(xs), 10.0),
            ),
            residuals=(np.array([0.1]), np.array([0.1])),
            alpha=0.8,
        )
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == EMPTY_SET

    def test_validation(self):
        ds = MultiEnvDataset(
            environments=(
                EnvironmentSample(env_id="c", x=np.zeros((2, 1)), y=np.array([0.0, 1.0])),
                EnvironmentSample(env_id="d", x=np.zeros((2, 1)), y=np.array([1.0, 0.0])),
            ),
            outcome="classification",
            n_classes=2,
        )
        with pytest.raises(ValueError, match="regression"):
            fit_hier_jackknife_plus(ds, mean_builder, 0.3)
        with pytest.raises(ValueError, match="alpha"):
            fit_hier_jackknife_plus(self.hand_dataset(), constant_builder(0.0), 1.0)


class TestHcp:
    def equal_residual_dataset(self):
        ys = [2.5, -2.5, 2.5, -2.5]
        return MultiEnvDataset(environments=(env_from_y("a", ys), env_from_y("b", ys)))

    def test_all_residuals_equal_gives_that_residual_at_half(self):
        mapping = fit_hcp(
            self.equal_residual_dataset(), constant_builder(0.0), 0.5, 0.5,
            np.random.default_rng(0),
        )
        assert mapping.tau_hat == 2.5
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == Interval(-2.5, 2.5)

    def test_infinite_atom_regime(self):
        # one calibration env: the infinite atom holds weight 1/2 > alpha
        mapping = fit_hcp(
            self.equal_residual_dataset(), constant_builder(0.0), 0.25, 0.5,
            np.random.default_rng(0),
        )
        assert mapping.tau_hat == math.inf
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == Interval(-math.inf, math.inf)

    def test_mixed_atom_hand_case(self):
        # calibration atoms: 1 and 2 at weight 1/6, 3 at 1/3, +inf at 1/3
        ds = MultiEnvDataset(
            environments=(
                env_from_y("train", [0.0, 0.0]),
                env_from_y("cal_a", [1.0, -2.0]),
                env_from_y("cal_b", [3.0]),
            )
        )
        gamma = 1.0 / 3.0
        seed = find_seed(
            lambda s: split_environments(ds, gamma, np.random.default_rng(s)).d1 == (0,)
        )
        low = fit_hcp(ds, constant_builder(0.0), 0.4, gamma, np.random.default_rng(seed))
        assert low.split.d1 == (0,)
        assert low.tau_hat == 3.0
        high = fit_hcp(ds, constant_builder(0.0), 0.25, gamma, np.random.default_rng(seed))
        assert high.tau_hat == math.inf

    def test_requires_regression(self):
        ds = MultiEnvDataset(
            environments=(
                EnvironmentSample(env_id="c", x=np.zeros((2, 1)), y=np.array([0.0, 1.0])),
                EnvironmentSample(env_id="d", x=np.zeros((2, 1)), y=np.array([1.0, 0.0])),
            ),
            outcome="classification",
            n_classes=2,
        )
        with pytest.raises(ValueError, match="regression"):
            fit_hcp(ds, mean_builder, 0.3, 0.5, np.random.default_rng(0))


class TestResizedSplitConformal:
    def unit_residual_dataset(self):
        ys = [1.0, -1.0, 1.0, -1.0, 1.0]
        return MultiEnvDataset(
            environments=tuple(env_from_y(f"e{i}", ys) for i in range(3))
        )

    def test_unit_factors_match_unresized_split_conformal(self):
        ds = self.unit_residual_dataset()
        test_env = env_from_y("test", [1.0, -1.0])
        plain = fit_split_conformal(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0,
            np.random.default_rng(7),
        )
        resized = fit_resized_split_conformal(
            ds, test_env, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5,
            np.random.default_rng(7),
        )
        assert resized.calibration.split == plain.split
        assert resized.calibration.env_factors == (1.0, 1.0)
        assert resized.test_factor == 1.0
        assert resized.tau_hat == plain.tau_hat == 1.0
        assert resized.calibration.degenerate_envs == ()

    def test_doubling_test_residuals_doubles_tau(self):
        ds = self.unit_residual_dataset()
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        base = resize_for(cal, env_from_y("t1", [1.0, -1.0]))
        doubled = resize_for(cal, env_from_y("t2", [2.0, -2.0]))
        assert doubled.test_factor == 2.0 * base.test_factor
        assert doubled.tau_hat == 2.0 * base.tau_hat

    def test_all_zero_calibration_env_flagged(self):
        ds = MultiEnvDataset(
            environments=(
                env_from_y("train", [1.0, -1.0, 1.0, -1.0, 1.0]),
                env_from_y("zeros", [0.0] * 5),
                env_from_y("units", [1.0, -1.0, 1.0, -1.0, 1.0]),
            )
        )
        gamma = 1.0 / 3.0
        seed = find_seed(
            lambda s: split_environments(ds, gamma, np.random.default_rng(s)).d1 == (0,)
        )
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, gamma, 0.5, 2,
            np.random.default_rng(seed),
        )
        assert cal.degenerate_envs == ("zeros",)
        # 0/0 -> 0 inside the zero environment, so its rescaled score is 0
        assert cal.env_scores[cal.split.d2.index(1)] == 0.0
        assert cal.score_quantile == 1.0

    def test_zero_factor_with_nonzero_residual_escalates_to_infinity(self):
        ds = MultiEnvDataset(
            environments=(
                env_from_y("train", [1.0, -1.0, 1.0, -1.0, 1.0]),
                env_from_y("mixed", [0.0, 0.0, 0.0, 0.0, 3.0]),
                env_from_y("units", [1.0, -1.0, 1.0, -1.0, 1.0]),
            )
        )
        gamma = 1.0 / 3.0

        def probe(seed):
            rng = np.random.default_rng(seed)
            split = split_environments(ds, gamma, rng)
            if split.d1 != (0,):
                return False
            from mecp.data import holdout_labels

            labeled, _ = holdout_labels(ds.environments[1], 2, rng)
            return 4 not in labeled

        seed = find_seed(probe)
        resized = fit_resized_split_conformal(
            ds, env_from_y("t", [1.0, -1.0]), constant_symmetric_builder(0.0),
            0.3, 0.5, gamma, 0.5, np.random.default_rng(seed),
        )
        cal = resized.calibration
        assert cal.degenerate_envs == ("mixed",)
        assert cal.env_scores[cal.split.d2.index(1)] == math.inf
        assert cal.score_quantile == math.inf
        assert resized.tau_hat == math.inf
        (got,) = resized.predict_sets(np.array([[0.0]]))
        assert got == Interval(-math.inf, math.inf)

    def test_zero_test_factor(self):
        ds = self.unit_residual_dataset()
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        zero = resize_for(cal, env_from_y("t", [0.0, 0.0]))
        assert zero.test_factor == 0.0
        assert zero.tau_hat == 0.0
        sparse = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.05, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        assert sparse.score_quantile == math.inf
        # 0 * inf stays conservative
        assert resize_for(sparse, env_from_y("t", [0.0, 0.0])).tau_hat == math.inf

    def test_validation(self):
        ds = self.unit_residual_dataset()
        with pytest.raises(ValueError, match="more than"):
            fit_resized_calibration(
                ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 5,
                np.random.default_rng(0),
            )
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        with pytest.raises(ValueError, match="labeled"):
            resize_for(cal, env_from_y("t", [0.0, 0.0, 0.0]))

    def test_metadata_serializes(self):
        ds = self.unit_residual_dataset()
        resized = fit_resized_split_conformal(
            ds, env_from_y("t", [1.0, -1.0]), constant_symmetric_builder(0.0),
            0.3, 0.5, 1.0 / 3.0, 0.5, np.random.default_rng(7),
        )
        text = json.dumps(resized.metadata(), sort_keys=True)
        assert "resized_split_conformal" in text


class TestJackknifePlusQuantile:
    def test_two_env_hand_case(self):
        mapping = fit_jackknife_plus_quantile(
            two_point_dataset(), mean_builder, alpha=0.5, delta=0.5
        )
        assert mapping.env_scores == (2.0, 2.0)
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == Interval(-2.0, 4.0)

    def test_small_delta_gives_full_line(self):
        mapping = fit_jackknife_plus_quantile(
            two_point_dataset(), mean_builder, alpha=0.5, delta=0.01
        )
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == Interval(-math.inf, math.inf)

    def test_inverted_endpoints_collapse_to_empty_set(self):
        mapping = JackknifePlusQuantile(
            predictors=(
                lambda xs: np.zeros(len(xs)),
                lambda xs: np.full(len(xs), 10.0),
            ),
            env_scores=(0.1, 0.1),
            alpha=0.5,
            delta=0.7,
        )
        (got,) = mapping.predict_sets(np.array([[0.0]]))
        assert got == EMPTY_SET

    def test_contained_in_jackknife_minmax(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            ds = linear_dataset(rng, m=5, n=8, p=2)
            for delta in (0.3, 0.6):
                jm = fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, delta)
                jq = fit_jackknife_plus_quantile(ds, ridge_point_builder(), 0.2, delta)
                assert jm.env_scores == jq.env_scores
                x = rng.normal(size=(6, 2))
                for outer, inner in zip(jm.predict_sets(x), jq.predict_sets(x)):
                    if inner == EMPTY_SET:
                        continue
                    assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_vectorized_sets_match_per_point_quantiles(self):
        # small m puts the lower rank at 0 (-inf) or the upper past m (+inf);
        # large delta inverts the endpoints into empty sets
        rng = np.random.default_rng(9)
        for m in (2, 3, 4, 9, 20):
            offsets = rng.normal(size=m)
            slopes = rng.normal(size=m)
            predictors = tuple(
                (lambda xs, a=a, b=b: a + b * np.asarray(xs)[:, 0])
                for a, b in zip(offsets, slopes)
            )
            scores = rng.exponential(size=m)
            scores[rng.random(m) < 0.2] = math.inf
            x = rng.normal(size=(25, 1))
            for delta in (0.05, 0.1, 0.3, 0.5, 0.7, 0.95):
                mapping = JackknifePlusQuantile(
                    predictors=predictors,
                    env_scores=tuple(scores),
                    alpha=0.1,
                    delta=delta,
                )
                preds = np.stack([f(x) for f in predictors])
                want = []
                for t in range(x.shape[0]):
                    lo = quant_minus(preds[:, t] - scores, delta)
                    hi = quant_plus(preds[:, t] + scores, delta)
                    want.append(EMPTY_SET if lo > hi else Interval(lo, hi))
                assert mapping.predict_sets(x) == want


class TestTauMonotonicity:
    deltas = (0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9)

    @staticmethod
    def assert_non_increasing(values):
        for a, b in zip(values, values[1:]):
            assert b <= a

    def test_jackknife_minmax(self):
        ds = linear_dataset(np.random.default_rng(2), m=6, n=8, p=2)
        taus = [
            fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, d).tau_hat
            for d in self.deltas
        ]
        self.assert_non_increasing(taus)

    def test_split_conformal(self):
        ds = linear_dataset(np.random.default_rng(4), m=8, n=8, p=2)
        taus = [
            fit_split_conformal(
                ds, ridge_symmetric_builder(), 0.2, d, 0.5, np.random.default_rng(99)
            ).tau_hat
            for d in self.deltas
        ]
        self.assert_non_increasing(taus)

    def test_resized(self):
        ds = linear_dataset(np.random.default_rng(6), m=8, n=12, p=2)
        test_env = ds.environments[0]
        labeled = EnvironmentSample(env_id="t", x=test_env.x[:3], y=test_env.y[:3])
        fits = [
            fit_resized_split_conformal(
                ds, labeled, ridge_symmetric_builder(), 0.2, d, 0.5, 0.3,
                np.random.default_rng(42),
            )
            for d in self.deltas
        ]
        self.assert_non_increasing([f.calibration.score_quantile for f in fits])
        self.assert_non_increasing([f.tau_hat for f in fits])


class TestMetadata:
    def test_all_algorithms_serialize(self):
        ds = linear_dataset(np.random.default_rng(8), m=4, n=10, p=2)
        test_env = EnvironmentSample(env_id="t", x=ds.environments[0].x[:2], y=ds.environments[0].y[:2])
        mappings = [
            fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, 0.4),
            fit_split_conformal(ds, ridge_symmetric_builder(), 0.2, 0.4, 0.5, np.random.default_rng(0)),
            fit_hier_jackknife_plus(ds, ridge_point_builder(), 0.2),
            fit_hcp(ds, ridge_point_builder(), 0.2, 0.5, np.random.default_rng(0)),
            fit_resized_split_conformal(
                ds, test_env, ridge_symmetric_builder(), 0.2, 0.4, 0.5, 0.3,
                np.random.default_rng(0),
            ),
            fit_jackknife_plus_quantile(ds, ridge_point_builder(), 0.2, 0.4),
            fit_weighted_split_conformal(
                ds, ridge_symmetric_builder(), 0.2, 0.4, 0.5, np.random.default_rng(0)
            ),
            fit_weighted_split_conformal(
                ds, ridge_symmetric_builder(), 0.2, 0.4, 0.5, np.random.default_rng(0),
                randomized=True,
            ),
        ]
        kinds = set()
        for m in mappings:
            meta = m.metadata()
            kinds.add(meta["algorithm"])
            round_trip = json.loads(json.dumps(meta, sort_keys=True))
            assert round_trip == meta
        assert len(kinds) == 8


class TestBuilders:
    def test_band_builder_validation(self):
        with pytest.raises(ValueError, match="below"):
            pinball_band_builder(0.9, 0.1)
        with pytest.raises(ValueError, match="below"):
            pinball_band_builder(0.5, 0.5)
        with pytest.raises(ValueError, match="low_level"):
            pinball_band_builder(0.0, 0.9)
