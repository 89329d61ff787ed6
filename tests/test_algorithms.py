"""Hand-computed cases, oracle reductions, and cross-checks for the constructions."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mecp import algorithms
from mecp.algorithms import (
    HierJackknifePlus,
    JackknifeMinmax,
    JackknifePlusQuantile,
    fit_hcp,
    fit_hier_jackknife_plus,
    fit_jackknife_minmax,
    fit_jackknife_plus_quantile,
    fit_resized_calibration,
    fit_split_conformal,
    fit_weighted_split_conformal,
    resize_for,
    ridge_point_builder,
    ridge_symmetric_builder,
    softmax_sublevel_builder,
)
from mecp.data import (
    EnvironmentSample,
    HierGenConfig,
    MultiEnvDataset,
    generate_hierarchical,
    holdout_labels,
    split_environments,
)
from mecp.nested_sets import (
    EMPTY_SET,
    BandFamily,
    Interval,
    IntervalUnion,
    LabelSet,
    LossSublevelFamily,
    SymmetricFamily,
    thresholds,
)
from mecp.predictors import FitError, fit_ridge, fit_ridge_leave_one_out, multiclass_loss
from mecp.quantiles import quant_minus, quant_plus

from oracles import (
    oracle_contains,
    oracle_float_cumsum_quantile_rows,
    oracle_jackknife_plus_interval,
    oracle_label_sets,
    oracle_minmax_unions,
    oracle_stacked_predict,
)


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


def ridge_band_builder(envs):
    """A fitted band whose width varies with x: ridge fits to the pooled rows
    below and above a pooled ridge fit give its lower and upper ends."""
    x = np.vstack([e.x for e in envs])
    y = np.concatenate([e.y for e in envs])
    above = y >= fit_ridge(x, y).predict(x)
    return BandFamily(lower=fit_ridge(x[~above], y[~above]).predict,
                      upper=fit_ridge(x[above], y[above]).predict)


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
        for got in oracle_minmax_unions(mapping, np.array([[0.0]])):
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

    def test_unions_keep_disconnected_components_the_hull_spans(self):
        far = JackknifeMinmax(
            families=(
                SymmetricFamily(predict=lambda xs: np.zeros(len(xs))),
                SymmetricFamily(predict=lambda xs: np.full(len(xs), 100.0)),
            ),
            env_scores=(1.0, 1.0),
            tau_hat=1.0,
            alpha=0.5,
            delta=0.5,
        )
        (got,) = oracle_minmax_unions(far, np.array([[0.0]]))
        assert got == IntervalUnion((Interval(-1.0, 1.0), Interval(99.0, 101.0)))
        (hull,) = far.predict_sets(np.array([[0.0]]))
        assert hull == Interval(-1.0, 101.0)

    def test_union_envelope_matches_hull_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = linear_dataset(rng, m=4, n=8, p=2)
            mapping = fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, 0.4)
            x = rng.normal(size=(6, 2))
            hulls = mapping.predict_sets(x)
            unions = oracle_minmax_unions(mapping, x)
            for h, u in zip(hulls, unions):
                lo, hi = envelope(u)
                assert h.lo == lo and h.hi == hi

    def test_band_hull_matches_union_envelope(self):
        def band(shift, offset):
            # upper - lower = x1 + offset, so rows with x1 < -offset cross
            return BandFamily(
                lower=lambda xs: xs[:, 0] + shift,
                upper=lambda xs: xs[:, 0] + shift + xs[:, 1] + offset,
            )

        x = np.array([[0.0, 1.0], [0.5, -0.5], [2.0, -3.0], [-1.0, 0.2], [0.3, -1.1]])
        for tau in (0.0, 0.6, -0.25, math.inf):
            mapping = JackknifeMinmax(
                families=(band(-2.0, 0.0), band(0.0, 1.0), band(1.0, -1.0)),
                env_scores=(0.0, 0.0, 0.0),
                tau_hat=tau,
                alpha=0.5,
                delta=0.5,
            )
            unions = oracle_minmax_unions(mapping, x)
            expected = [EMPTY_SET if u == EMPTY_SET else Interval(*envelope(u)) for u in unions]
            assert mapping.predict_sets(x) == expected
            lo, hi = mapping.predict_bounds(x)
            assert [bool(v) for v in lo > hi] == [u == EMPTY_SET for u in unions]
            if tau == 0.0:
                # row 2: every component crossed; row 1: only the middle one is left
                assert expected[2] == EMPTY_SET
                assert expected[1] == Interval(0.5, 1.0)

    def test_fitted_band_hull_matches_union_envelope(self):
        rng = np.random.default_rng(9)
        ds = linear_dataset(rng, m=4, n=30, p=2, noise=0.5)
        fitted = fit_jackknife_minmax(ds, ridge_band_builder, 0.3, 0.5)
        x = rng.normal(size=(40, 2))
        # negative thresholds cross some components (-0.4) or all of them (-0.52)
        for tau in (fitted.tau_hat, -0.4, -0.52):
            mapping = replace(fitted, tau_hat=tau)
            unions = oracle_minmax_unions(mapping, x)
            expected = [EMPTY_SET if u == EMPTY_SET else Interval(*envelope(u)) for u in unions]
            assert mapping.predict_sets(x) == expected
        assert EMPTY_SET in expected

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
        assert hull_sets == oracle_minmax_unions(mapping, x)
        for s in hull_sets:
            assert isinstance(s, LabelSet)
            assert set(s.labels) <= {0, 1}

    def test_random_logit_label_sets_are_the_component_union(self):
        rng = np.random.default_rng(17)
        weights = [rng.normal(size=(3, 2)) for _ in range(3)]
        families = tuple(
            LossSublevelFamily(logits=lambda xs, w=w: xs @ w.T, n_classes=3) for w in weights
        )
        x = rng.normal(size=(25, 2))
        for tau in (-0.1, 0.4, 0.8, 1.3, math.inf):
            mapping = JackknifeMinmax(families, (0.0,) * 3, tau, 0.5, 0.5)
            assert mapping.predict_bounds(x) is None
            want = np.zeros((25, 3), dtype=bool)
            for w in weights:
                for row, labels in enumerate(oracle_label_sets(x @ w.T, 3, tau, multiclass_loss)):
                    want[row, list(labels)] = True
            assert np.array_equal(mapping.predict_mask(x), want)
            assert mapping.predict_sets(x) == oracle_minmax_unions(mapping, x)

    def test_band_families(self):
        rng = np.random.default_rng(9)
        ds = linear_dataset(rng, m=4, n=30, p=2, noise=0.5)
        mapping = fit_jackknife_minmax(ds, ridge_band_builder, 0.3, 0.5)
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
            assert oracle_contains(s, 3.0)

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
        preds = np.array([f(x[:1])[0] for f, _ in algorithms._leave_one_env_out(ds, mean_builder)])
        residuals = np.array([r[0] for r in mapping.residuals])
        lo, hi = oracle_jackknife_plus_interval(preds, residuals, 0.3)
        for s in got:
            assert s.lo == lo and s.hi == hi

    def test_inverted_quantiles_collapse_to_empty_set(self):
        mapping = HierJackknifePlus(
            centres=algorithms._stacked((
                lambda xs: np.zeros(len(xs)),
                lambda xs: np.full(len(xs), 10.0),
            )),
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

    # Endpoints frozen from the sort-based mixture quantile on the
    # leave-one-out ridge route (fit_ridge_leave_one_out, whose refits agree
    # with pooled fit_ridge to rounding); the selection route must reproduce
    # them bit for bit.
    FROZEN_BOUNDS = {
        0.2: (
            [-6.311172500336169, -2.6721364833726375, -4.887449807308864,
             -4.024448768592222, -3.195375442620713, -6.723804095649029],
            [2.4966356539816035, 6.462887559892462, 4.521795972873495,
             5.5663810126169695, 5.90412095587585, 2.028549684450461],
        ),
        0.35: (
            [-4.015522762653924, -0.3713792785874763, -2.2847707604337684,
             -1.669560057116152, -0.9975919409445484, -4.599317672882696],
            [0.2954248112753781, 4.06804543381584, 2.1470470661924344,
             3.0148002734211854, 3.544806474567765, -0.3644399439391228],
        ),
        0.05: ([-math.inf] * 6, [math.inf] * 6),
    }

    def test_seeded_ridge_bounds_match_frozen_arrays(self):
        ds = generate_hierarchical(HierGenConfig(m=8, n_per_env=6, p=3, seed=2024, outlier_frac=0.25))
        x = np.random.default_rng(5).normal(size=(6, 3))
        for alpha, (want_lo, want_hi) in self.FROZEN_BOUNDS.items():
            lo, hi = fit_hier_jackknife_plus(ds, ridge_point_builder(), alpha).predict_bounds(x)
            assert lo.tolist() == want_lo
            assert hi.tolist() == want_hi


def hier_mapping(preds, residuals, alpha):
    """A hierarchical jackknife+ mapping whose predictor j returns ``preds[j]``."""
    return HierJackknifePlus(
        centres=algorithms._stacked(
            [lambda xs, row=row: np.asarray(row, dtype=float)[: len(xs)] for row in preds]),
        residuals=tuple(np.asarray(r, dtype=float) for r in residuals),
        alpha=alpha,
    )


def hier_oracle_bounds(preds, residuals, alpha):
    """Endpoints from the hstacked atom rows, one float cumsum per row."""
    sizes = np.array([len(r) for r in residuals])
    m = len(residuals)
    weights = np.append(np.repeat(1.0 / ((m + 1) * sizes), sizes), 1.0 / (m + 1))
    base = np.asarray(preds, dtype=float)[np.repeat(np.arange(m), sizes), :].T
    res = np.concatenate(residuals)[None, :]
    t = base.shape[0]
    lows = np.hstack([base - res, np.full((t, 1), -math.inf)])
    highs = np.hstack([base + res, np.full((t, 1), math.inf)])
    return (
        oracle_float_cumsum_quantile_rows(lows, weights, alpha),
        oracle_float_cumsum_quantile_rows(highs, weights, 1.0 - alpha),
    )


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()


class TestHierSelectionRoute:
    """Equal-size layouts read both endpoints by selection, bit for bit."""

    def check(self, preds, residuals, alpha):
        lo, hi = hier_mapping(preds, residuals, alpha).predict_bounds(np.zeros((len(preds[0]), 1)))
        want_lo, want_hi = hier_oracle_bounds(preds, residuals, alpha)
        assert_bitwise(lo, want_lo)
        assert_bitwise(hi, want_hi)
        return lo, hi

    def test_random_equal_size_layouts_with_ties(self):
        rng = np.random.default_rng(91)
        for m, n, t in ((1, 1, 1), (2, 1, 4), (1, 3, 5), (4, 2, 9), (7, 5, 12), (20, 50, 6)):
            for decimals in (0, 1, None):
                preds = rng.normal(size=(m, t))
                residuals = np.abs(rng.normal(size=(m, n)))
                if decimals is not None:
                    preds, residuals = np.round(preds, decimals), np.round(residuals, decimals)
                for alpha in (0.02, 0.1, 0.25, 0.4, 0.5):
                    self.check(preds, residuals, alpha)

    def test_signed_zero_atoms_at_the_selected_rank(self):
        rng = np.random.default_rng(92)
        hit = 0
        for m, n in ((2, 2), (3, 4), (5, 3)):
            preds = rng.choice(np.array([-0.0, 0.0, 0.5, -0.5]), size=(m, 40))
            residuals = rng.choice(np.array([-0.0, 0.0, 0.5]), size=(m, n))
            for alpha in (0.1, 0.2, 0.3, 0.45):
                lo, hi = self.check(preds, residuals, alpha)
                hit += int((lo == 0.0).sum() + (hi == 0.0).sum())
        assert hit > 0

    def test_reserved_atom_selected_below_one_over_m_plus_one(self):
        rng = np.random.default_rng(93)
        for m, n in ((1, 3), (4, 2), (9, 5)):
            preds, residuals = rng.normal(size=(m, 7)), np.abs(rng.normal(size=(m, n)))
            lo, hi = self.check(preds, residuals, 0.99 / (m + 1))
            assert (lo == -math.inf).all() and (hi == math.inf).all()

    def test_alpha_above_one_half_inverts_to_empty(self):
        rng = np.random.default_rng(94)
        # residuals small next to the spread of the predictions
        preds, residuals = rng.normal(size=(6, 10)), 0.01 * np.abs(rng.normal(size=(6, 4)))
        for alpha in (0.6, 0.8, 0.95):
            lo, hi = self.check(preds, residuals, alpha)
            assert (lo > hi).any()

    def test_non_finite_atoms_and_ragged_sizes_take_the_fallback(self, monkeypatch):
        real = algorithms.mixture_quantile_rows
        widths = []

        def counted(rows, weights, level):
            widths.append(rows.shape)
            return real(rows, weights, level)

        monkeypatch.setattr(algorithms, "mixture_quantile_rows", counted)
        rng = np.random.default_rng(95)
        preds = rng.normal(size=(4, 6))
        residuals = [np.abs(rng.normal(size=3)) for _ in range(4)]
        self.check(preds, residuals, 0.2)
        assert widths == []
        cases = []
        infinite = preds.copy()
        infinite[1, 2] = math.inf
        cases.append((infinite, residuals))
        huge = preds.copy()
        huge[0, 0] = 1e308  # p + r overflows to +inf
        cases.append((huge, [np.full(3, 1e308)] + residuals[1:]))
        cases.append((preds, [np.abs(rng.normal(size=k)) for k in (3, 4, 3, 2)]))
        for case_preds, case_res in cases:
            widths.clear()
            with np.errstate(over="ignore"):
                self.check(case_preds, case_res, 0.2)
            width = sum(len(r) for r in case_res) + 1
            assert widths == [(6, width), (6, width)]

    def test_sort_route_runs_only_for_zero_rows(self, monkeypatch):
        real = algorithms.mixture_quantile_rows
        calls = []

        def counted(rows, weights, level):
            calls.append(rows.shape[0])
            return real(rows, weights, level)

        monkeypatch.setattr(algorithms, "mixture_quantile_rows", counted)
        rng = np.random.default_rng(96)
        preds, residuals = rng.normal(size=(5, 30)), np.abs(rng.normal(size=(5, 4)))
        lo, hi = self.check(preds, residuals, 0.3)
        assert calls == []
        # rows 0-3 put zero atoms in every position of the lower side
        preds[:, :4] = residuals[:, :1]
        residuals[:, :] = residuals[:, :1]
        lo, hi = self.check(preds, residuals, 0.3)
        assert calls == [4] and (lo[:4] == 0.0).all() and (hi != 0.0).all()


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

    def oracle_tau(self, mapping, ds, alpha):
        cal = [ds.environments[i] for i in mapping.split.d2]
        k = len(cal)
        locs = [thresholds(mapping.family, env.x, env.y) for env in cal] + [[math.inf]]
        weights = [np.full(env.n, 1.0 / ((k + 1) * env.n)) for env in cal] + [[1.0 / (k + 1)]]
        return oracle_float_cumsum_quantile_rows(
            np.concatenate(locs)[None], np.concatenate(weights), 1.0 - alpha
        )[0]

    def test_tau_hat_matches_float_cumsum_oracle(self):
        # the one engine caller of the sorted mixture route, on ridge fits;
        # at equal sizes 4 calibration environments of 6 give 24 weights of
        # 1/30, and every cumsum c with 1 - (1 - c) == c is a boundary level
        cum = np.cumsum(np.full(24, 1.0 / 30))
        boundary = [1.0 - c for c in cum if 1.0 - (1.0 - c) == c]
        assert boundary
        for seed, n_per_env, tied in ((11, 6, False), (12, (3, 9), False), (13, 6, True)):
            ds = generate_hierarchical(HierGenConfig(m=9, n_per_env=n_per_env, p=3, seed=seed))
            if tied:  # each row twice, so every residual atom is tied
                ds = MultiEnvDataset(environments=tuple(
                    replace(env, x=np.repeat(env.x[:3], 2, axis=0), y=np.repeat(env.y[:3], 2))
                    for env in ds.environments
                ))
            for alpha in [0.05, 0.1, 0.3, 0.5] + (boundary if n_per_env == 6 else []):
                mapping = fit_hcp(
                    ds, ridge_point_builder(), alpha, 0.5, np.random.default_rng(seed)
                )
                assert n_per_env != 6 or len(mapping.split.d2) == 4
                assert mapping.tau_hat == self.oracle_tau(mapping, ds, alpha), (seed, alpha)

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
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, test_env.n,
            np.random.default_rng(7),
        )
        resized = resize_for(cal, test_env.x, test_env.y)
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
        t1 = env_from_y("t1", [1.0, -1.0])
        t2 = env_from_y("t2", [2.0, -2.0])
        base = resize_for(cal, t1.x, t1.y)
        doubled = resize_for(cal, t2.x, t2.y)
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
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, gamma, 0.5, 2,
            np.random.default_rng(seed),
        )
        test = env_from_y("t", [1.0, -1.0])
        resized = resize_for(cal, test.x, test.y)
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
        zeros = env_from_y("t", [0.0, 0.0])
        zero = resize_for(cal, zeros.x, zeros.y)
        assert zero.test_factor == 0.0
        assert zero.tau_hat == 0.0
        sparse = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.05, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        assert sparse.score_quantile == math.inf
        # 0 * inf stays conservative
        assert resize_for(sparse, zeros.x, zeros.y).tau_hat == math.inf

    def test_validation(self):
        def refuse(envs):
            raise AssertionError("fitted before the size check")

        ds = self.unit_residual_dataset()
        with pytest.raises(ValueError, match="more than"):
            fit_resized_calibration(
                ds, refuse, 0.3, 0.5, 1.0 / 3.0, 0.5, 5, np.random.default_rng(0)
            )
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        with pytest.raises(ValueError, match="labeled"):
            three = env_from_y("t", [0.0, 0.0, 0.0])
            resize_for(cal, three.x, three.y)
        one = env_from_y("t", [0.0])
        with pytest.raises(ValueError, match="^test labeled set has 1 rows, calibration used 2$"):
            resize_for(cal, one.x, one.y)

    def test_metadata_serializes(self):
        ds = self.unit_residual_dataset()
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        test = env_from_y("t", [1.0, -1.0])
        resized = resize_for(cal, test.x, test.y)
        text = json.dumps(resized.metadata(), sort_keys=True)
        assert "resized_split_conformal" in text


class TestSplitFits:
    """The four split constructions share one split/fit/calibrate skeleton."""

    def test_rng_draws_split_then_holdouts_then_u(self):
        ds = linear_dataset(np.random.default_rng(5), m=6, n=12)
        builder = ridge_symmetric_builder()
        fits = {
            "split": lambda rng: fit_split_conformal(ds, builder, 0.2, 0.3, 0.5, rng),
            "hcp": lambda rng: fit_hcp(ds, ridge_point_builder(), 0.2, 0.5, rng),
            "resized": lambda rng: fit_resized_calibration(
                ds, builder, 0.2, 0.3, 0.5, 0.1, 4, rng
            ),
            "weighted": lambda rng: fit_weighted_split_conformal(
                ds, builder, 0.2, 0.3, 0.5, rng
            ),
            "randomized": lambda rng: fit_weighted_split_conformal(
                ds, builder, 0.2, 0.3, 0.5, rng, randomized=True
            ),
        }
        for name, fit in fits.items():
            rng = np.random.default_rng(11)
            fitted = fit(rng)
            expected = np.random.default_rng(11)
            split = split_environments(ds, 0.5, expected)
            if name == "resized":
                for i in split.d2:
                    holdout_labels(ds.environments[i], 4, expected)
            if name == "randomized":
                expected.uniform()
            assert rng.bit_generator.state == expected.bit_generator.state, name
            if hasattr(fitted, "split"):
                assert fitted.split == split, name

    def test_resized_mapping_exposes_the_calibrated_family(self):
        ds = TestResizedSplitConformal().unit_residual_dataset()
        cal = fit_resized_calibration(
            ds, constant_symmetric_builder(0.0), 0.3, 0.5, 1.0 / 3.0, 0.5, 2,
            np.random.default_rng(7),
        )
        test = env_from_y("t", [1.0, -1.0])
        resized = resize_for(cal, test.x, test.y)
        assert resized.family is resized.calibration.family
        lo, hi = resized.predict_bounds(np.zeros((2, 1)))
        assert lo.tolist() == [-resized.tau_hat] * 2
        assert hi.tolist() == [resized.tau_hat] * 2


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
            centres=algorithms._stacked((
                lambda xs: np.zeros(len(xs)),
                lambda xs: np.full(len(xs), 10.0),
            )),
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
                    centres=algorithms._stacked(predictors),
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


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def layouts(rng, t, p):
    """A (t, p) test block as C-ordered, Fortran-ordered, row-strided and column-sliced arrays."""
    x = rng.normal(size=(t, p))
    rows = np.empty((2 * t, p))
    rows[::2] = x
    cols = np.empty((t, p + 2))
    cols[:, 1:-1] = x
    return {"C": x, "F": np.asfortranarray(x), "rows": rows[::2], "cols": cols[:, 1:-1]}


class TestBatchedCentres:
    """The leave-one-out mappings read every model's predictions from one batched
    product; the per-model route (each RidgeModel.predict, stacked) is the reference."""

    @pytest.mark.parametrize("p", range(1, 8))
    @pytest.mark.parametrize("sizes", [(15,) * 6, (4, 30, 9, 17, 2, 11)])
    def test_stacked_centres_and_bounds_match_per_model_predicts(self, monkeypatch, p, sizes):
        rng = np.random.default_rng(100 * p + len(set(sizes)))
        w = rng.normal(size=p)
        envs = []
        for i, n in enumerate(sizes):
            x = rng.normal(size=(n, p))
            envs.append(EnvironmentSample(env_id=f"e{i}", x=x, y=x @ w + rng.normal(size=n)))
        ds = MultiEnvDataset(environments=tuple(envs))
        x, y = algorithms._pooled(envs)
        models = fit_ridge_leave_one_out(x, y, list(sizes))
        centres, oracle = algorithms._stacked([m.predict for m in models]), oracle_stacked_predict(models)
        blocks = {(t, layout): xt for t in (1, 50, 257) for layout, xt in layouts(rng, t, p).items()}

        def bounds():
            mappings = (fit_hier_jackknife_plus(ds, ridge_point_builder(), 0.2),
                        fit_jackknife_plus_quantile(ds, ridge_point_builder(), 0.2, 0.4),
                        fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, 0.4))
            return {key: [m.predict_bounds(xt) for m in mappings] for key, xt in blocks.items()}

        got = bounds()
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "_ridge_centres", oracle_stacked_predict)
            want = bounds()
        for key, xt in blocks.items():
            assert same_bits(centres(xt), oracle(xt)), key
            for name, g, w in zip(("hier", "quantile", "minmax"), got[key], want[key]):
                assert np.isfinite(g).all()
                assert all(map(same_bits, g, w)), (name, key)


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
            resize_for(fit_resized_calibration(
                ds, ridge_symmetric_builder(), 0.2, d, 0.5, 0.3, labeled.n,
                np.random.default_rng(42),
            ), labeled.x, labeled.y)
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
            resize_for(fit_resized_calibration(
                ds, ridge_symmetric_builder(), 0.2, 0.4, 0.5, 0.3, test_env.n,
                np.random.default_rng(0),
            ), test_env.x, test_env.y),
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


class TestLeaveOneEnvOutErrors:
    @pytest.mark.parametrize(
        "fit",
        [
            lambda ds, b: fit_jackknife_minmax(ds, lambda envs: SymmetricFamily(predict=b(envs)), 0.3, 0.4),
            lambda ds, b: fit_hier_jackknife_plus(ds, b, 0.3),
            lambda ds, b: fit_jackknife_plus_quantile(ds, b, 0.3, 0.4),
        ],
    )
    def test_fit_error_names_the_left_out_environment(self, fit):
        ds = MultiEnvDataset(environments=tuple(single_obs_env(f"e{i}", i) for i in range(4)))

        def builder(envs):
            if "e2" not in {e.env_id for e in envs}:
                raise FitError("no usable penalty in grid", grid=(0.0,))
            return mean_builder(envs)

        with pytest.raises(FitError) as info:
            fit(ds, builder)
        assert str(info.value) == "left-out environment e2: no usable penalty in grid"
        assert info.value.details == {"grid": (0.0,), "left_out_env": "e2"}
        assert str(info.value.__cause__) == "no usable penalty in grid"

    @pytest.mark.parametrize(
        "fit",
        [
            lambda ds, grid: fit_jackknife_minmax(ds, ridge_symmetric_builder(grid), 0.3, 0.4),
            lambda ds, grid: fit_hier_jackknife_plus(ds, ridge_point_builder(grid), 0.3),
            lambda ds, grid: fit_jackknife_plus_quantile(ds, ridge_point_builder(grid), 0.3, 0.4),
        ],
    )
    def test_ridge_refit_errors_name_the_left_out_environment(self, fit):
        envs = [EnvironmentSample(f"e{i}", np.array([[float(i)]]), np.array([i * i + 1.0]))
                for i in range(3)]
        # one kept row
        with pytest.raises(FitError) as info:
            fit(MultiEnvDataset(environments=tuple(envs[:2])), (1.0,))
        assert str(info.value) == "left-out environment e0: ridge LOOCV needs n >= 2"
        assert info.value.details == {"left_out_env": "e0"}
        # two kept rows and one feature interpolate at lambda=0
        with pytest.raises(FitError) as info:
            fit(MultiEnvDataset(environments=tuple(envs)), (0.0,))
        assert str(info.value) == "left-out environment e0: no usable penalty in grid"
        assert info.value.details == {"grid": (0.0,), "left_out_env": "e0"}

    def test_ridge_builders_make_no_pooled_refit(self, monkeypatch):
        def no_pooled_fit(*args):
            raise AssertionError("fit_ridge called")

        monkeypatch.setattr(algorithms, "fit_ridge", no_pooled_fit)
        ds = linear_dataset(np.random.default_rng(4), m=5, n=12, p=2)
        mapping = fit_jackknife_minmax(ds, ridge_symmetric_builder(), 0.2, 0.4)
        assert len(mapping.families) == 5
