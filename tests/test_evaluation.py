"""Coverage tallies against hand spreadsheets, engine determinism, delta matching."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecp import algorithms, cli, evaluation
from mecp.algorithms import (
    SplitConformal,
    fit_hcp,
    fit_hier_jackknife_plus,
    fit_jackknife_minmax,
    fit_split_conformal,
    resize_for,
    ridge_point_builder,
    ridge_symmetric_builder,
    softmax_sublevel_builder,
)
from mecp.data import (
    EnvironmentSample,
    EnvSplit,
    HierGenConfig,
    MultiEnvDataset,
    generate_hierarchical,
    holdout_labels,
)
from mecp.evaluation import (
    CoverageReport,
    DeltaMatch,
    EnvRecord,
    TrialPlan,
    algorithm_names,
    evaluate_mapping,
    match_delta,
    run_plans,
    run_trial,
    run_trials,
    trial_dataset,
)
from mecp.nested_sets import (
    EMPTY_SET,
    Interval,
    LossSublevelFamily,
    SymmetricFamily,
    contains,
    measure,
)

from mecp.predictors import multiclass_loss
from mecp.quantiles import rank_plus
from oracles import oracle_label_sets, oracle_score_sets, oracle_stacked_predict


class WidthMapping:
    """Interval [-w, w] per row, with w read off the first feature column."""

    def predict_bounds(self, x):
        w = np.asarray(x, dtype=float)[:, 0]
        return -w, w


class ConstantMapping:
    """The same interval for every row; EMPTY_SET gives empty rows."""

    def __init__(self, pred_set):
        self.ends = (math.inf, -math.inf) if pred_set == EMPTY_SET else (pred_set.lo, pred_set.hi)

    def predict_bounds(self, x):
        t = np.asarray(x).shape[0]
        return np.full(t, self.ends[0]), np.full(t, self.ends[1])


def width_env(env_id, widths, values):
    widths = np.asarray(widths, dtype=float)
    return EnvironmentSample(env_id, widths[:, None], np.asarray(values, dtype=float))


def scan_threshold(n, alpha):
    """Smallest count k with k >= (1 - alpha)(n + 1), found by exhaustive scan."""
    target = (1 - Fraction(alpha)) * (n + 1)
    for k in range(n + 2):
        if k >= target:
            return k
    raise AssertionError("threshold never exceeds n + 1")


def make_plan(**overrides):
    params = dict(
        generator=HierGenConfig(m=1, n_per_env=20, p=2, seed=0),
        algorithm="jackknife_minmax",
        trials=2,
        train_envs=4,
        test_envs=2,
        alpha=0.1,
        delta=0.2,
        seed=11,
    )
    params.update(overrides)
    return TrialPlan(**params)


def constant_set_runner(pred_set):
    """Trial runner whose mapping ignores the fit data entirely."""

    def run(train, plan, rng):
        return ConstantMapping(pred_set)

    return run


class TestCoveredEnvThreshold:
    def test_bar_can_exceed_tiny_env(self):
        assert rank_plus(3, 0.1) == 4

    def test_bar_at_nine_of_nine(self):
        assert rank_plus(9, 0.1) == 9

    def test_bar_at_fifty(self):
        assert rank_plus(50, 0.1) == 46

    @given(
        n=st.integers(min_value=1, max_value=80),
        alpha=st.floats(min_value=0.005, max_value=0.995),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, n, alpha):
        assert rank_plus(n, alpha) == scan_threshold(n, alpha)


class TestEvaluateMapping:
    def test_full_coverage_cannot_clear_bar_below_size_four(self):
        env = EnvironmentSample("a", np.full((3, 1), 100.0), np.zeros(3))
        report = evaluate_mapping(WidthMapping(), [env], 0.1)
        assert report.records[0].covered_count == 3
        assert not report.records[0].env_covered
        assert report.empirical_one_minus_delta == 0.0
        assert report.empirical_one_minus_alpha is None

    def test_nine_of_nine_clears_bar(self):
        env = EnvironmentSample("a", np.full((9, 1), 100.0), np.zeros(9))
        report = evaluate_mapping(WidthMapping(), [env], 0.1)
        assert report.records[0].env_covered
        assert report.empirical_one_minus_delta == 1.0
        assert report.empirical_one_minus_alpha == 1.0

    def test_hand_fixture_two_trials_two_envs(self):
        # alpha = 0.25; bars: n=4 -> 4, n=7 -> 6
        trial0 = [
            width_env("a", (1.0, 1.0, 2.0, 2.0), (0.5, -0.9, 1.9, 0.0)),
            width_env(
                "b",
                (1.5,) * 7,
                (1.0, -1.0, 0.0, 1.2, -1.2, 0.3, 9.0),
            ),
        ]
        trial1 = [
            width_env("a", (0.5,) * 4, (0.2, -0.3, 0.4, 5.0)),
            width_env(
                "b",
                (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.0),
                (0.5, -0.5, 0.9, 5.0, -3.0, 0.0, 1.0),
            ),
        ]
        records = []
        for trial, envs in enumerate((trial0, trial1)):
            part = evaluate_mapping(WidthMapping(), envs, 0.25, trial=trial)
            records.extend(part.records)
        report = CoverageReport.from_records(records, 0.25, "count")

        counts = [(r.trial, r.env_id, r.covered_count, r.env_covered) for r in report.records]
        assert counts == [
            (0, "a", 4, True),
            (0, "b", 6, True),
            (1, "a", 3, False),
            (1, "b", 5, False),
        ]
        assert [r.mean_measure for r in report.records] == [3.0, 3.0, 1.0, 4.0]
        assert report.empirical_one_minus_delta == 0.5
        assert report.empirical_one_minus_alpha == (4 / 4 + 6 / 7) / 2
        assert report.empirical_set_length == 2.75

    def test_fraction_rule_differs_from_count_rule(self):
        # 9 of 10 covered: fraction 0.9 reaches 1 - alpha, count 9 misses bar 10
        env = width_env("a", (1.0,) * 10, (0.0,) * 9 + (5.0,))
        by_count = evaluate_mapping(WidthMapping(), [env], 0.1, rule="count")
        by_fraction = evaluate_mapping(WidthMapping(), [env], 0.1, rule="fraction")
        assert rank_plus(10, 0.1) == 10
        assert not by_count.records[0].env_covered
        assert by_fraction.records[0].env_covered

    def test_clip_limits_reported_measure(self):
        env = width_env("a", (10.0,) * 4, (0.0,) * 4)
        report = evaluate_mapping(
            ConstantMapping(Interval(-10.0, 10.0)), [env], 0.2, clip=(-1.0, 2.0)
        )
        assert report.records[0].mean_measure == 3.0
        assert report.empirical_set_length == 3.0

    def test_empty_sets_cover_nothing_and_measure_zero(self):
        env = width_env("a", (1.0,) * 5, (0.0,) * 5)
        report = evaluate_mapping(ConstantMapping(EMPTY_SET), [env], 0.2)
        assert report.records[0].covered_count == 0
        assert report.records[0].mean_measure == 0.0
        assert report.empirical_one_minus_alpha is None

    def test_validation(self):
        env = width_env("a", (1.0,) * 4, (0.0,) * 4)
        wide = EnvironmentSample("b", np.ones((4, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            evaluate_mapping(WidthMapping(), [], 0.1)
        with pytest.raises(ValueError):
            evaluate_mapping(WidthMapping(), [env, wide], 0.1)
        with pytest.raises(ValueError):
            evaluate_mapping(WidthMapping(), [env], 0.1, rule="ceil")
        with pytest.raises(ValueError):
            evaluate_mapping(WidthMapping(), [env], 1.0)

    @given(
        data=st.data(),
        alpha=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_covered_average_never_below_bar_floor(self, data, alpha):
        sizes = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=12))
        records = []
        for i, n in enumerate(sizes):
            covered = data.draw(st.integers(0, n))
            records.append(
                EnvRecord(
                    trial=0,
                    env_id=f"e{i}",
                    n=n,
                    covered_count=covered,
                    env_covered=covered >= rank_plus(n, alpha),
                    mean_measure=1.0,
                )
            )
        report = CoverageReport.from_records(records, alpha, "count")
        if report.empirical_one_minus_alpha is not None:
            floor = min((rank_plus(r.n, alpha) - 1) / r.n for r in records)
            assert report.empirical_one_minus_alpha >= floor - 1e-12


class TestTrialPlan:
    def test_rejects_bad_fields(self):
        for overrides in (
            {"algorithm": "mystery_method"},
            {"trials": 0},
            {"train_envs": 1},
            {"test_envs": 0},
            {"alpha": 0.0},
            {"delta": 1.0},
            {"gamma": -0.1},
            {"alpha0": 2.0},
            {"label_count": 0},
            {"trials": 2.5},
            {"train_envs": 4.0},
            {"test_envs": "2"},
            {"label_count": 2.7},
            {"trials": True},
            {"ridge_weight": True},
            {"ridge_weight": np.False_},
            {"ridge_grid": (0.1, True)},
            {"alpha": "0.1"},
            {"delta": "0.3"},
            {"ridge_weight": "0.5"},
            {"ridge_grid": ("0.1",)},
            {"gamma": True},
            {"alpha0": np.True_},
            {"rule": "majority"},
            {"clip": (2.0, -1.0)},
            {"clip": (0.0, math.inf)},
            {"clip": ("-1", 2.0)},
            {"clip": (-1.0, True)},
            {"clip": (True, 2.0)},
            {"clip": (np.False_, 1.0)},
        ):
            with pytest.raises(ValueError):
                make_plan(**overrides)

    def test_probability_fields_are_stored_as_checked_floats(self):
        plan = make_plan(alpha=np.float64(0.1), delta=Fraction(3, 10))
        assert [type(getattr(plan, name)) for name in ("alpha", "delta", "gamma", "alpha0")] == [float] * 4
        assert (plan.alpha, plan.delta) == (0.1, 0.3)

    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in (-1, 1.5, "x", True, None):
            with pytest.raises(ValueError, match="seed"):
                make_plan(seed=seed)
        plan = make_plan(seed=np.uint64(7))
        assert type(plan.seed) is int and plan.seed == 7
        assert json.dumps(plan.to_json_dict()["seed"]) == "7"

    def test_numpy_integer_counts_normalized_to_int(self):
        plan = make_plan(trials=np.int64(2), train_envs=np.int32(4), label_count=np.int64(5))
        assert all(type(v) is int for v in (plan.trials, plan.train_envs, plan.label_count))
        json.dumps(plan.to_json_dict())

    def test_clip_normalized_to_floats(self):
        plan = make_plan(clip=(0, 4))
        assert plan.clip == (0.0, 4.0)
        assert all(isinstance(v, float) for v in plan.clip)

    def test_ridge_fields_store_the_checked_float(self):
        plan = make_plan(ridge_weight=0, ridge_grid=[0, Fraction(1, 2)])
        assert type(plan.ridge_weight) is float and plan.ridge_weight == 0.0
        assert plan.ridge_grid == (0.0, 0.5) and all(type(v) is float for v in plan.ridge_grid)

    def test_ridge_weight_is_pinned_at_zero(self):
        for weight in (0.01, 0.3):
            with pytest.raises(ValueError, match="ridge_weight must be 0"):
                make_plan(algorithm="weighted_split_conformal", ridge_weight=weight)
        for weight in (0, 0.0):
            echo = make_plan(ridge_weight=weight).to_json_dict()["ridge_weight"]
            assert json.dumps(echo) == "0.0"

    def test_json_echo_round_trips_through_dumps(self):
        plan = make_plan(clip=(0.0, 4.0))
        doc = plan.to_json_dict()
        assert doc["algorithm"] == "jackknife_minmax"
        assert doc["generator"]["n_per_env"] == 20
        assert doc["generator"]["beta"] is None
        assert doc["clip"] == [0.0, 4.0]
        assert json.loads(json.dumps(doc)) == doc

    def test_json_echo_lists_every_field(self):
        generator = HierGenConfig(m=6, n_per_env=[10, 20], p=2, beta=[1, -0.5], seed=3)
        plan = make_plan(generator=generator, algorithm="weighted_split_conformal",
                         ridge_grid=[0, 1], clip=[-1, 4])
        assert plan.to_json_dict() == {
            "generator": {
                "m": 6, "n_per_env": [10, 20], "p": 2, "beta": [1.0, -0.5],
                "env_effect_scale": 1.0, "noise_scale": 1.0, "outlier_frac": 0.0,
                "outlier_noise_multiplier": 1.0, "seed": 3,
            },
            "algorithm": "weighted_split_conformal", "trials": 2, "train_envs": 4,
            "test_envs": 2, "alpha": 0.1, "delta": 0.2, "gamma": 0.5, "alpha0": 0.05,
            "label_count": 30, "ridge_grid": [0.0, 1.0], "ridge_weight": 0.0,
            "feature_map": "constant", "clip": [-1.0, 4.0], "rule": "count", "seed": 11,
        }
        match = DeltaMatch(0.1, True, 0.9, ((0.05, 0.8), (0.1, 0.9)))
        assert match.to_json_dict() == {
            "delta": 0.1, "found": True, "baseline_fraction": 0.9,
            "candidate_fractions": [[0.05, 0.8], [0.1, 0.9]],
        }


class TestRunTrials:
    def test_single_trial_reduces_to_evaluate_mapping(self):
        plan = make_plan(trials=1)
        report = run_trials(plan)
        dataset = trial_dataset(plan, 0)
        mapping = fit_jackknife_minmax(
            dataset.subset(range(plan.train_envs)),
            ridge_symmetric_builder(),
            plan.alpha,
            plan.delta,
        )
        manual = evaluate_mapping(
            mapping, dataset.environments[plan.train_envs :], plan.alpha
        )
        assert report == manual

    def test_same_plan_same_bytes(self):
        first = json.dumps(run_trials(make_plan(trials=3)).to_json_dict(), sort_keys=True)
        second = json.dumps(run_trials(make_plan(trials=3)).to_json_dict(), sort_keys=True)
        assert first == second

    def test_seed_changes_records(self):
        base = run_trials(make_plan(trials=2))
        moved = run_trials(make_plan(trials=2, seed=12))
        assert base.records != moved.records

    def test_records_labeled_by_trial_and_env(self):
        plan = make_plan(trials=3)
        report = run_trials(plan)
        assert [r.trial for r in report.records] == [0, 0, 1, 1, 2, 2]
        assert {r.env_id for r in report.records} == {"env4", "env5"}

    def test_every_algorithm_yields_valid_records(self):
        for name in algorithm_names():
            plan = make_plan(algorithm=name, trials=1, alpha=0.2, label_count=5, seed=3)
            report = run_trials(plan)
            assert len(report.records) == plan.test_envs
            for record in report.records:
                assert 0 <= record.covered_count <= record.n
                assert record.mean_measure >= 0.0

    def test_resized_scores_only_unlabeled_rows(self):
        plan = make_plan(
            algorithm="resized_split_conformal", trials=1, alpha=0.2, label_count=5
        )
        report = run_trials(plan)
        assert all(r.n == 20 - 5 for r in report.records)

    def test_shared_seed_pairs_datasets_across_methods(self):
        plan_a = make_plan(algorithm="split_conformal", trials=3, train_envs=6)
        plan_b = make_plan(algorithm="hcp", trials=3, train_envs=6, delta=0.7)
        for trial in range(3):
            left = trial_dataset(plan_a, trial)
            right = trial_dataset(plan_b, trial)
            for a, b in zip(left.environments, right.environments):
                assert a.env_id == b.env_id
                assert np.array_equal(a.x, b.x)
                assert np.array_equal(a.y, b.y)

    def test_fit_error_carries_trial_index(self, monkeypatch):
        def exploding_runner(train, plan, rng):
            raise evaluation.FitError("synthetic failure", code=7)

        monkeypatch.setitem(evaluation._TRIAL_RUNNERS, "exploder", exploding_runner)
        plan = make_plan(algorithm="exploder", trials=2)
        with pytest.raises(evaluation.FitError, match="trial 0"):
            run_trials(plan)
        try:
            run_trials(plan)
        except evaluation.FitError as err:
            assert err.details["trial"] == 0
            assert err.details["code"] == 7

    def test_run_trial_rejects_out_of_range_index(self):
        plan = make_plan(trials=2)
        with pytest.raises(ValueError):
            run_trial(plan, -1)
        with pytest.raises(ValueError):
            run_trial(plan, 2)

    def test_minmax_coverage_clears_monte_carlo_bound(self):
        plan = make_plan(
            generator=HierGenConfig(m=1, n_per_env=30, p=3, seed=0),
            trials=120,
            train_envs=6,
            test_envs=3,
            alpha=0.1,
            delta=0.2,
            seed=20260814,
        )
        report = run_trials(plan)
        pairs = len(report.records)
        assert pairs == 360
        bound = 0.8 - 3.0 * math.sqrt(0.2 * 0.8 / pairs)
        assert report.empirical_one_minus_delta >= bound
        assert 0.0 < report.empirical_set_length < math.inf


def centred_mapping(centers, tau):
    """Split mapping of symmetric sets [c - tau, c + tau], c read off column 0."""
    return SplitConformal(
        family=SymmetricFamily(predict=lambda xs: np.asarray(centers, dtype=float)[: len(xs)]),
        env_scores=(),
        tau_hat=tau,
        alpha=0.1,
        delta=0.1,
        gamma=0.5,
        split=EnvSplit(d1=(0,), d2=(1,)),
    )


def assert_matches_oracle(mapping, envs, alpha, clip=None):
    report = evaluate_mapping(mapping, envs, alpha, clip=clip)
    for env, rec in zip(envs, report.records):
        expected = oracle_score_sets(mapping.predict_sets(env.x), env.y, clip)
        assert (rec.covered_count, rec.mean_measure) == expected
    return report


class TestColumnarScoring:
    """Records from ``(lo, hi)`` arrays equal a per-row oracle on the built sets."""

    @pytest.mark.parametrize("name", algorithm_names())
    def test_every_algorithm_matches_per_row_oracle(self, name, monkeypatch):
        # every (mapping, rows) pair the engine scores, resized ones included
        real = evaluation._score_pairs
        scored = []

        def scored_twice(pairs, alpha, clip, rule, trial):
            records = real(pairs, alpha, clip, rule, trial)
            assert len(records) == len(pairs)
            for (mapping, (env, rows)), rec in zip(pairs, records):
                x, y = env.x[rows], env.y[rows]
                assert mapping.predict_bounds(x) is not None
                expected = oracle_score_sets(mapping.predict_sets(x), y, clip)
                assert (rec.covered_count, rec.mean_measure) == expected
            scored.extend(records)
            return records

        monkeypatch.setattr(evaluation, "_score_pairs", scored_twice)
        for alpha, delta, clip in ((0.1, 0.2, None), (0.95, 0.9, (-1.0, 2.0))):
            plan = make_plan(
                algorithm=name, trials=3, alpha=alpha, delta=delta, clip=clip, label_count=5
            )
            for t in range(plan.trials):
                run_trial(plan, t)
        assert len(scored) == 2 * 3 * 2

    def test_outcome_on_closed_endpoint_is_covered(self):
        env = width_env("a", (0.0, 1.0, 2.0, 3.0), (-0.5, 1.5, 2.6, 3.0))
        report = assert_matches_oracle(centred_mapping([0.0, 1.0, 2.0, 3.0], 0.5), [env], 0.2)
        assert report.records[0].covered_count == 3
        assert report.records[0].mean_measure == 1.0

    def test_signed_zero_endpoints(self):
        env = width_env("a", (0.0, 0.0), (0.0, -0.0))
        report = assert_matches_oracle(centred_mapping([-0.0, 0.0], 0.0), [env], 0.2)
        assert report.records[0].covered_count == 2
        assert math.copysign(1.0, report.records[0].mean_measure) == 1.0

    def test_infinite_endpoints_with_few_calibration_environments(self):
        data = generate_hierarchical(HierGenConfig(m=3, n_per_env=12, p=2, seed=4))
        # one calibration environment: its infinite atom carries 1/2 > alpha
        mapping = fit_hcp(
            data.subset(range(2)), ridge_point_builder(), 0.1, 0.5, np.random.default_rng(0)
        )
        assert mapping.tau_hat == math.inf
        test = [data.environments[2]]
        lo, hi = mapping.predict_bounds(test[0].x)
        assert np.all(lo == -math.inf) and np.all(hi == math.inf)
        assert assert_matches_oracle(mapping, test, 0.1).records[0].mean_measure == math.inf
        clipped = assert_matches_oracle(mapping, test, 0.1, clip=(-1.0, 2.0))
        assert clipped.records[0].covered_count == 12
        assert clipped.records[0].mean_measure == 3.0

    def test_inverted_pairs_are_empty(self):
        data = generate_hierarchical(HierGenConfig(m=5, n_per_env=15, p=2, seed=6))
        mapping = fit_hier_jackknife_plus(data.subset(range(4)), ridge_point_builder(), 0.95)
        test = [data.environments[4]]
        lo, hi = mapping.predict_bounds(test[0].x)
        inverted = lo > hi
        assert inverted.any()
        sets = mapping.predict_sets(test[0].x)
        assert all((s == EMPTY_SET) == bool(flag) for s, flag in zip(sets, inverted))
        for clip in (None, (-0.5, 0.5)):
            assert_matches_oracle(mapping, test, 0.95, clip=clip)

    @pytest.mark.parametrize("n_per_env", [(3, 40), 17])
    def test_several_environments_match_per_env_oracle(self, n_per_env):
        data = generate_hierarchical(HierGenConfig(m=14, n_per_env=n_per_env, p=2, seed=12))
        mapping = fit_hier_jackknife_plus(data.subset(range(8)), ridge_point_builder(), 0.25)
        test = data.environments[8:]
        assert (len({e.n for e in test}) > 1) == isinstance(n_per_env, tuple)
        for clip, rule in ((None, "count"), ((-1.0, 1.0), "fraction")):
            report = evaluate_mapping(mapping, test, 0.25, clip=clip, rule=rule, trial=3)
            assert [(r.trial, r.env_id, r.n) for r in report.records] == [
                (3, e.env_id, e.n) for e in test
            ]
            for env, rec in zip(test, report.records):
                expected = oracle_score_sets(mapping.predict_sets(env.x), env.y, clip)
                assert (rec.covered_count, rec.mean_measure) == expected
                bar = (1 - Fraction(0.25)) * (env.n + (rule == "count"))
                assert rec.env_covered == (rec.covered_count >= bar)

    def test_label_set_split_mapping_is_scored_from_its_mask(self):
        rng = np.random.default_rng(8)
        envs = []
        for i in range(10):
            x = rng.normal(size=(15, 2))
            logits = x @ [[1.5, -1.5, 0.0], [0.0, 1.5, -1.5]] + rng.normal(size=(15, 3))
            envs.append(EnvironmentSample(f"c{i}", x, np.argmax(logits, axis=1).astype(float)))
        data = MultiEnvDataset(tuple(envs), outcome="classification", n_classes=3)
        mapping = fit_split_conformal(data.subset(range(8)), softmax_sublevel_builder(3),
                                      0.2, 0.3, 0.5, np.random.default_rng(0))
        test = envs[8:]
        assert mapping.predict_bounds(test[0].x) is None
        report = evaluate_mapping(mapping, test, 0.2)
        sizes = set()
        for env, rec in zip(test, report.records):
            sets = mapping.predict_sets(env.x)
            assert rec.covered_count == sum(int(y) in s.labels for s, y in zip(sets, env.y))
            assert rec.mean_measure == np.mean([len(s.labels) for s in sets])
            sizes.update(len(s.labels) for s in sets)
        assert len(sizes) > 1

    def test_nan_endpoint_raises_on_both_routes(self):
        env = width_env("a", (0.0, 1.0), (0.0, 1.0))
        mapping = centred_mapping([math.nan, 1.0], 0.5)
        with pytest.raises(ValueError, match="NaN"):
            evaluate_mapping(mapping, [env], 0.2)
        with pytest.raises(ValueError, match="NaN"):
            mapping.predict_sets(env.x)
        # a NaN in a later environment only
        first = width_env("a", (0.0,), (0.0,))
        with pytest.raises(ValueError, match="NaN"):
            evaluate_mapping(centred_mapping([1.0, math.nan], 0.5), [first, env], 0.2)

    def test_bad_clip_raises(self):
        env = width_env("a", (1.0,), (0.0,))
        with pytest.raises(ValueError, match="clip range"):
            evaluate_mapping(centred_mapping([0.0], 1.0), [env], 0.2, clip=(2.0, 1.0))


def label_mapping(tau, n_classes=3):
    """Split mapping of loss-sublevel label sets whose logits are the rows of x."""
    return replace(
        centred_mapping([], tau),
        family=LossSublevelFamily(logits=lambda xs: xs, n_classes=n_classes),
    )


class TestMaskScoring:
    """Label sets scored from ``predict_mask`` equal a per-set ``contains``/``measure`` oracle."""

    @pytest.mark.parametrize("sizes", [(5, 17, 1, 9), (8, 8, 8)])
    def test_random_logits_match_per_set_oracle(self, sizes):
        rng = np.random.default_rng(31)
        # -1 and K name no class, and floats truncate as int(y) does: -0.5 -> 0, 2.9 -> 2
        outcomes = [0.0, 1.0, 2.0, -1.0, 3.0, -0.5, 0.7, 1.5, 2.9, 3.2, -1.5]
        envs = [
            EnvironmentSample(f"e{i}", rng.normal(size=(n, 3)), rng.choice(outcomes, size=n))
            for i, n in enumerate(sizes)
        ]
        for tau in (-0.1, 0.3, 0.9, 1.4, math.inf):
            mapping = label_mapping(tau)
            assert mapping.predict_bounds(envs[0].x) is None
            for rule in ("count", "fraction"):
                report = evaluate_mapping(mapping, envs, 0.3, rule=rule, trial=2)
                for env, rec in zip(envs, report.records):
                    sets = mapping.predict_sets(env.x)
                    assert rec.covered_count == sum(contains(s, y) for s, y in zip(sets, env.y))
                    assert rec.mean_measure == np.mean([measure(s) for s in sets])

    def test_predict_mask_matches_scalar_oracle(self):
        x = np.random.default_rng(32).normal(size=(40, 3))
        for tau in (-0.1, 0.3, 0.9, 1.4, math.inf):
            want = oracle_label_sets(x, 3, tau, multiclass_loss)
            got = label_mapping(tau).predict_mask(x)
            assert got.tolist() == [[c in labels for c in range(3)] for labels in want]

    def test_label_minus_one_does_not_wrap_to_the_last_class(self):
        env = EnvironmentSample("a", np.array([[0.0, 0.0, 5.0]] * 2), np.array([-1.0, 3.0]))
        mapping = label_mapping(0.1)
        assert mapping.predict_mask(env.x).tolist() == [[False, False, True]] * 2
        record = evaluate_mapping(mapping, [env], 0.3).records[0]
        assert (record.covered_count, record.mean_measure) == (0, 1.0)


def per_environment_resized_records(dataset, plan, rng, trial):
    """Resized records scored one test environment at a time: one resize_for
    and one evaluate_mapping each, on rows cut out by ``take``."""
    train = dataset.subset(range(plan.train_envs))
    calibration = evaluation._TRIAL_RUNNERS[plan.algorithm](train, plan, rng)
    records = []
    for env in dataset.environments[plan.train_envs :]:
        labeled, rest = holdout_labels(env, plan.label_count, rng)
        held = env.take(labeled)
        mapping = resize_for(calibration, held.x, held.y)
        report = evaluate_mapping(
            mapping, [env.take(rest)], plan.alpha, clip=plan.clip, rule=plan.rule, trial=trial
        )
        records.extend(report.records)
    return tuple(records)


class TestResizedOnePass:
    """A resized trial scores every test environment in one columnar pass."""

    @pytest.mark.parametrize("n_per_env", [20, (12, 30)])
    @pytest.mark.parametrize("clip, rule", [(None, "count"), ((-1.0, 2.0), "fraction")])
    def test_matches_per_environment_route_byte_for_byte(self, n_per_env, clip, rule):
        plan = make_plan(
            generator=HierGenConfig(m=1, n_per_env=n_per_env, p=2, seed=0),
            algorithm="resized_split_conformal",
            trials=3,
            test_envs=5,
            label_count=5,
            clip=clip,
            rule=rule,
        )
        for t in range(plan.trials):
            dataset = trial_dataset(plan, t)
            engine_rng, replay_rng = evaluation._trial_rng(plan, t), evaluation._trial_rng(plan, t)
            got = evaluation.dataset_records(dataset, plan, engine_rng, t)
            want = per_environment_resized_records(dataset, plan, replay_rng, t)
            assert json.dumps([r.to_json_dict() for r in got]) == json.dumps(
                [r.to_json_dict() for r in want]
            )
            assert got == want
            # calibration draws, then one holdout draw per test environment
            assert engine_rng.bit_generator.state == replay_rng.bit_generator.state
            sizes = {r.n for r in got}
            assert (len(sizes) > 1) == isinstance(n_per_env, tuple)

    @pytest.mark.parametrize("name", algorithm_names())
    def test_one_tally_pass_per_trial(self, name, monkeypatch):
        real = evaluation._bounds_tallies
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(evaluation, "_bounds_tallies", counted)
        records = run_trial(make_plan(algorithm=name, test_envs=3, label_count=5), 0)
        assert len(records) == 3
        assert len(calls) == 1

    def test_resizes_through_the_public_holdout_and_resize_calls(self, monkeypatch):
        calls = {"holdout_labels": 0, "resize_for": 0}

        def counted(name):
            inner = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, wrapper)

        counted("holdout_labels")
        counted("resize_for")
        plan = make_plan(algorithm="resized_split_conformal", test_envs=3, label_count=5)
        assert len(run_trial(plan, 0)) == 3
        assert calls == {"holdout_labels": 3, "resize_for": 3}

    @staticmethod
    def run_sized(train_sizes, test_sizes):
        """A resized trial with label_count 6 on environments of the given sizes."""
        rng = np.random.default_rng(5)
        envs = [
            EnvironmentSample(f"env{i}", rng.normal(size=(n, 2)), rng.normal(size=n))
            for i, n in enumerate([*train_sizes, *test_sizes])
        ]
        plan = make_plan(
            generator=None,
            algorithm="resized_split_conformal",
            test_envs=len(test_sizes),
            label_count=6,
        )
        return evaluation.dataset_records(MultiEnvDataset(tuple(envs)), plan, rng)

    def test_first_too_small_test_environment_raises(self):
        with pytest.raises(ValueError, match=r"^holdout count must satisfy 1 <= count < 6, got 6$"):
            self.run_sized([20] * 4, [20, 6, 5, 20])

    def test_calibration_size_check_comes_first(self):
        with pytest.raises(ValueError, match="rows; resizing needs more than 6$"):
            self.run_sized([6] * 4, [20, 6, 5, 20])


def failing_at(plan, trial, message):
    """Trial runner raising a FitError on the dataset of one trial of ``plan``.

    It recognises the trial by its data, so it fails at the same trial
    whatever order the engine runs plans and trials in.
    """
    marker = trial_dataset(plan, trial).environments[0].y

    def run(train, plan, rng):
        if np.array_equal(train.environments[0].y, marker):
            raise evaluation.FitError(message)
        return ConstantMapping(EMPTY_SET)

    return run


class TestRunPlans:
    def test_reports_equal_per_plan_run_trials_for_every_algorithm(self):
        # alpha0 0.3 keeps the resized factors finite, and delta 0.5 its
        # threshold, so a wrong holdout draw moves a finite resized set
        variants = [
            dict(),
            dict(alpha=0.2, delta=0.3, gamma=0.6, label_count=8,
                 clip=(-3.0, 3.0), rule="fraction"),
            dict(alpha=0.3, delta=0.1),
            dict(delta=0.5),
        ]
        plans = [
            make_plan(algorithm=name, trials=3, train_envs=6, seed=5,
                      **{"label_count": 5, "alpha0": 0.3, **v})
            for name in algorithm_names()
            for v in variants
        ]
        reports = run_plans(plans)
        assert reports == [run_trials(plan) for plan in plans]
        assert any(math.isfinite(record.mean_measure)
                   for plan, report in zip(plans, reports)
                   if plan.algorithm == "resized_split_conformal" and plan.clip is None
                   for record in report.records)

    @pytest.mark.parametrize("n_per_env", [20, [10, 30]])
    def test_delta_siblings_equal_per_plan_run_trials_for_every_algorithm(self, n_per_env):
        # siblings share one fit per trial: the randomized draw U and the
        # resized holdout draws after the fit must replay as in a lone run
        generator = HierGenConfig(m=1, n_per_env=n_per_env, p=2, seed=0)
        deltas = (0.3, 0.1, 0.6)
        plans = [
            make_plan(generator=generator, algorithm=name, trials=3, train_envs=10, alpha=0.2,
                      alpha0=0.3, label_count=5, delta=delta, seed=5)
            for name in algorithm_names()
            for delta in deltas
        ]
        reports = run_plans(plans)
        assert reports == [run_trials(plan) for plan in plans]
        # every threshold that reads delta moves over the grid, so a stale one shows
        by_name = dict(zip(algorithm_names(), zip(*[iter(reports)] * len(deltas))))
        for name, grid in by_name.items():
            lengths = {report.empirical_set_length for report in grid}
            assert len(lengths) == (1 if name in ("hcp", "hier_jackknife_plus") else 3)

    def test_at_delta_checks_delta_and_delta_free_fits_return_themselves(self):
        plan = make_plan(trials=1, train_envs=10, alpha=0.2, label_count=5)
        train = trial_dataset(plan, 0).subset(range(10))
        for name in algorithm_names():
            runner = evaluation._TRIAL_RUNNERS[name]
            fitted = runner(train, replace(plan, algorithm=name), np.random.default_rng(0))
            if name in ("hcp", "hier_jackknife_plus"):
                assert fitted.at_delta(0.5) is fitted
                continue
            assert fitted.at_delta(0.5).delta == 0.5
            with pytest.raises(ValueError, match="delta"):
                fitted.at_delta(1.0)

    def test_rules_score_the_same_sets_for_every_algorithm(self):
        # the rule only reads the counts: records agree pair for pair, and
        # the count bar rank_plus never lies below the fraction bar
        generator = HierGenConfig(m=1, n_per_env=[10, 60], p=2, seed=0)
        plans = [
            make_plan(generator=generator, algorithm=name, trials=3, train_envs=8, test_envs=3,
                      label_count=5, alpha0=0.3, rule=rule)
            for name in algorithm_names()
            for rule in ("count", "fraction")
        ]
        reports = run_plans(plans)
        assert any(math.isfinite(record.mean_measure)
                   for plan, report in zip(plans, reports)
                   if plan.algorithm == "resized_split_conformal"
                   for record in report.records)
        for by_count, by_fraction in zip(reports[::2], reports[1::2]):
            assert len(by_count.records) == len(by_fraction.records) == 9
            for c, f in zip(by_count.records, by_fraction.records):
                assert (c.trial, c.env_id, c.n) == (f.trial, f.env_id, f.n)
                assert c.covered_count == f.covered_count
                assert c.mean_measure == f.mean_measure
                assert f.env_covered or not c.env_covered
        assert len({r.n for r in reports[0].records}) > 1
        assert any(f.env_covered and not c.env_covered
                   for by_count, by_fraction in zip(reports[::2], reports[1::2])
                   for c, f in zip(by_count.records, by_fraction.records))

    def test_match_delta_generates_and_fits_once_per_trial(self, monkeypatch):
        calls = {"fit_ridge": 0, "generate_hierarchical": 0, "fit_weighted_split_conformal": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(algorithms, "fit_ridge")
        counted(evaluation, "generate_hierarchical")
        counted(evaluation, "fit_weighted_split_conformal")
        plan = make_plan(algorithm="weighted_split_conformal", trials=10, train_envs=6)
        match_delta(
            "weighted_split_conformal", "split_conformal", 0.1, (0.1, 0.2, 0.3), plan
        )
        # one weighted fit per trial; the other two grid deltas re-threshold it
        assert calls == {"fit_ridge": 10, "generate_hierarchical": 10,
                         "fit_weighted_split_conformal": 10}

    def test_leave_one_out_passes_stay_out_of_the_pooled_fit_cache(self):
        # d1 is exactly a leave-one-out set: one of two environments, nine of ten
        for train_envs, gamma in [(2, 0.5), (10, 0.9)]:
            # one calibration environment: delta=0.5 keeps the thresholds finite
            plan = make_plan(trials=3, train_envs=train_envs, gamma=gamma, delta=0.5)
            plans = [plan, replace(plan, algorithm="split_conformal"),
                     replace(plan, algorithm="hcp")]
            reports = run_plans(plans)
            assert reports == [run_trials(p) for p in plans]
            assert all(math.isfinite(r.mean_measure) for r in reports[1].records)

    def test_paired_leave_one_out_algorithms_share_one_pass(self, monkeypatch):
        calls = {"fit_ridge": 0, "fit_ridge_leave_one_out": 0}

        def counted(name):
            inner = getattr(algorithms, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(algorithms, name, wrapper)

        counted("fit_ridge")
        counted("fit_ridge_leave_one_out")
        plan = make_plan(algorithm="jackknife_minmax", trials=4, train_envs=5)
        run_plans([plan] + [replace(plan, algorithm=name)
                            for name in ("hier_jackknife_plus", "jackknife_plus_quantile")])
        assert calls == {"fit_ridge": 0, "fit_ridge_leave_one_out": 4}

    @pytest.mark.parametrize("p", [1, 5])
    @pytest.mark.parametrize("n_per_env", [20, [10, 60]])
    def test_batched_centres_give_the_per_model_records(self, monkeypatch, p, n_per_env):
        generator = HierGenConfig(m=1, n_per_env=n_per_env, p=p, seed=0)
        plans = [make_plan(generator=generator, algorithm=name, trials=3, train_envs=8,
                           test_envs=3, alpha=0.2, delta=0.4, seed=7)
                 for name in ("jackknife_minmax", "hier_jackknife_plus", "jackknife_plus_quantile")]
        batched = run_plans(plans)
        passes = []

        def per_model(models):
            passes.append(len(models))
            return oracle_stacked_predict(models)

        monkeypatch.setattr(algorithms, "_ridge_centres", per_model)
        assert run_plans(plans) == batched
        assert passes == [8] * 9  # one stack of the 8 refits per plan and trial
        assert all(math.isfinite(r.mean_measure) for report in batched for r in report.records)

    def test_unpaired_plans_raise(self):
        base = make_plan(trials=2)
        changes = dict(
            generator=HierGenConfig(m=1, n_per_env=21, p=2, seed=0),
            seed=12,
            trials=3,
            train_envs=5,
            test_envs=3,
        )
        for name, value in changes.items():
            with pytest.raises(ValueError, match=f"share {name}"):
                run_plans([base, replace(base, algorithm="hcp", **{name: value})])

    def test_no_fit_survives_a_trial(self, monkeypatch):
        sizes = []
        inner = evaluation.run_trial

        def recording(plan, trial, dataset=None):
            sizes.append(len(algorithms._ridge_fits.get()))
            return inner(plan, trial, dataset=dataset)

        monkeypatch.setattr(evaluation, "run_trial", recording)
        plan = make_plan(algorithm="split_conformal", trials=3, train_envs=6)
        run_plans([plan, replace(plan, delta=0.4)])
        # the first plan leaves its ridge fit and its delta-sibling fit, which
        # the second plan reuses; each trial starts empty
        assert sizes == [0, 2, 0, 2, 0, 2]
        assert algorithms._ridge_fits.get() is None

    def test_fit_error_names_trial_and_left_out_environment(self, monkeypatch):
        calls = []
        inner = algorithms.fit_ridge_leave_one_out

        def fails_second_pass(x, y, sizes, lambda_grid):
            calls.append(len(sizes))
            if len(calls) == 2:
                raise evaluation.FitError("synthetic failure", code=3, left_out=1)
            return inner(x, y, sizes, lambda_grid)

        monkeypatch.setattr(algorithms, "fit_ridge_leave_one_out", fails_second_pass)
        plan = make_plan(trials=3, train_envs=4)
        plans = [plan, replace(plan, algorithm="jackknife_plus_quantile")]
        with pytest.raises(evaluation.FitError) as paired:
            run_plans(plans)
        # one shared leave-one-out pass per trial: the second is trial 1's
        assert str(paired.value) == (
            "trial 1: left-out environment env1: synthetic failure"
        )
        assert paired.value.details == {"code": 3, "left_out_env": "env1", "trial": 1}
        assert algorithms._ridge_fits.get() is None
        calls.clear()
        with pytest.raises(evaluation.FitError) as alone:
            run_trials(plan)
        assert str(alone.value) == str(paired.value)

    def test_first_failing_plan_wins_over_an_earlier_trial(self, monkeypatch, tmp_path):
        plan = make_plan(trials=5, train_envs=6)
        monkeypatch.setitem(
            evaluation._TRIAL_RUNNERS, "method_a", failing_at(plan, 1, "method_a failed")
        )
        monkeypatch.setitem(
            evaluation._TRIAL_RUNNERS, "method_b", failing_at(plan, 3, "method_b failed")
        )
        config = tmp_path / "compare.json"
        report = tmp_path / "report.json"
        config.write_text(json.dumps({
            "dataset": {"generator": {"n_per_env": 20, "p": 2, "seed": 0}},
            "algorithm": {"name": "method_a", "alpha": 0.1},
            "plan": {"trials": 5, "train_envs": 6, "test_envs": 2, "seed": 11},
            "compare": {"method_a": "method_a", "method_b": "method_b",
                        "delta_grid": [0.1, 0.2, 0.3]},
        }))
        assert cli.main(["compare", "-c", str(config), "--report", str(report)]) == 1
        # the record running method_b's trials before method_a's writes
        assert json.loads(report.read_text()) == {
            "error": {
                "details": {"trial": 3},
                "kind": "fit_failure",
                "message": "trial 3: method_b failed",
            }
        }


class TestMatchDelta:
    def test_zero_coverage_baseline_returns_largest_delta(self, monkeypatch):
        monkeypatch.setitem(
            evaluation._TRIAL_RUNNERS, "never_covers", constant_set_runner(EMPTY_SET)
        )
        plan = make_plan(trials=2, train_envs=6)
        result = match_delta("split_conformal", "never_covers", 0.1, (0.1, 0.3, 0.6), plan)
        assert result.found
        assert result.delta == 0.6
        assert result.baseline_fraction == 0.0

    def test_subset_candidate_never_matches_full_baseline(self, monkeypatch):
        everything = Interval(-math.inf, math.inf)
        monkeypatch.setitem(
            evaluation._TRIAL_RUNNERS, "always_covers", constant_set_runner(everything)
        )
        monkeypatch.setitem(
            evaluation._TRIAL_RUNNERS, "never_covers", constant_set_runner(EMPTY_SET)
        )
        plan = make_plan(trials=2, train_envs=6)
        grid = (0.1, 0.3, 0.6)
        result = match_delta("never_covers", "always_covers", 0.1, grid, plan)
        assert not result.found
        assert result.delta == 0.1
        assert result.baseline_fraction == 1.0
        assert all(frac == 0.0 for _, frac in result.candidate_fractions)

    def test_identical_methods_match_at_grid_max(self):
        plan = make_plan(algorithm="hcp", trials=3, train_envs=8, alpha=0.2)
        grid = (0.1, 0.4, 0.9)
        result = match_delta("hcp", "hcp", 0.2, grid, plan)
        assert result.found
        assert result.delta == 0.9
        assert all(frac == result.baseline_fraction for _, frac in result.candidate_fractions)

    def test_crossing_matches_linear_scan_oracle(self):
        plan = make_plan(
            generator=HierGenConfig(m=1, n_per_env=25, p=2, seed=0),
            algorithm="split_conformal",
            trials=6,
            train_envs=8,
            test_envs=2,
            alpha=0.2,
            seed=42,
        )
        grid = (0.05, 0.2, 0.4, 0.6, 0.8)
        result = match_delta("split_conformal", "hcp", 0.2, grid, plan)

        baseline = run_trials(replace(plan, algorithm="hcp")).covered_sample_fraction()
        fractions = [
            run_trials(
                replace(plan, algorithm="split_conformal", delta=d)
            ).covered_sample_fraction()
            for d in grid
        ]
        expected_delta, expected_found = grid[0], False
        for d, frac in zip(grid, fractions):
            if frac >= baseline:
                expected_delta, expected_found = d, True

        assert result.baseline_fraction == baseline
        assert result.candidate_fractions == tuple(zip(grid, fractions))
        assert result.delta == expected_delta
        assert result.found == expected_found
        # same seeded data with thresholds shrinking in delta: nested sets
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_grid_validation(self):
        plan = make_plan()
        with pytest.raises(ValueError):
            match_delta("split_conformal", "hcp", 0.1, (), plan)
        with pytest.raises(ValueError):
            match_delta("split_conformal", "hcp", 0.1, (0.3, 0.1), plan)
        with pytest.raises(ValueError):
            match_delta("split_conformal", "hcp", 0.1, (0.2, 0.2), plan)
        with pytest.raises(ValueError):
            match_delta("split_conformal", "hcp", 0.1, (0.2, 1.2), plan)


class TestReportJson:
    def test_infinite_measures_serialize(self):
        record = EnvRecord(
            trial=0,
            env_id="a",
            n=3,
            covered_count=3,
            env_covered=False,
            mean_measure=math.inf,
        )
        report = CoverageReport.from_records([record], 0.1, "count")
        doc = report.to_json_dict()
        assert doc["records"][0]["mean_measure"] == "inf"
        assert doc["aggregates"]["empirical_set_length"] == "inf"
        json.dumps(doc)

    def test_aggregates_include_pooled_fraction(self):
        env = EnvironmentSample("a", np.full((9, 1), 100.0), np.zeros(9))
        report = evaluate_mapping(WidthMapping(), [env], 0.1)
        doc = report.to_json_dict()
        assert doc["aggregates"]["covered_sample_fraction"] == 1.0
