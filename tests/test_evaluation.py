"""Coverage tallies against hand spreadsheets, engine determinism, delta matching."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecp import evaluation
from mecp.algorithms import fit_jackknife_minmax, ridge_symmetric_builder
from mecp.data import EnvironmentSample, HierGenConfig
from mecp.evaluation import (
    CoverageReport,
    EnvRecord,
    TrialPlan,
    algorithm_names,
    covered_env_threshold,
    evaluate_mapping,
    match_delta,
    run_trial,
    run_trials,
    trial_dataset,
)
from mecp.nested_sets import EMPTY_SET, Interval


class WidthMapping:
    """Interval [-w, w] per row, with w read off the first feature column."""

    def predict_sets(self, x):
        x = np.asarray(x, dtype=float)
        return [Interval(-w, w) for w in x[:, 0]]


class ConstantMapping:
    """The same prediction set for every row."""

    def __init__(self, pred_set):
        self.pred_set = pred_set

    def predict_sets(self, x):
        return [self.pred_set] * np.asarray(x).shape[0]


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
        assert covered_env_threshold(3, 0.1) == 4

    def test_bar_at_nine_of_nine(self):
        assert covered_env_threshold(9, 0.1) == 9

    def test_bar_at_fifty(self):
        assert covered_env_threshold(50, 0.1) == 46

    @given(
        n=st.integers(min_value=1, max_value=80),
        alpha=st.floats(min_value=0.005, max_value=0.995),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, n, alpha):
        assert covered_env_threshold(n, alpha) == scan_threshold(n, alpha)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            covered_env_threshold(0, 0.1)
        with pytest.raises(ValueError):
            covered_env_threshold(5, 0.0)
        with pytest.raises(ValueError):
            covered_env_threshold(5, 1.0)


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
        assert covered_env_threshold(10, 0.1) == 10
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
                    env_covered=covered >= covered_env_threshold(n, alpha),
                    mean_measure=1.0,
                )
            )
        report = CoverageReport.from_records(records, alpha, "count")
        if report.empirical_one_minus_alpha is not None:
            floor = min((covered_env_threshold(r.n, alpha) - 1) / r.n for r in records)
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
            {"rule": "majority"},
            {"clip": (2.0, -1.0)},
            {"clip": (0.0, math.inf)},
        ):
            with pytest.raises(ValueError):
                make_plan(**overrides)

    def test_numpy_integer_counts_normalized_to_int(self):
        plan = make_plan(trials=np.int64(2), train_envs=np.int32(4), label_count=np.int64(5))
        assert all(type(v) is int for v in (plan.trials, plan.train_envs, plan.label_count))
        json.dumps(plan.to_json_dict())

    def test_clip_normalized_to_floats(self):
        plan = make_plan(clip=(0, 4))
        assert plan.clip == (0.0, 4.0)
        assert all(isinstance(v, float) for v in plan.clip)

    def test_json_echo_round_trips_through_dumps(self):
        plan = make_plan(clip=(0.0, 4.0))
        doc = plan.to_json_dict()
        assert doc["algorithm"] == "jackknife_minmax"
        assert doc["generator"]["n_per_env"] == 20
        assert doc["generator"]["beta"] is None
        assert doc["clip"] == [0.0, 4.0]
        assert json.loads(json.dumps(doc)) == doc


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

    def test_worker_count_does_not_change_report(self):
        plan = make_plan(trials=6)
        serial = run_trials(plan, workers=1)
        threaded = run_trials(plan, workers=3)
        assert serial == threaded
        assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
            threaded.to_json_dict(), sort_keys=True
        )

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

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_trials(make_plan(), workers=0)

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
        report = run_trials(plan, workers=2)
        pairs = len(report.records)
        assert pairs == 360
        bound = 0.8 - 3.0 * math.sqrt(0.2 * 0.8 / pairs)
        assert report.empirical_one_minus_delta >= bound
        assert 0.0 < report.empirical_set_length < math.inf


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
