"""End-to-end gates for the whole package, one test per release check.

Exact oracle agreement for the quantile primitives, Monte Carlo coverage
bounds for every fitted mapping, bit-level agreement between independent
construction routes, paired shrinkage for resized calibration, weighted
threshold coverage, and byte-stable command line output.  Statistical bars
use three Monte Carlo standard errors at the nominal rate; exactness bars
use plain equality.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from mecp.algorithms import (
    fit_hcp,
    fit_hier_jackknife_plus,
    fit_jackknife_minmax,
    fit_split_conformal,
    ridge_point_builder,
    ridge_symmetric_builder,
)
from mecp.data import HierGenConfig, generate_hierarchical
from mecp.evaluation import TrialPlan, run_plans, run_trials
from mecp.nested_sets import IntervalUnion
from mecp.quantiles import (
    DiscreteDistribution,
    left_quantile,
    quant_minus,
    quant_plus,
)
from mecp.weighted import dual_eta, weighted_threshold
from oracles import (
    oracle_contains,
    oracle_left_quantile,
    oracle_minmax_unions,
    oracle_quant_minus,
    oracle_quant_plus,
    oracle_right_quantile,
)

SMOOTH_GEN = HierGenConfig(m=1, n_per_env=50, p=5, seed=0)
OUTLIER_GEN = HierGenConfig(m=1, n_per_env=50, p=5, outlier_frac=0.2,
                            outlier_noise_multiplier=10.0, seed=0)


def three_se(rate: float, draws: int) -> float:
    return 3.0 * math.sqrt(rate * (1.0 - rate) / draws)


def mean_length_by_trial(report) -> dict:
    acc = defaultdict(list)
    for rec in report.records:
        acc[rec.trial].append(rec.mean_measure)
    return {t: sum(v) / len(v) for t, v in acc.items()}


def hull_bounds(prediction_set) -> tuple:
    if isinstance(prediction_set, IntervalUnion):
        return prediction_set.parts[0].lo, prediction_set.parts[-1].hi
    return prediction_set.lo, prediction_set.hi


def group_feature_rows(sizes: tuple, test_group: int) -> np.ndarray:
    m = sum(sizes)
    rows = np.zeros((m + 1, len(sizes)))
    start = 0
    for g, size in enumerate(sizes):
        rows[start:start + size, g] = 1.0
        start += size
    rows[m, test_group] = 1.0
    return rows


def test_quantile_primitives_match_bruteforce_oracles():
    # 1000 randomized cases per primitive, exact equality, under five seconds
    start = time.monotonic()
    rng = np.random.default_rng(416)
    for case in range(1000):
        n = int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        values = rng.normal(0.0, scale, size=n)
        if case % 2:
            values = np.round(values, 1)  # force ties on half the cases
        alpha = float(rng.uniform(0.005, 0.995))
        assert quant_plus(values, alpha) == oracle_quant_plus(values, alpha)
        assert quant_minus(values, alpha) == oracle_quant_minus(values, alpha)

        locations = rng.normal(0.0, scale, size=n)
        if case % 3 == 0:
            locations = np.append(locations, math.inf if case % 6 else -math.inf)
        weights = rng.uniform(0.05, 1.0, size=locations.size)
        weights = weights / weights.sum()
        dist = DiscreteDistribution(locations, weights)
        assert left_quantile(dist, alpha) == oracle_left_quantile(
            locations, weights, alpha)
        assert left_quantile(dist, alpha) == oracle_right_quantile(
            locations, weights, alpha)
    assert time.monotonic() - start < 5.0


def test_minmax_env_coverage_meets_lower_bound():
    start = time.monotonic()
    plan = TrialPlan(generator=SMOOTH_GEN, algorithm="jackknife_minmax",
                     trials=500, train_envs=10, test_envs=5,
                     alpha=0.1, delta=0.2, seed=2026)
    report = run_trials(plan)
    assert report.empirical_one_minus_delta >= 0.8 - three_se(0.2, 500 * 5)
    assert time.monotonic() - start < 120.0


def test_split_conformal_coverage_stays_in_two_sided_band():
    start = time.monotonic()
    plan = TrialPlan(generator=SMOOTH_GEN, algorithm="split_conformal",
                     trials=2000, train_envs=20, test_envs=5,
                     alpha=0.1, delta=0.2, gamma=0.5, seed=2026)
    report = run_trials(plan)
    tol = three_se(0.2, 2000 * 5)
    upper = 0.8 + 1.0 / (20 * (1.0 - 0.5) + 1.0)
    assert 0.8 - tol <= report.empirical_one_minus_delta <= upper + tol
    assert time.monotonic() - start < 120.0


def test_interval_routes_agree_bit_for_bit():
    # the set-valued union route and the closed-form interval arithmetic
    # must produce identical endpoints, not merely close ones
    rng = np.random.default_rng(910)
    for _ in range(100):
        m = int(rng.integers(3, 7))
        cfg = HierGenConfig(m=m + 1, n_per_env=int(rng.integers(8, 21)),
                            p=int(rng.integers(1, 4)),
                            env_effect_scale=float(rng.uniform(0.2, 2.0)),
                            seed=int(rng.integers(0, 2**31)))
        dataset = generate_hierarchical(cfg)
        train, probe = dataset.subset(range(m)), dataset.environments[m]
        alpha = float(rng.uniform(0.05, 0.5))
        delta = float(rng.uniform(0.1, 0.6))

        minmax = fit_jackknife_minmax(train, ridge_symmetric_builder(),
                                      alpha, delta)
        for direct, via_union in zip(minmax.predict_sets(probe.x),
                                     oracle_minmax_unions(minmax, probe.x)):
            assert (direct.lo, direct.hi) == hull_bounds(via_union)

        split = fit_split_conformal(train, ridge_symmetric_builder(), alpha,
                                    delta, 0.5, np.random.default_rng(7))
        centers = np.asarray(split.family.predict(probe.x), dtype=float)
        for materialized, center in zip(split.predict_sets(probe.x), centers):
            assert materialized.lo == center - split.tau_hat
            assert materialized.hi == center + split.tau_hat


def test_resized_split_keeps_coverage_and_shrinks_sets():
    gen = HierGenConfig(m=1, n_per_env=100, p=5, outlier_frac=0.2,
                        outlier_noise_multiplier=10.0, seed=0)
    shared = dict(generator=gen, trials=500, train_envs=16, test_envs=5,
                  alpha=0.1, delta=0.2, gamma=0.5, seed=7)
    resized = run_trials(TrialPlan(algorithm="resized_split_conformal",
                                   alpha0=0.05, label_count=30, **shared))
    plain = run_trials(TrialPlan(algorithm="split_conformal", **shared))

    tol = three_se(0.2, 500 * 5)
    upper = 0.8 + 1.0 / (16 * (1.0 - 0.5) + 1.0)
    assert 0.8 - tol <= resized.empirical_one_minus_delta <= upper + tol

    resized_len = mean_length_by_trial(resized)
    plain_len = mean_length_by_trial(plain)
    shrunk = sum(1 for t in resized_len if resized_len[t] < plain_len[t])
    assert shrunk >= 0.8 * 500


def test_fresh_observation_coverage_of_hierarchical_baselines():
    trials = 2000

    covered = 0
    for t in range(trials):
        dataset = generate_hierarchical(
            HierGenConfig(m=21, n_per_env=50, p=5, seed=t))
        mapping = fit_hcp(dataset.subset(range(20)), ridge_point_builder(),
                          0.1, 0.5, np.random.default_rng(10_000 + t))
        env = dataset.environments[20]
        covered += oracle_contains(mapping.predict_sets(env.x[:1])[0], float(env.y[0]))
    assert covered / trials >= 0.9 - three_se(0.1, trials)

    covered = 0
    for t in range(trials):
        dataset = generate_hierarchical(
            HierGenConfig(m=11, n_per_env=50, p=5, seed=t))
        mapping = fit_hier_jackknife_plus(dataset.subset(range(10)),
                                          ridge_point_builder(), 0.1)
        env = dataset.environments[10]
        covered += oracle_contains(mapping.predict_sets(env.x[:1])[0], float(env.y[0]))
    assert covered / trials >= 0.8 - three_se(0.2, trials)


def test_pointwise_quantile_shortcut_misses_its_nominal_level():
    # all three mappings see identical per-trial datasets: one paired run
    # generates each trial's dataset once, and the two jackknife mappings
    # share its leave-one-environment-out ridge pass
    shared = dict(generator=OUTLIER_GEN, trials=500, train_envs=20,
                  test_envs=5, alpha=0.1, delta=0.1, gamma=0.5, seed=13)
    names = ("jackknife_minmax", "split_conformal", "jackknife_plus_quantile")
    reports = dict(zip(names, run_plans([TrialPlan(algorithm=name, **shared) for name in names])))
    tol = three_se(0.1, 500 * 5)
    assert reports["jackknife_minmax"].empirical_one_minus_delta >= 0.9 - tol
    upper = 0.9 + 1.0 / (20 * (1.0 - 0.5) + 1.0)
    split_rate = reports["split_conformal"].empirical_one_minus_delta
    assert 0.9 - tol <= split_rate <= upper + tol
    shortcut = reports["jackknife_plus_quantile"].empirical_one_minus_delta
    assert shortcut <= 0.9 - 0.05


def test_weighted_threshold_covers_marginally_and_per_group():
    rng = np.random.default_rng(2024)

    # constant features reduce to the marginal count quantile, exactly,
    # including the index-overflow cases that return +inf
    for _ in range(200):
        m = int(rng.integers(1, 13))
        scores = rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 1.0), size=m)
        delta = float(rng.uniform(0.02, 0.9))
        features = np.ones((m + 1, 1))
        assert weighted_threshold(scores, features, delta) == \
            quant_plus(scores, delta)

    # per-group coverage with group-indicator features and no regularization;
    # the full threshold search and the single dual solve decide the same
    # event, checked on a bridge sample before the faster route runs the
    # Monte Carlo loop
    delta, trials = 0.3, 2000
    features = [group_feature_rows((4, 4), g) for g in (0, 1)]

    def draw(gen):
        scores = np.concatenate([gen.normal(size=4),
                                 3.0 * gen.normal(size=4) + 1.0])
        tests = [float(gen.normal()), float(3.0 * gen.normal() + 1.0)]
        return scores, tests

    for _ in range(25):
        scores, tests = draw(rng)
        for g in (0, 1):
            tau = weighted_threshold(scores, features[g], delta)
            eta = dual_eta(scores, features[g], delta, 0.0, tests[g]).eta[-1]
            assert (tests[g] <= tau) == (eta < 1.0 - delta)

    hits = [0, 0]
    for _ in range(trials):
        scores, tests = draw(rng)
        for g in (0, 1):
            eta = dual_eta(scores, features[g], delta, 0.0, tests[g]).eta[-1]
            hits[g] += eta < 1.0 - delta
    for g in (0, 1):
        assert hits[g] / trials >= 1.0 - delta - three_se(delta, trials)

    # the test-coordinate multiplier is non-decreasing in the imputed score:
    # zero violations allowed on 100-point grids
    for instance in range(10):
        m = int(rng.integers(4, 10))
        if instance % 2:
            sizes = (m // 2, m - m // 2)
            feats = group_feature_rows(sizes, int(rng.integers(0, 2)))
            scores = np.abs(rng.normal(size=m)) * rng.uniform(1.0, 3.0, size=m)
        else:
            feats = np.ones((m + 1, 1))
            scores = rng.normal(size=m)
        grid = np.linspace(scores.min() - 1.0, scores.max() + 1.0, 100)
        etas = [dual_eta(scores, feats, delta, 0.0, s).eta[-1] for s in grid]
        assert (np.diff(etas) >= 0.0).all()


def test_cli_outputs_are_byte_identical(tmp_path):
    def run_cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "mecp", *argv],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    def digests(*names):
        return tuple(hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                     for n in names)

    generator = {"n_per_env": 12, "p": 2, "seed": 3}
    (tmp_path / "sim.json").write_text(json.dumps(
        {"dataset": {"generator": {**generator, "m": 5}}}))
    (tmp_path / "run.json").write_text(json.dumps({
        "dataset": {"generator": generator},
        "algorithm": {"name": "split_conformal", "alpha": 0.2, "delta": 0.3},
        "plan": {"trials": 3, "train_envs": 6, "test_envs": 2, "seed": 9},
        "sweep": {"param": "delta", "values": [0.2, 0.5]},
    }))
    (tmp_path / "cmp.json").write_text(json.dumps({
        "dataset": {"generator": generator},
        "algorithm": {"name": "split_conformal", "alpha": 0.2, "delta": 0.3},
        "plan": {"trials": 2, "train_envs": 6, "test_envs": 1, "seed": 9},
        "compare": {"method_a": "jackknife_minmax",
                    "method_b": "split_conformal",
                    "delta_grid": [0.2, 0.4, 0.6]},
    }))

    run_cli("simulate", "-c", "sim.json", "--out", "data.csv")
    first = digests("data.csv")
    run_cli("simulate", "-c", "sim.json", "--out", "data.csv")
    assert digests("data.csv") == first

    run_cli("run", "-c", "run.json", "--workers", "1")
    first = digests("report.json", "sweep.csv")
    run_cli("run", "-c", "run.json", "--workers", "3")
    assert digests("report.json", "sweep.csv") == first
    run_cli("run", "-c", "run.json", "--workers", "3")
    assert digests("report.json", "sweep.csv") == first

    run_cli("compare", "-c", "cmp.json", "--workers", "1")
    first = digests("report.json")
    run_cli("compare", "-c", "cmp.json", "--workers", "2")
    assert digests("report.json") == first
