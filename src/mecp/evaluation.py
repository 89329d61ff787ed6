"""Coverage accounting and the Monte Carlo trial engine.

Every (trial, test environment) pair yields one record: how many outcomes
landed inside their prediction sets, whether that count clears the
per-environment bar ceil((1-alpha)(n+1)), and the mean set measure. Reports
aggregate three ways: the fraction of pairs clearing the bar, the mean
within-environment coverage fraction taken over clearing pairs only, and the
grand mean measure. A seeded engine repeats generate/fit/score cycles so the
aggregates are reproducible and independent of worker count, and a grid
search finds the largest miscoverage level at which one method still covers
as large a share of test outcomes as a baseline.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from mecp.algorithms import (
    ResizedCalibration,
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
)
from mecp.data import (
    EnvironmentSample,
    HierGenConfig,
    MultiEnvDataset,
    generate_hierarchical,
    holdout_labels,
)
from mecp.nested_sets import contains, float_to_json, measure
from mecp.predictors import DEFAULT_LAMBDA_GRID, FitError
from mecp.quantiles import check_prob, rank_plus

# Unused here: bench/tracer.py wraps these names under this module.
from mecp.algorithms import WeightedSplitMapping  # noqa: F401
from mecp.data import split_environments  # noqa: F401
from mecp.nested_sets import sets_at  # noqa: F401
from mecp.weighted import env_score, randomized_threshold, weighted_threshold  # noqa: F401

RULES = ("count", "fraction")


def covered_env_threshold(n: int, alpha: float) -> int:
    """Smallest in-set count at which a size-n environment counts as covered.

    Exact rational arithmetic; the bar can exceed n for tiny environments,
    which then can never count as covered.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return rank_plus(n, check_prob(alpha, "alpha"))


def _env_covered(covered_count: int, n: int, alpha: float, rule: str) -> bool:
    if rule == "count":
        return covered_count >= covered_env_threshold(n, alpha)
    # fraction rule: the within-environment coverage rate itself reaches 1-alpha
    return Fraction(covered_count, n) >= 1 - Fraction(alpha)


@dataclass(frozen=True)
class EnvRecord:
    """Coverage tally for one (trial, test environment) pair."""

    trial: int
    env_id: str
    n: int
    covered_count: int
    env_covered: bool
    mean_measure: float

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "env_id": self.env_id,
            "n": self.n,
            "covered_count": self.covered_count,
            "env_covered": self.env_covered,
            "mean_measure": float_to_json(self.mean_measure),
        }


@dataclass(frozen=True)
class CoverageReport:
    """Per-pair records plus the three pooled summaries.

    ``empirical_one_minus_alpha`` averages within-environment coverage
    fractions over covered pairs only and is None when no pair is covered,
    since that average has an empty denominator.
    """

    records: tuple[EnvRecord, ...]
    alpha: float
    rule: str
    empirical_one_minus_delta: float
    empirical_one_minus_alpha: float | None
    empirical_set_length: float

    @classmethod
    def from_records(
        cls, records: Sequence[EnvRecord], alpha: float, rule: str
    ) -> "CoverageReport":
        records = tuple(records)
        if not records:
            raise ValueError("a report needs at least one record")
        covered = [r for r in records if r.env_covered]
        one_minus_delta = len(covered) / len(records)
        one_minus_alpha = None
        if covered:
            one_minus_alpha = sum(r.covered_count / r.n for r in covered) / len(covered)
        set_length = sum(r.mean_measure for r in records) / len(records)
        return cls(
            records=records,
            alpha=float(alpha),
            rule=rule,
            empirical_one_minus_delta=one_minus_delta,
            empirical_one_minus_alpha=one_minus_alpha,
            empirical_set_length=set_length,
        )

    def covered_sample_fraction(self) -> float:
        """Pooled share of test outcomes inside their sets, across all pairs."""
        total = sum(r.n for r in self.records)
        return sum(r.covered_count for r in self.records) / total

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "rule": self.rule,
            "aggregates": {
                "empirical_one_minus_delta": self.empirical_one_minus_delta,
                "empirical_one_minus_alpha": self.empirical_one_minus_alpha,
                "empirical_set_length": float_to_json(self.empirical_set_length),
                "covered_sample_fraction": self.covered_sample_fraction(),
            },
            "records": [r.to_json_dict() for r in self.records],
        }


def evaluate_mapping(
    mapping,
    test_envs: Sequence[EnvironmentSample],
    alpha: float,
    clip: tuple[float, float] | None = None,
    rule: str = "count",
    trial: int = 0,
) -> CoverageReport:
    """Score a fitted set-valued mapping on held-out environments.

    ``clip`` intersects interval sets with a reporting range before
    measuring. ``rule`` selects how a pair counts as covered: "count"
    requires the in-set count to reach ceil((1-alpha)(n+1)), "fraction"
    requires the in-set fraction to reach 1-alpha.
    """
    alpha = check_prob(alpha, "alpha")
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    envs = list(test_envs)
    if not envs:
        raise ValueError("need at least one test environment")
    if any(e.p != envs[0].p for e in envs):
        raise ValueError("test environments must share the feature dimension")
    records = []
    for env in envs:
        sets = mapping.predict_sets(env.x)
        covered = sum(1 for s, y in zip(sets, env.y) if contains(s, y))
        mean_measure = float(np.mean([measure(s, clip) for s in sets]))
        records.append(
            EnvRecord(
                trial=int(trial),
                env_id=env.env_id,
                n=env.n,
                covered_count=covered,
                env_covered=_env_covered(covered, env.n, alpha, rule),
                mean_measure=mean_measure,
            )
        )
    return CoverageReport.from_records(records, alpha, rule)


@dataclass(frozen=True)
class TrialPlan:
    """Seeded recipe for a repeated generate/fit/score experiment.

    ``generator`` is a template: each trial rebuilds it with
    ``m = train_envs + test_envs`` environments and a per-trial seed derived
    from ``seed``, so two plans sharing a seed see identical data trial by
    trial regardless of algorithm or parameter settings. A None generator
    marks a plan meant for pre-built datasets (see ``dataset_records``).
    """

    generator: HierGenConfig | None
    algorithm: str
    trials: int
    train_envs: int
    test_envs: int
    alpha: float
    delta: float = 0.2
    gamma: float = 0.5
    alpha0: float = 0.05
    label_count: int = 30
    ridge_grid: tuple[float, ...] | None = None
    ridge_weight: float = 0.0
    feature_map: str = "constant"
    clip: tuple[float, float] | None = None
    rule: str = "count"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in _TRIAL_RUNNERS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(_TRIAL_RUNNERS)}"
            )
        for name in ("trials", "train_envs", "test_envs", "label_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.train_envs < 2:
            raise ValueError("need at least two training environments")
        if self.test_envs < 1:
            raise ValueError("need at least one test environment")
        check_prob(self.alpha, "alpha")
        check_prob(self.delta, "delta")
        check_prob(self.gamma, "gamma")
        check_prob(self.alpha0, "alpha0")
        if self.label_count < 1:
            raise ValueError("label_count must be at least 1")
        if self.ridge_grid is not None:
            grid = tuple(float(v) for v in self.ridge_grid)
            if not grid or any(not math.isfinite(v) or v < 0.0 for v in grid):
                raise ValueError("ridge_grid must be nonempty finite nonnegative values")
            object.__setattr__(self, "ridge_grid", grid)
        if not math.isfinite(self.ridge_weight) or self.ridge_weight < 0.0:
            raise ValueError("ridge_weight must be finite and nonnegative")
        if self.feature_map != "constant":
            raise ValueError(
                "only the 'constant' feature map runs inside the trial engine; "
                "other maps need caller-supplied environment features"
            )
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")
        if self.clip is not None:
            lo, hi = (float(v) for v in self.clip)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError("clip must be a finite (lo, hi) pair with lo < hi")
            object.__setattr__(self, "clip", (lo, hi))

    def to_json_dict(self) -> dict:
        generator = None
        if self.generator is not None:
            generator = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self.generator).items()
            }
        return {
            "generator": generator,
            "algorithm": self.algorithm,
            "trials": self.trials,
            "train_envs": self.train_envs,
            "test_envs": self.test_envs,
            "alpha": self.alpha,
            "delta": self.delta,
            "gamma": self.gamma,
            "alpha0": self.alpha0,
            "label_count": self.label_count,
            "ridge_grid": list(self.ridge_grid) if self.ridge_grid is not None else None,
            "ridge_weight": self.ridge_weight,
            "feature_map": self.feature_map,
            "clip": list(self.clip) if self.clip is not None else None,
            "rule": self.rule,
            "seed": self.seed,
        }


def _grid(plan: TrialPlan) -> tuple[float, ...]:
    return plan.ridge_grid or DEFAULT_LAMBDA_GRID


# name -> (train, plan, rng) -> fitted mapping. The fit functions are looked
# up at call time, so wrappers installed on this module see every fit.
_TRIAL_RUNNERS: dict[str, Callable] = {
    "jackknife_minmax": lambda train, plan, rng: fit_jackknife_minmax(
        train, ridge_symmetric_builder(_grid(plan)), plan.alpha, plan.delta
    ),
    "split_conformal": lambda train, plan, rng: fit_split_conformal(
        train, ridge_symmetric_builder(_grid(plan)), plan.alpha, plan.delta,
        plan.gamma, rng,
    ),
    "hier_jackknife_plus": lambda train, plan, rng: fit_hier_jackknife_plus(
        train, ridge_point_builder(_grid(plan)), plan.alpha
    ),
    "hcp": lambda train, plan, rng: fit_hcp(
        train, ridge_point_builder(_grid(plan)), plan.alpha, plan.gamma, rng
    ),
    # a calibration only: dataset_records resizes it per test environment
    "resized_split_conformal": lambda train, plan, rng: fit_resized_calibration(
        train, ridge_symmetric_builder(_grid(plan)), plan.alpha, plan.delta,
        plan.gamma, plan.alpha0, plan.label_count, rng,
    ),
    "jackknife_plus_quantile": lambda train, plan, rng: fit_jackknife_plus_quantile(
        train, ridge_point_builder(_grid(plan)), plan.alpha, plan.delta
    ),
    "weighted_split_conformal": lambda train, plan, rng: fit_weighted_split_conformal(
        train, ridge_symmetric_builder(_grid(plan)), plan.alpha, plan.delta,
        plan.gamma, rng, plan.ridge_weight,
    ),
    "randomized_weighted_split_conformal": lambda train, plan, rng: fit_weighted_split_conformal(
        train, ridge_symmetric_builder(_grid(plan)), plan.alpha, plan.delta,
        plan.gamma, rng, plan.ridge_weight, randomized=True,
    ),
}


def algorithm_names() -> tuple[str, ...]:
    return tuple(sorted(_TRIAL_RUNNERS))


def trial_data_seed(plan: TrialPlan, trial: int) -> int:
    """Generator seed a given trial uses, derived from the plan's master seed.

    The derivation ignores the algorithm and its parameters, which is what
    pairs methods run under plans differing only in those fields.
    """
    ss = np.random.SeedSequence(entropy=plan.seed, spawn_key=(trial,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def trial_dataset(plan: TrialPlan, trial: int) -> MultiEnvDataset:
    """The seeded dataset a given trial sees: train environments first."""
    if plan.generator is None:
        raise ValueError("this plan has no generator; supply a dataset directly")
    cfg = replace(
        plan.generator,
        m=plan.train_envs + plan.test_envs,
        seed=trial_data_seed(plan, trial),
    )
    return generate_hierarchical(cfg)


def _trial_rng(plan: TrialPlan, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=plan.seed, spawn_key=(trial,))
    return np.random.default_rng(ss.spawn(1)[0])


def dataset_records(
    dataset: MultiEnvDataset,
    plan: TrialPlan,
    rng: np.random.Generator,
    trial: int = 0,
) -> tuple[EnvRecord, ...]:
    """Fit and score the plan's algorithm on a pre-built dataset.

    The first ``train_envs`` environments train, the rest are scored; the
    dataset must contain exactly ``train_envs + test_envs`` environments.
    """
    if dataset.m != plan.train_envs + plan.test_envs:
        raise ValueError(
            f"dataset has {dataset.m} environments, the plan needs "
            f"{plan.train_envs} + {plan.test_envs}"
        )
    train = dataset.subset(range(plan.train_envs))
    test_envs = dataset.environments[plan.train_envs :]
    fitted = _TRIAL_RUNNERS[plan.algorithm](train, plan, rng)
    if isinstance(fitted, ResizedCalibration):
        # each test environment donates label_count labeled rows to its own
        # resizing and is scored on the rest
        scored = []
        for env in test_envs:
            labeled, rest = holdout_labels(env, plan.label_count, rng)
            scored.append((resize_for(fitted, env.take(labeled)), [env.take(rest)]))
    else:
        scored = [(fitted, test_envs)]
    records = []
    for mapping, envs in scored:
        report = evaluate_mapping(
            mapping, envs, plan.alpha, clip=plan.clip, rule=plan.rule, trial=trial
        )
        records.extend(report.records)
    return tuple(records)


def run_trial(plan: TrialPlan, trial: int) -> tuple[EnvRecord, ...]:
    """Generate, fit, and score one seeded trial; returns its records."""
    if not 0 <= trial < plan.trials:
        raise ValueError(f"trial index {trial} outside plan of {plan.trials}")
    dataset = trial_dataset(plan, trial)
    rng = _trial_rng(plan, trial)
    try:
        return dataset_records(dataset, plan, rng, trial)
    except FitError as err:
        raise FitError(f"trial {trial}: {err}", trial=trial, **err.details) from err


def run_trials(plan: TrialPlan, workers: int = 1) -> CoverageReport:
    """Run every trial in the plan and pool the records in trial order.

    Seeds are derived per trial, and records are concatenated in a canonical
    order, so the report does not depend on the worker count.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1:
        batches = [run_trial(plan, t) for t in range(plan.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lambda t: run_trial(plan, t), range(plan.trials)))
    records = [rec for batch in batches for rec in batch]
    return CoverageReport.from_records(records, plan.alpha, plan.rule)


@dataclass(frozen=True)
class DeltaMatch:
    """Outcome of matching a method's covered-sample share to a baseline's."""

    delta: float
    found: bool
    baseline_fraction: float
    candidate_fractions: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "found": self.found,
            "baseline_fraction": self.baseline_fraction,
            "candidate_fractions": [list(pair) for pair in self.candidate_fractions],
        }


def match_delta(
    method_a: str,
    method_b: str,
    alpha: float,
    delta_grid: Sequence[float],
    plan: TrialPlan,
    workers: int = 1,
) -> DeltaMatch:
    """Largest grid delta at which method_a still covers as large a pooled
    share of test outcomes as method_b.

    Both methods rerun the same seeded datasets trial by trial, so the
    comparison is paired. When no grid value qualifies, the smallest is
    returned with ``found=False``.
    """
    grid = [check_prob(d, "delta") for d in delta_grid]
    if not grid:
        raise ValueError("delta_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be sorted ascending without repeats")
    base = replace(plan, alpha=check_prob(alpha, "alpha"))
    baseline = run_trials(replace(base, algorithm=method_b), workers=workers)
    baseline_fraction = baseline.covered_sample_fraction()
    fractions = []
    for d in grid:
        report = run_trials(replace(base, algorithm=method_a, delta=d), workers=workers)
        fractions.append((d, report.covered_sample_fraction()))
    for d, frac in reversed(fractions):
        if frac >= baseline_fraction:
            return DeltaMatch(d, True, baseline_fraction, tuple(fractions))
    return DeltaMatch(grid[0], False, baseline_fraction, tuple(fractions))
