"""Coverage accounting and the Monte Carlo trial engine.

Every (trial, test environment) pair yields one record: how many outcomes
landed inside their prediction sets, whether that count clears the
per-environment bar ceil((1-alpha)(n+1)), and the mean set measure. Reports
aggregate three ways: the fraction of pairs clearing the bar, the mean
within-environment coverage fraction taken over clearing pairs only, and the
grand mean measure. A seeded engine repeats generate/fit/score cycles, one
trial after another on the calling thread, so the aggregates are
reproducible; plans that see the same data run paired, generating and
fitting once per trial. A grid search finds the largest miscoverage level at
which one method still covers as large a share of test outcomes as a
baseline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from mecp.algorithms import (
    ResizedCalibration,
    _shared_ridge_fits,
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
    check_integer,
    generate_hierarchical,
    holdout_labels,
)
from mecp.nested_sets import bounds_measure, contains, float_to_json, measure
from mecp.predictors import DEFAULT_LAMBDA_GRID, FitError
from mecp.quantiles import check_nonnegative, check_prob, check_real, rank_plus

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
    return covered_count >= _fraction_bar(n, alpha)


@functools.lru_cache(maxsize=1024)
def _fraction_bar(n: int, alpha: float) -> int:
    # least integer count c with c / n >= 1 - alpha, in exact arithmetic
    return math.ceil((1 - Fraction(alpha)) * n)


def _json_value(value):
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return float_to_json(value) if isinstance(value, float) else value


def _json_dict(obj) -> dict:
    """A dataclass as JSON-ready fields: nested dataclasses become dicts,
    tuples lists, and +-inf the strings "inf" / "-inf"."""
    return _json_value(asdict(obj))


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
        return _json_dict(self)


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


def _bounds_tallies(
    bounds: list[tuple[np.ndarray, np.ndarray]], ys: list[np.ndarray], clip
) -> tuple[list[int], list[float]]:
    """(in-set count, mean measure) per row block of columnar interval sets.

    One whole-array ``contains`` and ``measure`` over every block's rows:
    rows are closed intervals, and a row with lo > hi is empty, so it
    covers nothing and measures 0. Means come from a ``(k, n)`` reshape when
    sizes are equal: a row-wise mean there is bit-identical to ``np.mean``
    of each block's slice.
    """
    lo = np.concatenate([lo for lo, _ in bounds])
    hi = np.concatenate([hi for _, hi in bounds])
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("interval endpoints must not be NaN")
    y = np.concatenate(ys)
    measures = bounds_measure(lo, hi, clip)
    sizes = [len(v) for v in ys]
    starts = np.cumsum([0] + sizes[:-1])
    counts = np.add.reduceat(((lo <= y) & (y <= hi)).astype(np.intp), starts)
    if len(set(sizes)) == 1:
        means = measures.reshape(len(sizes), sizes[0]).mean(axis=1)
    else:
        means = [np.mean(measures[a : a + n]) for a, n in zip(starts, sizes)]
    return [int(c) for c in counts], [float(v) for v in means]


def _score_pairs(pairs, alpha: float, clip, rule: str, trial: int) -> list[EnvRecord]:
    """One record per ``(mapping, (env, rows))`` pair, scored in one pass.

    ``rows`` indexes the scored rows of ``env``. Each block ``env.x[rows]``
    lives only while its mapping predicts on it, and ``predict_bounds`` runs
    once per block, since x @ coef rounds differently by block shape. Every
    block's ``(lo, hi)`` goes through one :func:`_bounds_tallies`, or all go
    set by set if one mapping has no interval view.
    """
    alpha = check_prob(alpha, "alpha")
    bounds = [
        mapping.predict_bounds(env.x[rows]) if hasattr(mapping, "predict_bounds") else None
        for mapping, (env, rows) in pairs
    ]
    ys = [env.y[rows] for _, (env, rows) in pairs]
    if all(b is not None for b in bounds):
        counts, means = _bounds_tallies(bounds, ys, clip)
    else:
        counts, means = [], []
        for (mapping, (env, rows)), y in zip(pairs, ys):
            sets = mapping.predict_sets(env.x[rows])
            counts.append(sum(1 for s, v in zip(sets, y) if contains(s, v)))
            means.append(float(np.mean([measure(s, clip) for s in sets])))
    return [
        EnvRecord(
            trial=int(trial),
            env_id=env.env_id,
            n=len(y),
            covered_count=covered,
            env_covered=_env_covered(covered, len(y), alpha, rule),
            mean_measure=mean_measure,
        )
        for (_, (env, _)), y, covered, mean_measure in zip(pairs, ys, counts, means)
    ]


def evaluate_mapping(
    mapping,
    test_envs: Sequence[EnvironmentSample],
    alpha: float,
    clip: tuple[float, float] | None = None,
    rule: str = "count",
    trial: int = 0,
) -> CoverageReport:
    """Score a fitted set-valued mapping on held-out environments.

    A mapping whose ``predict_bounds`` gives ``(lo, hi)`` arrays is scored
    from them; other mappings, label sets and unions are scored set by set.
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
    pairs = [(mapping, (env, slice(None))) for env in envs]
    records = _score_pairs(pairs, alpha, clip, rule, trial)
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
        for name in ("trials", "train_envs", "test_envs", "label_count", "seed"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.train_envs < 2:
            raise ValueError("need at least two training environments")
        if self.test_envs < 1:
            raise ValueError("need at least one test environment")
        for name in ("alpha", "delta", "gamma", "alpha0"):
            object.__setattr__(self, name, check_prob(getattr(self, name), name))
        if self.label_count < 1:
            raise ValueError("label_count must be at least 1")
        if self.ridge_grid is not None:
            grid = tuple(check_nonnegative(v, "ridge_grid") for v in self.ridge_grid)
            if not grid:
                raise ValueError("ridge_grid must be nonempty")
            object.__setattr__(self, "ridge_grid", grid)
        weight = check_nonnegative(self.ridge_weight, "ridge_weight")
        object.__setattr__(self, "ridge_weight", weight)
        if self.feature_map != "constant":
            raise ValueError(
                "only the 'constant' feature map runs inside the trial engine; "
                "other maps need caller-supplied environment features"
            )
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")
        if self.clip is not None:
            lo, hi = (check_real(v, "clip") for v in self.clip)
            if lo >= hi:
                raise ValueError("clip must be a finite (lo, hi) pair with lo < hi")
            object.__setattr__(self, "clip", (lo, hi))

    def to_json_dict(self) -> dict:
        return _json_dict(self)


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
    if not isinstance(fitted, ResizedCalibration):
        return evaluate_mapping(
            fitted, test_envs, plan.alpha, clip=plan.clip, rule=plan.rule, trial=trial
        ).records
    # each test environment donates label_count labeled rows to its own
    # resizing and is scored on the rest, every environment in one pass
    pairs = []
    for env in test_envs:
        labeled, rest = holdout_labels(env, plan.label_count, rng)
        pairs.append((resize_for(fitted, env.x[labeled], env.y[labeled]), (env, rest)))
    return tuple(_score_pairs(pairs, plan.alpha, plan.clip, plan.rule, trial))


def run_trial(
    plan: TrialPlan, trial: int, dataset: MultiEnvDataset | None = None
) -> tuple[EnvRecord, ...]:
    """Generate, fit, and score one seeded trial; returns its records.

    ``dataset``, when given, must be ``trial_dataset(plan, trial)``; the
    engine passes it so that paired plans generate it once.
    """
    if not 0 <= trial < plan.trials:
        raise ValueError(f"trial index {trial} outside plan of {plan.trials}")
    if dataset is None:
        dataset = trial_dataset(plan, trial)
    rng = _trial_rng(plan, trial)
    try:
        return dataset_records(dataset, plan, rng, trial)
    except FitError as err:
        raise FitError(f"trial {trial}: {err}", trial=trial, **err.details) from err


_PAIRED_FIELDS = ("generator", "seed", "trials", "train_envs", "test_envs")


def run_plans(plans: Sequence[TrialPlan]) -> list[CoverageReport]:
    """Run paired plans trial by trial; one pooled report per plan, in order.

    The plans must agree on ``generator``, ``seed``, ``trials``,
    ``train_envs`` and ``test_envs``, the fields that fix each trial's
    dataset; otherwise ``ValueError``. Each trial generates its dataset once
    and runs every plan on it, each with the same fresh rng stream as
    :func:`run_trials` gives it, so every report equals that plan's own
    ``run_trials`` report. While a trial runs, ridge fits on the same
    environments with the same penalty grid are made once and shared; the
    cache is dropped when the trial ends. If plans fail, the error raised
    is the one running the plans one after another would raise: the first
    failing plan's, at its first failing trial.
    """
    plans = list(plans)
    for plan in plans[1:]:
        for name in _PAIRED_FIELDS:
            if getattr(plan, name) != getattr(plans[0], name):
                raise ValueError(f"plans must share {name} to run paired")
    records: list[list[EnvRecord]] = [[] for _ in plans]
    live = len(plans)  # plans[:live] still run; a failure cuts off the rest
    error = None
    for t in range(plans[0].trials if plans else 0):
        if not live:
            break
        dataset = trial_dataset(plans[0], t)
        with _shared_ridge_fits():
            for i in range(live):
                try:
                    records[i].extend(run_trial(plans[i], t, dataset=dataset))
                except Exception as err:
                    error, live = err, i
                    break
    if error is not None:
        raise error
    return [
        CoverageReport.from_records(recs, plan.alpha, plan.rule)
        for recs, plan in zip(records, plans)
    ]


def run_trials(plan: TrialPlan) -> CoverageReport:
    """Run every trial in the plan, in order, and pool the records.

    Each trial derives its own seeds from the plan's, so the report is
    reproducible byte for byte.
    """
    return run_plans([plan])[0]


@dataclass(frozen=True)
class DeltaMatch:
    """Outcome of matching a method's covered-sample share to a baseline's."""

    delta: float
    found: bool
    baseline_fraction: float
    candidate_fractions: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return _json_dict(self)


def match_delta(
    method_a: str,
    method_b: str,
    alpha: float,
    delta_grid: Sequence[float],
    plan: TrialPlan,
) -> DeltaMatch:
    """Largest grid delta at which method_a still covers as large a pooled
    share of test outcomes as method_b.

    Both methods run on the same seeded datasets trial by trial, so the
    comparison is paired; each dataset is generated and fitted once. When
    no grid value qualifies, the smallest is returned with ``found=False``.
    """
    grid = [check_prob(d, "delta") for d in delta_grid]
    if not grid:
        raise ValueError("delta_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be sorted ascending without repeats")
    base = replace(plan, alpha=check_prob(alpha, "alpha"))
    baseline, *candidates = run_plans(
        [replace(base, algorithm=method_b)]
        + [replace(base, algorithm=method_a, delta=d) for d in grid]
    )
    baseline_fraction = baseline.covered_sample_fraction()
    fractions = [(d, r.covered_sample_fraction()) for d, r in zip(grid, candidates)]
    for d, frac in reversed(fractions):
        if frac >= baseline_fraction:
            return DeltaMatch(d, True, baseline_fraction, tuple(fractions))
    return DeltaMatch(grid[0], False, baseline_fraction, tuple(fractions))
