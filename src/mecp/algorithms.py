"""Prediction-set constructions for grouped (multi-environment) data.

Every ``fit_*`` function returns a frozen mapping with two methods:
``predict_sets(x)`` gives one prediction set per input row, and
``metadata()`` gives a JSON-ready summary of the fitted state. Leave-one-out
refits always drop a whole environment, never single rows, so the guarantees
target fresh environments rather than fresh observations from known ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import EnvironmentSample, EnvSplit, MultiEnvDataset, holdout_labels, split_environments
from .nested_sets import (
    EMPTY_SET,
    BandFamily,
    Interval,
    IntervalUnion,
    LossSublevelFamily,
    NestedFamily,
    PredictionSet,
    SymmetricFamily,
    float_to_json,
    sets_at,
    thresholds,
    union_sets,
)
from .predictors import DEFAULT_LAMBDA_GRID, fit_pinball, fit_ridge, fit_softmax
from .quantiles import (
    DiscreteDistribution,
    check_prob,
    column_quant_bounds,
    left_quantile,
    mixture_quantile_rows,
    quant_minus,  # noqa: F401  (bench/tracer.py wraps it under this module)
    quant_plus,
)
from .weighted import dual_eta, env_score, randomized_threshold, weighted_threshold

__all__ = [
    "ridge_point_builder",
    "ridge_symmetric_builder",
    "pinball_band_builder",
    "softmax_sublevel_builder",
    "JackknifeMinmax",
    "SplitConformal",
    "HierJackknifePlus",
    "Hcp",
    "ResizedCalibration",
    "ResizedSplitConformal",
    "JackknifePlusQuantile",
    "fit_jackknife_minmax",
    "fit_split_conformal",
    "fit_hier_jackknife_plus",
    "fit_hcp",
    "fit_resized_calibration",
    "resize_for",
    "fit_resized_split_conformal",
    "fit_jackknife_plus_quantile",
    "WeightedSplitMapping",
    "fit_weighted_split_conformal",
]


def _pooled(envs: Sequence[EnvironmentSample]) -> tuple[np.ndarray, np.ndarray]:
    x = np.vstack([e.x for e in envs])
    y = np.concatenate([e.y for e in envs])
    return x, y


def ridge_point_builder(lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID) -> Callable:
    """Builder returning a pooled-ridge point predictor for a list of environments."""

    def build(envs: Sequence[EnvironmentSample]) -> Callable:
        x, y = _pooled(envs)
        return fit_ridge(x, y, lambda_grid).predict

    return build


def ridge_symmetric_builder(lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID) -> Callable:
    """Builder producing symmetric-interval families around a pooled ridge fit."""
    point = ridge_point_builder(lambda_grid)

    def build(envs: Sequence[EnvironmentSample]) -> SymmetricFamily:
        return SymmetricFamily(predict=point(envs))

    return build


def pinball_band_builder(low_level: float = 0.05, high_level: float = 0.95) -> Callable:
    """Builder producing band families from two pooled quantile fits."""
    check_prob(low_level, "low_level")
    check_prob(high_level, "high_level")
    if low_level >= high_level:
        raise ValueError("low_level must be below high_level")

    def build(envs: Sequence[EnvironmentSample]) -> BandFamily:
        x, y = _pooled(envs)
        return BandFamily(
            lower=fit_pinball(x, y, low_level).predict,
            upper=fit_pinball(x, y, high_level).predict,
        )

    return build


def softmax_sublevel_builder(
    n_classes: int,
    step_schedule: float = 0.5,
    tolerance: float = 1e-5,
    max_iter: int = 20_000,
) -> Callable:
    """Builder producing loss-sublevel families from a pooled softmax fit."""

    def build(envs: Sequence[EnvironmentSample]) -> LossSublevelFamily:
        x, y = _pooled(envs)
        model = fit_softmax(
            x,
            y.astype(int),
            n_classes,
            step_schedule=step_schedule,
            tolerance=tolerance,
            max_iter=max_iter,
        )
        return LossSublevelFamily(logits=model.logits, n_classes=n_classes)

    return build


def _hull(pred_set: PredictionSet) -> PredictionSet:
    if isinstance(pred_set, IntervalUnion):
        if not pred_set.parts:
            return EMPTY_SET
        return Interval(pred_set.parts[0].lo, pred_set.parts[-1].hi)
    return pred_set


def _interval_or_empty(lo: float, hi: float) -> PredictionSet:
    if lo > hi:
        return EMPTY_SET
    return Interval(lo, hi)


def _point_residuals(predict: Callable, env: EnvironmentSample) -> np.ndarray:
    return np.abs(env.y - np.asarray(predict(env.x), dtype=float))


def _leave_one_env_out(dataset: MultiEnvDataset, builder: Callable) -> list[tuple]:
    """(fit without environment i, environment i) for every environment i."""
    envs = dataset.environments
    if dataset.m < 2:
        raise ValueError("leave-one-environment-out needs at least two environments")
    return [(builder(list(envs[:i] + envs[i + 1 :])), env) for i, env in enumerate(envs)]


@dataclass(frozen=True)
class JackknifeMinmax:
    """Leave-one-environment-out families sharing one calibrated threshold.

    ``mode`` selects the deployed shape: "hull" spans the leave-one-out
    components with a single interval (the min/max form), "union" keeps the
    exact union of components.
    """

    families: tuple[NestedFamily, ...]
    env_scores: tuple[float, ...]
    tau_hat: float
    alpha: float
    delta: float
    mode: str = "hull"

    def component_sets(self, x) -> list[list[PredictionSet]]:
        """Per-family materializations at the shared threshold, one list per family."""
        return [sets_at(fam, x, self.tau_hat) for fam in self.families]

    def predict_unions(self, x) -> list[PredictionSet]:
        per_family = self.component_sets(x)
        return [union_sets(components) for components in zip(*per_family)]

    def predict_sets(self, x) -> list[PredictionSet]:
        if self.mode == "union":
            return self.predict_unions(x)
        if all(isinstance(f, SymmetricFamily) for f in self.families):
            # direct min/max form; agrees bit for bit with the union envelope
            x = np.asarray(x, dtype=float)
            preds = np.stack(
                [np.asarray(f.predict(x), dtype=float) for f in self.families]
            )
            lows = preds.min(axis=0) - self.tau_hat
            highs = preds.max(axis=0) + self.tau_hat
            return [Interval(lo, hi) for lo, hi in zip(lows, highs)]
        return [_hull(u) for u in self.predict_unions(x)]

    def metadata(self) -> dict:
        return {
            "algorithm": "jackknife_minmax",
            "mode": self.mode,
            "alpha": self.alpha,
            "delta": self.delta,
            "tau_hat": float_to_json(self.tau_hat),
            "env_scores": [float_to_json(s) for s in self.env_scores],
        }


def fit_jackknife_minmax(
    dataset: MultiEnvDataset,
    family_builder: Callable,
    alpha: float,
    delta: float,
    mode: str = "hull",
) -> JackknifeMinmax:
    """Fit one family per left-out environment and calibrate a shared threshold.

    Each environment is scored by the upper quantile of its coverage
    thresholds under the family fitted without it; the deployed threshold is
    the upper quantile of those scores across environments.
    """
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    if mode not in ("hull", "union"):
        raise ValueError(f"mode must be 'hull' or 'union', got {mode!r}")
    fits = _leave_one_env_out(dataset, family_builder)
    scores = [quant_plus(thresholds(fam, env.x, env.y), alpha) for fam, env in fits]
    tau_hat = quant_plus(scores, delta)
    return JackknifeMinmax(
        families=tuple(fam for fam, _ in fits),
        env_scores=tuple(scores),
        tau_hat=tau_hat,
        alpha=alpha,
        delta=delta,
        mode=mode,
    )


@dataclass(frozen=True)
class SplitConformal:
    """One family fitted on the proper-training environments plus a threshold."""

    family: NestedFamily
    env_scores: tuple[float, ...]
    tau_hat: float
    alpha: float
    delta: float
    gamma: float
    split: EnvSplit

    def predict_sets(self, x) -> list[PredictionSet]:
        return sets_at(self.family, x, self.tau_hat)

    def metadata(self) -> dict:
        return {
            "algorithm": "split_conformal",
            "alpha": self.alpha,
            "delta": self.delta,
            "gamma": self.gamma,
            "tau_hat": float_to_json(self.tau_hat),
            "env_scores": [float_to_json(s) for s in self.env_scores],
            "d1": list(self.split.d1),
            "d2": list(self.split.d2),
        }


def fit_split_conformal(
    dataset: MultiEnvDataset,
    family_builder: Callable,
    alpha: float,
    delta: float,
    gamma: float,
    rng: np.random.Generator,
) -> SplitConformal:
    """Fit on a gamma fraction of environments, calibrate on the rest."""
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    split = split_environments(dataset, gamma, rng)
    envs = dataset.environments
    family = family_builder([envs[i] for i in split.d1])
    scores = []
    for i in split.d2:
        resid = thresholds(family, envs[i].x, envs[i].y)
        scores.append(quant_plus(resid, alpha))
    tau_hat = quant_plus(scores, delta)
    return SplitConformal(
        family=family,
        env_scores=tuple(scores),
        tau_hat=tau_hat,
        alpha=alpha,
        delta=delta,
        gamma=float(gamma),
        split=split,
    )


@dataclass(frozen=True)
class HierJackknifePlus:
    """Leave-one-environment-out point predictors with residual-atom mixtures.

    Evaluation places every leave-one-out residual around the matching
    predictor's value with weight 1/((m+1)*n_i), reserves 1/(m+1) for an
    infinite atom on each side, and reads off the alpha and 1-alpha mixture
    quantiles as the interval endpoints. For alpha <= 1/2 the endpoints
    cannot cross; above that an inverted pair collapses to the empty set.
    """

    predictors: tuple[Callable, ...]
    residuals: tuple[np.ndarray, ...]
    alpha: float

    def _atom_weights(self) -> tuple[np.ndarray, np.ndarray]:
        m = len(self.predictors)
        sizes = np.array([len(r) for r in self.residuals])
        weights = np.append(
            np.repeat(1.0 / ((m + 1) * sizes), sizes), 1.0 / (m + 1)
        )
        return np.repeat(np.arange(m), sizes), weights

    def predict_sets(self, x) -> list[PredictionSet]:
        x = np.asarray(x, dtype=float)
        env_idx, weights = self._atom_weights()
        preds = np.stack(
            [np.asarray(f(x), dtype=float) for f in self.predictors]
        )
        base = preds[env_idx, :].T
        res = np.concatenate(self.residuals)[None, :]
        t = base.shape[0]
        lows_rows = np.hstack([base - res, np.full((t, 1), -np.inf)])
        highs_rows = np.hstack([base + res, np.full((t, 1), np.inf)])
        lows = mixture_quantile_rows(lows_rows, weights, self.alpha)
        highs = mixture_quantile_rows(highs_rows, weights, 1.0 - self.alpha)
        return [_interval_or_empty(lo, hi) for lo, hi in zip(lows, highs)]

    def metadata(self) -> dict:
        return {
            "algorithm": "hier_jackknife_plus",
            "alpha": self.alpha,
            "m": len(self.predictors),
            "env_sizes": [int(len(r)) for r in self.residuals],
        }


def fit_hier_jackknife_plus(
    dataset: MultiEnvDataset,
    predictor_builder: Callable,
    alpha: float,
) -> HierJackknifePlus:
    """Leave-one-environment-out fits with per-observation absolute residuals."""
    alpha = check_prob(alpha, "alpha")
    if dataset.outcome != "regression":
        raise ValueError("hierarchical jackknife+ requires a regression outcome")
    fits = _leave_one_env_out(dataset, predictor_builder)
    return HierJackknifePlus(
        predictors=tuple(f for f, _ in fits),
        residuals=tuple(_point_residuals(f, env) for f, env in fits),
        alpha=float(alpha),
    )


@dataclass(frozen=True)
class Hcp:
    """Split fit with a single residual-mixture threshold, symmetric around it."""

    family: SymmetricFamily
    tau_hat: float
    alpha: float
    gamma: float
    split: EnvSplit

    def predict_sets(self, x) -> list[PredictionSet]:
        return sets_at(self.family, x, self.tau_hat)

    def metadata(self) -> dict:
        return {
            "algorithm": "hcp",
            "alpha": self.alpha,
            "gamma": self.gamma,
            "tau_hat": float_to_json(self.tau_hat),
            "d1": list(self.split.d1),
            "d2": list(self.split.d2),
        }


def fit_hcp(
    dataset: MultiEnvDataset,
    predictor_builder: Callable,
    alpha: float,
    gamma: float,
    rng: np.random.Generator,
) -> Hcp:
    """Calibrate one threshold from the mixture of calibration residual atoms.

    Every calibration observation contributes weight 1/((k+1)*n_i), where k
    counts calibration environments, and the remaining 1/(k+1) sits at +inf;
    the threshold is the left 1-alpha quantile of that mixture.
    """
    alpha = check_prob(alpha, "alpha")
    if dataset.outcome != "regression":
        raise ValueError("this construction requires a regression outcome")
    split = split_environments(dataset, gamma, rng)
    envs = dataset.environments
    family = SymmetricFamily(predict=predictor_builder([envs[i] for i in split.d1]))
    k = len(split.d2)
    locations = []
    weights = []
    for i in split.d2:
        resid = thresholds(family, envs[i].x, envs[i].y)
        locations.append(resid)
        weights.append(np.full(envs[i].n, 1.0 / ((k + 1) * envs[i].n)))
    locations.append(np.array([math.inf]))
    weights.append(np.array([1.0 / (k + 1)]))
    mixture = DiscreteDistribution(np.concatenate(locations), np.concatenate(weights))
    tau_hat = left_quantile(mixture, 1.0 - alpha)
    return Hcp(family=family, tau_hat=tau_hat, alpha=alpha, gamma=float(gamma), split=split)


def _resized_ratios(resid: np.ndarray, factor: float) -> np.ndarray:
    # zero resizing factor: 0/0 -> 0 and r/0 -> +inf, surfaced via the flag
    if factor == 0.0:
        return np.where(resid == 0.0, 0.0, math.inf)
    return resid / factor


def _scaled_tau(factor: float, score_quantile: float) -> float:
    # 0 * inf resolves to +inf: an undefined rescale must stay conservative
    if math.isinf(factor) or math.isinf(score_quantile):
        return math.inf
    return factor * score_quantile


@dataclass(frozen=True)
class ResizedCalibration:
    """Split-conformal calibration state with per-environment rescaled scores."""

    family: NestedFamily
    score_quantile: float
    env_scores: tuple[float, ...]
    env_factors: tuple[float, ...]
    degenerate_envs: tuple[str, ...]
    label_count: int
    alpha: float
    delta: float
    alpha0: float
    gamma: float
    split: EnvSplit


@dataclass(frozen=True)
class ResizedSplitConformal:
    """Resized split mapping: the threshold is the test factor times the score quantile."""

    calibration: ResizedCalibration
    test_factor: float
    tau_hat: float

    def predict_sets(self, x) -> list[PredictionSet]:
        return sets_at(self.calibration.family, x, self.tau_hat)

    def metadata(self) -> dict:
        cal = self.calibration
        return {
            "algorithm": "resized_split_conformal",
            "alpha": cal.alpha,
            "delta": cal.delta,
            "alpha0": cal.alpha0,
            "gamma": cal.gamma,
            "label_count": cal.label_count,
            "tau_hat": float_to_json(self.tau_hat),
            "test_factor": float_to_json(self.test_factor),
            "score_quantile": float_to_json(cal.score_quantile),
            "env_scores": [float_to_json(s) for s in cal.env_scores],
            "env_factors": [float_to_json(s) for s in cal.env_factors],
            "degenerate_envs": list(cal.degenerate_envs),
            "d1": list(cal.split.d1),
            "d2": list(cal.split.d2),
        }


def fit_resized_calibration(
    dataset: MultiEnvDataset,
    family_builder: Callable,
    alpha: float,
    delta: float,
    gamma: float,
    alpha0: float,
    label_count: int,
    rng: np.random.Generator,
) -> ResizedCalibration:
    """Split fit whose calibration scores are rescaled by held-out residual quantiles.

    Each calibration environment holds out ``label_count`` rows, takes the
    upper alpha0 quantile of their thresholds as its resizing factor, and
    scores the remaining rows through thresholds divided by that factor.
    """
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    alpha0 = check_prob(alpha0, "alpha0")
    if label_count < 1:
        raise ValueError("label_count must be at least 1")
    split = split_environments(dataset, gamma, rng)
    envs = dataset.environments
    for i in split.d2:
        if envs[i].n <= label_count:
            raise ValueError(
                f"environment {envs[i].env_id} has {envs[i].n} rows; "
                f"resizing needs more than {label_count}"
            )
    family = family_builder([envs[i] for i in split.d1])
    scores = []
    factors = []
    degenerate = []
    for i in split.d2:
        env = envs[i]
        resid = thresholds(family, env.x, env.y)
        labeled, rest = holdout_labels(env, label_count, rng)
        factor = quant_plus(resid[list(labeled)], alpha0)
        if factor == 0.0:
            degenerate.append(env.env_id)
        factors.append(factor)
        scores.append(quant_plus(_resized_ratios(resid[list(rest)], factor), alpha))
    return ResizedCalibration(
        family=family,
        score_quantile=quant_plus(scores, delta),
        env_scores=tuple(scores),
        env_factors=tuple(factors),
        degenerate_envs=tuple(degenerate),
        label_count=int(label_count),
        alpha=alpha,
        delta=delta,
        alpha0=alpha0,
        gamma=float(gamma),
        split=split,
    )


def resize_for(calibration: ResizedCalibration, test_labeled: EnvironmentSample) -> ResizedSplitConformal:
    """Scale the calibrated score quantile by the test environment's own factor."""
    if test_labeled.n != calibration.label_count:
        raise ValueError(
            f"test labeled set has {test_labeled.n} rows, calibration used "
            f"{calibration.label_count}"
        )
    resid = thresholds(calibration.family, test_labeled.x, test_labeled.y)
    factor = quant_plus(resid, calibration.alpha0)
    return ResizedSplitConformal(
        calibration=calibration,
        test_factor=factor,
        tau_hat=_scaled_tau(factor, calibration.score_quantile),
    )


def fit_resized_split_conformal(
    dataset: MultiEnvDataset,
    test_labeled: EnvironmentSample,
    family_builder: Callable,
    alpha: float,
    delta: float,
    gamma: float,
    alpha0: float,
    rng: np.random.Generator,
) -> ResizedSplitConformal:
    """Calibrate with rescaled scores, then resize to the labeled test rows."""
    if test_labeled.n < 1:
        raise ValueError("the labeled test sample must be nonempty")
    calibration = fit_resized_calibration(
        dataset, family_builder, alpha, delta, gamma, alpha0, test_labeled.n, rng
    )
    return resize_for(calibration, test_labeled)


@dataclass(frozen=True)
class JackknifePlusQuantile:
    """Per-environment quantile shifts combined by lower/upper sample quantiles.

    At each point the endpoints are ``quant_minus`` of the shifted-down and
    ``quant_plus`` of the shifted-up leave-one-out predictions. Kept as a
    comparator: no coverage guarantee backs it, but no undercoverage has
    been observed either. ``scripts/comparator_sweep.py`` puts its
    environment-level rate at 0.893-0.912 on each of its 26 scenarios with
    delta = 0.1, heterogeneous environment effects included.
    """

    predictors: tuple[Callable, ...]
    env_scores: tuple[float, ...]
    alpha: float
    delta: float

    def predict_sets(self, x) -> list[PredictionSet]:
        x = np.asarray(x, dtype=float)
        preds = np.stack([np.asarray(f(x), dtype=float) for f in self.predictors])
        s = np.asarray(self.env_scores, dtype=float)[:, None]
        lows, highs = column_quant_bounds(preds - s, preds + s, self.delta)
        return [_interval_or_empty(lo, hi) for lo, hi in zip(lows, highs)]

    def metadata(self) -> dict:
        return {
            "algorithm": "jackknife_plus_quantile",
            "alpha": self.alpha,
            "delta": self.delta,
            "env_scores": [float_to_json(s) for s in self.env_scores],
        }


def fit_jackknife_plus_quantile(
    dataset: MultiEnvDataset,
    predictor_builder: Callable,
    alpha: float,
    delta: float,
) -> JackknifePlusQuantile:
    """Leave-one-environment-out fits scored like jackknife-minmax, combined pointwise."""
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    if dataset.outcome != "regression":
        raise ValueError("this construction requires a regression outcome")
    fits = _leave_one_env_out(dataset, predictor_builder)
    return JackknifePlusQuantile(
        predictors=tuple(f for f, _ in fits),
        env_scores=tuple(quant_plus(_point_residuals(f, env), alpha) for f, env in fits),
        alpha=alpha,
        delta=delta,
    )


@dataclass(frozen=True)
class WeightedSplitMapping:
    """Split-style symmetric family thresholded by the score-regression dual."""

    family: NestedFamily
    cal_scores: tuple[float, ...]
    tau_hat: float
    alpha: float
    delta: float
    ridge_weight: float
    randomized: bool

    def predict_sets(self, x) -> list[PredictionSet]:
        return sets_at(self.family, x, self.tau_hat)

    def metadata(self) -> dict:
        eta = None
        if math.isfinite(self.tau_hat):
            solution = dual_eta(
                np.asarray(self.cal_scores),
                np.ones((len(self.cal_scores) + 1, 1)),
                self.delta,
                self.ridge_weight,
                self.tau_hat,
            )
            eta = [float(v) for v in solution.eta]
        name = "randomized_weighted_split_conformal" if self.randomized else "weighted_split_conformal"
        return {
            "algorithm": name,
            "alpha": self.alpha,
            "delta": self.delta,
            "ridge_weight": self.ridge_weight,
            "tau_hat": float_to_json(self.tau_hat),
            "cal_scores": [float_to_json(s) for s in self.cal_scores],
            "eta": eta,
        }


def fit_weighted_split_conformal(
    dataset: MultiEnvDataset,
    family_builder: Callable,
    alpha: float,
    delta: float,
    gamma: float,
    rng: np.random.Generator,
    ridge_weight: float = 0.0,
    randomized: bool = False,
) -> WeightedSplitMapping:
    """Split fit thresholded through the score-regression dual (see ``weighted``).

    The feature map is the constant 1, so one threshold serves every test
    environment; ``randomized`` draws the multiplier's bound.
    """
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    split = split_environments(dataset, gamma, rng)
    envs = dataset.environments
    family = family_builder([envs[i] for i in split.d1])
    scores = np.array([env_score(envs[i], family, alpha) for i in split.d2])
    features = np.ones((len(scores) + 1, 1))
    if randomized:
        tau = randomized_threshold(scores, features, alpha, delta, rng, ridge_weight)
    else:
        tau = weighted_threshold(scores, features, alpha, delta, ridge_weight)
    return WeightedSplitMapping(
        family=family,
        cal_scores=tuple(float(s) for s in scores),
        tau_hat=tau,
        alpha=alpha,
        delta=delta,
        ridge_weight=ridge_weight,
        randomized=randomized,
    )
