"""Prediction-set constructions for grouped (multi-environment) data.

Every ``fit_*`` function returns a frozen mapping that gives its sets as
columns: ``predict_bounds(x)`` as ``(lo, hi)`` arrays, a row being empty
when lo > hi, or None for label sets, which ``predict_mask(x)`` gives as a
``(t, n_classes)`` bool mask; membership, size and the minmax hull are
read off those columns. ``predict_sets(x)`` is only the per-row view of
them, and ``metadata()`` gives a JSON-ready summary of the fitted state.
``at_delta(delta)`` is the same fit at another delta, which enters only
the threshold. Leave-one-out refits always drop a whole environment,
never single rows, so the guarantees target fresh environments rather
than fresh observations from known ones.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .data import EnvironmentSample, EnvSplit, MultiEnvDataset, holdout_labels, split_environments
from .nested_sets import (
    BandFamily,
    LossSublevelFamily,
    NestedFamily,
    PredictionSet,
    SymmetricFamily,
    bounds_at,
    float_to_json,
    mask_at,
    sets_at,  # noqa: F401  (bench/tracer.py wraps it under this module)
    sets_from_bounds,
    sets_from_mask,
    thresholds,
)
from .predictors import (DEFAULT_LAMBDA_GRID, FitError, RidgeModel, fit_ridge,
                         fit_ridge_leave_one_out, fit_softmax)
from .quantiles import (
    DiscreteDistribution,
    check_prob,
    column_quant_bounds,
    cumsum_rank,
    left_quantile,
    mixture_quantile_rows,
    quant_minus,  # noqa: F401  (bench/tracer.py wraps it under this module)
    quant_plus,
)
from .weighted import _threshold, dual_eta, env_score

__all__ = [
    "ridge_point_builder",
    "ridge_symmetric_builder",
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
    "fit_jackknife_plus_quantile",
    "WeightedSplitMapping",
    "fit_weighted_split_conformal",
]


def _pooled(envs: Sequence[EnvironmentSample]) -> tuple[np.ndarray, np.ndarray]:
    x = np.vstack([e.x for e in envs])
    y = np.concatenate([e.y for e in envs])
    return x, y


# Ridge fits shared while a ``_shared_ridge_fits()`` block is open, in that
# thread or task only: (lambda grid, ids of the fit environments) or, for a
# leave-one-out pass, ("leave_one_out", lambda grid, ids of all environments)
# -> (those environments, fit). Holding them keeps their ids from reuse.
# The trial engine keeps delta siblings' fits here too.
_ridge_fits: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_ridge_fits", default=None
)


@contextlib.contextmanager
def _shared_ridge_fits():
    """Let every ridge builder reuse fits made on the same environment objects."""
    token = _ridge_fits.set({})
    try:
        yield
    finally:
        _ridge_fits.reset(token)


def _shared(tag: tuple, envs: Sequence[EnvironmentSample], fit: Callable):
    """``fit()``, made once per tag and ``envs`` while a ``_shared_ridge_fits()`` block is open."""
    fits = _ridge_fits.get()
    if fits is None:
        return fit()
    key = (*tag, tuple(map(id, envs)))
    if key not in fits:
        fits[key] = (tuple(envs), fit())
    return fits[key][1]


def _ridge_centres(models) -> Callable:
    """x -> (m, t), row j ``models[j].predict(x)`` bit for bit: each matmul slice is the gemv
    ``x @ coef`` runs. x is not made contiguous first: a Fortran x's copy rounds differently."""
    coefs = np.stack([model.coef for model in models])[:, :, None]
    intercepts = np.array([model.intercept for model in models])[:, None]
    return lambda x: np.matmul(x, coefs)[..., 0] + intercepts


def _stacked(fits):
    """The m fits as one giving (m, t) arrays: one batched product for ridge fits, a
    family of the same kind for interval families, None for label families."""
    models = [getattr(f, "__self__", None) for f in fits]
    if all(isinstance(model, RidgeModel) for model in models):
        return _ridge_centres(models)
    if isinstance(fits[0], SymmetricFamily):
        return SymmetricFamily(predict=_stacked([f.predict for f in fits]))
    if isinstance(fits[0], BandFamily):
        return BandFamily(_stacked([f.lower for f in fits]), _stacked([f.upper for f in fits]))
    if isinstance(fits[0], LossSublevelFamily):
        return None
    return lambda x: np.stack([np.asarray(f(x), dtype=float) for f in fits])


def ridge_point_builder(lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID) -> Callable:
    """Builder returning a pooled-ridge point predictor for a list of environments.

    ``build.leave_one_out(envs)`` gives all m leave-one-out predictors in one pass.
    """
    grid = tuple(lambda_grid)

    def build(envs: Sequence[EnvironmentSample]) -> Callable:
        return _shared((grid,), envs, lambda: fit_ridge(*_pooled(envs), grid)).predict

    def leave_one_out(envs: Sequence[EnvironmentSample]) -> list[Callable]:
        models = _shared(("leave_one_out", grid), envs, lambda: fit_ridge_leave_one_out(
            *_pooled(envs), [env.n for env in envs], grid))
        return [model.predict for model in models]

    build.leave_one_out = leave_one_out
    return build


def ridge_symmetric_builder(lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID) -> Callable:
    """Builder producing symmetric-interval families around a pooled ridge fit."""
    point = ridge_point_builder(lambda_grid)

    def build(envs: Sequence[EnvironmentSample]) -> SymmetricFamily:
        return SymmetricFamily(predict=point(envs))

    build.leave_one_out = lambda envs: [SymmetricFamily(predict=f) for f in point.leave_one_out(envs)]
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


class _ColumnarSets:
    """The per-row view of a mapping's columnar sets."""

    def predict_sets(self, x) -> list[PredictionSet]:
        bounds = self.predict_bounds(x)
        if bounds is None:
            return sets_from_mask(self.predict_mask(x))
        return sets_from_bounds(*bounds)


class _FamilyAtThreshold(_ColumnarSets):
    """Sets of a fitted ``family`` at its calibrated threshold ``tau_hat``."""

    def predict_bounds(self, x) -> tuple[np.ndarray, np.ndarray] | None:
        if isinstance(self.family, LossSublevelFamily):
            return None
        return bounds_at(self.family, x, self.tau_hat)

    def predict_mask(self, x) -> np.ndarray:
        return mask_at(self.family, x, self.tau_hat)


def _split_envs(
    dataset: MultiEnvDataset, gamma: float, rng: np.random.Generator
) -> tuple[EnvSplit, list[EnvironmentSample], list[EnvironmentSample]]:
    """(split, fit environments d1, calibration environments d2), in index order."""
    split = split_environments(dataset, gamma, rng)
    envs = dataset.environments
    return split, [envs[i] for i in split.d1], [envs[i] for i in split.d2]


def _point_residuals(predict: Callable, env: EnvironmentSample) -> np.ndarray:
    return np.abs(env.y - np.asarray(predict(env.x), dtype=float))


def _leave_one_env_out(dataset: MultiEnvDataset, builder: Callable) -> list[tuple]:
    """(fit without environment i, environment i) for every environment i.

    A builder's ``leave_one_out`` method, if any, makes all m fits in one pass.
    A :class:`FitError` is re-raised naming the left-out environment.
    """
    envs = dataset.environments
    if dataset.m < 2:
        raise ValueError("leave-one-environment-out needs at least two environments")
    fits = []
    try:
        if hasattr(builder, "leave_one_out"):
            fits = builder.leave_one_out(envs)
        else:
            for i in range(len(envs)):
                fits.append(builder(list(envs[:i] + envs[i + 1 :])))
    except FitError as err:
        details = dict(err.details)
        env = envs[details.pop("left_out", len(fits))]
        message = f"left-out environment {env.env_id}: {err}"
        raise FitError(message, **{**details, "left_out_env": env.env_id}) from err
    return list(zip(fits, envs))


@dataclass(frozen=True)
class JackknifeMinmax(_ColumnarSets):
    """Leave-one-environment-out families sharing one calibrated threshold.

    The deployed set spans the leave-one-out components: a single interval
    (the min/max hull) for interval families, the label union for label
    families, which have no other hull.
    """

    families: tuple[NestedFamily, ...]
    env_scores: tuple[float, ...]
    tau_hat: float
    alpha: float
    delta: float

    @cached_property
    def _stacked_family(self) -> NestedFamily | None:
        return _stacked(self.families)

    def predict_bounds(self, x) -> tuple[np.ndarray, np.ndarray] | None:
        if self._stacked_family is None:
            return None
        # the (m, t) component bounds in one step, then min/max over the nonempty
        # ones: bit for bit the union's hull, (+inf, -inf) if every one is empty
        lows, highs = bounds_at(self._stacked_family, x, self.tau_hat)
        empty = lows > highs
        return (np.where(empty, math.inf, lows).min(axis=0),
                np.where(empty, -math.inf, highs).max(axis=0))

    def predict_mask(self, x) -> np.ndarray:
        return np.logical_or.reduce([mask_at(f, x, self.tau_hat) for f in self.families])

    def at_delta(self, delta: float) -> "JackknifeMinmax":
        return replace(self, delta=check_prob(delta, "delta"), tau_hat=quant_plus(self.env_scores, delta))

    def metadata(self) -> dict:
        return {
            "algorithm": "jackknife_minmax",
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
) -> JackknifeMinmax:
    """Fit one family per left-out environment and calibrate a shared threshold.

    Each environment is scored by the upper quantile of its coverage
    thresholds under the family fitted without it; the deployed threshold is
    the upper quantile of those scores across environments.
    """
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    fits = _leave_one_env_out(dataset, family_builder)
    scores = [quant_plus(thresholds(fam, env.x, env.y), alpha) for fam, env in fits]
    tau_hat = quant_plus(scores, delta)
    return JackknifeMinmax(
        families=tuple(fam for fam, _ in fits),
        env_scores=tuple(scores),
        tau_hat=tau_hat,
        alpha=alpha,
        delta=delta,
    )


@dataclass(frozen=True)
class SplitConformal(_FamilyAtThreshold):
    """One family fitted on the proper-training environments plus a threshold."""

    family: NestedFamily
    env_scores: tuple[float, ...]
    tau_hat: float
    alpha: float
    delta: float
    gamma: float
    split: EnvSplit

    def at_delta(self, delta: float) -> "SplitConformal":
        return replace(self, delta=check_prob(delta, "delta"), tau_hat=quant_plus(self.env_scores, delta))

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
    split, fit_envs, cal_envs = _split_envs(dataset, gamma, rng)
    family = family_builder(fit_envs)
    scores = [quant_plus(thresholds(family, env.x, env.y), alpha) for env in cal_envs]
    return SplitConformal(
        family=family,
        env_scores=tuple(scores),
        tau_hat=quant_plus(scores, delta),
        alpha=alpha,
        delta=delta,
        gamma=float(gamma),
        split=split,
    )


def _reserved_mixture_weights(sizes) -> np.ndarray:
    """Weight 1/((k+1) n_i) on each atom of k blocks of ``sizes`` n_i, then 1/(k+1) reserved."""
    sizes = np.asarray(sizes)
    return np.append(np.repeat(1.0 / ((sizes.size + 1) * sizes), sizes), 1.0 / (sizes.size + 1))


@dataclass(frozen=True)
class HierJackknifePlus(_ColumnarSets):
    """Leave-one-environment-out point predictors with residual-atom mixtures.

    Evaluation places every leave-one-out residual around the matching
    predictor's value with weight 1/((m+1)*n_i), reserves 1/(m+1) for an
    infinite atom on each side, and reads off the alpha and 1-alpha mixture
    quantiles as the interval endpoints. For alpha <= 1/2 the endpoints
    cannot cross; above that an inverted pair collapses to the empty set.
    """

    centres: Callable  # x -> (m, t): the leave-one-out predictions
    residuals: tuple[np.ndarray, ...]
    alpha: float

    def at_delta(self, delta: float) -> "HierJackknifePlus":
        return self  # no delta enters this construction

    def predict_bounds(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The alpha and 1-alpha mixture quantiles per row of ``x``.

        Row r's atoms are ``preds[j, r] -+ residuals[j][i]`` in column
        order ``(j, i)``, then the reserved ``-+inf`` atom.  With equal
        environment sizes and every atom finite, all rows share one stable
        sorted weight order, so :meth:`_selected_bounds` reads the ranks by
        selection without building those rows; otherwise :meth:`_sorted_side`
        builds and sorts them.  Both agree bit for bit.
        """
        preds = self.centres(np.asarray(x, dtype=float))
        n = len(self.residuals[0])
        if preds.size and all(len(r) == n for r in self.residuals):
            res = np.stack(self.residuals)
            # |p -+ r| <= max|p| + max|r|, so a finite bound rules out an
            # infinite or NaN atom, which would tie with the reserved one
            if math.isfinite(float(np.abs(preds).max()) + float(np.abs(res).max())):
                return self._selected_bounds(preds, res)
        return (
            self._sorted_side(preds, np.subtract, -math.inf, self.alpha),
            self._sorted_side(preds, np.add, math.inf, 1.0 - self.alpha),
        )

    def _sorted_side(self, preds, op, reserved, level) -> np.ndarray:
        """One endpoint per column of ``preds`` from its atom row, by sort."""
        sizes = [len(r) for r in self.residuals]
        rows = op(np.repeat(preds, sizes, axis=0).T, np.concatenate(self.residuals))
        rows = np.hstack([rows, np.full((rows.shape[0], 1), reserved)])
        return mixture_quantile_rows(rows, _reserved_mixture_weights(sizes), level)

    @cached_property
    def _ranks(self) -> tuple[int, int]:
        # the reserved atom sorts first among the lows and last among the highs
        weights = _reserved_mixture_weights([len(r) for r in self.residuals])
        return (int(cumsum_rank(np.roll(weights, 1), self.alpha)),
                int(cumsum_rank(weights, 1.0 - self.alpha)))

    def _selected_bounds(self, preds, res) -> tuple[np.ndarray, np.ndarray]:
        """Both endpoints by in-place selection in one ``(t, m*n)`` atom buffer.

        The rank ``idx`` of :attr:`_ranks` reads the reserved atom at
        ``idx == 0`` (lows) or ``idx == m*n`` (highs), and rank ``idx - 1``
        (lows) or ``idx`` (highs) of the finite block otherwise. The
        partition scrambles column order, which decides whether a tie of
        ``-0.0`` and ``0.0`` returns one or the other, so rows whose
        selected value is zero are re-read by :meth:`_sorted_side`.
        """
        t = preds.shape[1]
        m, n = res.shape
        centres = preds.T[:, :, None]
        buf = np.empty((t, m * n))

        def side(op, reserved, level):
            first = reserved < 0
            idx = self._ranks[not first]
            if idx == (0 if first else m * n):
                return np.full(t, reserved)
            k = idx - first
            op(centres, res[None], out=buf.reshape(t, m, n))
            buf.partition(k, axis=1)
            out = buf[:, k].copy()
            zero = np.flatnonzero(out == 0.0)
            if zero.size:
                out[zero] = self._sorted_side(preds[:, zero], op, reserved, level)
            return out

        return side(np.subtract, -math.inf, self.alpha), side(np.add, math.inf, 1.0 - self.alpha)

    def metadata(self) -> dict:
        return {
            "algorithm": "hier_jackknife_plus",
            "alpha": self.alpha,
            "m": len(self.residuals),
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
        centres=_stacked([f for f, _ in fits]),
        residuals=tuple(_point_residuals(f, env) for f, env in fits),
        alpha=float(alpha),
    )


@dataclass(frozen=True)
class Hcp(_FamilyAtThreshold):
    """Split fit with a single residual-mixture threshold, symmetric around it."""

    family: SymmetricFamily
    tau_hat: float
    alpha: float
    gamma: float
    split: EnvSplit

    def at_delta(self, delta: float) -> "Hcp":
        return self  # no delta enters this construction

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
    split, fit_envs, cal_envs = _split_envs(dataset, gamma, rng)
    family = SymmetricFamily(predict=predictor_builder(fit_envs))
    locations = [thresholds(family, env.x, env.y) for env in cal_envs] + [[math.inf]]
    weights = _reserved_mixture_weights([env.n for env in cal_envs])
    mixture = DiscreteDistribution(np.concatenate(locations), weights)
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

    def at_delta(self, delta: float) -> "ResizedCalibration":
        return replace(self, delta=check_prob(delta, "delta"),
                       score_quantile=quant_plus(self.env_scores, delta))


@dataclass(frozen=True)
class ResizedSplitConformal(_FamilyAtThreshold):
    """Resized split mapping: the threshold is the test factor times the score quantile."""

    calibration: ResizedCalibration
    test_factor: float
    tau_hat: float

    @property
    def family(self) -> NestedFamily:
        return self.calibration.family

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
    split, fit_envs, cal_envs = _split_envs(dataset, gamma, rng)
    for env in cal_envs:
        if env.n <= label_count:
            raise ValueError(
                f"environment {env.env_id} has {env.n} rows; "
                f"resizing needs more than {label_count}"
            )
    family = family_builder(fit_envs)
    scores = []
    factors = []
    degenerate = []
    for env in cal_envs:
        resid = thresholds(family, env.x, env.y)
        labeled, rest = holdout_labels(env, label_count, rng)
        factor = quant_plus(resid[labeled], alpha0)
        if factor == 0.0:
            degenerate.append(env.env_id)
        factors.append(factor)
        scores.append(quant_plus(_resized_ratios(resid[rest], factor), alpha))
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


def resize_for(calibration: ResizedCalibration, x, y) -> ResizedSplitConformal:
    """Scale the calibrated score quantile by the factor of the labeled test rows x, y."""
    if len(y) != calibration.label_count:
        raise ValueError(
            f"test labeled set has {len(y)} rows, calibration used "
            f"{calibration.label_count}"
        )
    factor = quant_plus(thresholds(calibration.family, x, y), calibration.alpha0)
    return ResizedSplitConformal(
        calibration=calibration,
        test_factor=factor,
        tau_hat=_scaled_tau(factor, calibration.score_quantile),
    )


@dataclass(frozen=True)
class JackknifePlusQuantile(_ColumnarSets):
    """Per-environment quantile shifts combined by lower/upper sample quantiles.

    At each point the endpoints are ``quant_minus`` of the shifted-down and
    ``quant_plus`` of the shifted-up leave-one-out predictions. Kept as a
    comparator: no coverage guarantee backs it, but no undercoverage has
    been observed either. ``scripts/comparator_sweep.py`` puts its
    environment-level rate at 0.893-0.912 on each of its 26 scenarios with
    delta = 0.1, heterogeneous environment effects included.
    """

    centres: Callable  # x -> (m, t): the leave-one-out predictions
    env_scores: tuple[float, ...]
    alpha: float
    delta: float

    def predict_bounds(self, x) -> tuple[np.ndarray, np.ndarray]:
        preds = self.centres(np.asarray(x, dtype=float))
        s = np.asarray(self.env_scores, dtype=float)[:, None]
        return column_quant_bounds(preds - s, preds + s, self.delta)

    def at_delta(self, delta: float) -> "JackknifePlusQuantile":
        return replace(self, delta=check_prob(delta, "delta"))

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
        centres=_stacked([f for f, _ in fits]),
        env_scores=tuple(quant_plus(_point_residuals(f, env), alpha) for f, env in fits),
        alpha=alpha,
        delta=delta,
    )


def _weighted_tau(scores, delta: float, u: float | None) -> float:
    # the engine's one constant feature column at ridge 0; u None is the plain threshold
    return _threshold(scores, np.ones((len(scores) + 1, 1)), delta, u)


@dataclass(frozen=True)
class WeightedSplitMapping(_FamilyAtThreshold):
    """Split-style symmetric family thresholded by the score-regression dual."""

    family: NestedFamily
    cal_scores: tuple[float, ...]
    tau_hat: float
    alpha: float
    delta: float
    u: float | None  # the randomized threshold's uniform draw; None for the plain one

    def at_delta(self, delta: float) -> "WeightedSplitMapping":
        delta = check_prob(delta, "delta")
        return replace(self, delta=delta, tau_hat=_weighted_tau(self.cal_scores, delta, self.u))

    def metadata(self) -> dict:
        eta = None
        if math.isfinite(self.tau_hat):
            solution = dual_eta(
                np.asarray(self.cal_scores),
                np.ones((len(self.cal_scores) + 1, 1)),
                self.delta,
                ridge_weight=0.0,
                s=self.tau_hat,
            )
            eta = [float(v) for v in solution.eta]
        name = "weighted_split_conformal" if self.u is None else "randomized_weighted_split_conformal"
        return {
            "algorithm": name,
            "alpha": self.alpha,
            "delta": self.delta,
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
    randomized: bool = False,
) -> WeightedSplitMapping:
    """Split fit thresholded through the score-regression dual (see ``weighted``).

    The feature map is the constant 1, so one threshold serves every test
    environment; ``randomized`` draws the multiplier's bound.
    """
    alpha = check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    _split, fit_envs, cal_envs = _split_envs(dataset, gamma, rng)
    family = family_builder(fit_envs)
    scores = np.array([env_score(env, family, alpha) for env in cal_envs])
    u = float(rng.uniform()) if randomized else None
    return WeightedSplitMapping(
        family=family,
        cal_scores=tuple(float(s) for s in scores),
        tau_hat=_weighted_tau(scores, delta, u),
        alpha=alpha,
        delta=delta,
        u=u,
    )
