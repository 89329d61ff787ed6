"""Per-environment coverage scores and feature-weighted threshold calibration.

The deployable threshold comes from a pinball regression of environment
scores on environment features: the test environment's score enters as a
free parameter s, the program's box-constrained dual exposes the multiplier
eta attached to s, and a binary search finds the largest s whose multiplier
stays below its upper box bound. With a constant feature and no
regularization this reproduces the plain conformal score quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .data import EnvironmentSample
from .nested_sets import NestedFamily, thresholds
from .predictors import FitError
from .quantiles import check_prob

__all__ = [
    "constant_feature_map",
    "feature_matrix",
    "score_from_thresholds",
    "env_score",
    "PinballEnvModel",
    "fit_pinball_env",
    "DualSolution",
    "dual_eta",
    "weighted_threshold",
    "randomized_threshold",
]

BOX_TOLERANCE = 1e-10
SEARCH_TOLERANCE = 1e-8
MAX_BRACKET_DOUBLINGS = 60
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def constant_feature_map(env: EnvironmentSample) -> np.ndarray:
    """Default environment features: the single constant 1."""
    return np.array([1.0])


def feature_matrix(envs: Sequence[EnvironmentSample], phi=constant_feature_map) -> np.ndarray:
    """Stack one feature row per environment."""
    rows = [np.asarray(phi(e), dtype=float).reshape(-1) for e in envs]
    out = np.vstack(rows)
    if not np.isfinite(out).all():
        raise ValueError("environment features must be finite")
    return out


def score_from_thresholds(values, alpha: float) -> float:
    """Smallest value covering strictly more than a 1-alpha fraction.

    The index is the least k with k/n > 1-alpha, computed in exact rational
    arithmetic; k is always within bounds for alpha in (0, 1).
    """
    alpha = check_prob(alpha, "alpha")
    v = np.sort(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a one-dimensional, nonempty threshold sample")
    if np.isnan(v).any():
        raise ValueError("thresholds must not contain NaN")
    k = math.floor((1 - Fraction(alpha)) * v.size) + 1
    return float(v[k - 1])


def env_score(env: EnvironmentSample, family: NestedFamily, alpha: float) -> float:
    """Empirical coverage threshold of one environment under a fitted family."""
    return score_from_thresholds(thresholds(family, env.x, env.y), alpha)


def _pinball(t: np.ndarray, delta: float) -> np.ndarray:
    return (1.0 - delta) * np.clip(t, 0.0, None) + delta * np.clip(-t, 0.0, None)


@dataclass(frozen=True)
class PinballEnvModel:
    """Linear-in-features score predictor with its achieved objective."""

    theta: np.ndarray
    delta: float
    ridge_weight: float
    objective: float

    def __call__(self, features) -> np.ndarray | float:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            return float(features @ self.theta)
        return features @ self.theta


def _split_score_pairs(scores) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(scores)
    if not pairs:
        raise ValueError("need at least one (features, score) pair")
    phi = np.vstack([np.asarray(f, dtype=float).reshape(-1) for f, _ in pairs])
    s = np.array([float(v) for _, v in pairs])
    if not (np.isfinite(phi).all() and np.isfinite(s).all()):
        raise ValueError("features and scores must be finite")
    return phi, s


def _primal_objective(phi, s, theta, delta, ridge_weight) -> float:
    fits = phi @ theta
    return float(np.mean(_pinball(s - fits, delta)) + ridge_weight * theta @ theta)


def fit_pinball_env(
    scores,
    delta: float,
    ridge_weight: float = 0.0,
    tolerance: float = SEARCH_TOLERANCE,
) -> PinballEnvModel:
    """Minimize mean quantile loss of scores against linear-in-feature fits.

    The loss on t = S - g(E) is (1-delta)*max(t,0) + delta*max(-t,0), plus
    ridge_weight * ||theta||^2. Zero regularization solves the exact LP;
    positive regularization maximizes the smooth box dual and recovers theta
    from the dual optimum, certifying the result through the primal-dual gap.
    """
    delta = check_prob(delta, "delta")
    if ridge_weight < 0.0:
        raise ValueError("ridge_weight must be nonnegative")
    phi, s = _split_score_pairs(scores)
    n, k = phi.shape
    if ridge_weight == 0.0:
        # variables: theta (free), u+ (n), u- (n); residual split t = u+ - u-
        c = np.concatenate([np.zeros(k), np.full(n, (1 - delta) / n), np.full(n, delta / n)])
        a_eq = np.hstack([phi, np.eye(n), -np.eye(n)])
        bounds = [(None, None)] * k + [(0, None)] * (2 * n)
        res = linprog(c, A_eq=a_eq, b_eq=s, bounds=bounds, method="highs", options=_LP_OPTIONS)
        if res.status != 0:
            raise FitError("score pinball LP did not reach optimality",
                           status=res.status, solver_message=res.message, objective=res.fun)
        theta = res.x[:k]
        return PinballEnvModel(theta=theta, delta=delta, ridge_weight=0.0,
                               objective=_primal_objective(phi, s, theta, delta, 0.0))
    dual = _solve_box_dual(s, phi, delta, ridge_weight)
    theta = phi.T @ dual.eta / (2.0 * ridge_weight * n)
    objective = _primal_objective(phi, s, theta, delta, ridge_weight)
    gap = objective - dual.objective / n
    if not gap <= tolerance:
        raise FitError("regularized score fit exceeded the duality-gap tolerance",
                       objective=objective, gap=gap)
    return PinballEnvModel(theta=theta, delta=delta, ridge_weight=float(ridge_weight),
                           objective=objective)


@dataclass(frozen=True)
class DualSolution:
    """Box-feasible multipliers and the dual objective they achieve."""

    eta: np.ndarray
    objective: float


def _solve_box_lp(full_scores: np.ndarray, phi: np.ndarray, delta: float) -> DualSolution:
    # stage 1: maximize eta . scores subject to phi' eta = 0 and the box;
    # stage 2: on the optimal face, maximize the last multiplier so the
    # reported eta_{m+1} is the canonical (largest, hence monotone) choice
    n = full_scores.size
    bounds = [(-delta, 1.0 - delta)] * n
    a_eq = phi.T
    b_eq = np.zeros(phi.shape[1])
    first = linprog(-full_scores, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs", options=_LP_OPTIONS)
    if first.status != 0:
        raise FitError("dual LP did not reach optimality",
                       status=first.status, solver_message=first.message)
    value = -first.fun
    objective_row = np.zeros(n)
    objective_row[-1] = -1.0
    # imputed test scores probe arbitrarily close to atoms, so the cut can sit
    # inside solver noise; widen it once before settling for the stage-1 vertex
    for face_tol in (1e-8 * (1.0 + abs(value)), 1e-6 * (1.0 + abs(value))):
        second = linprog(
            objective_row,
            A_ub=-full_scores[None, :],
            b_ub=[-(value - face_tol)],
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options=_LP_OPTIONS,
        )
        if second.status == 0:
            eta = np.clip(second.x, -delta, 1.0 - delta)
            return DualSolution(eta=eta, objective=float(full_scores @ eta))
    eta = np.clip(first.x, -delta, 1.0 - delta)
    return DualSolution(eta=eta, objective=float(full_scores @ eta))


def _fill_contributions(rhs: float, spans: list[tuple[float, float]]) -> list[float]:
    # deterministic water filling: meet rhs with each contribution in its span
    picks = []
    deficit = rhs - sum(lo for lo, _ in spans)
    for lo, hi in spans:
        add = min(max(deficit, 0.0), hi - lo)
        picks.append(lo + add)
        deficit -= add
    return picks


def _solve_box_dual_1d(full_scores: np.ndarray, h: np.ndarray, delta: float,
                       ridge_weight: float) -> DualSolution:
    """Exact box-dual solve for a single feature column, any ridge weight.

    The matching primal objective is piecewise quadratic (piecewise linear
    when unregularized) in the scalar coefficient, so its minimizer falls
    out of a breakpoint scan of the subgradient. Multipliers follow from
    residual signs; coordinates tied at the kink are filled so the last
    (test) entry comes out largest. No iterative solver, hence no solver
    noise: vertex values are exact up to float arithmetic.
    """
    n = full_scores.size
    lower, upper = -delta, 1.0 - delta
    curv = 2.0 * n * ridge_weight
    eta = np.where(full_scores > 0.0, upper,
                   np.where(full_scores < 0.0, lower, 0.0))
    active = h != 0.0
    if not active.any():
        return DualSolution(eta=eta, objective=float(full_scores @ eta))
    hb = h[active]
    breaks = full_scores[active] / hb
    # subgradient of the scaled primal left of every breakpoint, plus jumps
    left = np.where(hb > 0.0, -hb * (1.0 - delta), hb * delta)
    order = np.argsort(breaks, kind="stable")
    sorted_breaks = breaks[order]
    cum = left.sum() + np.concatenate(([0.0], np.cumsum(np.abs(hb)[order])))
    theta = None
    for t in range(sorted_breaks.size):
        b = float(sorted_breaks[t])
        lo_edge = -math.inf if t == 0 else float(sorted_breaks[t - 1])
        if curv > 0.0:
            root = -cum[t] / curv
            if lo_edge < root < b:
                theta = root
                break
            if curv * b + cum[t] <= 0.0 <= curv * b + cum[t + 1]:
                theta = b
                break
        else:
            if cum[t] == 0.0 and lo_edge < b:
                # flat stretch of the subgradient: any interior point works
                # and the sign pattern there is a unique vertex, no ties
                theta = b - 1.0 if t == 0 else 0.5 * (lo_edge + b)
                break
            if cum[t] <= 0.0 <= cum[t + 1]:
                theta = b
                break
    if theta is None:
        theta = -cum[-1] / curv if curv > 0.0 else float(sorted_breaks[-1]) + 1.0
    resid = full_scores - h * theta
    tie_tol = 1e-12 * (1.0 + np.abs(full_scores) + np.abs(h * theta))
    tie = active & (np.abs(resid) <= tie_tol)
    signed = active & ~tie
    eta[signed] = np.where(resid[signed] > 0.0, upper, lower)
    tie_idx = [int(i) for i in np.flatnonzero(tie)]
    if tie_idx:
        eta[tie_idx] = 0.0
        rhs = curv * theta - float(h @ eta)
        # the test coordinate is last; give it the extreme of its feasible
        # contribution range before the rest are filled in index order
        if tie_idx[-1] == n - 1:
            tie_idx = tie_idx[-1:] + tie_idx[:-1]
        spans = [tuple(sorted((h[j] * lower, h[j] * upper))) for j in tie_idx]
        if tie_idx[0] == n - 1:
            rest_lo = sum(lo for lo, _ in spans[1:])
            rest_hi = sum(hi for _, hi in spans[1:])
            want = rhs - (rest_lo if h[n - 1] > 0.0 else rest_hi)
            first = min(max(want, spans[0][0]), spans[0][1])
            picks = [first] + _fill_contributions(rhs - first, spans[1:])
        else:
            picks = _fill_contributions(rhs, spans)
        for j, pick in zip(tie_idx, picks):
            eta[j] = min(max(pick / h[j], lower), upper)
    q = float(h @ eta)
    penalty = 0.0 if curv == 0.0 else q * q / (2.0 * curv)
    return DualSolution(eta=eta, objective=float(full_scores @ eta) - penalty)


def _solve_box_dual(full_scores: np.ndarray, phi: np.ndarray, delta: float,
                    ridge_weight: float) -> DualSolution:
    if phi.shape[1] == 1:
        return _solve_box_dual_1d(full_scores, phi[:, 0], delta, ridge_weight)
    if ridge_weight == 0.0:
        return _solve_box_lp(full_scores, phi, delta)
    return _solve_box_dual_ca(full_scores, phi, delta, ridge_weight)


def _solve_box_dual_ca(full_scores: np.ndarray, phi: np.ndarray, delta: float,
                       ridge_weight: float) -> DualSolution:
    # concave quadratic: eta . scores - ||phi' eta||^2 / (4 n w) over the box.
    # Cyclic coordinate ascent; each scalar update is the exact closed-form
    # maximizer, so a sweep that moves nothing certifies a KKT point.
    n = full_scores.size
    lower, upper = -delta, 1.0 - delta
    two_nw = 2.0 * n * ridge_weight
    row_norms = np.einsum("ij,ij->i", phi, phi)
    eta = np.zeros(n)
    for _ in range(100_000):
        q = phi.T @ eta
        biggest_move = 0.0
        for i in range(n):
            if row_norms[i] == 0.0:
                # feature-free row: the objective is linear in this entry
                if full_scores[i] > 0.0:
                    target = upper
                elif full_scores[i] < 0.0:
                    target = lower
                else:
                    target = eta[i]
            else:
                slope = full_scores[i] - phi[i] @ q / two_nw
                target = eta[i] + slope * two_nw / row_norms[i]
                target = min(max(target, lower), upper)
            move = target - eta[i]
            if move != 0.0:
                q = q + phi[i] * move
                eta[i] = target
                biggest_move = max(biggest_move, abs(move))
        if biggest_move <= 1e-14:
            q = phi.T @ eta
            value = float(full_scores @ eta - q @ q / (2.0 * two_nw))
            return DualSolution(eta=eta, objective=value)
    raise FitError("box dual coordinate ascent did not converge",
                   sweeps=100_000)


def _stacked(scores, features, s: float) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    phi = np.asarray(features, dtype=float)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores must be a nonempty vector")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if phi.ndim != 2 or phi.shape[0] != scores.size + 1:
        raise ValueError("features must have one row per score plus the test row")
    if not np.isfinite(phi).all():
        raise ValueError("features must be finite")
    return np.append(scores, float(s)), phi


def dual_eta(scores, features, delta: float, ridge_weight: float, s: float) -> DualSolution:
    """Dual multipliers when the test environment's score is imputed as s.

    ``features`` carries m+1 rows: the calibration environments followed by
    the test environment. The returned eta's last entry is the test
    multiplier; it is non-decreasing in s.
    """
    delta = check_prob(delta, "delta")
    if ridge_weight < 0.0:
        raise ValueError("ridge_weight must be nonnegative")
    full_scores, phi = _stacked(scores, features, s)
    return _solve_box_dual(full_scores, phi, delta, ridge_weight)


def _max_feasible_test_eta(phi: np.ndarray, delta: float) -> float:
    n = phi.shape[0]
    lower, upper = -delta, 1.0 - delta
    if phi.shape[1] == 1:
        h, ht = phi[:-1, 0], float(phi[-1, 0])
        if ht == 0.0:
            return upper
        others_min = float(np.minimum(h * lower, h * upper).sum())
        others_max = float(np.maximum(h * lower, h * upper).sum())
        reach = -others_min / ht if ht > 0.0 else -others_max / ht
        return min(upper, reach)
    objective = np.zeros(n)
    objective[-1] = -1.0
    res = linprog(objective, A_eq=phi.T, b_eq=np.zeros(phi.shape[1]),
                  bounds=[(lower, upper)] * n, method="highs",
                  options=_LP_OPTIONS)
    if res.status != 0:
        raise FitError("feasibility LP did not reach optimality",
                       status=res.status, solver_message=res.message)
    return -res.fun


def _search_threshold(scores, features, delta, ridge_weight, level, strict,
                      tolerance) -> float:
    scores = np.asarray(scores, dtype=float)
    margin = 1e-9

    def holds(sv: float) -> bool:
        eta_test = dual_eta(scores, features, delta, ridge_weight, sv).eta[-1]
        if strict:
            return eta_test < level - margin
        return eta_test <= level + margin

    if ridge_weight == 0.0 and strict:
        # the test multiplier may be capped below its box bound by the
        # equality constraints; then no finite s exhausts the criterion
        phi = np.asarray(features, dtype=float)
        if _max_feasible_test_eta(phi, delta) < level - 1e-12:
            return math.inf

    span = max(1.0, float(scores.max() - scores.min()))
    lo = float(scores.min()) - span
    hi = float(scores.max()) + span
    for attempt in range(MAX_BRACKET_DOUBLINGS + 1):
        if not holds(hi):
            break
        lo = hi
        hi += span * 2.0 ** attempt
    else:
        return math.inf
    for attempt in range(MAX_BRACKET_DOUBLINGS + 1):
        if holds(lo):
            break
        hi = lo
        lo -= span * 2.0 ** attempt
    else:
        return -math.inf
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    # The supremum lies within LP-tie noise of [lo, hi]; when it is a score
    # atom (always, for zero regularization) snapping restores exactness.
    window = 1e-6 * (1.0 + float(np.max(np.abs(scores))))
    near = scores[(scores >= lo - window) & (scores <= hi + window)]
    if near.size:
        return float(near.max())
    return float(hi)


def weighted_threshold(scores, features, alpha: float, delta: float,
                       ridge_weight: float = 0.0,
                       tolerance: float = SEARCH_TOLERANCE) -> float:
    """Largest imputed test score whose dual multiplier stays below 1-delta.

    ``scores`` are the per-environment coverage thresholds at level alpha
    (see :func:`env_score`); the search itself depends only on delta. A
    criterion that never fails within the bracket expansion yields +inf
    (the full-space convention), mirroring the plain quantile's overflow.
    """
    check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    return _search_threshold(scores, features, delta, ridge_weight,
                             level=1.0 - delta, strict=True, tolerance=tolerance)


def randomized_threshold(scores, features, alpha: float, delta: float,
                         rng: np.random.Generator, ridge_weight: float = 0.0,
                         tolerance: float = SEARCH_TOLERANCE) -> float:
    """Randomized variant: the multiplier may reach U - delta, U uniform.

    Exhausting the upward bracket (e.g. U near 1) returns +inf; a criterion
    that fails everywhere returns -inf (the empty-set convention).
    """
    check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    u = float(rng.uniform())
    return _search_threshold(scores, features, delta, ridge_weight,
                             level=u - delta, strict=False, tolerance=tolerance)
