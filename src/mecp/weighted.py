"""Per-environment coverage scores and feature-weighted threshold calibration.

The deployable threshold comes from a pinball regression of environment
scores on environment features: the test environment's score enters as a
free parameter s, the program's box-constrained dual exposes the multiplier
eta attached to s, and the threshold is the largest s whose multiplier stays
within its level (below 1 - delta, or at most U - delta when randomized).

Group features (each row nonzero in at most one column, the test row's
column one value c on its group) decouple by group, and the test multiplier
depends on s only through the number j of the test group's scores below s
and, under a ridge penalty, a linear term in s. The threshold is then read
off that group's sorted scores: split conformal within the group, an order
statistic without regularization and the crossing of a piecewise-linear
function with it. One constant column, the engine's choice, is the
one-group case; a feature-free test row gives 0.0. Other features take one
pinned solve (the quantile-regression dual of Gibbs, Cherian & Candes 2023):
with the test multiplier fixed at its level l, the threshold is phi_t'theta*
for theta* minimizing sum_i rho_delta(S_i - phi_i'theta) + (m+1) w |theta|^2
- l phi_t'theta, exact from an active set under a ridge penalty and from an
LP's optimal face without one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .data import EnvironmentSample
from .nested_sets import NestedFamily, thresholds
from .predictors import FitError, highs_lp, pinball_lp
from .quantiles import check_nonnegative, check_prob, rank_plus

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
_LP_TOLERANCE = 1e-10


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
    return float(v[_score_rank(v.size, alpha) - 1])


@functools.lru_cache(maxsize=1024)
def _score_rank(n: int, alpha: float) -> int:
    return math.floor((1 - Fraction(alpha)) * n) + 1


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


def _group_rows(phi: np.ndarray) -> bool:
    # group features: each row nonzero in at most one column
    return phi.shape[1] == 1 or bool(((phi != 0.0).sum(axis=1) <= 1).all())


def _primal_objective(phi, s, theta, delta, ridge_weight) -> float:
    fits = phi @ theta
    return float(np.mean(_pinball(s - fits, delta)) + ridge_weight * theta @ theta)


def fit_pinball_env(
    scores,
    delta: float,
    ridge_weight: float = 0.0,
) -> PinballEnvModel:
    """Minimize mean quantile loss of scores against linear-in-feature fits.

    The loss on t = S - g(E) is (1-delta)*max(t,0) + delta*max(-t,0), plus
    ridge_weight * ||theta||^2. Zero regularization solves the exact LP;
    positive regularization runs the exact active-set solve of the pinned
    route with no test row and no tilt.
    """
    delta = check_prob(delta, "delta")
    ridge_weight = check_nonnegative(ridge_weight, "ridge_weight")
    phi, s = _split_score_pairs(scores)
    n, k = phi.shape
    if ridge_weight == 0.0:
        res = pinball_lp(phi, s, (1 - delta, delta), _LP_TOLERANCE)
        if res.status != 0:
            raise FitError("score pinball LP did not reach optimality",
                           status=res.status, solver_message=res.message, objective=res.fun)
        theta = res.x[:k]
    else:
        theta, _ = _pinned_solve(phi, s, delta, 2.0 * n * ridge_weight, 0.0)
    return PinballEnvModel(theta=theta, delta=delta, ridge_weight=ridge_weight,
                           objective=_primal_objective(phi, s, theta, delta, ridge_weight))


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
    first = highs_lp(-full_scores, bounds, _LP_TOLERANCE, A_eq=a_eq, b_eq=b_eq)
    if first.status != 0:
        raise FitError("dual LP did not reach optimality",
                       status=first.status, solver_message=first.message)
    value = -first.fun
    objective_row = np.zeros(n)
    objective_row[-1] = -1.0
    # imputed test scores probe arbitrarily close to atoms, so the cut can sit
    # inside solver noise; widen it once before settling for the stage-1 vertex
    for face_tol in (1e-8 * (1.0 + abs(value)), 1e-6 * (1.0 + abs(value))):
        second = highs_lp(objective_row, bounds, _LP_TOLERANCE, A_ub=-full_scores[None, :],
                          b_ub=[-(value - face_tol)], A_eq=a_eq, b_eq=b_eq)
        if second.status == 0:
            eta = np.clip(second.x, -delta, 1.0 - delta)
            return DualSolution(eta=eta, objective=float(full_scores @ eta))
    eta = np.clip(first.x, -delta, 1.0 - delta)
    return DualSolution(eta=eta, objective=float(full_scores @ eta))


def _box_dual_scan(full_scores: np.ndarray, h: np.ndarray, delta: float,
                   curv: float) -> np.ndarray:
    """Exact box-dual multipliers for one feature column with no zero entry.

    The matching primal objective is piecewise quadratic with curvature
    ``curv`` (piecewise linear at 0) in the scalar coefficient, so its
    minimizer falls out of a breakpoint scan of the subgradient. Multipliers
    follow from residual signs; coordinates tied at the kink are filled so
    the last (test) entry comes out largest. No iterative solver, hence no
    solver noise: vertex values are exact up to float arithmetic.
    """
    n = full_scores.size
    lower, upper = -delta, 1.0 - delta
    breaks = full_scores / h
    # subgradient of the scaled primal left of every breakpoint, plus jumps
    left = np.where(h > 0.0, -h * (1.0 - delta), h * delta)
    order = np.argsort(breaks, kind="stable")
    sorted_breaks = breaks[order]
    cum = left.sum() + np.concatenate(([0.0], np.cumsum(np.abs(h)[order])))
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
        elif cum[t] <= 0.0 <= cum[t + 1]:
            # cum[0] < 0 and cum never falls, so a flat stretch (cum == 0)
            # starts at this kink; the tie fill settles its one vertex
            theta = b
            break
    else:
        theta = -cum[-1] / curv if curv > 0.0 else float(sorted_breaks[-1]) + 1.0
    resid = full_scores - h * theta
    tie_tol = 1e-12 * (1.0 + np.abs(full_scores) + np.abs(h * theta))
    tie = np.abs(resid) <= tie_tol
    eta = np.where(resid > 0.0, upper, lower)
    tie_idx = [int(i) for i in np.flatnonzero(tie)]
    if tie_idx:
        eta[tie_idx] = 0.0
        rhs = curv * theta - float(h @ eta)
        spans = [tuple(sorted((h[j] * lower, h[j] * upper))) for j in tie_idx]
        picks = []
        if tie_idx[-1] == n - 1:
            # the test coordinate is last; give it the extreme of its feasible
            # contribution range before the rest are filled in index order
            (test_lo, test_hi), spans = spans[-1], spans[:-1]
            tie_idx = tie_idx[-1:] + tie_idx[:-1]
            rest = sum(lo for lo, _ in spans) if h[n - 1] > 0.0 else sum(hi for _, hi in spans)
            picks = [min(max(rhs - rest, test_lo), test_hi)]
            rhs -= picks[0]
        # deterministic water filling: meet rhs with each contribution in its span
        deficit = rhs - sum(lo for lo, _ in spans)
        for lo, hi in spans:
            add = min(max(deficit, 0.0), hi - lo)
            picks.append(lo + add)
            deficit -= add
        for j, pick in zip(tie_idx, picks):
            eta[j] = min(max(pick / h[j], lower), upper)
    return eta


def _solve_box_dual_blocks(full_scores: np.ndarray, phi: np.ndarray, delta: float,
                           ridge_weight: float) -> DualSolution:
    # Rows touching at most one column (group indicators): ||phi' eta||^2 is a
    # sum over columns, so the dual splits into one breakpoint scan per column,
    # each with the full curvature 2 n w; a feature-free row's multiplier is
    # linear in the objective and takes the sign of its score.
    curv = 2.0 * full_scores.size * ridge_weight
    eta = np.where(full_scores > 0.0, 1.0 - delta,
                   np.where(full_scores < 0.0, -delta, 0.0))
    penalty = 0.0
    for col in range(phi.shape[1]):
        rows = np.flatnonzero(phi[:, col])
        if rows.size == 0:
            continue
        h = phi[rows, col]
        eta[rows] = _box_dual_scan(full_scores[rows], h, delta, curv)
        if curv > 0.0:
            q = float(h @ eta[rows])
            penalty += q * q / (2.0 * curv)
    return DualSolution(eta=eta, objective=float(full_scores @ eta) - penalty)


def _pinned_solve(phi: np.ndarray, scores: np.ndarray, delta: float, curv: float,
                  tilt, max_iter: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact theta minimizing sum rho_delta(scores - phi theta) + curv/2 |theta|^2 - tilt'theta.

    A primal active set (Goldfarb & Idnani style): held rows sit at zero
    residual at full row rank, and every other row's sign fixes its eta at a
    box end. Each step solves the held rows' KKT system and stops at the
    first row that would change sign, which is then held; if none blocks,
    the held row whose multiplier lies furthest outside the box is released
    to that side. A feature-free row's eta follows its score's sign (0 at 0).
    """
    upper, lower = 1.0 - delta, -delta
    eta = np.where(scores > 0.0, upper, np.where(scores < 0.0, lower, 0.0))
    live = np.flatnonzero(phi.any(axis=1))
    a, b = phi[live], scores[live]
    norms = np.linalg.norm(a, axis=1)
    side = np.where(b > 0.0, 1.0, -1.0)  # +1: residual >= 0 and eta = upper
    free = np.ones(b.size, dtype=bool)
    theta = np.zeros(phi.shape[1])
    steps = max_iter if max_iter is not None else 10 * (b.size + theta.size)
    for _ in range(steps):
        held = np.flatnonzero(~free)
        rows = a[held]
        pull = tilt + a[free].T @ np.where(side[free] > 0.0, upper, lower)
        lam = np.linalg.solve(rows @ rows.T, curv * b[held] - rows @ pull)
        step = (pull + rows.T @ lam) / curv - theta
        rate = side * (a @ step)
        # rows in the held rows' span keep their residual along the step
        basis = np.linalg.qr(rows.T)[0]
        closing = (free & (rate > 1e-12 * norms * np.linalg.norm(step))
                   & (np.linalg.norm(a - (a @ basis) @ basis.T, axis=1) > 1e-9 * norms))
        reach = np.full(b.size, math.inf)
        reach[closing] = np.maximum(side * (b - a @ theta), 0.0)[closing] / rate[closing]
        if closing.any() and reach.min() < 1.0:
            theta = theta + reach.min() * step
            free[np.argmin(reach)] = False
            continue
        theta = theta + step
        excess = np.maximum(lam - upper, lower - lam)
        if not held.size or excess.max() <= 1e-12:
            eta[live] = np.where(side > 0.0, upper, lower)
            eta[live[held]] = np.clip(lam, lower, upper)
            return theta, eta
        i = int(np.argmax(excess))
        free[held[i]] = True
        side[held[i]] = 1.0 if lam[i] > upper else -1.0
    raise FitError("pinned active set did not converge", solver="pinned active set",
                   iterations=steps, held=live[~free].tolist())


def _validated(scores, features) -> tuple[np.ndarray, np.ndarray]:
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
    return scores, phi


def dual_eta(scores, features, delta: float, ridge_weight: float, s: float) -> DualSolution:
    """Dual multipliers when the test environment's score is imputed as s.

    ``features`` carries m+1 rows: the calibration environments followed by
    the test environment. The returned eta's last entry is the test
    multiplier; it is non-decreasing in s.
    """
    delta = check_prob(delta, "delta")
    ridge_weight = check_nonnegative(ridge_weight, "ridge_weight")
    scores, phi = _validated(scores, features)
    full_scores = np.append(scores, float(s))
    if _group_rows(phi):
        return _solve_box_dual_blocks(full_scores, phi, delta, ridge_weight)
    if ridge_weight == 0.0:
        return _solve_box_lp(full_scores, phi, delta)
    curv = 2.0 * full_scores.size * ridge_weight
    _, eta = _pinned_solve(phi, full_scores, delta, curv, 0.0)
    q = phi.T @ eta
    return DualSolution(eta=eta, objective=float(full_scores @ eta - q @ q / (2.0 * curv)))


def _rational_fit(rows: np.ndarray, values: np.ndarray, test: np.ndarray) -> float:
    # test'theta where rows @ theta = values on the rows, taken in order, that
    # raise the rank: Gauss-Jordan in exact rationals, rounded once
    basis: dict[int, list[Fraction]] = {}
    for row, value in zip(rows.tolist(), values.tolist()):
        v = [Fraction(x) for x in row + [value]]
        for col, b in basis.items():
            v = [x - v[col] * y for x, y in zip(v, b)]
        col = next((j for j, x in enumerate(v[:-1]) if x), None)
        if col is not None:
            v = [x / v[col] for x in v]
            basis = {c: [x - b[col] * y for x, y in zip(b, v)] for c, b in basis.items()}
            basis[col] = v
            if len(basis) == test.size:
                break
    return float(sum(Fraction(t) * basis[c][-1] for c, t in enumerate(test.tolist()) if c in basis))


def _pinned_lp(scores: np.ndarray, phi: np.ndarray, delta: float, level: float,
               plain: bool) -> float:
    # Ridge 0: the threshold is the least (plain) or largest (randomized) test
    # fit on the tilted LP's optimal face, re-solved from its zero-residual
    # rows. An unbounded LP means no feasible dual reaches the level, and the
    # test multiplier's reach (its canonical value at zero scores) tells +-inf.
    cal, test = phi[:-1], phi[-1]
    weights = (1.0 - delta, delta)
    res = pinball_lp(cal, scores, weights, _LP_TOLERANCE, tilt=level * test)
    if res.status == 3:
        reach = _solve_box_lp(np.zeros(phi.shape[0]), phi, delta).eta[-1]
        return math.inf if plain or level > reach else -math.inf
    if res.status == 0:
        face = (test if plain else -test, res.fun + 1e-9 * (1.0 + abs(res.fun)))
        res = pinball_lp(cal, scores, weights, _LP_TOLERANCE, tilt=level * test, face=face)
        if res.status == 3:
            return -math.inf if plain else math.inf
    if res.status != 0:
        raise FitError("pinned LP did not reach optimality",
                       status=res.status, solver_message=res.message)
    order = np.argsort(np.abs(scores - cal @ res.x[:test.size]), kind="stable")
    return _rational_fit(cal[order], scores[order], test)


def _closed_form_threshold(scores: np.ndarray, curv: float, delta: float,
                           level: float, rank: int) -> float:
    # Imputing s with j scores below it, the test multiplier is
    # clip(curv * s - A_j, -delta, 1 - delta), where A_j = (1-delta)(m-j) - delta j
    # sums the others' box bounds. Without regularization it steps with j
    # alone, so the threshold is the order statistic ``rank``; with it, the
    # level is met in the first gap [v_j, v_{j+1}] that contains the crossing
    # (level + A_j) / curv, or at v_j when the crossing lies below that gap.
    v = np.sort(scores)
    m = v.size
    if curv == 0.0:
        if rank > m:
            return math.inf
        if rank < 1:
            return -math.inf
        return float(v[rank - 1])
    j = np.arange(m + 1)
    cross = (level + (1.0 - delta) * (m - j) - delta * j) / curv
    first = int(np.argmax(cross <= np.append(v, math.inf)))
    return float(max(cross[first], v[first - 1] if first else -math.inf))


def _threshold(scores, features, delta: float, ridge_weight: float,
               u: float | None) -> float:
    # u is None for the plain threshold (eta_test < 1 - delta), else the
    # randomized draw (eta_test <= u - delta)
    ridge_weight = check_nonnegative(ridge_weight, "ridge_weight")
    scores, phi = _validated(scores, features)
    if u is not None and u >= 1.0:
        return math.inf
    test = phi[-1]
    if not test.any():
        # no constraint touches the test multiplier: it takes the sign of s
        return 0.0
    level = 1.0 - delta if u is None else u - delta
    if _group_rows(phi):
        # group indicators: the test row's block decouples from the others,
        # and its column is constant c when the block is one group
        col = test.nonzero()[0][0]
        h, c = phi[:-1, col], float(test[col])
        in_group = h == c
        if (in_group | (h == 0.0)).all():
            group = scores[in_group]
            m = group.size
            if u is None:
                rank = rank_plus(m, delta)
            else:
                rank = math.floor((1 - Fraction(delta)) * (m + 1) + Fraction(u))
            curv = 2.0 * phi.shape[0] * ridge_weight / c / c
            return _closed_form_threshold(group, curv, delta, level, rank)
    if ridge_weight == 0.0:
        return _pinned_lp(scores, phi, delta, level, u is None)
    theta, _ = _pinned_solve(phi[:-1], scores, delta, 2.0 * phi.shape[0] * ridge_weight,
                             level * test)
    return float(test @ theta)


def weighted_threshold(scores, features, alpha: float, delta: float,
                       ridge_weight: float = 0.0) -> float:
    """Largest imputed test score whose dual multiplier stays below 1-delta.

    ``scores`` are the per-environment coverage thresholds at level alpha
    (see :func:`env_score`); the threshold itself depends only on delta.
    Group features (every row nonzero in at most one column, the test row's
    column one value c on all its group's rows; one constant column is the
    one-group case) are read exactly from the test group's m_g scores:
    without regularization ``quant_plus(group, delta)``, ``+inf`` when its
    rank ``ceil((1 - delta)(m_g + 1))`` exceeds m_g; with it, the crossing
    of the piecewise-linear multiplier. A feature-free test row gives 0.0.
    Other features pin the test multiplier at 1 - delta and return the test
    fit; without a ridge penalty an unbounded LP gives ``+inf`` and an
    unbounded least test fit ``-inf``.
    """
    check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    return _threshold(scores, features, delta, ridge_weight, None)


def randomized_threshold(scores, features, alpha: float, delta: float,
                         rng: np.random.Generator, ridge_weight: float = 0.0) -> float:
    """Randomized variant: the multiplier may reach U - delta, U uniform.

    U is drawn once, before the scores are checked. Group features, as in
    :func:`weighted_threshold`, are read exactly from the test group's m_g
    scores: without regularization the ``floor((1 - delta)(m_g + 1) + U)``-th
    smallest, ``+inf`` when that rank exceeds m_g and ``-inf`` (the empty-set
    convention) when it is below 1; with it, the crossing of the
    piecewise-linear multiplier. A feature-free test row gives 0.0, and
    ``U >= 1`` never binds and gives ``+inf`` on every route. Other features
    pin it at U - delta, finite under a ridge penalty. Without one they give
    ``+inf`` when U - delta tops every feasible test multiplier or the
    largest test fit is unbounded, and ``-inf`` when U - delta lies below
    every feasible test multiplier.
    """
    check_prob(alpha, "alpha")
    delta = check_prob(delta, "delta")
    u = float(rng.uniform())
    return _threshold(scores, features, delta, ridge_weight, u)
