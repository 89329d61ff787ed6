"""Per-environment coverage scores and feature-weighted threshold calibration.

The deployable threshold comes from a pinball regression of environment
scores on environment features: the test environment's score enters as a
free parameter s, the program's box-constrained dual exposes the multiplier
eta attached to s, and the threshold is the largest s whose multiplier stays
within its level (below 1 - delta, or at most U - delta when randomized).

The route depends on the penalty. Under a ridge penalty every input takes
one pinned solve (the quantile-regression dual of Gibbs, Cherian & Candes
2023): with the test multiplier fixed at its level l, the threshold is
phi_t'theta* for theta* minimizing
sum_i rho_delta(S_i - phi_i'theta) + (m+1) w |theta|^2 - l phi_t'theta,
exact from an active set. Without one, group features (each row nonzero in
at most one column, the test row's column one value c on its group)
decouple by group, and the test multiplier steps with the number of the
test group's scores below s alone, so the threshold is the order statistic
of those scores at a rank of the README's rank table (split conformal within
the group); one constant column, the engine's choice, is the one-group case.
Other features take the pinned problem's least or largest test fit on an
LP's optimal face. A feature-free test row gives 0.0 on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import EnvironmentSample
from .nested_sets import NestedFamily, thresholds
from .predictors import FitError, highs_lp, pinball_lp
from .quantiles import check_nonnegative, check_prob, check_sample, order_statistic
from .quantiles import rank_plus, rank_randomized, rank_score

__all__ = [
    "score_from_thresholds",
    "env_score",
    "DualSolution",
    "dual_eta",
    "weighted_threshold",
    "randomized_threshold",
]

_LP_TOLERANCE = 1e-10


def score_from_thresholds(values, alpha: float) -> float:
    """Smallest value covering strictly more than a 1-alpha fraction.

    The order statistic at ``rank_score`` (the README's rank table), always
    within the sample for alpha in (0, 1).
    """
    alpha = check_prob(alpha, "alpha")
    v = check_sample(values)
    return float(order_statistic(v, rank_score(v.size, alpha)))


def env_score(env: EnvironmentSample, family: NestedFamily, alpha: float) -> float:
    """Empirical coverage threshold of one environment under a fitted family."""
    return score_from_thresholds(thresholds(family, env.x, env.y), alpha)


def _group_rows(phi: np.ndarray) -> bool:
    # group features: each row nonzero in at most one column
    return phi.shape[1] == 1 or bool(((phi != 0.0).sum(axis=1) <= 1).all())


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


def _box_dual_scan(full_scores: np.ndarray, h: np.ndarray, delta: float) -> np.ndarray:
    """Exact ridge-0 box-dual multipliers for one feature column with no zero entry.

    The matching primal objective is piecewise linear in the scalar
    coefficient, so its minimizer is the first breakpoint where the
    subgradient reaches zero. Multipliers follow from residual signs;
    coordinates tied at the kink are filled so the last (test) entry comes
    out largest. No iterative solver, hence no solver noise: vertex values
    are exact up to float arithmetic.
    """
    n = full_scores.size
    lower, upper = -delta, 1.0 - delta
    breaks = full_scores / h
    # the scaled primal's subgradient sums ``left`` below every breakpoint
    # and rises by |h| at each, so the minimizer is the first kink where it
    # reaches zero (only rounding can leave it below zero past the last); a
    # flat stretch (== 0) from there is settled to one vertex by the tie fill
    left = np.where(h > 0.0, -h * (1.0 - delta), h * delta)
    order = np.argsort(breaks, kind="stable")
    sorted_breaks = breaks[order]
    cum = left.sum() + np.cumsum(np.abs(h)[order])
    t = int(np.searchsorted(cum, 0.0))
    theta = float(sorted_breaks[t]) if t < n else float(sorted_breaks[-1]) + 1.0
    resid = full_scores - h * theta
    tie_tol = 1e-12 * (1.0 + np.abs(full_scores) + np.abs(h * theta))
    tie = np.abs(resid) <= tie_tol
    eta = np.where(resid > 0.0, upper, lower)
    tie_idx = [int(i) for i in np.flatnonzero(tie)]
    if tie_idx:
        eta[tie_idx] = 0.0
        rhs = -float(h @ eta)
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


def _solve_box_dual_blocks(full_scores: np.ndarray, phi: np.ndarray, delta: float) -> DualSolution:
    # Ridge 0, rows touching at most one column (group indicators): the
    # constraint phi' eta = 0 is one equation per column, so the dual splits
    # into one breakpoint scan per column; a feature-free row's multiplier is
    # linear in the objective and takes the sign of its score.
    eta = np.where(full_scores > 0.0, 1.0 - delta,
                   np.where(full_scores < 0.0, -delta, 0.0))
    for col in range(phi.shape[1]):
        rows = np.flatnonzero(phi[:, col])
        if rows.size:
            eta[rows] = _box_dual_scan(full_scores[rows], phi[rows, col], delta)
    return DualSolution(eta=eta, objective=float(full_scores @ eta))


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
    multiplier; it is non-decreasing in s. Under a ridge penalty every input
    takes the exact pinned active set with no tilt; without one, group
    features take one breakpoint scan per column and other features the
    box-dual LP.
    """
    delta = check_prob(delta, "delta")
    ridge_weight = check_nonnegative(ridge_weight, "ridge_weight")
    scores, phi = _validated(scores, features)
    full_scores = np.append(scores, float(s))
    if ridge_weight > 0.0:
        curv = 2.0 * full_scores.size * ridge_weight
        _, eta = _pinned_solve(phi, full_scores, delta, curv, 0.0)
        q = phi.T @ eta
        return DualSolution(eta=eta, objective=float(full_scores @ eta - q @ q / (2.0 * curv)))
    if _group_rows(phi):
        return _solve_box_dual_blocks(full_scores, phi, delta)
    return _solve_box_lp(full_scores, phi, delta)


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
    if ridge_weight > 0.0:
        theta, _ = _pinned_solve(phi[:-1], scores, delta, 2.0 * phi.shape[0] * ridge_weight,
                                 level * test)
        return float(test @ theta)
    if _group_rows(phi):
        # group indicators: the test row's block decouples from the others,
        # and its multiplier steps with the rank of s among the test group's
        # scores alone when that column is one value c on the group
        col = test.nonzero()[0][0]
        h = phi[:-1, col]
        in_group = h == test[col]
        if (in_group | (h == 0.0)).all():
            group = scores[in_group]
            m = group.size
            rank = rank_plus(m, delta) if u is None else rank_randomized(m, delta, u)
            return float(order_statistic(group, rank))
    return _pinned_lp(scores, phi, delta, level, u is None)


def weighted_threshold(scores, features, delta: float, ridge_weight: float = 0.0) -> float:
    """Largest imputed test score whose dual multiplier stays below 1-delta.

    ``scores`` are the per-environment coverage thresholds (see
    :func:`env_score`), already taken at the coverage level alpha.
    Under a ridge penalty every input pins the test multiplier at 1 - delta
    and returns the test fit of one exact active-set solve. Without one,
    group features (every row nonzero in at most one column, the test row's
    column one value c on all its group's rows; one constant column is the
    one-group case) read ``quant_plus(group, delta)`` of the test group's
    m_g scores (rank ``rank_plus`` in the README's rank table), and other
    features return the least test fit on the pinned LP's optimal face: an
    unbounded LP gives ``+inf`` and an unbounded least test fit ``-inf``. A
    feature-free test row gives 0.0.
    """
    delta = check_prob(delta, "delta")
    return _threshold(scores, features, delta, ridge_weight, None)


def randomized_threshold(scores, features, delta: float, rng: np.random.Generator,
                         ridge_weight: float = 0.0) -> float:
    """Randomized variant: the multiplier may reach U - delta, U uniform.

    U is drawn once, before the scores are checked, and ``U >= 1`` never
    binds and gives ``+inf`` on every route. Under a ridge penalty every
    input pins the test multiplier at U - delta and returns the finite test
    fit of one exact active-set solve. Without one, group features, as in
    :func:`weighted_threshold`, read the order statistic of the test group's
    m_g scores at ``rank_randomized(m_g, delta, U)`` (README rank table),
    ``-inf`` below rank 1 being the empty-set convention. Other features
    return the largest test fit on the pinned LP's optimal face: ``+inf``
    when U - delta tops every feasible test multiplier or that fit is
    unbounded, and ``-inf`` when U - delta lies below every feasible test
    multiplier. A feature-free test row gives 0.0.
    """
    delta = check_prob(delta, "delta")
    u = float(rng.uniform())
    return _threshold(scores, features, delta, ridge_weight, u)
