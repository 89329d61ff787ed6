"""Per-environment coverage scores and feature-weighted threshold calibration.

The deployable threshold comes from the quantile-regression dual of Gibbs,
Cherian & Candes (2023): environment scores are regressed on environment
features at level 1 - delta, the test environment's score enters as a free
value s, and the threshold is the largest s whose dual multiplier stays
within its level (below 1 - delta, or at most U - delta when randomized).

Only unpenalized group features are served: each row nonzero in at most one
column, the engine's one constant column being the one-group case. The dual
then splits by group, and the test multiplier steps with the rank of s
among the test group's scores alone, so when the test row's column takes
one value on its group the threshold is the order statistic of those
scores at a rank of the README's rank table (split conformal within the
group). A feature-free test row gives 0.0. Other features, and any ridge
penalty, raise a ValueError naming the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import EnvironmentSample
from .nested_sets import NestedFamily, thresholds
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


@dataclass(frozen=True)
class DualSolution:
    """Box-feasible multipliers and the dual objective they achieve."""

    eta: np.ndarray
    objective: float


def _box_dual_scan(full_scores: np.ndarray, h: np.ndarray, delta: float) -> np.ndarray:
    """Exact ridge-0 box-dual multipliers for one feature column with no zero entry.

    The matching primal objective is piecewise linear in the scalar
    coefficient, so its minimizer is the first breakpoint where the
    subgradient reaches zero. Multipliers follow from residual signs;
    coordinates tied at the kink are filled so the last (test) entry comes
    out largest. No iterative solver, hence no solver noise, and the tie
    fill runs in exact rationals, so each multiplier rounds once.
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
        # the fill runs in exact rationals, so a pick that fills its span is
        # that box end and each tied multiplier rounds once, from pick / h[j]
        hq = [Fraction(v) for v in h.tolist()]
        box = Fraction(lower), Fraction(upper)
        rhs = -sum(q * Fraction(e) for q, e in zip(hq, eta.tolist()))
        spans = [tuple(sorted((hq[j] * box[0], hq[j] * box[1]))) for j in tie_idx]
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
            add = min(max(deficit, 0), hi - lo)
            picks.append(lo + add)
            deficit -= add
        for j, pick in zip(tie_idx, picks):
            eta[j] = float(pick / hq[j])
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
    if ((phi != 0.0).sum(axis=1) > 1).any():
        raise ValueError("features must be group features: each row nonzero in at most one column")
    return scores, phi


def dual_eta(scores, features, delta: float, ridge_weight: float, s: float) -> DualSolution:
    """Dual multipliers when the test environment's score is imputed as s.

    ``features`` carries m+1 rows of group features: the calibration
    environments followed by the test environment. The returned eta's last
    entry is the test multiplier; it is non-decreasing in s. Each column
    takes one exact breakpoint scan. ``ridge_weight`` must be 0.
    """
    delta = check_prob(delta, "delta")
    if check_nonnegative(ridge_weight, "ridge_weight") != 0.0:
        raise ValueError(f"ridge_weight must be 0, got {ridge_weight}")
    scores, phi = _validated(scores, features)
    return _solve_box_dual_blocks(np.append(scores, float(s)), phi, delta)


def _threshold(scores, features, delta: float, u: float | None) -> float:
    # u is None for the plain threshold (eta_test < 1 - delta), else the
    # randomized draw (eta_test <= u - delta)
    scores, phi = _validated(scores, features)
    test = phi[-1]
    col = test.nonzero()[0]
    if col.size:
        # the test row's block decouples from the others, and its multiplier
        # steps with the rank of s among the test group's scores alone when
        # that column is one value c on the group
        h = phi[:-1, col[0]]
        in_group = h == test[col[0]]
        if not (in_group | (h == 0.0)).all():
            raise ValueError("features must take one value on the test row's group")
    if u is not None and u >= 1.0:
        return math.inf
    if not col.size:
        # no constraint touches the test multiplier: it takes the sign of s
        return 0.0
    group = scores[in_group]
    rank = rank_plus(group.size, delta) if u is None else rank_randomized(group.size, delta, u)
    return float(order_statistic(group, rank))


def weighted_threshold(scores, features, delta: float) -> float:
    """Largest imputed test score whose dual multiplier stays below 1-delta.

    ``scores`` are the per-environment coverage thresholds (see
    :func:`env_score`), already taken at the coverage level alpha.
    ``features`` are group features (every row nonzero in at most one
    column) whose test row's column takes one value c on all its group's
    rows; one constant column is the one-group case. The threshold is
    ``quant_plus(group, delta)`` of the test group's m_g scores (rank
    ``rank_plus`` in the README's rank table). A feature-free test row gives
    0.0.
    """
    delta = check_prob(delta, "delta")
    return _threshold(scores, features, delta, None)


def randomized_threshold(scores, features, delta: float, rng: np.random.Generator) -> float:
    """Randomized variant: the multiplier may reach U - delta, U uniform.

    U is drawn once, before the scores are checked, and ``U >= 1`` never
    binds and gives ``+inf``. On the features of :func:`weighted_threshold`
    the threshold is the order statistic of the test group's m_g scores at
    ``rank_randomized(m_g, delta, U)`` (README rank table), ``-inf`` below
    rank 1 being the empty-set convention. A feature-free test row gives 0.0.
    """
    delta = check_prob(delta, "delta")
    u = float(rng.uniform())
    return _threshold(scores, features, delta, u)
