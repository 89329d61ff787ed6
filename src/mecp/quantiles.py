"""Quantile machinery on the extended real line.

Two kinds of quantiles drive every prediction-set construction in this
package:

* inflated order-statistic quantiles of a finite sample (``quant_plus``,
  ``quant_minus``), which index into the sorted sample at position
  ``ceil((1 - alpha) * (n + 1))`` / ``floor(alpha * (n + 1))`` and overflow
  to ``+inf`` / ``-inf`` instead of raising;
* left and right quantiles of finitely supported distributions
  (``DiscreteDistribution``, ``left_quantile``, ``right_quantile``) whose
  atoms may sit at ``+-inf``.

All functions treat ``float('inf')`` and ``float('-inf')`` as ordinary
values, so downstream code can represent "the whole line" without special
cases.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "check_nonnegative",
    "check_prob",
    "check_real",
    "column_quant_bounds",
    "cumsum_rank",
    "left_quantile",
    "mixture_quantile_rows",
    "quant_minus",
    "quant_plus",
    "rank_minus",
    "rank_plus",
    "right_quantile",
]

# weights of a distribution must sum to 1 within this slack
_WEIGHT_TOL = 1e-9


def _number(value, name: str, rule: str, in_range) -> float:
    """``value`` as a float, the one gate of the scalar checks below.

    Any ``numbers.Real`` but a bool passes the type gate; one too large for
    a float reads as +-inf. ``in_range`` then decides, and ``rule`` says why not.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf if value > 0 else -math.inf
    if not in_range(v):
        # an infinity the input does not equal is an overflow: say so, not its digits
        got = "a number too large for a float" if math.isinf(v) and v != value else v
        raise ValueError(f"{name} {rule}, got {got}")
    return v


def check_real(value, name: str) -> float:
    """``value`` as a float, after checking that it is a finite real number (no bool)."""
    return _number(value, name, "must be a finite number", math.isfinite)


def check_prob(value, name: str) -> float:
    """``value`` as a float, after checking that it is a real number (no bool) in (0, 1)."""
    if type(value) is float and 0.0 < value < 1.0:
        return value
    return _number(value, name, "must lie strictly between 0 and 1", lambda v: 0.0 < v < 1.0)


def check_nonnegative(value, name: str) -> float:
    """``value`` as a float, after checking that it is a finite real number (no bool) >= 0."""
    return _number(value, name, "must be finite and nonnegative", lambda v: 0.0 <= v < math.inf)


# Ranks are exact rational arithmetic, slow next to a sort of a few dozen
# values, and asked for again and again at the same (n, level) pairs.
@functools.lru_cache(maxsize=1024)
def rank_plus(n: int, alpha: float) -> int:
    """1-based rank ``ceil((1 - alpha)(n + 1))`` read by :func:`quant_plus`."""
    # exact rational index: a float product can round across an integer
    return math.ceil((1 - Fraction(alpha)) * (n + 1))


@functools.lru_cache(maxsize=1024)
def rank_minus(n: int, alpha: float) -> int:
    """1-based rank ``floor(alpha (n + 1))`` read by :func:`quant_minus`."""
    return math.floor(Fraction(alpha) * (n + 1))


def _as_sample(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty one-dimensional collection")
    if np.isnan(v).any():
        raise ValueError("sample values must not be NaN")
    return v


def quant_plus(values, alpha: float) -> float:
    """Upper sample quantile inflated by one phantom observation.

    Returns the ``ceil((1 - alpha) * (n + 1))``-th smallest of the ``n``
    values, or ``+inf`` when that index exceeds ``n``.

    Parameters
    ----------
    values : array-like of shape (n,)
        Sample values on the extended reals (NaN rejected), in any order.
    alpha : float in (0, 1)
        Tail mass; smaller ``alpha`` moves the quantile up.
    """
    v = _as_sample(values)
    check_prob(alpha, "level")
    k = rank_plus(v.size, alpha)
    if k > v.size:
        return math.inf
    return float(np.sort(v)[k - 1])


def quant_minus(values, alpha: float) -> float:
    """Lower sample quantile, the mirror image of :func:`quant_plus`.

    Returns the ``floor(alpha * (n + 1))``-th smallest value, or ``-inf``
    when the index is zero.  Satisfies
    ``quant_minus(v, a) == -quant_plus(-v, a)`` exactly.
    """
    v = _as_sample(values)
    check_prob(alpha, "level")
    k = rank_minus(v.size, alpha)
    if k < 1:
        return -math.inf
    return float(np.sort(v)[k - 1])


def column_quant_bounds(lows, highs, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise :func:`quant_minus` of ``lows`` and :func:`quant_plus` of ``highs``.

    Both arrays have shape (n, t); column j of the result pair equals
    ``(quant_minus(lows[:, j], alpha), quant_plus(highs[:, j], alpha))``
    exactly, from one sort of each array along its first axis.
    """
    check_prob(alpha, "level")
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.ndim != 2 or lows.shape[0] == 0 or highs.shape != lows.shape:
        raise ValueError("lows and highs must be matching nonempty (n, t) arrays")
    if np.isnan(lows).any() or np.isnan(highs).any():
        raise ValueError("sample values must not be NaN")
    n, t = lows.shape
    k_lo = rank_minus(n, alpha)
    k_hi = rank_plus(n, alpha)
    lo = np.sort(lows, axis=0)[k_lo - 1] if k_lo >= 1 else np.full(t, -math.inf)
    hi = np.sort(highs, axis=0)[k_hi - 1] if k_hi <= n else np.full(t, math.inf)
    return lo, hi


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution on the extended reals.

    Atom locations may include ``+-inf``; duplicate locations are allowed
    and act additively.  Weights must be nonnegative and sum to 1 within
    1e-9.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if locs.ndim != 1 or locs.size == 0:
            raise ValueError("locations must be a nonempty one-dimensional array")
        if w.shape != locs.shape:
            raise ValueError("weights must match locations in shape")
        if np.isnan(locs).any():
            raise ValueError("atom locations must not be NaN")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)


def left_quantile(dist: DiscreteDistribution, alpha: float) -> float:
    """Smallest location t with ``P(Z <= t) >= alpha``.

    The one-row case of :func:`mixture_quantile_rows`.
    """
    return float(mixture_quantile_rows(dist.locations[None, :], dist.weights, alpha)[0])


def right_quantile(dist: DiscreteDistribution, alpha: float) -> float:
    """Supremum of the locations t with ``P(Z <= t) < alpha``.

    For finitely supported distributions this supremum coincides with the
    first atom at which the CDF reaches or exceeds ``alpha``, so it equals
    :func:`left_quantile`; the two names document which side of a boundary
    a construction is meant to favor.
    """
    return left_quantile(dist, alpha)


def mixture_quantile_rows(loc_rows: np.ndarray, weights: np.ndarray, level: float) -> np.ndarray:
    """Row-wise left quantile of discrete mixtures sharing one weight vector.

    ``loc_rows`` has one row of atom locations per query point; ``weights``
    is the common weight vector.  Equivalent to calling
    ``left_quantile(DiscreteDistribution(row, weights), level)`` per row,
    vectorized for the hot evaluation paths.

    Each row is sorted stably and the answer is the location at the first
    index where the float cumsum of the weights, taken in that order,
    reaches ``level``; the order of tied atoms, signed zeros included,
    follows their column order.
    """
    check_prob(level, "level")
    loc_rows = np.asarray(loc_rows, dtype=float)
    if loc_rows.ndim != 2:
        raise ValueError("loc_rows must be two-dimensional")
    w = np.asarray(weights, dtype=float)
    if w.shape != loc_rows.shape[1:]:
        raise ValueError("weights must hold one entry per column of loc_rows")
    order = np.argsort(loc_rows, axis=1)
    locs = np.take_along_axis(loc_rows, order, axis=1)
    # Without ties the sorted order is unique; rows with tied locations are
    # re-sorted stably so their cumulative sums add up in the same order.
    tied = np.flatnonzero((locs[:, 1:] == locs[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(loc_rows[tied], axis=1, kind="stable")
        locs[tied] = np.take_along_axis(loc_rows[tied], order[tied], axis=1)
    idx = cumsum_rank(w[order], level)
    return locs[np.arange(loc_rows.shape[0]), idx]


def cumsum_rank(sorted_w: np.ndarray, level: float) -> np.ndarray:
    """Index of the first atom whose float cumsum of ``sorted_w`` reaches ``level``.

    The weights are summed along the last axis in the order given, so a 2-D
    ``sorted_w`` yields one index per row.  Float cumsums can top out a hair
    under 1; the last atom is then the answer.
    """
    hits = (np.cumsum(sorted_w, axis=-1) < level).sum(axis=-1)
    return np.minimum(hits, sorted_w.shape[-1] - 1)
