"""Quantile machinery on the extended real line.

Two kinds of quantiles drive every prediction-set construction in this
package:

* order statistics of a finite sample at an exact rational rank: every
  coverage rank lives here (``rank_*``, tabulated in the README), read by
  the one ``order_statistic``, which overflows to ``+-inf`` instead of
  raising; ``quant_plus`` and ``quant_minus`` read the inflated ranks;
* left quantiles of finitely supported distributions (``DiscreteDistribution``,
  ``left_quantile``, which is also their right quantile) whose atoms may sit
  at ``+-inf``.

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
    "check_reals",
    "check_sample",
    "column_quant_bounds",
    "cumsum_rank",
    "left_quantile",
    "mixture_quantile_rows",
    "order_statistic",
    "quant_minus",
    "quant_plus",
    "rank_fraction",
    "rank_minus",
    "rank_plus",
    "rank_randomized",
    "rank_score",
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


def check_reals(values, name: str, check=check_real) -> tuple[float, ...]:
    """``values``, a list, tuple or 1-D array, as a tuple of ``check``-ed floats."""
    if not (isinstance(values, (list, tuple)) or getattr(values, "ndim", 0) == 1):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(check(v, name) for v in values)


# Ranks are exact rational arithmetic, slow next to a sort of a few dozen
# values, and asked for again and again at the same (n, level) pairs. A float
# product can round across an integer, so each takes its level as a Fraction.
@functools.lru_cache(maxsize=1024)
def rank_plus(n: int, alpha: float) -> int:
    """Inflated upper rank ``ceil((1 - alpha)(n + 1))``."""
    return math.ceil((1 - Fraction(alpha)) * (n + 1))


@functools.lru_cache(maxsize=1024)
def rank_minus(n: int, alpha: float) -> int:
    """Inflated lower rank ``floor(alpha (n + 1))``."""
    return math.floor(Fraction(alpha) * (n + 1))


@functools.lru_cache(maxsize=1024)
def rank_fraction(n: int, alpha: float) -> int:
    """Fraction bar ``ceil((1 - alpha) n)``: the least count c with c/n >= 1 - alpha."""
    return math.ceil((1 - Fraction(alpha)) * n)


@functools.lru_cache(maxsize=1024)
def rank_score(n: int, alpha: float) -> int:
    """Score rank ``floor((1 - alpha) n) + 1``: the least k with k/n > 1 - alpha."""
    return math.floor((1 - Fraction(alpha)) * n) + 1


def rank_randomized(m: int, delta: float, u: float) -> int:
    """Randomized rank ``floor((1 - delta)(m + 1) + u)``, exact in ``u`` too."""
    return math.floor((1 - Fraction(delta)) * (m + 1) + Fraction(u))


def order_statistic(values: np.ndarray, k: int):
    """The k-th smallest of ``values`` along the first axis; ``-inf`` for k < 1
    and ``+inf`` for k past the end, filled over the other axes, with no sort."""
    n = values.shape[0]
    if 1 <= k <= n:
        return np.sort(values, axis=0)[k - 1]
    fill = -math.inf if k < 1 else math.inf
    return np.full(values.shape[1:], fill) if values.ndim > 1 else fill


def check_sample(values, ndim: int = 1) -> np.ndarray:
    """``values`` as a float array: ``ndim``-D, nonempty along axis 0, no NaN."""
    v = np.asarray(values, dtype=float)
    if v.ndim != ndim or v.shape[0] == 0:
        raise ValueError(f"values must be a nonempty {ndim}-dimensional sample")
    if np.isnan(v).any():
        raise ValueError("sample values must not be NaN")
    return v


def quant_plus(values, alpha: float) -> float:
    """Upper sample quantile inflated by one phantom observation.

    Returns the ``rank_plus(n, alpha)``-th smallest of the ``n`` values, or
    ``+inf`` when that rank exceeds ``n``.

    Parameters
    ----------
    values : array-like of shape (n,)
        Sample values on the extended reals (NaN rejected), in any order.
    alpha : float in (0, 1)
        Tail mass; smaller ``alpha`` moves the quantile up.
    """
    v = check_sample(values)
    check_prob(alpha, "level")
    return float(order_statistic(v, rank_plus(v.size, alpha)))


def quant_minus(values, alpha: float) -> float:
    """Lower sample quantile, the mirror image of :func:`quant_plus`.

    Returns the ``rank_minus(n, alpha)``-th smallest value, or ``-inf`` when
    that rank is zero.  Satisfies
    ``quant_minus(v, a) == -quant_plus(-v, a)`` exactly.
    """
    v = check_sample(values)
    check_prob(alpha, "level")
    return float(order_statistic(v, rank_minus(v.size, alpha)))


def column_quant_bounds(lows, highs, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise :func:`quant_minus` of ``lows`` and :func:`quant_plus` of ``highs``.

    Both arrays have shape (n, t); column j of the result pair equals
    ``(quant_minus(lows[:, j], alpha), quant_plus(highs[:, j], alpha))``
    exactly, from one sort of each array along its first axis.
    """
    check_prob(alpha, "level")
    lows, highs = check_sample(lows, 2), check_sample(highs, 2)
    if highs.shape != lows.shape:
        raise ValueError("lows and highs must have the same (n, t) shape")
    n = lows.shape[0]
    return (order_statistic(lows, rank_minus(n, alpha)),
            order_statistic(highs, rank_plus(n, alpha)))


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
        locs = check_sample(self.locations)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != locs.shape:
            raise ValueError("weights must match locations in shape")
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
    order = np.argsort(loc_rows, axis=1, kind="stable")
    locs = np.take_along_axis(loc_rows, order, axis=1)
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
