"""Threshold-indexed nested families of prediction sets.

A family maps a threshold tau to a set-valued prediction that grows with tau:
symmetric intervals around a point predictor, bands between a lower and an
upper fit, or sublevel sets of a classification loss. The coverage threshold
of an outcome is the smallest tau whose set contains it, so membership at tau
and a threshold comparison are two views of the same relation. Every family
gives its sets as columns, ``(lo, hi)`` arrays through ``bounds_at`` or a
bool label mask through ``mask_at``, and ``bounds_measure`` sizes interval
rows. Membership, size and union are read off those columns; the per-row
set types (``Interval``, ``IntervalUnion``, ``LabelSet``) remain only as a
view, built by ``sets_from_bounds``, ``sets_from_mask`` and ``sets_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .predictors import multiclass_loss

__all__ = [
    "Interval",
    "IntervalUnion",
    "LabelSet",
    "PredictionSet",
    "EMPTY_SET",
    "SymmetricFamily",
    "BandFamily",
    "LossSublevelFamily",
    "NestedFamily",
    "thresholds",
    "sets_at",
    "bounds_at",
    "mask_at",
    "sets_from_bounds",
    "sets_from_mask",
    "bounds_measure",
    "float_to_json",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval with extended-real endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint closed intervals in increasing position; () is the empty set."""

    parts: tuple[Interval, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not all(isinstance(p, Interval) for p in parts):
            raise ValueError("union parts must be Interval instances")
        for a, b in zip(parts, parts[1:]):
            # touching closed intervals are not canonical either; they merge
            if b.lo <= a.hi:
                raise ValueError("union parts must be sorted and disjoint")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class LabelSet:
    """Finite set of class labels, measured by count."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(int(c) for c in self.labels)
        if any(c < 0 for c in labels):
            raise ValueError("labels must be nonnegative")
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValueError("labels must be strictly increasing")
        object.__setattr__(self, "labels", labels)


PredictionSet = Union[Interval, IntervalUnion, LabelSet]

EMPTY_SET = IntervalUnion(())


@dataclass(frozen=True)
class SymmetricFamily:
    """Sets [f(x) - tau, f(x) + tau] around a point predictor; empty for tau < 0.

    `predict` must accept an (n, p) array and return (n,) values.
    """

    predict: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BandFamily:
    """Sets [lower(x) - tau, upper(x) + tau], empty once the endpoints invert."""

    lower: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LossSublevelFamily:
    """Label sets {c < n_classes : multiclass_loss(c, logits(x)) <= tau}."""

    logits: Callable[[np.ndarray], np.ndarray]
    n_classes: int

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError("n_classes must be at least 1")


NestedFamily = Union[SymmetricFamily, BandFamily, LossSublevelFamily]


def thresholds(family: NestedFamily, x: np.ndarray, y) -> np.ndarray:
    """Coverage thresholds for a batch: x is (n, p), y is (n,) outcomes."""
    x = np.asarray(x, dtype=float)
    if isinstance(family, SymmetricFamily):
        out = np.asarray(y, dtype=float)
        return np.abs(np.asarray(family.predict(x), dtype=float) - out)
    if isinstance(family, BandFamily):
        out = np.asarray(y, dtype=float)
        low = np.asarray(family.lower(x), dtype=float)
        high = np.asarray(family.upper(x), dtype=float)
        return np.maximum(low - out, out - high)
    if isinstance(family, LossSublevelFamily):
        logits = np.asarray(family.logits(x), dtype=float)
        return np.atleast_1d(np.asarray(multiclass_loss(np.asarray(y), logits), dtype=float))
    raise TypeError(f"not a nested family: {type(family).__name__}")


def sets_at(family: NestedFamily, x: np.ndarray, tau: float) -> list[PredictionSet]:
    """Materialize sets at one threshold for every row of x, batching the fits."""
    if isinstance(family, LossSublevelFamily):
        return sets_from_mask(mask_at(family, x, tau))
    return sets_from_bounds(*bounds_at(family, x, tau))


def bounds_at(family: NestedFamily, x: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Columnar sets at one threshold for an interval family: (lo, hi) arrays.

    Row i is the closed interval [lo[i], hi[i]] and is empty when
    lo[i] > hi[i]; a symmetric family at tau < 0 gives (+inf, -inf) rows.
    NaN endpoints pass through; ``sets_from_bounds`` and the scorer in
    ``evaluation`` reject them with the ValueError ``Interval`` raises.
    """
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    x = np.asarray(x, dtype=float)
    if isinstance(family, SymmetricFamily):
        centers = np.asarray(family.predict(x), dtype=float)
        if tau < 0.0:
            return np.full(centers.shape, math.inf), np.full(centers.shape, -math.inf)
        return centers - tau, centers + tau
    if isinstance(family, BandFamily):
        lows = np.asarray(family.lower(x), dtype=float)
        highs = np.asarray(family.upper(x), dtype=float)
        return lows - tau, highs + tau
    raise TypeError(f"not an interval family: {type(family).__name__}")


def mask_at(family: LossSublevelFamily, x: np.ndarray, tau: float) -> np.ndarray:
    """Columnar label sets at one threshold: a ``(t, n_classes)`` bool mask, from
    one batch loss per class, the same numbers ``thresholds`` compares."""
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    if not isinstance(family, LossSublevelFamily):
        raise TypeError(f"not a label family: {type(family).__name__}")
    logits = np.asarray(family.logits(np.asarray(x, dtype=float)), dtype=float)
    return np.column_stack(
        [multiclass_loss(np.full(len(logits), c), logits) <= tau for c in range(family.n_classes)]
    )


def sets_from_bounds(lo: np.ndarray, hi: np.ndarray) -> list[PredictionSet]:
    """Per-row view of columnar bounds: an Interval, or EMPTY_SET where lo > hi."""
    return [EMPTY_SET if a > b else Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def sets_from_mask(mask: np.ndarray) -> list[LabelSet]:
    """Per-row view of a label mask: the LabelSet of each row's kept classes."""
    return [LabelSet(tuple(np.flatnonzero(row).tolist())) for row in mask]


def _clip_range(clip: tuple[float, float]) -> tuple[float, float]:
    clo, chi = float(clip[0]), float(clip[1])
    if math.isnan(clo) or math.isnan(chi) or clo > chi:
        raise ValueError("clip range out of order")
    return clo, chi


def bounds_measure(
    lo: np.ndarray, hi: np.ndarray, clip: tuple[float, float] | None = None
) -> np.ndarray:
    """Per-row Lebesgue length of columnar bounds: hi - lo after the optional
    clip, 0 where hi <= lo (empty rows included)."""
    if clip is not None:
        clo, chi = _clip_range(clip)
        lo, hi = np.maximum(lo, clo), np.minimum(hi, chi)
    with np.errstate(invalid="ignore"):
        return np.where(hi <= lo, 0.0, hi - lo)


def float_to_json(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v
