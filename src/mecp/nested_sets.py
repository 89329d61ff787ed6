"""Threshold-indexed nested families of prediction sets.

A family maps a threshold tau to a set-valued prediction that grows with tau:
symmetric intervals around a point predictor, bands between a lower and an
upper fit, or sublevel sets of a classification loss. The coverage threshold
of an outcome is the smallest tau whose set contains it, so membership at tau
and a threshold comparison are two views of the same relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

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
    "coverage_threshold",
    "thresholds",
    "set_at",
    "sets_at",
    "contains",
    "measure",
    "union_sets",
    "set_to_json",
    "float_to_json",
    "float_from_json",
    "set_from_json",
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
    """Label sets {c : loss(c, logits(x)) <= tau} over classes 0..n_classes-1."""

    logits: Callable[[np.ndarray], np.ndarray]
    n_classes: int
    loss: Callable = multiclass_loss

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
        labels = np.asarray(y)
        logits = np.asarray(family.logits(x), dtype=float)
        if family.loss is multiclass_loss:
            return np.atleast_1d(np.asarray(multiclass_loss(labels, logits), dtype=float))
        return np.array([float(family.loss(int(c), row)) for c, row in zip(labels, logits)])
    raise TypeError(f"not a nested family: {type(family).__name__}")


def coverage_threshold(family: NestedFamily, x, y) -> float:
    """Smallest threshold whose set contains the outcome y at input x."""
    row = np.asarray(x, dtype=float).reshape(1, -1)
    return float(thresholds(family, row, np.asarray([y]))[0])


def _symmetric_interval(center: float, tau: float) -> PredictionSet:
    if tau < 0.0:
        return EMPTY_SET
    return Interval(center - tau, center + tau)


def _band_interval(low: float, high: float, tau: float) -> PredictionSet:
    lo = low - tau
    hi = high + tau
    if lo > hi:
        return EMPTY_SET
    return Interval(lo, hi)


def _sublevel_labels(family: LossSublevelFamily, logits: np.ndarray, tau: float) -> LabelSet:
    keep = tuple(c for c in range(family.n_classes) if float(family.loss(c, logits)) <= tau)
    return LabelSet(keep)


def set_at(family: NestedFamily, x, tau: float) -> PredictionSet:
    """Materialize the set at threshold tau for a single input point."""
    return sets_at(family, np.asarray(x, dtype=float).reshape(1, -1), tau)[0]


def sets_at(family: NestedFamily, x: np.ndarray, tau: float) -> list[PredictionSet]:
    """Materialize sets at one threshold for every row of x, batching the fits."""
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    x = np.asarray(x, dtype=float)
    if isinstance(family, SymmetricFamily):
        centers = np.asarray(family.predict(x), dtype=float)
        return [_symmetric_interval(float(c), tau) for c in centers]
    if isinstance(family, BandFamily):
        lows = np.asarray(family.lower(x), dtype=float)
        highs = np.asarray(family.upper(x), dtype=float)
        return [_band_interval(float(a), float(b), tau) for a, b in zip(lows, highs)]
    if isinstance(family, LossSublevelFamily):
        logits = np.asarray(family.logits(x), dtype=float)
        return [_sublevel_labels(family, row, tau) for row in logits]
    raise TypeError(f"not a nested family: {type(family).__name__}")


def contains(pred_set: PredictionSet, y) -> bool:
    """Set membership; intervals are closed on both ends."""
    if isinstance(pred_set, Interval):
        return bool(pred_set.lo <= y <= pred_set.hi)
    if isinstance(pred_set, IntervalUnion):
        return any(p.lo <= y <= p.hi for p in pred_set.parts)
    if isinstance(pred_set, LabelSet):
        return int(y) in pred_set.labels
    raise TypeError(f"not a prediction set: {type(pred_set).__name__}")


def _length(lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return hi - lo


def measure(pred_set: PredictionSet, clip: tuple[float, float] | None = None) -> float:
    """Lebesgue length of interval kinds, label count otherwise.

    `clip` intersects interval kinds with a reporting range before measuring;
    it does not apply to label sets.
    """
    if isinstance(pred_set, LabelSet):
        return float(len(pred_set.labels))
    if isinstance(pred_set, Interval):
        parts: Sequence[Interval] = (pred_set,)
    elif isinstance(pred_set, IntervalUnion):
        parts = pred_set.parts
    else:
        raise TypeError(f"not a prediction set: {type(pred_set).__name__}")
    if clip is not None:
        clo, chi = float(clip[0]), float(clip[1])
        if math.isnan(clo) or math.isnan(chi) or clo > chi:
            raise ValueError("clip range out of order")
    total = 0.0
    for part in parts:
        lo, hi = part.lo, part.hi
        if clip is not None:
            lo, hi = max(lo, clo), min(hi, chi)
        total += _length(lo, hi)
    return total


def union_sets(sets: Sequence[PredictionSet]) -> PredictionSet:
    """Normalized union of same-kind sets; overlapping or touching intervals merge."""
    items = list(sets)
    if not items:
        return EMPTY_SET
    if all(isinstance(s, LabelSet) for s in items):
        merged: set[int] = set()
        for s in items:
            merged.update(s.labels)
        return LabelSet(tuple(sorted(merged)))
    if not all(isinstance(s, (Interval, IntervalUnion)) for s in items):
        raise ValueError("cannot union prediction sets of mixed kinds")
    parts: list[Interval] = []
    for s in items:
        parts.extend((s,) if isinstance(s, Interval) else s.parts)
    parts.sort(key=lambda p: (p.lo, p.hi))
    spans: list[list[float]] = []
    for part in parts:
        if spans and part.lo <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], part.hi)
        else:
            spans.append([part.lo, part.hi])
    if not spans:
        return EMPTY_SET
    if len(spans) == 1:
        return Interval(spans[0][0], spans[0][1])
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in spans))


def float_to_json(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def float_from_json(v) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ValueError(f"bad endpoint encoding: {v!r}")
    return float(v)


def set_to_json(pred_set: PredictionSet) -> dict:
    """JSON-ready dict; infinite endpoints become the strings 'inf'/'-inf'."""
    if isinstance(pred_set, Interval):
        return {
            "kind": "interval",
            "lo": float_to_json(pred_set.lo),
            "hi": float_to_json(pred_set.hi),
        }
    if isinstance(pred_set, IntervalUnion):
        return {
            "kind": "interval_union",
            "parts": [
                {"lo": float_to_json(p.lo), "hi": float_to_json(p.hi)}
                for p in pred_set.parts
            ],
        }
    if isinstance(pred_set, LabelSet):
        return {"kind": "label_set", "labels": list(pred_set.labels)}
    raise TypeError(f"not a prediction set: {type(pred_set).__name__}")


def set_from_json(obj: dict) -> PredictionSet:
    """Inverse of set_to_json."""
    kind = obj.get("kind")
    if kind == "interval":
        return Interval(float_from_json(obj["lo"]), float_from_json(obj["hi"]))
    if kind == "interval_union":
        return IntervalUnion(
            tuple(
                Interval(float_from_json(p["lo"]), float_from_json(p["hi"]))
                for p in obj["parts"]
            )
        )
    if kind == "label_set":
        return LabelSet(tuple(obj["labels"]))
    raise ValueError(f"unknown prediction-set kind: {kind!r}")
