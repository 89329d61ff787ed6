"""Independent reference implementations used to freeze expected values.

Everything here is written against the mathematical definitions with exact
rational index/CDF arithmetic where feasible, deliberately avoiding the
package's own code paths so tests compare two routes to the same answer.
The per-row set references (membership, union) read the package's per-row
set types through their attributes; ``oracle_minmax_unions`` builds its
components with ``sets_at``, the per-row view of ``bounds_at``/``mask_at``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mecp.nested_sets import EMPTY_SET, Interval, IntervalUnion, LabelSet, sets_at


def oracle_quant_plus(values, alpha: float) -> float:
    """ceil((1-alpha)(n+1))-th smallest value via exact rational index math."""
    v = sorted(float(x) for x in values)
    n = len(v)
    k = math.ceil((Fraction(1) - Fraction(alpha)) * (n + 1))
    if k > n:
        return math.inf
    return v[k - 1]


def oracle_quant_minus(values, alpha: float) -> float:
    """floor(alpha(n+1))-th smallest value via exact rational index math."""
    v = sorted(float(x) for x in values)
    n = len(v)
    k = math.floor(Fraction(alpha) * (n + 1))
    if k < 1:
        return -math.inf
    return v[k - 1]


def _exact_cdf_pairs(locations, weights):
    pairs = sorted(zip(locations, weights), key=lambda lw: lw[0])
    cum = Fraction(0)
    out = []
    for loc, w in pairs:
        cum += Fraction(float(w))
        out.append((float(loc), cum))
    return out


def oracle_left_quantile(locations, weights, alpha: float) -> float:
    """inf{t : P(Z <= t) >= alpha} with exact cumulative weights."""
    level = Fraction(alpha)
    pairs = _exact_cdf_pairs(locations, weights)
    for loc, cum in pairs:
        if cum >= level:
            return loc
    return pairs[-1][0]


def oracle_float_cumsum_quantile_rows(loc_rows, weights, level: float) -> np.ndarray:
    """Per row: the location where the float cumsum in stable sorted order reaches level.

    Each row's atoms are sorted stably (equal locations, ``-0.0`` and
    ``0.0`` included, keep their column order), the weights are summed
    one by one in Python floats, and the first atom with ``cum >= level``
    is returned; when the sum never reaches the level, the last atom is.
    """
    weights = [float(w) for w in weights]
    out = []
    for row in np.asarray(loc_rows, dtype=float):
        order = sorted(range(len(row)), key=lambda j: row[j])
        cum = 0.0
        pick = order[-1]
        for j in order:
            cum += weights[j]
            if cum >= level:
                pick = j
                break
        out.append(row[pick])
    return np.array(out, dtype=float)


def oracle_right_quantile(locations, weights, alpha: float) -> float:
    """sup{t : P(Z <= t) < alpha} realized by a strict-sublevel scan.

    The scan verifies the supremum reading: every probe strictly below the
    returned atom has CDF < alpha, and the returned atom's CDF is >= alpha.
    """
    level = Fraction(alpha)
    pairs = _exact_cdf_pairs(locations, weights)
    answer = None
    below = Fraction(0)
    for loc, cum in pairs:
        if cum >= level:
            answer = loc
            break
        below = cum
    if answer is None:
        return pairs[-1][0]
    assert below < level
    return answer


def oracle_interval_measure(parts, clip, n_grid: int = 2_000_001) -> float:
    """Rasterized Lebesgue measure of a union of closed intervals within clip."""
    lo, hi = clip
    ts = np.linspace(lo, hi, n_grid)
    inside = np.zeros(ts.shape, dtype=bool)
    for a, b in parts:
        inside |= (ts >= a) & (ts <= b)
    return float(inside.mean() * (hi - lo))


def oracle_union_measure_exact(parts, clip=None) -> float:
    """Union length via midpoint probes on the endpoint partition.

    Every maximal covered stretch is bounded by input endpoints (or clip
    bounds), so summing the partition cells whose midpoint lies inside some
    part is exact up to float addition. Finite endpoints only.
    """
    pts = []
    for a, b in parts:
        pts.extend((a, b))
    if clip is not None:
        lo, hi = clip
        pts = [min(max(t, lo), hi) for t in pts] + [lo, hi]
    cuts = sorted(set(pts))
    total = 0.0
    for t0, t1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (t0 + t1)
        if any(a <= mid <= b for a, b in parts):
            total += t1 - t0
    return total


def oracle_ridge_loo_errors(x, y, lam: float) -> np.ndarray:
    """Leave-one-out residuals by literally refitting n times.

    Intercept unpenalized; the penalty matrix is diag(0, lam, ..., lam).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    xt = np.column_stack([np.ones(n), x])
    pen = np.diag([0.0] + [lam] * p)
    errs = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        a = xt[keep].T @ xt[keep] + pen
        coef = np.linalg.solve(a, xt[keep].T @ y[keep])
        errs[i] = y[i] - xt[i] @ coef
    return errs


def oracle_stacked_predict(models):
    """x -> (m, t): each model's own ``predict`` on x, one model at a time, stacked."""
    return lambda x: np.stack([np.asarray(model.predict(x), dtype=float) for model in models])


def oracle_softmax_grad(weights, x_design, labels, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of the mean multiclass log loss."""
    weights = np.asarray(weights, dtype=float)
    x_design = np.asarray(x_design, dtype=float)
    labels = np.asarray(labels)

    def mean_loss(w):
        logits = x_design @ w.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        return float(np.mean(lse - logits[np.arange(len(labels)), labels]))

    grad = np.zeros_like(weights)
    for idx in np.ndindex(*weights.shape):
        up = weights.copy()
        up[idx] += eps
        dn = weights.copy()
        dn[idx] -= eps
        grad[idx] = (mean_loss(up) - mean_loss(dn)) / (2 * eps)
    return grad


def oracle_jackknife_plus_interval(preds, residuals, alpha: float) -> tuple[float, float]:
    """Plain single-level jackknife+ interval from leave-one-out pieces."""
    preds = np.asarray(preds, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    lo = oracle_quant_minus(preds - residuals, alpha)
    hi = oracle_quant_plus(preds + residuals, alpha)
    return lo, hi


def oracle_env_score(thresholds, alpha: float) -> float:
    """Smallest tau with strictly more than a (1-alpha) fraction covered.

    Scans candidate tau values (the thresholds themselves) instead of using
    an order-statistic index.
    """
    ts = sorted(float(t) for t in thresholds)
    n = len(ts)
    for tau in ts:
        frac = Fraction(sum(1 for t in ts if t <= tau), n)
        if frac > Fraction(1) - Fraction(alpha):
            return tau
    raise AssertionError("unreachable: the largest threshold always covers everything")


def _interval_parts(pred_set) -> list[tuple[float, float]]:
    """(lo, hi) of each closed interval of a per-row set, read through its
    ``parts`` or its ``lo``/``hi`` attributes."""
    if hasattr(pred_set, "parts"):
        return [(p.lo, p.hi) for p in pred_set.parts]
    return [(pred_set.lo, pred_set.hi)]


def oracle_contains(pred_set, y) -> bool:
    """Membership of one outcome in a per-row set: closed intervals, and a
    label set holds the class ``int(y)``."""
    if hasattr(pred_set, "labels"):
        return int(y) in pred_set.labels
    return any(a <= y <= b for a, b in _interval_parts(pred_set))


def oracle_union(sets):
    """Union of same-kind per-row sets: the label union for label sets, else
    the closed intervals sorted and merged where they overlap or touch.

    Returns ``EMPTY_SET`` when no interval is left, an ``Interval`` for one
    merged span and an ``IntervalUnion`` for more. Label sets and intervals
    do not mix: ValueError.
    """
    sets = list(sets)
    kinds = {hasattr(s, "labels") for s in sets}
    if len(kinds) > 1:
        raise ValueError("cannot union label sets with intervals")
    if kinds == {True}:
        return LabelSet(tuple(sorted({c for s in sets for c in s.labels})))
    spans: list[list[float]] = []
    for a, b in sorted(p for s in sets for p in _interval_parts(s)):
        if spans and a <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], b)
        else:
            spans.append([a, b])
    if not spans:
        return EMPTY_SET
    if len(spans) == 1:
        return Interval(*spans[0])
    return IntervalUnion(tuple(Interval(a, b) for a, b in spans))


def oracle_minmax_unions(mapping, x) -> list:
    """Per row of x: the exact union of a jackknife-minmax mapping's
    leave-one-out components, each family's set at the shared ``tau_hat``."""
    per_family = [sets_at(fam, x, mapping.tau_hat) for fam in mapping.families]
    return [oracle_union(components) for components in zip(*per_family)]


def oracle_score_sets(sets, y, clip=None) -> tuple[int, float]:
    """(in-set count, mean measure) of per-row interval sets, one row at a time.

    Reads each set through its ``lo``/``hi`` or ``parts`` attributes and
    applies the definitions directly: closed intervals, and a length of
    ``hi - lo`` after clipping, 0 when ``hi <= lo``.
    """
    covered = 0
    measures = []
    for pred_set, outcome in zip(sets, y):
        parts = _interval_parts(pred_set)
        covered += oracle_contains(pred_set, outcome)
        total = 0.0
        for a, b in parts:
            if clip is not None:
                a, b = max(a, float(clip[0])), min(b, float(clip[1]))
            total += b - a if b > a else 0.0
        measures.append(total)
    return covered, float(np.mean(measures))


def oracle_label_sets(logit_rows, n_classes: int, tau: float, loss) -> list[tuple[int, ...]]:
    """Sublevel label sets row by row: class c is kept when ``loss(c, row) <= tau``.

    ``loss`` is called once per row and class on a single logit vector, so
    a batched route must reproduce the scalar losses bit for bit to match.
    """
    return [
        tuple(c for c in range(n_classes) if float(loss(c, row)) <= tau)
        for row in np.asarray(logit_rows, dtype=float)
    ]


def oracle_weighted_threshold(scores, test_multiplier, delta: float, u=None) -> float:
    """Supremum of imputed test scores s whose dual multiplier meets the level.

    ``test_multiplier(s)`` is the test coordinate of the unregularized box
    dual with the test score imputed as s. The criterion is
    ``test_multiplier(s) < 1 - delta`` (plain, ``u`` None) or
    ``test_multiplier(s) <= u - delta`` (randomized), read on the shifted
    multiplier ``eta + delta`` in [0, 1]: its box bounds round to exactly 0
    and 1, while a float ``u - delta`` can round onto ``1 - delta``. The
    multiplier is
    constant on each open gap between distinct score atoms, so probing every
    atom and one point inside every gap decides the criterion everywhere: a
    gap where it holds contributes its upper end (``+inf`` past the largest
    atom), an atom where it holds contributes itself, and ``-inf`` is left
    when it holds nowhere.
    """
    atoms = sorted({float(v) for v in scores})

    def holds(s: float) -> bool:
        shifted = test_multiplier(s) + delta
        return shifted < 1.0 if u is None else shifted <= u

    reach = 1.0 + abs(atoms[0]) + abs(atoms[-1])
    inside = ([atoms[0] - reach]
              + [0.5 * (a + b) for a, b in zip(atoms, atoms[1:])]
              + [atoms[-1] + reach])
    gap_ends = atoms + [math.inf]
    best = -math.inf
    for probe, end in zip(inside, gap_ends):
        if holds(probe):
            best = max(best, end)
    for atom in atoms:
        if holds(atom):
            best = max(best, atom)
    return best
