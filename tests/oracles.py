"""Independent reference implementations used to freeze expected values.

Everything here is written against the mathematical definitions with exact
rational index/CDF arithmetic where feasible, deliberately avoiding the
package's own code paths so tests compare two routes to the same answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


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


def oracle_pinball_objective(x_design, y, theta, level: float) -> float:
    """Mean pinball loss of an affine fit; x_design already has the 1 column."""
    r = np.asarray(y, dtype=float) - np.asarray(x_design, dtype=float) @ theta
    return float(np.mean(level * np.clip(r, 0, None) + (1 - level) * np.clip(-r, 0, None)))


def oracle_pinball_vertex_min(x_design, y, level: float) -> float:
    """Best objective over all interpolating vertex candidates.

    A minimizer of the pinball LP sits at a vertex where the fit
    interpolates d = x_design.shape[1] points (generic position), so
    enumerating all d-subsets and keeping the best objective recovers the
    optimal value.
    """
    x_design = np.asarray(x_design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x_design.shape
    best = math.inf
    for rows in itertools.combinations(range(n), d):
        sub = x_design[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        theta = np.linalg.solve(sub, y[list(rows)])
        best = min(best, oracle_pinball_objective(x_design, y, theta, level))
    return best


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


def oracle_score_sets(sets, y, clip=None) -> tuple[int, float]:
    """(in-set count, mean measure) of per-row interval sets, one row at a time.

    Reads each set through its ``lo``/``hi`` or ``parts`` attributes and
    applies the definitions directly: closed intervals, and a length of
    ``hi - lo`` after clipping, 0 when ``hi <= lo``.
    """
    covered = 0
    measures = []
    for pred_set, outcome in zip(sets, y):
        if hasattr(pred_set, "parts"):
            parts = [(p.lo, p.hi) for p in pred_set.parts]
        else:
            parts = [(pred_set.lo, pred_set.hi)]
        covered += any(a <= outcome <= b for a, b in parts)
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


def _box_support(t: Fraction, delta: Fraction) -> Fraction:
    # max of e * t over e in [-delta, 1 - delta]; it is also the pinball loss
    return (1 - delta) * t if t > 0 else -delta * t


def _rational_rows(features):
    return [tuple(Fraction(float(v)) for v in row) for row in np.asarray(features, dtype=float)]


def oracle_test_reach(features, delta: Fraction) -> Fraction:
    """Largest test multiplier over eta in [-delta, 1-delta]^n with features' eta = 0.

    Two feature columns, exact. By LP duality the value is the minimum over
    theta of ``g(1 + phi_t'theta) + sum_i g(phi_i'theta)``, g the box support
    function. That function is convex and piecewise linear, so its minimum
    sits at a vertex of its breakline arrangement: the origin, where the
    lines ``phi_i'theta = 0`` meet, or where ``phi_t'theta = -1`` crosses one.
    """
    *cal, test = _rational_rows(features)

    def dual(th):
        value = _box_support(1 + test[0] * th[0] + test[1] * th[1], delta)
        return value + sum(_box_support(a * th[0] + b * th[1], delta) for a, b in cal)

    candidates = [(Fraction(0), Fraction(0))]
    for a, b in cal:
        det = test[0] * b - test[1] * a
        if det != 0:
            candidates.append((-b / det, a / det))
    return min(dual(th) for th in candidates)


def _vertex_fits(rows, values):
    """theta through every pair of independent rows at zero residual (two columns)."""
    for i, j in itertools.combinations(range(len(rows)), 2):
        (a1, a2), (b1, b2) = rows[i], rows[j]
        det = a1 * b2 - a2 * b1
        if det != 0:
            yield ((values[i] * b2 - a2 * values[j]) / det, (a1 * values[j] - values[i] * b1) / det)


def _pinball_sum(rows, values, theta, delta: Fraction) -> Fraction:
    return sum(_box_support(v - a * theta[0] - b * theta[1], delta)
               for v, (a, b) in zip(values, rows))


def oracle_test_multiplier(scores, features, delta: float, s) -> Fraction:
    """Largest optimal test multiplier of the unregularized dual at imputed score s.

    Two feature columns, exact. The dual's value is the primal value
    ``V(s) = min_theta sum_i rho(S_i - phi_i'theta)`` over all m+1 rows, with
    the test row's score s, and the largest optimal test multiplier is V's
    right derivative. V is piecewise linear and its minimum over theta sits
    at a vertex (two rows at zero residual), so V comes from rational vertex
    enumeration, and its difference quotient over a step of
    ``1e-15 (1 + |s|)`` is the right derivative when no kink lies that close
    above s. Vertices whose float objective lies more than 1e-9 relative
    above the float minimum are skipped before the exact comparison.
    """
    d = Fraction(delta)
    rows = _rational_rows(features)
    s = Fraction(s)

    def value(sv):
        values = [Fraction(float(v)) for v in scores] + [sv]
        fits = list(_vertex_fits(rows, values))
        phi, target = np.asarray(features, dtype=float), np.array([float(v) for v in values])
        resid = target[:, None] - phi @ np.array([[float(t) for t in th] for th in fits]).T
        rough = np.maximum((1 - delta) * resid, -delta * resid).sum(axis=0)
        cut = rough.min() + 1e-9 * (1.0 + abs(rough.min()))
        return min(_pinball_sum(rows, values, th, d) for th, r in zip(fits, rough) if r <= cut)

    step = Fraction(1e-15) * (1 + abs(s))
    return (value(s + step) - value(s)) / step


def oracle_pinned_threshold(scores, features, delta: float, u=None) -> Fraction | float:
    """Weighted threshold for two-column features at ridge 0, in exact rationals.

    The test multiplier is pinned at its level l: ``1 - delta`` (plain, ``u``
    None) or ``u - delta`` (randomized). The criterion holds at every imputed
    score when the largest feasible test multiplier stays below 1 - delta
    (plain) or at most l (randomized), giving ``+inf``; it holds at none when
    the least one reaches 1 - delta (plain) or exceeds l, giving ``-inf``.
    Otherwise the tilted LP ``min sum_i rho(S_i - phi_i'theta) - l phi_t'theta``
    is bounded, and every vertex (two calibration rows at zero residual) is
    enumerated: among the optimal ones the least (plain) or largest
    (randomized) test fit ``phi_t'theta`` is returned as a ``Fraction``.
    """
    d = Fraction(delta)
    top = 1 - d
    level = top if u is None else Fraction(u) - d
    most = oracle_test_reach(features, d)
    # mirroring eta maps the box for delta onto the box for 1 - delta
    least = -oracle_test_reach(features, 1 - d)
    if (most < top) if u is None else (most <= level):
        return math.inf
    if (least >= top) if u is None else (least > level):
        return -math.inf
    *cal, test = _rational_rows(features)
    values = [Fraction(float(v)) for v in scores]
    vertices = []
    for th in _vertex_fits(cal, values):
        fit = test[0] * th[0] + test[1] * th[1]
        vertices.append((_pinball_sum(cal, values, th, d) - level * fit, fit))
    best = min(value for value, _ in vertices)
    fits = [fit for value, fit in vertices if value == best]
    return min(fits) if u is None else max(fits)


def oracle_pinned_kkt(features, scores, delta: float, curv: float, tilt) -> np.ndarray:
    """theta minimizing sum_i rho(S_i - phi_i'theta) + curv/2 |theta|^2 - tilt'theta.

    Enumerates KKT patterns: a held set H of at most k independent rows at
    zero residual, and a sign for every other row, whose multiplier is then
    the matching box end. Each pattern's stationarity system
    ``curv theta = tilt + phi' eta`` with ``phi_H theta = S_H`` is solved,
    and a pattern is kept when its residual signs and held multipliers are
    consistent (within 1e-9). The objective is strictly convex, so every
    kept pattern names the same theta; the lowest objective is returned.
    Exponential in the row count: small inputs only.
    """
    phi = np.asarray(features, dtype=float)
    s = np.asarray(scores, dtype=float)
    n, k = phi.shape
    upper, lower = 1.0 - delta, -delta
    best = None
    for size in range(k + 1):
        for held in itertools.combinations(range(n), size):
            held = list(held)
            rows = phi[held]
            if size and np.linalg.matrix_rank(rows) < size:
                continue
            rest = [i for i in range(n) if i not in held]
            for signs in itertools.product((upper, lower), repeat=len(rest)):
                pull = tilt + phi[rest].T @ np.array(signs, dtype=float).reshape(-1)
                lam = np.linalg.solve(rows @ rows.T, curv * s[held] - rows @ pull)
                theta = (pull + rows.T @ lam) / curv
                resid = s[rest] - phi[rest] @ theta
                slack = 1e-9 * (1.0 + np.abs(s[rest]))
                if ((lam < lower - 1e-9) | (lam > upper + 1e-9)).any():
                    continue
                if any((e == upper and r < -sl) or (e == lower and r > sl)
                       for e, r, sl in zip(signs, resid, slack)):
                    continue
                r = s - phi @ theta
                value = (np.sum(np.maximum(upper * r, lower * r)) + 0.5 * curv * theta @ theta
                         - tilt @ theta)
                if best is None or value < best[0]:
                    best = (value, theta)
    return best[1]
