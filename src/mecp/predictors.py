"""Base predictors: ridge with exact LOOCV, and softmax.

These are the plug-in model fitters the confidence constructions wrap.
Every fit is deterministic given its inputs; no randomness enters here.
Everything is numpy: the softmax's log-sum-exp follows scipy's arithmetic
without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mecp.quantiles import check_nonnegative

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "FitError",
    "RidgeModel",
    "SoftmaxModel",
    "fit_ridge",
    "fit_ridge_leave_one_out",
    "fit_softmax",
    "multiclass_loss",
]

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(10.0**j for j in range(-4, 5))

# relative eigenvalue cutoff below which normal equations count as singular
_SINGULAR_RTOL = 1e-12
# a penalty whose smallest leave-one-out denominator 1 - h_ii reaches this is unusable
_LEVERAGE_FLOOR = 1e-10


class FitError(RuntimeError):
    """A model fit failed; ``details`` carries solver diagnostics."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


def _features(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("x must be a nonempty (n, p) array")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def _design(x) -> np.ndarray:
    x = _features(x)
    return np.column_stack([np.ones(x.shape[0]), x])


def _check_outcomes(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError("y must be (n,) matching x")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    return y


@dataclass(frozen=True)
class RidgeModel:
    """Affine ridge fit with an unpenalized intercept.

    ``loocv_mse`` maps each candidate penalty to its exact leave-one-out
    mean squared error (``inf`` marks candidates that were unusable);
    ``singular_fallback`` is set when lambda=0 was requested but its normal
    equations were singular.
    """

    coef: np.ndarray
    intercept: float
    lam: float
    loocv_mse: tuple[tuple[float, float], ...]
    singular_fallback: bool = False

    def predict(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.coef + self.intercept)
        return x @ self.coef + self.intercept


def _screen(spectra: np.ndarray, lambda_grid) -> tuple[list[float], list[tuple]]:
    """The checked penalties of ``lambda_grid``, ascending, screened on m spectra (m, p): per
    fit, the singular mask (L,) and scan rows ``[-1 / (s + lambda), 1]``, 1 where singular."""
    grid = sorted(check_nonnegative(l, "lambda_grid") for l in lambda_grid)
    if not grid:
        raise ValueError("lambda_grid must be nonempty")
    shifted = spectra[:, None, :] + np.asarray(grid)[:, None]
    top = shifted.max(axis=2, initial=1.0)
    singular = shifted.min(axis=2, initial=np.inf) <= _SINGULAR_RTOL * top
    lead = np.ones((len(spectra), len(grid), spectra.shape[1] + 1))
    np.divide(-1.0, np.where(singular[:, :, None], 1.0, shifted), out=lead[:, :, :-1])
    return grid, list(zip(singular, lead))


def _select_ridge(grid, screen, s, v, zt, yc, mean) -> RidgeModel:
    """The penalty rules both ridge routes share, applied to one centred fit.

    ``grid, [screen]`` is the :func:`_screen` for the centred Gram matrix ``V diag(s) V^T``,
    ``zt = V^T x_c^T`` and ``mean`` the means of x and then y. With ``zy = zt @ y_c``, a scan
    takes the (L, n) hat denominators ``lead @ [Z^2; 1 - 1/n]`` and leave-one-out residuals
    ``(lead * [zy; 1]) @ [Z; y_c]`` from one matrix product each.
    """
    n = zt.shape[1]
    zy = zt @ yc
    fused = np.concatenate((zt, yc[None]))
    squares = np.square(fused)
    squares[-1] = 1.0 - 1.0 / n

    def scan(singular: np.ndarray, lead: np.ndarray) -> list[float]:
        denom = lead @ squares
        loo = (lead * np.concatenate((zy, [1.0]))) @ fused
        unusable = singular | (denom.min(axis=1) <= _LEVERAGE_FLOOR)
        if unusable.any():  # clamp only when some penalty is unusable
            np.maximum(denom, _LEVERAGE_FLOOR, out=denom)
        loo /= denom
        mse = np.einsum("ij,ij->i", loo, loo) / n
        mse[unusable] = math.inf
        return mse.tolist()

    singular_zero = grid[0] == 0.0 and bool(screen[0][0])
    table = list(zip(grid, scan(*screen)))
    lam, best = min(table, key=lambda row: row[1])
    if not math.isfinite(best):
        if not singular_zero or grid[-1] != 0.0:
            raise FitError("no usable penalty in grid", grid=tuple(grid))
        lam = min(DEFAULT_LAMBDA_GRID)
        (best,) = scan(*_screen(s[None], [lam])[1][0])
        if not math.isfinite(best):
            raise FitError("ridge fallback penalty also unusable", lam=lam)
        table.append((lam, best))
    coef = v @ (zy / (s + lam))
    return RidgeModel(coef=coef, intercept=float(mean[-1]) - float(mean[:-1] @ coef), lam=lam,
                      loocv_mse=tuple(table), singular_fallback=singular_zero)


def fit_ridge(x, y, lambda_grid=DEFAULT_LAMBDA_GRID) -> RidgeModel:
    """Ridge regression choosing the penalty by exact leave-one-out error.

    Centring ``x`` and ``y`` absorbs the unpenalized intercept, so one
    eigendecomposition ``V diag(s) V^T`` of the p x p centred Gram matrix
    serves the whole grid. With ``Z = x_c V``, the hat diagonal at penalty
    lambda is ``1/n + sum_k Z_ik^2 / (s_k + lambda)`` and the leave-one-out
    residual is ``r_i / (1 - h_ii)`` (Golub, Heath & Wahba 1979). A penalty
    is singular when ``s_min + lambda`` is at most ``_SINGULAR_RTOL`` times
    ``max(s_max + lambda, 1)``; the penalized centred Gram matrix is the
    intercept's Schur complement in the augmented normal equations, so both
    are singular together. A penalty is unusable, with ``inf`` error, when
    some ``1 - h_ii`` falls to 1e-10 or below.

    Parameters
    ----------
    x, y : arrays of shape (n, p) and (n,), n >= 2.
    lambda_grid : iterable of nonnegative penalties.
        Scanned in ascending order; ties in LOOCV error keep the smaller
        penalty.  A singular lambda=0 candidate is dropped and flagged; if
        the grid has no positive entry, the smallest value of the default
        grid is used as a last resort.
    """
    x = _features(x)
    n = x.shape[0]
    y = _check_outcomes(y, n)
    if n < 2:
        raise ValueError("ridge LOOCV needs n >= 2")
    mean = np.append(x.mean(axis=0), y.mean())
    xc = x - mean[:-1]
    yc = y - mean[-1]
    s, v = np.linalg.eigh(xc.T @ xc)
    z = xc @ v
    grid, (screen,) = _screen(s[None], lambda_grid)
    return _select_ridge(grid, screen, s, v, z.T, yc, mean)


def fit_ridge_leave_one_out(x, y, sizes, lambda_grid=DEFAULT_LAMBDA_GRID) -> list[RidgeModel]:
    """Model i is :func:`fit_ridge` on every block of rows but block i, all in one pass.

    The rows form consecutive blocks of the given ``sizes``. Each block's
    means and scatter about its own mean are formed once. Refit i's centred
    Gram matrix is the prefix plus suffix sum of the other blocks' scatters
    plus ``sum_{j != i} n_j (m_j - mu)(m_j - mu)^T`` about the refit's mean
    ``mu``: nothing is subtracted, so a block far from the others costs the
    refits without it no precision. A failed refit, fewer than two kept rows
    included, raises :class:`FitError` with ``left_out=i``.
    """
    x = _features(x)
    y = _check_outcomes(y, x.shape[0])
    if np.ndim(sizes) != 1 or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                                      and k > 0 for k in sizes) or sum(sizes) != len(y):
        raise ValueError("sizes must be positive block sizes summing to the row count")
    sizes = np.asarray(sizes, dtype=int)
    short = np.flatnonzero(len(y) - sizes < 2)
    if short.size:
        raise FitError("ridge LOOCV needs n >= 2", left_out=int(short[0]))
    m, p = len(sizes), x.shape[1]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    means = np.add.reduceat(np.column_stack([x, y]), starts[:-1]) / sizes[:, None]
    dev = x - np.repeat(means[:, :p], sizes, axis=0)
    scatter = np.add.reduceat(dev[:, :, None] * dev[:, None, :], starts[:-1])
    zero = np.zeros((1, p, p))
    within = np.cumsum(np.concatenate((zero, scatter[:-1])), axis=0)
    within += np.cumsum(np.concatenate((zero, scatter[:0:-1])), axis=0)[::-1]
    weights = np.where(np.eye(m, dtype=bool), 0.0, sizes.astype(float))
    mu = weights @ means / weights.sum(axis=1)[:, None]
    gap = means[None, :, :p] - mu[:, None, :p]
    spectra, bases = np.linalg.eigh(within + np.einsum("ij,ijk,ijl->ikl", weights, gap, gap))
    grid, screens = _screen(spectra, lambda_grid)
    rows = np.vstack((x.T, y))

    models = []
    for i in range(m):
        kept = np.concatenate((rows[:, :starts[i]], rows[:, starts[i + 1]:]), axis=1)
        kept -= mu[i, :, None]
        try:
            models.append(_select_ridge(grid, screens[i], spectra[i], bases[i],
                                        bases[i].T @ kept[:p], kept[p], mu[i]))
        except FitError as err:
            raise FitError(str(err), **err.details, left_out=i) from err
    return models


@dataclass(frozen=True)
class SoftmaxModel:
    """Multinomial logit weights, one (intercept, coefficients) row per class."""

    weights: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xt = np.column_stack([np.ones(1 if single else x.shape[0]), np.atleast_2d(x)])
        out = xt @ self.weights.T
        return out[0] if single else out


def _log_sum_exp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis, in scipy.special.logsumexp's arithmetic.

    The row max's m tied entries leave the sum: the result is
    ``log1p(rest / m) + log(m) + max``, ``rest`` summing ``exp(v - max)``
    over the other entries. A row whose max is not finite gives that max
    (NaN for a row holding one), with no warning.
    """
    top = v.max(axis=-1, keepdims=True)
    at_top = v == top
    ties = at_top.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.where(at_top, 0.0, np.exp(v - top)).sum(axis=-1, keepdims=True)
        return (np.log1p(rest / ties) + np.log(ties) + top)[..., 0]


def _softmax(v: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, shifted by the row max as scipy.special.softmax is."""
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def multiclass_loss(y, logits) -> np.ndarray | float:
    """log(sum_i exp(v_i - v_y)), stabilized through log-sum-exp.

    Shift-invariant in the logits.  Accepts a single logit vector with an
    integer label, or an (n, k) batch with an (n,) label array.
    """
    v = np.asarray(logits, dtype=float)
    if v.ndim == 1:
        return float(_log_sum_exp(v) - v[int(y)])
    labels = np.asarray(y, dtype=int)
    return _log_sum_exp(v) - v[np.arange(v.shape[0]), labels]


def fit_softmax(
    x,
    y,
    n_classes: int,
    step_schedule: float = 1.0,
    tolerance: float = 1e-6,
    max_iter: int = 20_000,
) -> SoftmaxModel:
    """Fit multinomial logits by full-batch gradient descent.

    Runs until the Frobenius norm of the mean-loss gradient drops below
    ``tolerance``.  Divergence (non-finite or exploding loss) and hitting
    ``max_iter`` both raise :class:`FitError` with diagnostics.
    """
    xt = _design(x)
    n = xt.shape[0]
    labels = np.asarray(y)
    if labels.shape != (n,):
        raise ValueError("y must be (n,) matching x")
    labels = labels.astype(int)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")

    w = np.zeros((n_classes, xt.shape[1]))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    loss0 = float(np.mean(multiclass_loss(labels, xt @ w.T)))
    for t in range(max_iter):
        probs = _softmax(xt @ w.T)
        grad = (probs - onehot).T @ xt / n
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tolerance:
            return SoftmaxModel(weights=w)
        w = w - step_schedule * grad
        loss = float(np.mean(multiclass_loss(labels, xt @ w.T)))
        if not math.isfinite(loss) or loss > 10.0 * loss0 + 10.0:
            raise FitError("softmax descent diverged", iteration=t, loss=loss, grad_norm=gnorm)
    raise FitError("softmax descent did not converge", iterations=max_iter, grad_norm=gnorm)
