"""Base predictors: ridge with exact LOOCV, pinball (quantile) fits, softmax.

These are the plug-in model fitters the confidence constructions wrap.
Every fit is deterministic given its inputs; no randomness enters here.
scipy is imported inside the LP and softmax routes, so ridge-only runs
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mecp.quantiles import check_nonnegative, check_prob

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "FitError",
    "PinballModel",
    "RidgeModel",
    "SoftmaxModel",
    "fit_pinball",
    "fit_ridge",
    "fit_ridge_leave_one_out",
    "fit_softmax",
    "highs_lp",
    "multiclass_loss",
    "pinball_lp",
    "predict_logits",
    "predict_ridge",
]

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(10.0**j for j in range(-4, 5))

# relative eigenvalue cutoff below which normal equations count as singular
_SINGULAR_RTOL = 1e-12
# a penalty whose smallest leave-one-out denominator 1 - h_ii reaches this is unusable
_LEVERAGE_FLOOR = 1e-10
# HiGHS primal and dual feasibility tolerance of the pinball LP
_PINBALL_TOLERANCE = 1e-8


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


def _penalties(lambda_grid) -> list[float]:
    """The checked penalties of ``lambda_grid`` in ascending order."""
    grid = sorted(check_nonnegative(l, "lambda_grid") for l in lambda_grid)
    if not grid:
        raise ValueError("lambda_grid must be nonempty")
    return grid


def _select_ridge(grid, s, v, zy, x_mean, y_mean, scan) -> RidgeModel:
    """The penalty rules both ridge routes share, applied to one centred fit.

    ``grid`` is :func:`_penalties`, ``V diag(s) V^T`` the centred Gram matrix
    and ``zy = V^T x_c^T y_c``; ``scan(inv)`` maps the (p, L) inverse shifted
    spectra of L penalties to their leave-one-out errors and least ``1 - h_ii``.
    """

    def mse_at(lams: list[float]) -> tuple[np.ndarray, np.ndarray]:
        shifted = s[:, None] + np.asarray(lams)
        top = shifted.max(axis=0, initial=1.0)
        singular = shifted.min(axis=0, initial=np.inf) <= _SINGULAR_RTOL * top
        mse, denom_min = scan(1.0 / np.where(singular, 1.0, shifted))
        mse[singular | (denom_min <= _LEVERAGE_FLOOR)] = math.inf
        return mse, singular

    mse, singular = mse_at(grid)
    singular_zero = bool(singular[np.asarray(grid) == 0.0].any())
    table = list(zip(grid, mse.tolist()))
    if np.isfinite(mse).any():
        lam = grid[int(np.argmin(mse))]
    elif singular_zero and grid[-1] == 0.0:
        lam = min(DEFAULT_LAMBDA_GRID)
        mse_fb, _ = mse_at([lam])
        if not math.isfinite(mse_fb[0]):
            raise FitError("ridge fallback penalty also unusable", lam=lam)
        table.append((lam, float(mse_fb[0])))
    else:
        raise FitError("no usable penalty in grid", grid=tuple(grid))
    coef = v @ (zy / (s + lam))
    return RidgeModel(coef=coef, intercept=y_mean - float(x_mean @ coef), lam=lam,
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
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    s, v = np.linalg.eigh(xc.T @ xc)
    z = xc @ v
    zy = z.T @ yc

    def scan(inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        denom = 1.0 - (1.0 / n + (z * z) @ inv)
        loo = (yc[:, None] - z @ (zy[:, None] * inv)) / np.maximum(denom, _LEVERAGE_FLOOR)
        return np.einsum("ij,ij->j", loo, loo) / n, denom.min(axis=0)

    return _select_ridge(_penalties(lambda_grid), s, v, zy, x_mean, y_mean, scan)


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
    sizes = np.asarray(sizes, dtype=int)
    if sizes.ndim != 1 or (sizes < 1).any() or sizes.sum() != len(y):
        raise ValueError("sizes must be positive block sizes summing to the row count")
    m, p, grid = len(sizes), x.shape[1], _penalties(lambda_grid)
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

    models = []
    for i in range(m):
        n = len(y) - sizes[i]
        if n < 2:
            raise FitError("ridge LOOCV needs n >= 2", left_out=i)
        a, b = starts[i], starts[i + 1]
        zt = bases[i].T @ (np.concatenate((x[:a], x[b:])) - mu[i, :p]).T
        yc = np.concatenate((y[:a], y[b:])) - mu[i, p]
        zy = zt @ yc

        def scan(inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            denom = 1.0 - (1.0 / n + inv.T @ (zt * zt))
            loo = (yc - (inv * zy[:, None]).T @ zt) / np.maximum(denom, _LEVERAGE_FLOOR)
            return np.einsum("ij,ij->i", loo, loo) / n, denom.min(axis=1)

        try:
            models.append(_select_ridge(grid, spectra[i], bases[i], zy, mu[i, :p],
                                        float(mu[i, p]), scan))
        except FitError as err:
            raise FitError(str(err), **err.details, left_out=i) from err
    return models


def predict_ridge(model: RidgeModel, x) -> np.ndarray | float:
    return model.predict(x)


@dataclass(frozen=True)
class PinballModel:
    """Affine quantile fit; ``theta`` stacks (intercept, coefficients)."""

    theta: np.ndarray
    level: float

    def predict(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.theta[0] + x @ self.theta[1:])
        return self.theta[0] + x @ self.theta[1:]


def highs_lp(c, bounds, tolerance: float, **constraints):
    """scipy's HiGHS ``linprog`` result with ``tolerance`` as the primal and
    dual feasibility tolerance, importing scipy on the first LP."""
    from scipy.optimize import linprog

    return linprog(c, bounds=bounds, method="highs", **constraints,
                   options={"primal_feasibility_tolerance": tolerance,
                            "dual_feasibility_tolerance": tolerance})


def pinball_lp(design: np.ndarray, target: np.ndarray, weights: tuple[float, float],
               tolerance: float, tilt=0.0, face=None):
    """HiGHS result of min mean(weights[0] u+ + weights[1] u-) - tilt'theta / n
    subject to design @ theta + u+ - u- = target, theta (``res.x[:d]``) free,
    u+- >= 0. ``face = (g, bound)`` minimizes g'theta instead, over the
    points whose objective is at most ``bound``."""
    n, d = design.shape
    c = np.concatenate([np.zeros(d) - tilt / n, np.full(n, weights[0] / n), np.full(n, weights[1] / n)])
    a_eq = np.hstack([design, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * d + [(0, None)] * (2 * n)
    if face is None:
        return highs_lp(c, bounds, tolerance, A_eq=a_eq, b_eq=target)
    return highs_lp(np.concatenate([face[0], np.zeros(2 * n)]), bounds, tolerance,
                    A_ub=c[None, :], b_ub=[face[1]], A_eq=a_eq, b_eq=target)


def fit_pinball(x, y, level: float) -> PinballModel:
    """Minimize mean pinball loss over affine functions via an exact LP.

    The loss on residual r = y - f(x) is
    ``level * max(r, 0) + (1 - level) * max(-r, 0)``, so ``level`` is the
    quantile being estimated.  The solver (HiGHS) is deterministic; a
    non-optimal exit raises :class:`FitError` with the solver status.
    """
    level = check_prob(level, "level")
    xt = _design(x)
    n, d = xt.shape
    y = _check_outcomes(y, n)
    res = pinball_lp(xt, y, (level, 1 - level), _PINBALL_TOLERANCE)
    if res.status != 0:
        raise FitError("pinball LP did not reach optimality",
                       status=res.status, message=res.message, objective=res.fun)
    return PinballModel(theta=res.x[:d], level=level)


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


def predict_logits(model: SoftmaxModel, x) -> np.ndarray:
    return model.logits(x)


def multiclass_loss(y, logits) -> np.ndarray | float:
    """log(sum_i exp(v_i - v_y)), stabilized through log-sum-exp.

    Shift-invariant in the logits.  Accepts a single logit vector with an
    integer label, or an (n, k) batch with an (n,) label array.
    """
    from scipy.special import logsumexp

    v = np.asarray(logits, dtype=float)
    if v.ndim == 1:
        return float(logsumexp(v) - v[int(y)])
    labels = np.asarray(y, dtype=int)
    return logsumexp(v, axis=1) - v[np.arange(v.shape[0]), labels]


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
    from scipy.special import softmax

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
        probs = softmax(xt @ w.T, axis=1)
        grad = (probs - onehot).T @ xt / n
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tolerance:
            return SoftmaxModel(weights=w)
        w = w - step_schedule * grad
        loss = float(np.mean(multiclass_loss(labels, xt @ w.T)))
        if not math.isfinite(loss) or loss > 10.0 * loss0 + 10.0:
            raise FitError("softmax descent diverged", iteration=t, loss=loss, grad_norm=gnorm)
    raise FitError("softmax descent did not converge", iterations=max_iter, grad_norm=gnorm)
