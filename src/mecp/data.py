"""Multi-environment datasets: containers, CSV round-trip, synthetic generator.

An environment is a batch of observations sharing one data-generating
context (a hospital, a site, a recording session).  Environments are the
exchangeable units everywhere in this package; observations are only
assumed exchangeable within their environment.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, replace

import numpy as np

from mecp.quantiles import check_nonnegative, check_prob, check_real, check_reals

__all__ = [
    "EnvironmentSample",
    "EnvSplit",
    "HierGenConfig",
    "MultiEnvDataset",
    "ParseError",
    "check_integer",
    "generate_hierarchical",
    "holdout_labels",
    "load_csv",
    "split_environments",
    "write_csv",
]


class ParseError(ValueError):
    """CSV parsing failure; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class EnvironmentSample:
    """Observations from a single environment: features (n, p), outcomes (n,)."""

    env_id: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y)
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
            raise ValueError(f"environment {self.env_id!r}: x must be (n, p) with n, p >= 1")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(f"environment {self.env_id!r}: y must be (n,) matching x")
        if not np.isfinite(x).all() or not np.isfinite(y.astype(float)).all():
            raise ValueError(f"environment {self.env_id!r}: values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class MultiEnvDataset:
    """A collection of environments with a shared feature dimension."""

    environments: tuple[EnvironmentSample, ...]
    outcome: str = "regression"
    n_classes: int | None = None

    def __post_init__(self) -> None:
        envs = tuple(self.environments)
        if not envs:
            raise ValueError("a dataset needs at least one environment")
        p = envs[0].p
        if any(e.p != p for e in envs):
            raise ValueError("all environments must share the feature dimension")
        ids = [e.env_id for e in envs]
        if len(set(ids)) != len(ids):
            raise ValueError("environment ids must be unique")
        if self.outcome == "classification":
            k = self.n_classes
            if k is None or k < 2:
                raise ValueError("classification datasets need n_classes >= 2")
            for e in envs:
                labels = e.y
                if not np.array_equal(labels, labels.astype(int)):
                    raise ValueError(f"environment {e.env_id!r}: labels must be integers")
                if labels.min() < 0 or labels.max() >= k:
                    raise ValueError(f"environment {e.env_id!r}: labels outside [0, {k})")
        elif self.outcome != "regression":
            raise ValueError(f"unknown outcome kind {self.outcome!r}")
        object.__setattr__(self, "environments", envs)

    @property
    def m(self) -> int:
        return len(self.environments)

    @property
    def p(self) -> int:
        return self.environments[0].p

    def subset(self, indices) -> "MultiEnvDataset":
        """Dataset restricted to the given environment indices, in order."""
        envs = tuple(self.environments[i] for i in indices)
        return replace(self, environments=envs)


def check_integer(value, name: str) -> int:
    """``value`` as an int, after checking that it is an integer and not a bool.

    Floats are refused rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class HierGenConfig:
    """Synthetic hierarchical regression generator settings.

    Each environment i draws its own coefficient shift
    theta_i ~ N(0, env_effect_scale^2 I) and noise level
    sigma_i = noise_scale, inflated by outlier_noise_multiplier with
    probability outlier_frac.  Observations are
    y = x @ (beta + theta_i) + sigma_i * eps with standard normal x, eps.
    """

    m: int
    n_per_env: int | tuple[int, int]
    p: int
    beta: tuple[float, ...] | None = None
    env_effect_scale: float = 1.0
    noise_scale: float = 1.0
    outlier_frac: float = 0.0
    outlier_noise_multiplier: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        m = check_integer(self.m, "m")
        p = check_integer(self.p, "p")
        if m < 1 or p < 1:
            raise ValueError("m and p must be positive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        n = self.n_per_env
        if np.ndim(n) == 1 and len(n) == 2:
            lo, hi = (check_integer(v, "n_per_env range end") for v in n)
            if lo < 1 or hi < lo:
                raise ValueError("n_per_env range must satisfy 1 <= lo <= hi")
            object.__setattr__(self, "n_per_env", (lo, hi))
        else:
            n = check_integer(n, "n_per_env")
            if n < 1:
                raise ValueError("n_per_env must be >= 1")
            object.__setattr__(self, "n_per_env", n)
        if self.beta is not None:
            beta = check_reals(self.beta, "beta")
            if len(beta) != self.p:
                raise ValueError("beta must have length p")
            object.__setattr__(self, "beta", beta)
        for name in ("env_effect_scale", "noise_scale"):
            object.__setattr__(self, name, check_nonnegative(getattr(self, name), name))
        for name in ("outlier_frac", "outlier_noise_multiplier"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not 0.0 <= self.outlier_frac <= 1.0:
            raise ValueError("outlier_frac must lie in [0, 1]")
        if self.outlier_noise_multiplier <= 0:
            raise ValueError("outlier_noise_multiplier must be positive")
        seed = check_integer(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        object.__setattr__(self, "seed", seed)

    def resolved_beta(self) -> np.ndarray:
        if self.beta is None:
            return np.ones(self.p)
        return np.asarray(self.beta, dtype=float)


def generate_hierarchical(cfg: HierGenConfig) -> MultiEnvDataset:
    """Draw a synthetic dataset; identical seeds give bit-identical output.

    Per environment the draw order is fixed: size (if ranged), coefficient
    shift, outlier flag, features, noise.
    """
    rng = np.random.default_rng(cfg.seed)
    beta = cfg.resolved_beta()
    envs = []
    for i in range(cfg.m):
        if isinstance(cfg.n_per_env, int):
            n = cfg.n_per_env
        else:
            lo, hi = cfg.n_per_env
            n = int(rng.integers(lo, hi + 1))
        theta = rng.normal(0.0, cfg.env_effect_scale, size=cfg.p)
        outlier = rng.random() < cfg.outlier_frac
        sigma = cfg.noise_scale * (cfg.outlier_noise_multiplier if outlier else 1.0)
        x = rng.standard_normal((n, cfg.p))
        eps = rng.standard_normal(n)
        y = x @ (beta + theta) + sigma * eps
        envs.append(EnvironmentSample(f"env{i}", x, y))
    return MultiEnvDataset(tuple(envs))


@dataclass(frozen=True)
class EnvSplit:
    """Disjoint environment index sets for fit (d1) and calibration (d2)."""

    d1: tuple[int, ...]
    d2: tuple[int, ...]


def split_environments(dataset: MultiEnvDataset, gamma: float, rng: np.random.Generator) -> EnvSplit:
    """Uniformly random split with |d1| = round-half-up(gamma * m).

    Both sides must be nonempty; indices are returned sorted.
    """
    gamma = check_prob(gamma, "gamma")
    m = dataset.m
    size1 = int(np.floor(gamma * m + 0.5))
    if size1 < 1 or size1 > m - 1:
        raise ValueError(f"split of {m} environments at gamma={gamma} leaves an empty side")
    perm = rng.permutation(m)
    return EnvSplit(
        d1=tuple(sorted(int(i) for i in perm[:size1])),
        d2=tuple(sorted(int(i) for i in perm[size1:])),
    )


def holdout_labels(sample: EnvironmentSample, count: int, rng: np.random.Generator):
    """Uniformly choose ``count`` labeled rows; returns sorted (labeled, rest) index arrays."""
    if not 1 <= count < sample.n:
        raise ValueError(f"holdout count must satisfy 1 <= count < {sample.n}, got {count}")
    labeled = np.sort(rng.choice(sample.n, size=count, replace=False))
    mask = np.ones(sample.n, dtype=bool)
    mask[labeled] = False
    return labeled, np.flatnonzero(mask)


def _format_value(v: float) -> str:
    return repr(float(v))


def write_csv(dataset: MultiEnvDataset, path) -> None:
    """Write ``env_id,y,x_1,...,x_p`` rows, one block per environment.

    Floats are written with full round-trip precision so a load after a
    write reproduces the arrays bit for bit.
    """
    header = ["env_id", "y"] + [f"x_{j}" for j in range(1, dataset.p + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for env in dataset.environments:
            for yi, xi in zip(env.y, env.x):
                writer.writerow([env.env_id, _format_value(yi)] + [_format_value(v) for v in xi])


def load_csv(path, outcome: str = "regression", n_classes: int | None = None) -> MultiEnvDataset:
    """Load a ``env_id,y,x_1,...,x_p`` file, grouping rows by environment.

    Environments keep their first-appearance order and rows keep file
    order.  Malformed input raises :class:`ParseError` with the offending
    line number.
    """
    groups: dict[str, list[tuple[float, list[float]]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        if len(header) < 3 or header[0] != "env_id" or header[1] != "y":
            raise ParseError("header must be env_id,y,x_1,...,x_p", 1)
        p = len(header) - 2
        if header[2:] != [f"x_{j}" for j in range(1, p + 1)]:
            raise ParseError("header must be env_id,y,x_1,...,x_p", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 2:
                raise ParseError(f"expected {p + 2} fields, got {len(row)}", lineno)
            env_id = row[0]
            if not env_id:
                raise ParseError("empty env_id", lineno)
            try:
                y = float(row[1])
                xs = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", lineno) from None
            groups.setdefault(env_id, []).append((y, xs))
    if not groups:
        raise ParseError("no data rows", 2)
    envs = []
    for env_id, rows in groups.items():
        y = np.array([r[0] for r in rows])
        x = np.array([r[1] for r in rows])
        if outcome == "classification":
            if not np.array_equal(y, y.astype(int)):
                raise ValueError(f"environment {env_id!r}: labels must be integers")
            y = y.astype(int)
        envs.append(EnvironmentSample(env_id, x, y))
    return MultiEnvDataset(tuple(envs), outcome=outcome, n_classes=n_classes)
