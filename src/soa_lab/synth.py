"""Synthetic data generators with known ground truth.

Choices are drawn by inverse-CDF sampling from the exact logit
probabilities (one uniform per observation), not by Gumbel-max, so the
number of random draws per dataset is deterministic and seeds reproduce
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model_core import Dataset, log_softmax, utilities

COVARIATE_LAWS = ("standard_normal", "uniform_0_1")


@dataclass
class MnlDgpConfig:
    """Fixed-coefficient logit data-generating process."""

    N: int
    J: int
    K: int
    beta_star: np.ndarray
    covariate_law: str = "standard_normal"
    seed: int = 0

    def __post_init__(self):
        if min(self.N, self.J, self.K) < 1:
            raise InvalidInputError("N, J, K must all be >= 1")
        if self.covariate_law not in COVARIATE_LAWS:
            raise InvalidInputError(f"unknown covariate law {self.covariate_law!r}")
        self.beta_star = np.asarray(self.beta_star, dtype=float)
        if self.beta_star.shape != (self.K,):
            raise InvalidInputError("beta_star length must equal K")
        if not np.all(np.isfinite(self.beta_star)):
            raise InvalidInputError("beta_star must be finite")


@dataclass
class MmnlDgpConfig:
    """Normal-mixing panel logit process: beta_n ~ N(mu_star, sigma_star)."""

    N: int
    T: int
    J: int
    K: int
    mu_star: np.ndarray
    sigma_star: np.ndarray
    covariate_law: str = "standard_normal"
    seed: int = 0

    def __post_init__(self):
        if min(self.N, self.T, self.J, self.K) < 1:
            raise InvalidInputError("N, T, J, K must all be >= 1")
        if self.covariate_law not in COVARIATE_LAWS:
            raise InvalidInputError(f"unknown covariate law {self.covariate_law!r}")
        self.mu_star = np.asarray(self.mu_star, dtype=float)
        self.sigma_star = np.asarray(self.sigma_star, dtype=float)
        if self.mu_star.shape != (self.K,):
            raise InvalidInputError("mu_star length must equal K")
        if self.sigma_star.shape != (self.K, self.K):
            raise InvalidInputError("sigma_star must be K x K")
        if not (np.all(np.isfinite(self.mu_star))
                and np.all(np.isfinite(self.sigma_star))):
            raise InvalidInputError("mu_star and sigma_star must be finite")
        if not np.allclose(self.sigma_star, self.sigma_star.T, atol=1e-12):
            raise InvalidInputError("sigma_star must be symmetric")
        if np.min(np.linalg.eigvalsh(self.sigma_star)) <= 0.0:
            raise InvalidInputError("sigma_star must be positive-definite")


def _draw_covariates(rng: np.random.Generator, law: str, shape) -> np.ndarray:
    if law == "standard_normal":
        return rng.standard_normal(shape)
    return rng.random(shape)


def draw_choices(rng: np.random.Generator, X: np.ndarray,
                 beta_rows: np.ndarray) -> np.ndarray:
    """One inverse-CDF choice draw per observation of an (n, J, K) attribute
    array, from one ``rng.random(n)`` call.

    ``beta_rows`` carries one coefficient vector per observation (rows are
    repeated per individual for panels), or one (1, K) for them all.
    """
    P = np.exp(log_softmax(utilities(X, beta_rows), axis=1))
    cum = np.cumsum(P, axis=1)
    u = rng.random(X.shape[0])
    # searchsorted per row: first index with cumulative probability > u.
    chosen = (u[:, None] >= cum).sum(axis=1)
    return np.minimum(chosen, X.shape[1] - 1)


def generate_mnl(config: MnlDgpConfig) -> Dataset:
    """Simulate a cross-sectional logit dataset at the true beta."""
    rng = np.random.default_rng(config.seed)
    X = _draw_covariates(rng, config.covariate_law, (config.N, config.J, config.K))
    chosen = draw_choices(rng, X, config.beta_star[None])
    return Dataset.from_arrays(X, chosen)


def generate_mmnl(config: MmnlDgpConfig) -> tuple[Dataset, np.ndarray]:
    """Simulate a panel dataset with normally mixed coefficients.

    Returns the dataset and the (N, K) matrix of true individual
    coefficients — the latter is for diagnostics only and is never an input
    to any estimator.
    """
    rng = np.random.default_rng(config.seed)
    L = np.linalg.cholesky(config.sigma_star)
    beta_n = config.mu_star + rng.standard_normal((config.N, config.K)) @ L.T
    n_obs = config.N * config.T
    X = _draw_covariates(rng, config.covariate_law, (n_obs, config.J, config.K))
    individual = np.repeat(np.arange(config.N), config.T)
    chosen = draw_choices(rng, X, beta_n[individual])
    return Dataset.from_arrays(X, chosen, individual), beta_n
