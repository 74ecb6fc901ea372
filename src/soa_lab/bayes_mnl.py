"""Bayesian inference for the fixed-coefficient logit.

Two complementary tools: exact grid posteriors (dimension 1 or 2) used as
oracles for marginal likelihoods and KL divergences between the full-set
and sampled-set posteriors, and a random-walk Metropolis sampler for
ordinary posterior simulation.  Both evaluate the same prepared choice
likelihood (:class:`~soa_lab.mle.ChoiceArrays`), so the sampled-set
variants inherit the correction-mode semantics of the quasi likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (InsufficientDrawsError, InvalidInputError,
                     UnsupportedDimensionError)
from .grids import GridSpec, log_trapezoid
from .mle import ChoiceArrays
from .model_core import Dataset
from .protocols import seeded_streams

MIN_SUMMARY_DRAWS = 100
_DOUBLING_TOL = 1e-6
_ADAPT_TARGET = 0.3
_ADAPT_WINDOW = 50


@dataclass
class Prior:
    """Multivariate normal prior over the utility coefficients."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.covariance = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        k = self.mean.shape[0]
        if self.covariance.shape != (k, k):
            raise InvalidInputError("prior covariance must be K x K")
        if not (np.all(np.isfinite(self.mean))
                and np.all(np.isfinite(self.covariance))):
            raise InvalidInputError("prior mean and covariance must be finite")
        try:
            self._chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("prior covariance must be PD") from exc

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_density(self, beta: np.ndarray) -> np.ndarray | float:
        """Log density at one point (K,) or a batch (P, K)."""
        return mvn_log_density(beta, self.mean, self._chol)


def mvn_log_density(beta: np.ndarray, mean: np.ndarray,
                    chol: np.ndarray) -> np.ndarray | float:
    """Log density of N(mean, chol chol') at one point (K,) or a batch (P, K).

    The Cholesky solve is a forward substitution done elementwise over the
    batch, so a row gets the same bits alone as inside any batch.
    """
    b = np.asarray(beta, dtype=float)
    squeeze = b.ndim == 1
    dev = np.atleast_2d(b) - mean
    K = mean.shape[0]
    z = []
    for k in range(K):
        z.append((dev[:, k] - sum(chol[k, i] * z[i] for i in range(k)))
                 * (1.0 / chol[k, k]))
    log_norm = -0.5 * K * math.log(2.0 * math.pi) \
        - float(np.sum(np.log(np.diag(chol))))
    out = log_norm - 0.5 * sum(zk * zk for zk in z)
    return float(out[0]) if squeeze else out


@dataclass
class GridPosterior:
    """Posterior evaluated on a lattice, with quadrature metadata.

    ``log_marginal`` is the log of the trapezoid integral of the
    unnormalized kernel; ``density`` is the kernel normalized by it, so the
    same quadrature rule integrates ``density`` to one.  ``converged``
    records the grid-doubling check on the log marginal.
    """

    spec: GridSpec
    points: np.ndarray
    weights: np.ndarray
    log_kernel: np.ndarray
    log_marginal: float
    density: np.ndarray
    converged: bool
    log_marginal_refined: float | None = None

    def same_grid_as(self, other: "GridPosterior") -> bool:
        return self.spec == other.spec


@dataclass
class PosteriorDraws:
    """MCMC output: post-burn-in draws only, plus bookkeeping.

    ``draws`` has shape (n_chains, n_kept, dim).  For the hierarchical
    sampler the optional fields carry per-individual acceptance rates and
    (if requested) stored individual-coefficient draws.
    """

    draws: np.ndarray
    n_chains: int
    burn_in: int
    acceptance_rates: np.ndarray
    seed: int
    param_names: list[str] | None = None
    individual_acceptance: np.ndarray | None = None
    beta_n_draws: np.ndarray | None = None
    individual_ids: np.ndarray | None = None
    degeneracy_events: int = 0

    @property
    def dim(self) -> int:
        return self.draws.shape[-1]

    def pooled(self) -> np.ndarray:
        """(n_chains * n_kept, dim) stacked draws."""
        return self.draws.reshape(-1, self.draws.shape[-1])


@dataclass
class PosteriorSummary:
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q50: np.ndarray
    q975: np.ndarray
    ess: np.ndarray
    n_draws: int
    acceptance_rates: np.ndarray
    param_names: list[str] | None = None


# ---------------------------------------------------------------------------
# kernels and grid posteriors
# ---------------------------------------------------------------------------

def log_posterior_kernel(beta: np.ndarray, likelihood: ChoiceArrays,
                         prior: Prior) -> np.ndarray | float:
    """Log prior plus (quasi) log-likelihood: the one posterior kernel.

    ``beta`` is one point (K,), giving a float, or a batch (P, K), giving
    (P,) values.  ``likelihood`` is the prepared choice likelihood, built
    once per run.
    """
    return prior.log_density(beta) + likelihood.loglik(beta)


def grid_posterior(dataset: Dataset, sets, prior: Prior, grid: GridSpec,
                   check_doubling: bool = True) -> GridPosterior:
    """Exact lattice posterior with trapezoid marginal likelihood; ``sets``
    is None (full sets) or a (SetTable, mode) pair."""
    if dataset.K > 2:
        raise UnsupportedDimensionError(
            f"grid posteriors support K <= 2, got K={dataset.K}")
    if grid.dim != dataset.K:
        raise InvalidInputError("grid dimension must equal dataset K")
    if prior.dim != dataset.K:
        raise InvalidInputError("prior dimension must equal dataset K")
    sampled, mode = (None, "none") if sets is None else sets
    likelihood = ChoiceArrays(dataset, sampled, mode)
    points = grid.lattice()
    weights = grid.weights()
    log_kernel = log_posterior_kernel(points, likelihood, prior)
    log_marginal = log_trapezoid(log_kernel, weights)
    density = np.exp(log_kernel - log_marginal)

    converged = True
    log_marginal_refined = None
    if check_doubling:
        fine = grid.refined()
        log_marginal_refined = log_trapezoid(
            log_posterior_kernel(fine.lattice(), likelihood, prior),
            fine.weights())
        converged = bool(abs(log_marginal_refined - log_marginal) < _DOUBLING_TOL)

    return GridPosterior(grid, points, weights, log_kernel, log_marginal,
                         density, converged, log_marginal_refined)


def kl_divergence_grid(p_true: GridPosterior, p_sampled: GridPosterior) -> float:
    """Quadrature of p_true * ln(p_true / p_sampled) on the shared grid."""
    if not p_true.same_grid_as(p_sampled):
        raise InvalidInputError("posteriors live on different grids")
    log_p = p_true.log_kernel - p_true.log_marginal
    log_q = p_sampled.log_kernel - p_sampled.log_marginal
    # Associated as the joint loop's per-outcome KL, so the two agree bitwise.
    return float(np.sum(np.where(p_true.density > 0.0, p_true.weights
                                 * p_true.density * (log_p - log_q), 0.0)))


def kl_decomposition(p_true: GridPosterior,
                     p_sampled: GridPosterior) -> tuple[float, float]:
    """KL split into expected log-likelihood ratio and inverse Bayes factor.

    Returns (E_true[ln L_true - ln L_sampled], ln m_sampled - ln m_true);
    the two terms sum to the KL divergence.  The prior cancels from the
    first term because both kernels share it.
    """
    if not p_true.same_grid_as(p_sampled):
        raise InvalidInputError("posteriors live on different grids")
    expected_llr = float(np.sum(
        p_true.weights * p_true.density *
        (p_true.log_kernel - p_sampled.log_kernel)))
    log_inv_bayes = float(p_sampled.log_marginal - p_true.log_marginal)
    return expected_llr, log_inv_bayes


# ---------------------------------------------------------------------------
# random-walk Metropolis
# ---------------------------------------------------------------------------

def rw_metropolis(kernel: Callable[[np.ndarray], np.ndarray],
                  init: np.ndarray, n_chains: int, n_iter: int, burn_in: int,
                  proposal_scale: float, seed: int) -> PosteriorDraws:
    """Gaussian random-walk Metropolis with burn-in-only scale adaptation.

    All chains advance in lockstep on one thread.  ``kernel`` is batched: it
    maps the (n_chains, K) array of current or proposed points to their
    (n_chains,) log densities, and row c of its result may depend on row c
    of its argument only.  A run makes exactly ``n_iter + 1`` kernel calls.
    Each chain draws from its own stream split from ``seed`` (per iteration
    one standard_normal(K), then one random()) and adapts its own scale, so
    its draws do not depend on how many chains run beside it.
    """
    if n_chains < 1:
        raise InvalidInputError(f"need at least one chain, got {n_chains}")
    if not 0.0 < proposal_scale < math.inf:
        raise InvalidInputError("proposal scale must be positive and finite, "
                                f"got {proposal_scale}")
    if not 0 <= burn_in < n_iter:
        raise InvalidInputError("need 0 <= burn_in < n_iter")
    init = np.atleast_1d(np.asarray(init, dtype=float))
    rngs = list(seeded_streams(seed, np.arange(n_chains)[:, None]))
    dim = init.size
    x = np.tile(init, (n_chains, 1))
    fx = np.asarray(kernel(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise InvalidInputError("kernel not finite at the chain start")
    scales = np.full(n_chains, proposal_scale)
    kept = np.empty((n_chains, n_iter - burn_in, dim))
    accepted_window = np.zeros(n_chains, dtype=int)
    accepted_kept = np.zeros(n_chains, dtype=int)
    for t in range(n_iter):
        prop = x + scales[:, None] * np.stack(
            [rng.standard_normal(dim) for rng in rngs])
        fp = np.asarray(kernel(prop), dtype=float)
        log_u = np.log([rng.random() for rng in rngs])
        accept = log_u < fp - fx
        x[accept] = prop[accept]
        fx[accept] = fp[accept]
        accepted_window += accept
        if t < burn_in:
            # Multiplicative nudge toward the target rate; frozen afterwards.
            # Scalar math.exp per chain: np.exp on the array can differ by
            # an ulp, which would move the draws.
            if (t + 1) % _ADAPT_WINDOW == 0:
                for c in range(n_chains):
                    rate = accepted_window[c] / _ADAPT_WINDOW
                    scales[c] *= math.exp(0.5 * (rate - _ADAPT_TARGET))
                accepted_window[:] = 0
        else:
            accepted_kept += accept
            kept[:, t - burn_in] = x
    rates = accepted_kept / max(1, n_iter - burn_in)
    return PosteriorDraws(kept, n_chains, burn_in, rates, seed)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _ess_single_chain(x: np.ndarray) -> float:
    """Effective sample size, truncating at the first negative pair sum."""
    n = x.size
    dev = x - x.mean()
    var = float(dev @ dev) / n
    if var <= 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(dev, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    rho = acov / acov[0]
    tau = 1.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair < 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return float(min(n, n / tau))


def check_summary_draws(n_draws: int) -> None:
    """Refuse fewer pooled draws than :func:`posterior_summary` needs."""
    if n_draws < MIN_SUMMARY_DRAWS:
        raise InsufficientDrawsError(f"{n_draws} kept draws, fewer than the "
                                     f"{MIN_SUMMARY_DRAWS} a summary needs")


def posterior_summary(draws: PosteriorDraws) -> PosteriorSummary:
    """Means, SDs, central quantiles, and ESS (summed over chains)."""
    pooled = draws.pooled()
    check_summary_draws(pooled.shape[0])
    q = np.percentile(pooled, [2.5, 50.0, 97.5], axis=0)
    ess = np.array([
        sum(_ess_single_chain(draws.draws[c, :, k])
            for c in range(draws.n_chains))
        for k in range(draws.dim)
    ])
    return PosteriorSummary(
        mean=pooled.mean(axis=0),
        sd=pooled.std(axis=0, ddof=1),
        q025=q[0], q50=q[1], q975=q[2],
        ess=ess,
        n_draws=pooled.shape[0],
        acceptance_rates=draws.acceptance_rates,
        param_names=draws.param_names,
    )
