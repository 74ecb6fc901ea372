"""Gibbs sampler for the Bayesian mixed multinomial logit.

The hierarchical model mixes individual-level coefficients beta_n over a
normal population distribution N(mu, Sigma).  Augmenting the parameter
space with the beta_n themselves makes the sampler a three-step cycle:

1. mu     | Sigma, beta_all   -- conjugate normal draw
2. Sigma  | mu, beta_all      -- conjugate inverted-Wishart draw
3. beta_n | mu, Sigma, Y_n    -- one random-walk MH step per individual

Steps 1 and 2 receive only the mixing state and the priors, never the
choice data, so their cost is independent of the choice-set size; the
choice sets (full or sampled-with-correction) enter only through the MH
target of step 3.  Sampled sets are drawn once up front and held fixed
for the whole run.

What a run reuses is built once: the prior's invariants (A0^-1,
A0^-1 m0, the triangle indices and the Bartlett chi-square degrees of
freedom) are cached on :class:`MmnlPriors`, the panel likelihood is one
:class:`ChoiceArrays`, and the per-iteration streams are derived in one
pass per phase.  Sigma's Cholesky factor is computed once per draw of
Sigma: the MH sweep factorises it, and the next iteration's mu step reuses
that factor from :class:`MixingState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError
from .mle import ChoiceArrays
from .model_core import CORRECTION_MODES, Dataset, SetTable
from .bayes_mnl import PosteriorDraws, mvn_log_density
from .protocols import seeded_streams

# Multiplicative step-3 adaptation: every ADAPT_WINDOW burn-in iterations,
# each individual's proposal scale is nudged toward TARGET_ACCEPT.
ADAPT_WINDOW = 50
TARGET_ACCEPT = 0.3
_RHO_BOUNDS = (1e-3, 1e3)
_MAX_RETRIES = 3


def _symmetric(M: np.ndarray, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{what} must be a square matrix")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10):
        raise InvalidInputError(f"{what} must be symmetric")
    return 0.5 * (M + M.T)


def _chol_pd(M: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor, or a numerical-degeneracy error naming the matrix."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError(f"{what} is not positive definite")


def _inverse_from_chol(L: np.ndarray) -> np.ndarray:
    """(L L')^-1 from its lower Cholesky factor L by two triangular solves.

    np.linalg.solve never exchanges rows of an upper-triangular matrix, so
    the lower system L X = I is solved in its reversed (upper) form; both
    solves are then plain substitutions.  The result is column-major, the
    layout of a LAPACK solution: a matrix-vector product sums in an order
    set by the layout, so the layout is part of the mu draw's bits.
    """
    eye = np.eye(L.shape[0])
    L_inv = np.linalg.solve(L[::-1, ::-1], eye)[::-1, ::-1]
    return np.asfortranarray(np.linalg.solve(L.T, L_inv))


@dataclass
class MixingState:
    """Current (mu, Sigma, beta_all) of the augmented parameter space.

    ``chol`` is Sigma's lower Cholesky factor, computed when first read and
    kept until ``sigma`` is next assigned; replace ``sigma``, never edit it
    in place.
    """

    mu: np.ndarray
    sigma: np.ndarray
    beta_all: np.ndarray

    def __setattr__(self, name, value):
        if name == "sigma":
            self.__dict__.pop("chol", None)
        super().__setattr__(name, value)

    @cached_property
    def chol(self) -> np.ndarray:
        """Sigma's lower Cholesky factor, or a numerical-degeneracy error."""
        return _chol_pd(self.sigma, "sigma")

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.ndim != 1:
            raise InvalidInputError("mu must be a 1-d vector")
        K = self.mu.shape[0]
        self.sigma = _symmetric(self.sigma, "sigma")
        if self.sigma.shape != (K, K):
            raise InvalidInputError("sigma shape must match mu length")
        self.chol  # a degeneracy error unless sigma is positive definite
        self.beta_all = np.atleast_2d(np.asarray(self.beta_all, dtype=float))
        if self.beta_all.shape[1] != K or self.beta_all.shape[0] < 1:
            raise InvalidInputError("beta_all must be (N, K) with N >= 1")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma))
                and np.all(np.isfinite(self.beta_all))):
            raise InvalidInputError("mixing state must be finite")

    @property
    def n_individuals(self) -> int:
        return self.beta_all.shape[0]


class _PriorInvariants:
    """What the conjugate steps reuse from the priors on every iteration."""

    def __init__(self, priors: "MmnlPriors"):
        K = priors.dim
        self.a0_inv = _inverse_from_chol(_chol_pd(priors.A0, "A0"))
        self.a0_inv_m0 = self.a0_inv @ priors.m0
        self.lower = np.tril_indices(K, -1)
        self.diag = np.diag_indices(K)
        self.vech = np.tril_indices(K)
        self._v0, self._K = priors.v0, K
        self._chi_dof: dict[int, np.ndarray] = {}

    def chi_dof(self, n: int) -> np.ndarray:
        """Chi-square degrees of freedom of the Bartlett diagonal for Sigma's
        conditional given n individuals: dof - K + 1 .. dof, dof = v0 + n."""
        if n not in self._chi_dof:
            dof = self._v0 + n
            self._chi_dof[n] = dof - self._K + 1 + np.arange(self._K)
        return self._chi_dof[n]


@dataclass
class MmnlPriors:
    """Normal prior on mu, inverted-Wishart prior on Sigma.

    ``invariants`` holds the terms derived from the fields, computed when
    first read and dropped whenever a field is assigned.
    """

    m0: np.ndarray
    A0: np.ndarray
    v0: float
    S0: np.ndarray

    def __setattr__(self, name, value):
        self.__dict__.pop("invariants", None)
        super().__setattr__(name, value)

    @cached_property
    def invariants(self) -> _PriorInvariants:
        return _PriorInvariants(self)

    def __post_init__(self):
        self.m0 = np.asarray(self.m0, dtype=float)
        if self.m0.ndim != 1:
            raise InvalidInputError("m0 must be a 1-d vector")
        K = self.m0.shape[0]
        self.A0 = _symmetric(self.A0, "A0")
        self.S0 = _symmetric(self.S0, "S0")
        if self.A0.shape != (K, K) or self.S0.shape != (K, K):
            raise InvalidInputError("A0 and S0 must be K x K")
        _chol_pd(self.A0, "A0")
        _chol_pd(self.S0, "S0")
        self.v0 = float(self.v0)
        if not self.v0 > K - 1:
            raise InvalidInputError("v0 must exceed K - 1")

    @classmethod
    def default_for(cls, K: int) -> "MmnlPriors":
        """Weakly informative defaults: m0=0, A0=100 I, v0=K+2, S0=I."""
        return cls(np.zeros(K), 100.0 * np.eye(K), K + 2, np.eye(K))

    @property
    def dim(self) -> int:
        return self.m0.shape[0]


@dataclass
class GibbsConfig:
    """Run-length, seeding, proposal scale, and choice-set handling.

    ``sets`` is None for full choice sets, or a (SetTable, mode) pair with
    one row per observation in dataset order.
    """

    iterations: int
    burn_in: int
    thin: int = 1
    seed: int = 0
    rho: float = 0.4
    sets: tuple[SetTable, str] | None = None
    store_beta_n: bool = False

    def __post_init__(self):
        if not (self.iterations > self.burn_in >= 0):
            raise InvalidInputError("need iterations > burn_in >= 0")
        if self.thin < 1:
            raise InvalidInputError("thin must be >= 1")
        if not 0.0 <= self.rho < np.inf:
            raise InvalidInputError(
                f"proposal scale rho must be finite and >= 0, got {self.rho}")
        if self.sets is not None:
            sampled, mode = self.sets
            if mode not in CORRECTION_MODES:
                raise InvalidInputError(f"unknown correction mode {mode!r}")
            if not sampled:
                raise InvalidInputError("sets tuple carries no sampled sets")


# ---------------------------------------------------------------------------
# conjugate steps
# ---------------------------------------------------------------------------

def gibbs_step_mu(state: MixingState, priors: MmnlPriors,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw mu from its normal full conditional.

    Posterior covariance (A0^-1 + N Sigma^-1)^-1, mean = that covariance
    times (A0^-1 m0 + Sigma^-1 sum_n beta_n).
    """
    N = state.n_individuals
    prior = priors.invariants
    sig_inv = _inverse_from_chol(state.chol)
    precision = prior.a0_inv + N * sig_inv
    try:
        cov = np.linalg.inv(precision)
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError("mu-step precision is singular")
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prior.a0_inv_m0 + sig_inv @ state.beta_all.sum(axis=0))
    return mean + _chol_pd(cov, "mu-step covariance") @ rng.standard_normal(priors.dim)


def sigma_posterior_params(state: MixingState,
                           priors: MmnlPriors) -> tuple[float, np.ndarray]:
    """(degrees of freedom, scale) of Sigma's inverted-Wishart conditional."""
    dev = state.beta_all - state.mu
    return priors.v0 + state.n_individuals, priors.S0 + dev.T @ dev


def gibbs_step_sigma(state: MixingState, priors: MmnlPriors,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw Sigma from inverted Wishart(v0 + N, S0 + sum_n dev dev').

    Bartlett decomposition (Smith & Hocking 1972, AS 53): A is lower
    triangular with standard normals below the diagonal and chi variates
    with dof - K + 1 .. dof degrees of freedom on it, so A^-1 is the
    Cholesky factor of an inverted-Wishart(dof, I) draw and (C A^-1)(C A^-1)'
    one of inverted-Wishart(dof, C C').  The generator gives the K(K-1)/2
    normals first, then the K chi-squares.
    """
    dof, scale = sigma_posterior_params(state, priors)
    C = _chol_pd(scale, "inverted-Wishart scale")
    K, prior = priors.dim, priors.invariants
    A = np.zeros((K, K))
    A[prior.lower] = rng.normal(size=K * (K - 1) // 2)
    A[prior.diag] = rng.chisquare(prior.chi_dof(state.n_individuals)) ** 0.5
    if K == 1:
        # A scalar square (pow), not x * x: rarely, the two differ in the
        # last bit, and this form keeps the draws of every K=1 chain.
        draw = np.array([[(C[0, 0] / A[0, 0]) ** 2]])
    else:
        CA = np.linalg.solve(A.T, C.T).T
        draw = CA @ CA.T
    return 0.5 * (draw + draw.T)


# ---------------------------------------------------------------------------
# the full sampler
# ---------------------------------------------------------------------------

def _vech_names(K: int) -> list[str]:
    i, j = np.tril_indices(K)
    return [f"sigma_{a}_{b}" for a, b in zip(i, j)]


def run_gibbs(dataset: Dataset, priors: MmnlPriors,
              config: GibbsConfig) -> PosteriorDraws:
    """Cycle the three Gibbs steps and collect post-burn-in draws.

    Step 3 updates every individual each iteration with a vectorized MH
    sweep (the conditional targets are independent given mu and Sigma);
    per-individual proposal scales start at config.rho and adapt toward
    30% acceptance during burn-in only.  Draw storage is mu followed by
    vech(Sigma); individual coefficients are stored only on request.
    """
    K = dataset.K
    if priors.dim != K:
        raise InvalidInputError("prior dimension must match dataset K")

    sampled, mode = (None, "none") if config.sets is None else config.sets
    likelihood = ChoiceArrays.panel(dataset, sampled, mode)
    panel_loglik = likelihood.panel_loglik

    N = likelihood.n_individuals
    state = MixingState(priors.m0.copy(), priors.S0.copy(),
                        np.tile(priors.m0, (N, 1)))
    rho = np.full(N, config.rho)
    vech = priors.invariants.vech

    ll_cur = panel_loglik(state.beta_all)

    n_keep = (config.iterations - config.burn_in + config.thin - 1) // config.thin
    draws = np.empty((n_keep, K + K * (K + 1) // 2))
    beta_stored = (np.empty((n_keep, N, K)) if config.store_beta_n else None)
    win_acc = np.zeros(N)
    win_len = 0
    post_acc = np.zeros(N)
    n_post = 0
    degeneracy_events = 0
    kept = 0

    # Counter-based: iteration it of phase 1 (conjugate steps) and phase 2
    # (MH sweep) draws from spawn key (0, phase, it), whatever ran before.
    def phase_streams(phase: int):
        its = np.arange(config.iterations)
        return seeded_streams(config.seed, np.column_stack(
            [np.zeros_like(its), np.full_like(its, phase), its]))

    for it, rng_conj, rng_beta in zip(range(config.iterations),
                                      phase_streams(1), phase_streams(2)):
        for attempt in range(_MAX_RETRIES + 1):
            try:
                state.mu = gibbs_step_mu(state, priors, rng_conj)
                state.sigma = gibbs_step_sigma(state, priors, rng_conj)
                break
            except NumericalDegeneracyError:
                degeneracy_events += 1
                if attempt == _MAX_RETRIES:
                    raise
                state.sigma = state.sigma + 1e-8 * np.eye(K)
                state.beta_all = state.beta_all + 1e-8 * rng_conj.standard_normal(
                    state.beta_all.shape)
                ll_cur = panel_loglik(state.beta_all)

        L = state.chol
        z = rng_beta.standard_normal((N, K))
        log_u = np.log(rng_beta.random(N))
        prop = state.beta_all + rho[:, None] * (z @ L.T)
        ll_prop = panel_loglik(prop)
        # One density call on the stacked rows: each row's value does not
        # depend on the rows around it.
        lp = mvn_log_density(np.concatenate([state.beta_all, prop]), state.mu, L)
        accept = log_u < (ll_prop + lp[N:]) - (ll_cur + lp[:N])
        state.beta_all = np.where(accept[:, None], prop, state.beta_all)
        ll_cur = np.where(accept, ll_prop, ll_cur)

        if it < config.burn_in:
            win_acc += accept
            win_len += 1
            if win_len == ADAPT_WINDOW:
                rho = np.clip(rho * np.exp(0.5 * (win_acc / win_len - TARGET_ACCEPT)),
                              *_RHO_BOUNDS)
                win_acc[:] = 0.0
                win_len = 0
        else:
            post_acc += accept
            n_post += 1
            offset = it - config.burn_in
            if offset % config.thin == 0:
                draws[kept, :K] = state.mu
                draws[kept, K:] = state.sigma[vech]
                if beta_stored is not None:
                    beta_stored[kept] = state.beta_all
                kept += 1

    individual_rates = post_acc / max(n_post, 1)
    names = [f"mu_{k}" for k in range(K)] + _vech_names(K)
    return PosteriorDraws(
        draws=draws[None, :kept],
        n_chains=1,
        burn_in=config.burn_in,
        acceptance_rates=np.array([float(individual_rates.mean())]),
        seed=config.seed,
        param_names=names,
        individual_acceptance=individual_rates,
        beta_n_draws=None if beta_stored is None else beta_stored[:kept],
        individual_ids=likelihood.individual_ids,
        degeneracy_events=degeneracy_events,
    )
