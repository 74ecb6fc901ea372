"""Per-iteration reference for the three-step Gibbs sampler.

Straight from the algorithm, recomputing everything every iteration: the
mu step factorises A0 and Sigma afresh, the Sigma step builds its index
arrays and chi-square degrees of freedom, the MH sweep factorises Sigma
again and scores the current and proposed coefficients with one density
call each, and the likelihood gathers the chosen members from the whole
log softmax.  Iteration it of phase 1 (conjugate steps) and phase 2 (MH
sweep) draws from numpy's SeedSequence(seed, spawn_key=(0, phase, it)).
The tests compare ``soa_lab.run_gibbs`` against this bit for bit.
"""

import numpy as np

from soa_lab import ChoiceArrays, NumericalDegeneracyError
from soa_lab.bayes_mnl import mvn_log_density

ADAPT_WINDOW = 50
TARGET_ACCEPT = 0.3
RHO_BOUNDS = (1e-3, 1e3)
MAX_RETRIES = 3


def _chol(M, what):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError(f"{what} is not positive definite")


def _inverse_from_chol(L):
    eye = np.eye(L.shape[0])
    L_inv = np.linalg.solve(L[::-1, ::-1], eye)[::-1, ::-1]
    return np.asfortranarray(np.linalg.solve(L.T, L_inv))


def step_mu(mu, sigma, beta_all, priors, rng):
    N = beta_all.shape[0]
    sig_inv = _inverse_from_chol(_chol(sigma, "sigma"))
    a0_inv = _inverse_from_chol(np.linalg.cholesky(priors.A0))
    cov = np.linalg.inv(a0_inv + N * sig_inv)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (a0_inv @ priors.m0 + sig_inv @ beta_all.sum(axis=0))
    return mean + _chol(cov, "mu-step covariance") @ rng.standard_normal(mu.size)


def step_sigma(mu, beta_all, priors, rng):
    dev = beta_all - mu
    dof, scale = priors.v0 + beta_all.shape[0], priors.S0 + dev.T @ dev
    C = _chol(scale, "inverted-Wishart scale")
    K = mu.size
    A = np.zeros((K, K))
    A[np.tril_indices(K, -1)] = rng.normal(size=K * (K - 1) // 2)
    A[np.diag_indices(K)] = rng.chisquare(dof - K + 1 + np.arange(K)) ** 0.5
    if K == 1:
        draw = np.array([[(C[0, 0] / A[0, 0]) ** 2]])
    else:
        CA = np.linalg.solve(A.T, C.T).T
        draw = CA @ CA.T
    return 0.5 * (draw + draw.T)


def reference_gibbs(dataset, priors, config) -> dict:
    """{'draws', 'beta_n', 'acceptance', 'degeneracy_events'} of one chain."""
    K = dataset.K
    sampled, mode = (None, "none") if config.sets is None else config.sets
    lik = ChoiceArrays.panel(dataset, sampled, mode)

    def panel_loglik(beta):
        lp = lik.log_probs(beta[lik.obs_to_ind])
        return lik.panel_sum(lp[np.arange(lik.n), lik.chosen_pos])

    def stream(phase, it):
        return np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(0, phase, it)))

    N = lik.n_individuals
    mu, sigma = priors.m0.copy(), priors.S0.copy()
    beta_all = np.tile(priors.m0, (N, 1))
    rho = np.full(N, config.rho)
    ll_cur = panel_loglik(beta_all)
    draws, beta_n = [], []
    win_acc, win_len = np.zeros(N), 0
    post_acc, n_post = np.zeros(N), 0
    events = 0
    for it in range(config.iterations):
        rng_conj, rng_beta = stream(1, it), stream(2, it)
        for attempt in range(MAX_RETRIES + 1):
            try:
                mu = step_mu(mu, sigma, beta_all, priors, rng_conj)
                sigma = step_sigma(mu, beta_all, priors, rng_conj)
                break
            except NumericalDegeneracyError:
                events += 1
                if attempt == MAX_RETRIES:
                    raise
                sigma = sigma + 1e-8 * np.eye(K)
                beta_all = beta_all + 1e-8 * rng_conj.standard_normal(
                    beta_all.shape)
                ll_cur = panel_loglik(beta_all)

        L = _chol(sigma, "sigma")
        z = rng_beta.standard_normal((N, K))
        log_u = np.log(rng_beta.random(N))
        prop = beta_all + rho[:, None] * (z @ L.T)
        ll_prop = panel_loglik(prop)
        lp_cur = mvn_log_density(beta_all, mu, L)
        lp_prop = mvn_log_density(prop, mu, L)
        accept = log_u < (ll_prop + lp_prop) - (ll_cur + lp_cur)
        beta_all = np.where(accept[:, None], prop, beta_all)
        ll_cur = np.where(accept, ll_prop, ll_cur)

        if it < config.burn_in:
            win_acc += accept
            win_len += 1
            if win_len == ADAPT_WINDOW:
                rho = np.clip(rho * np.exp(0.5 * (win_acc / win_len
                                                  - TARGET_ACCEPT)),
                              *RHO_BOUNDS)
                win_acc[:] = 0.0
                win_len = 0
        else:
            post_acc += accept
            n_post += 1
            if (it - config.burn_in) % config.thin == 0:
                i, j = np.tril_indices(K)
                draws.append(np.concatenate([mu, sigma[i, j]]))
                beta_n.append(beta_all)
    return {"draws": np.array(draws), "beta_n": np.array(beta_n),
            "acceptance": post_acc / max(n_post, 1),
            "degeneracy_events": events}
