"""Scalar references for the simulated likelihood of the mixing model.

One observation and one mixing draw at a time, straight from the
definitions; the tests compare the vectorised objective inside
``fit_mmnl_msl`` (``soa_lab.mle._SimulatedLikelihood``) against them.
"""

import numpy as np

from soa_lab import (InvalidInputError, NumericalDegeneracyError, Observation,
                     SampledSet, log_softmax)


def attribute_matrix(observation: Observation) -> np.ndarray:
    """(J, K) matrix with row j = attributes of alternative j."""
    return np.stack([a.attributes for a in observation.alternatives])


def compute_wn(beta_draw: np.ndarray, theta: tuple[np.ndarray, np.ndarray],
               observation: Observation, sampled_set: SampledSet,
               z_draws: np.ndarray) -> float:
    """Expansion factor for one observation and one mixing draw.

    Numerator: members' full-set probabilities at ``beta_draw``, weighted by
    the members' conditional set probabilities.  Denominator: the same
    weighting applied to full-set probabilities averaged over the draw set
    beta_r = mu + L z_r implied by ``theta`` (the same draws the simulated
    likelihood uses, so the ratio is internally consistent).
    """
    mu, sigma = theta
    mu = np.asarray(mu, dtype=float)
    L = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    z = np.asarray(z_draws, dtype=float)
    if z.ndim != 2 or z.shape[1] != mu.shape[0]:
        raise InvalidInputError("z_draws must be (R, K)")

    X = attribute_matrix(observation)
    pi = np.exp(sampled_set.log_cond_prob)
    members = sampled_set.member_ids

    betas = mu + z @ L.T
    p_mix = np.exp(log_softmax(X @ betas.T, axis=0)).mean(axis=1)

    num = wn_numerator(beta_draw, observation, sampled_set)
    den = float(pi @ p_mix[members])
    if den <= 0.0 or not np.isfinite(den):
        raise NumericalDegeneracyError("expansion-factor denominator collapsed")
    return num / den


def wn_numerator(beta_draw: np.ndarray, observation: Observation,
                 sampled_set: SampledSet) -> float:
    """sum_{j in D} pi(D | j) P(j | beta_draw, C): the expansion factor's
    numerator for one observation and one draw."""
    p_draw = np.exp(log_softmax(attribute_matrix(observation) @ beta_draw))
    return float(np.exp(sampled_set.log_cond_prob) @ p_draw[sampled_set.member_ids])


def individual_loglik(mu: np.ndarray, L: np.ndarray, observations: list,
                      sampled_sets: list, z_draws: np.ndarray,
                      corrections: str, denominator: str | None) -> float:
    """ln of one individual's simulated probability of their choices.

    Draw r is beta_r = mu + L z_r; P_r,t is the corrected probability of
    choice t on its sampled set.  ``denominator`` None gives
    ln mean_r prod_t P_r,t; "panel" divides mean_r prod_t P_r,t num_r,t by
    the panel denominator mean_r prod_t num_r,t; "draw_averaged" multiplies
    each P_r,t by its own :func:`compute_wn` instead.
    """
    sigma = L @ L.T
    per_draw, nums = [], []
    for z in z_draws:
        beta = mu + L @ z
        prob = num = 1.0
        for obs, s in zip(observations, sampled_sets):
            v = attribute_matrix(obs)[s.member_ids] @ beta
            if corrections == "mcfadden":
                v = v + s.log_cond_prob
            p = np.exp(log_softmax(v))[list(s.member_ids).index(obs.chosen)]
            if denominator == "draw_averaged":
                p *= compute_wn(beta, (mu, sigma), obs, s, z_draws)
            elif denominator == "panel":
                n_t = wn_numerator(beta, obs, s)
                p *= n_t
                num *= n_t
            prob *= p
        per_draw.append(prob)
        nums.append(num)
    return float(np.log(np.mean(per_draw)) - np.log(np.mean(nums)))
