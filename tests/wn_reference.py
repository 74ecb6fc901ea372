"""Scalar reference for the simulated-likelihood expansion factor.

One observation and one mixing draw at a time, straight from the
definition; the tests compare the vectorised factor inside
``fit_mmnl_msl`` (``soa_lab.mle.expansion_log_terms``) against it.
"""

import numpy as np

from soa_lab import (InvalidInputError, NumericalDegeneracyError, Observation,
                     SampledSet, UtilityParams, log_softmax)


def compute_wn(beta_draw: UtilityParams, theta: tuple[np.ndarray, np.ndarray],
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

    X = observation.attribute_matrix()
    pi = np.exp(sampled_set.log_cond_prob)
    members = sampled_set.member_ids

    p_draw = np.exp(log_softmax(X @ beta_draw.beta))
    betas = mu + z @ L.T
    p_mix = np.exp(log_softmax(X @ betas.T, axis=0)).mean(axis=1)

    num = float(pi @ p_draw[members])
    den = float(pi @ p_mix[members])
    if den <= 0.0 or not np.isfinite(den):
        raise NumericalDegeneracyError("expansion-factor denominator collapsed")
    return num / den
