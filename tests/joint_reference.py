"""The per-outcome joint (choice, set) loop, kept as a slow reference for
the block reductions in ``soa_lab.divergence_lab``.

Each outcome is one row of the product of the observations' (chosen, set)
pairs; the reductions below visit them one at a time, in product order.
:func:`kl_terms` and :func:`expected_kl_direct` must give the same bits as
the block versions, and each KL of :func:`outcome_kls` is
``bayes_mnl.kl_divergence_grid`` of the outcome's two grid posteriors;
:func:`kl_term_a_joint` assembles term A from the raw joint, with no
coverage regrouping, and must agree with ``divergence_lab.kl_term_a`` to
rounding.
"""

from itertools import product

import numpy as np

from soa_lab import divergence_lab as dlab
from soa_lab.errors import CapacityError
from soa_lab.grids import log_trapezoid
from soa_lab.protocols import ENUMERATION_CAP


def _lattice(design, protocol, correction_mode, prior, grid):
    """``divergence_lab._lattice`` over the protocol's feasible table, with
    each observation's pair arrays turned into a list of
    (ln pi, ln P(i|beta,C), ln P_eval(i|beta,D))."""
    weights, log_prior, divergence, pairs = dlab._lattice(
        design, dlab.enumerate_feasible_sets(protocol, design.J),
        correction_mode, prior, grid)
    return weights, log_prior, divergence, [
        list(zip(lpi.tolist(), full[members], lp_samp))
        for lpi, lp_samp, members, full in pairs]


def joint_outcomes(pairs: list):
    """Every joint (choices, sets) outcome of a design, in product order.

    Yields (ln pi, ll_true, ll_samp): the log probability of the sets given
    the choices, and the full-set and evaluated-mode log-likelihoods of the
    choices on the grid.  Refuses, before the first outcome, to enumerate
    more than ``ENUMERATION_CAP`` outcomes.
    """
    combos = 1
    for obs_pairs in pairs:
        combos *= len(obs_pairs)
        if combos > ENUMERATION_CAP:
            raise CapacityError(f"joint enumeration would exceed "
                                f"{ENUMERATION_CAP} (choice, set) combinations")
    n_points = pairs[0][0][1].shape[0]
    for combo in product(*pairs):
        ll_true = np.zeros(n_points)
        ll_samp = np.zeros(n_points)
        log_pi = 0.0
        for lpi, lp_true, lp_samp in combo:
            ll_true += lp_true
            ll_samp += lp_samp
            log_pi += lpi
        yield log_pi, ll_true, ll_samp


def kl_terms(design, protocol, correction_mode, prior, grid):
    weights, log_prior, divergence, pairs = _lattice(design, protocol,
                                                     correction_mode, prior,
                                                     grid)
    term_a = dlab._term_a(weights, log_prior, divergence)
    term_b = 0.0
    for log_pi, ll_true, ll_samp in joint_outcomes(pairs):
        log_m_true = log_trapezoid(log_prior + ll_true, weights)
        log_m_samp = log_trapezoid(log_prior + ll_samp, weights)
        term_b += np.exp(log_pi + log_m_true) * (log_m_samp - log_m_true)
    return dlab.KlTerms(term_a, float(term_b),
                        expected_kl_direct(design, protocol, correction_mode,
                                           prior, grid))


def kl_term_a_joint(design, protocol, correction_mode, prior, grid):
    weights, log_prior, _, pairs = _lattice(design, protocol,
                                            correction_mode, prior, grid)
    total = 0.0
    for log_pi, ll_true, ll_samp in joint_outcomes(pairs):
        integrand = np.exp(log_prior + ll_true + log_pi) * (ll_true - ll_samp)
        total += float(np.sum(weights * integrand))
    return total


def outcome_kls(design, protocol, correction_mode, prior, grid):
    """Every joint outcome's grid KL from the full-set to the sampled-set
    posterior, in product order: yields (ln pi, ln m_true, KL)."""
    weights, log_prior, _, pairs = _lattice(design, protocol,
                                            correction_mode, prior, grid)
    for log_pi, ll_true, ll_samp in joint_outcomes(pairs):
        lk_true = log_prior + ll_true
        lk_samp = log_prior + ll_samp
        lm_true = log_trapezoid(lk_true, weights)
        lm_samp = log_trapezoid(lk_samp, weights)
        p_true = np.exp(lk_true - lm_true)
        kl = float(np.sum(weights * p_true *
                          ((lk_true - lm_true) - (lk_samp - lm_samp))))
        yield log_pi, lm_true, kl


def expected_kl_direct(design, protocol, correction_mode, prior, grid):
    total = 0.0
    for log_pi, lm_true, kl in outcome_kls(design, protocol, correction_mode,
                                           prior, grid):
        total += np.exp(log_pi + lm_true) * kl
    return float(total)
