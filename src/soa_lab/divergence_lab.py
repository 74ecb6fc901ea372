"""Exhaustive-enumeration oracles for the sampled-set expectation identities.

Everything here is exact (up to quadrature on an explicit grid): expected
quasi log-likelihoods in both summation orderings, set-coverage ratios,
expected divergence between sampled and full log-likelihoods in direct,
split, and closed forms, and the two terms of the expected posterior KL
divergence together with independent re-assemblies used to cross-check
them.  Nothing in this module is Monte Carlo.

Notation used in the formulas below, for one observation with utilities V
over the full set C and a subset D with member log conditional sampling
probabilities lcp (one per member, conditioning on that member having been
chosen):

* coverage  R(D, beta) = sum_{j in D} e^{V_j + lcp_j} / sum_{j in C} e^{V_j}
* the "process" member probabilities P(i | beta, D) use the lcp corrections
  (they arise from Bayes' rule on the joint of choice and set, whatever
  correction the evaluated model uses), while the evaluated model's member
  probabilities use the corrections of the requested mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError, InvalidInputError
from .grids import GridSpec, log_trapezoid
from .model_core import (Observation, SetTable, UtilityParams, log_softmax,
                         log_sum_exp, utilities)
from .protocols import (Protocol, correction_vector, enumerate_feasible_sets,
                        enumerate_sets, feasible_pair_count)

_MIN_GRID_POINTS = 51
# Grid cells (outcomes x lattice points) per block of the joint outcome loop.
_BLOCK_CELLS = 1 << 14


@dataclass
class DivergenceReport:
    """Bundle of the oracle quantities for one (design, protocol, mode).

    ``r_coverage`` is (n_obs, S): R at beta_star for every observation and
    every row of :func:`enumerate_feasible_sets`.
    """

    expected_quasi_ll: float
    expected_true_ll: float
    expected_divergence: float
    r_coverage: np.ndarray
    kl_term_a: float
    kl_term_b: float


@dataclass
class KlTerms:
    a: float
    b: float


@dataclass
class ComparisonRow:
    label: str
    kind: str
    a_total: float
    a_per_design: list[float]


@dataclass
class ProtocolComparison:
    rows: list[ComparisonRow]
    uniform_attains_max: bool


# ---------------------------------------------------------------------------
# the per-set kernel
# ---------------------------------------------------------------------------

def _set_kernel(observation: Observation, sets: SetTable, mode: str, beta):
    """The corrected softmax of one observation over every row of ``sets``.

    ``beta`` is UtilityParams, one point (K,) or a batch (P, K); a batch puts
    a leading P axis on every output except ``c``.  For S rows of width m:

    * ``log_r`` (S,): log coverage ln R(D);
    * ``lp_proc`` (S, m): process member log-probabilities (lcp corrections);
    * ``lp_eval`` (S, m): evaluated member log-probabilities (mode corrections);
    * ``c`` (S, m): the mode's corrections;
    * ``lp_full`` (S, m): ln P(i | beta, C) of each member.

    Padding is -inf in the log-probabilities and 0 in ``c``.
    """
    V = utilities(observation, beta)
    Vm = V[..., sets.member_ids]
    c = correction_vector(sets.log_cond_prob, mode)
    lp_full = np.where(sets.pad, -np.inf, log_softmax(V)[..., sets.member_ids])
    lp_proc = log_softmax(Vm + sets.log_cond_prob)
    lp_eval = log_softmax(np.where(sets.pad, -np.inf, Vm + c))
    log_r = log_sum_exp(lp_full + sets.log_cond_prob)
    return log_r, lp_proc, lp_eval, c, lp_full


def _feasible_kernel(observation: Observation, protocol: Protocol, mode: str,
                     beta) -> tuple[SetTable, tuple]:
    """An observation's feasible sets and the kernel over them."""
    sets = enumerate_feasible_sets(protocol, observation.n_alts)
    return sets, _set_kernel(observation, sets, mode, beta)


def _expect(lp: np.ndarray, values: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """sum over each row's members of exp(lp) * values."""
    return np.sum(np.exp(lp) * np.where(pad, 0.0, values), axis=-1)


def _split_divergence(sets: SetTable, kernel: tuple) -> np.ndarray:
    """sum_D R [ sum_i P(i|beta,D) c_i - ln( sum_D e^{V+c} / sum_C e^V ) ]."""
    log_r, lp_proc, _, c, lp_full = kernel
    return np.sum(np.exp(log_r) * (_expect(lp_proc, c, sets.pad)
                                   - log_sum_exp(lp_full + c)), axis=-1)


def _value(x):
    """A float for one point, the (P,) array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# coverage and expected quasi log-likelihood
# ---------------------------------------------------------------------------

def coverage_r(observation: Observation, sets: SetTable, beta) -> np.ndarray:
    """R of every row of ``sets``, (S,) at one point or (P, S) for a batch:
    the share of the full exponentiated-utility mass the set accounts for,
    after weighting each member by its conditional set probability."""
    return np.exp(_set_kernel(observation, sets, "none", beta)[0])


def expected_true_ll(observation: Observation, beta_star, beta):
    """sum_i P(i | beta_star, C) ln P(i | beta, C)."""
    lp_star = log_softmax(utilities(observation, beta_star))
    return _value(np.sum(np.exp(lp_star)
                         * log_softmax(utilities(observation, beta)), axis=-1))


def expected_quasi_ll(observation: Observation, protocol: Protocol,
                      beta_star, beta, correction_mode: str):
    """Expected sampled-set log-likelihood, choice-first ordering.

    Outer sum over the chosen alternative weighted by the full-model
    probability at beta_star; inner sum over every feasible set containing
    it, weighted by the set's conditional probability; the summand is the
    log corrected sampled probability evaluated at beta.
    """
    p_star = np.exp(log_softmax(utilities(observation, beta_star)))
    total = 0.0
    for i in range(observation.n_alts):
        sets = enumerate_sets(protocol, observation.n_alts, i)
        lp_eval = _set_kernel(observation, sets, correction_mode, beta)[2]
        at_i = (sets.member_ids == i) & ~sets.pad
        total = total + p_star[..., i] * (lp_eval[..., at_i]
                                          @ np.exp(sets.log_cond_prob[at_i]))
    return _value(total)


def expected_quasi_ll_setwise(observation: Observation, protocol: Protocol,
                              beta_star, beta, correction_mode: str):
    """Same expectation, regrouped set-first: sum_D R(D) sum_i P(i|D) ln(...).

    Independent code path used to verify the choice-first ordering; the
    set-first weights R and P(i | beta_star, D) always use the conditional
    sampling probabilities (they come from rewriting the joint), regardless
    of the evaluated correction mode.
    """
    sets, (log_r, lp_proc, *_) = _feasible_kernel(observation, protocol,
                                                  correction_mode, beta_star)
    lp_eval = _feasible_kernel(observation, protocol, correction_mode,
                               beta)[1][2]
    return _value(np.sum(np.exp(log_r) * _expect(lp_proc, lp_eval, sets.pad),
                         axis=-1))


# ---------------------------------------------------------------------------
# expected divergence between sampled and full log-likelihoods
# ---------------------------------------------------------------------------

def expected_divergence(observation: Observation, protocol: Protocol,
                        beta, correction_mode: str):
    """Split-form expected gap between sampled and full log-likelihood.

    sum_D R(D) [ sum_i P(i|beta,D) c_i  -  ln( sum_D e^{V+c} / sum_C e^V ) ];
    for mcfadden corrections the second piece reduces to -sum_D R ln R.
    """
    return _value(_split_divergence(*_feasible_kernel(
        observation, protocol, correction_mode, beta)))


def expected_divergence_direct(observation: Observation, protocol: Protocol,
                               beta, correction_mode: str):
    """Direct form: sum_D R sum_i P(i|beta,D) [ln P_eval(i|beta,D) - ln P(i|beta,C)]."""
    sets, (log_r, lp_proc, lp_eval, _, lp_full) = _feasible_kernel(
        observation, protocol, correction_mode, beta)
    gap = (_expect(lp_proc, lp_eval, sets.pad)
           - _expect(lp_proc, lp_full, sets.pad))
    return _value(np.sum(np.exp(log_r) * gap, axis=-1))


def divergence_uniform_closed_form(observation: Observation, protocol: Protocol,
                                   beta):
    """Closed form for uniform conditioning with its own corrections:

    -sum_D pi_dagger * ratio(D) * ln ratio(D),   ratio = sum_D e^V / sum_C e^V.

    Only defined for protocols whose conditional probabilities are a shared
    constant per set (uniform without-replacement sampling).
    """
    if protocol.kind != "uniform_wor":
        raise InvalidInputError("closed form needs the uniform protocol")
    sets, kernel = _feasible_kernel(observation, protocol, "none", beta)
    log_ratio = log_sum_exp(kernel[4])
    return _value(-np.sum(np.exp(sets.log_cond_prob[:, 0]) * np.exp(log_ratio)
                          * log_ratio, axis=-1))


# ---------------------------------------------------------------------------
# KL terms on a parameter grid
# ---------------------------------------------------------------------------

def _check_grid(grid: GridSpec, K: int) -> None:
    if grid.dim != K:
        raise InvalidInputError("grid dimension must match design K")
    if min(grid.points) < _MIN_GRID_POINTS:
        raise InvalidInputError(
            f"grid needs at least {_MIN_GRID_POINTS} points per dimension")


def _lattice(design, protocol: Protocol, correction_mode: str, prior,
             grid: GridSpec) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Quadrature weights, log prior, and per observation its expected
    divergence on the lattice and its (chosen, set) pairs as the arrays
    ln pi(D|i) (L,), ln P(i | beta, C) (L, P) and ln P_eval(i | beta, D)
    (L, P), in set order, then member order."""
    _check_grid(grid, design.K)
    points = grid.lattice()
    divergence, pairs = [], []
    for obs in design.observations:
        sets, kernel = _feasible_kernel(obs, protocol, correction_mode, points)
        divergence.append(_split_divergence(sets, kernel))
        s, pos = np.nonzero(~sets.pad)
        pairs.append((sets.log_cond_prob[s, pos],
                      np.ascontiguousarray(kernel[4][:, s, pos].T),
                      np.ascontiguousarray(kernel[2][:, s, pos].T)))
    return grid.weights(), prior.log_density(points), divergence, pairs


def _outer_add(acc: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Every row of ``acc`` plus every row of ``values``, ``acc`` slowest."""
    return (acc[:, None] + values[None]).reshape((-1,) + values.shape[1:])


def _check_joint_cap(pair_counts: list, protocol: Protocol) -> None:
    cap = protocol.enumeration_cap
    combos = 1
    for count in pair_counts:
        combos *= count
        if combos > cap:
            raise CapacityError(
                f"joint enumeration would exceed {cap} (choice, set) combinations")


def check_joint_cap(design, protocol: Protocol) -> None:
    """Refuse a design as :func:`kl_terms` would, before any work: for too
    many feasible sets, then for too many joint (choice, set) outcomes."""
    _check_joint_cap([feasible_pair_count(protocol, obs.n_alts)
                      for obs in design.observations], protocol)


def _joint_outcomes(pairs: list, protocol: Protocol):
    """Every joint (choices, sets) outcome of a design, in product order,
    in blocks of at most ``_BLOCK_CELLS`` grid cells (or one outcome).

    Yields (ln pi (n,), ll_true (n, P), ll_samp (n, P)): the log probability
    of the sets given the choices, and the full-set and evaluated-mode
    log-likelihoods of the choices on the grid, one row per outcome.  Each
    row sums its observations' pairs first to last, starting from zero.
    Refuses, before the first block, to enumerate more than the protocol's
    cap.
    """
    _check_joint_cap([len(p[0]) for p in pairs], protocol)
    n_points = pairs[0][1].shape[1]
    rows = max(1, _BLOCK_CELLS // n_points)
    # A block is one combination of the observations before ``split``, a
    # slice of ``chunk`` pairs of observation ``split`` and every
    # combination of the observations after it.
    split, tail = len(pairs) - 1, 1
    while split > 0 and tail * len(pairs[split][0]) <= rows:
        tail *= len(pairs[split][0])
        split -= 1
    chunk = rows // tail
    zero = (np.zeros(1), np.zeros((1, n_points)), np.zeros((1, n_points)))
    for prefix in product(*(range(len(p[0])) for p in pairs[:split])):
        head = zero
        for obs_pairs, i in zip(pairs, prefix):
            head = tuple(h + a[i:i + 1] for h, a in zip(head, obs_pairs))
        for lo in range(0, len(pairs[split][0]), chunk):
            block = tuple(_outer_add(h, a[lo:lo + chunk])
                          for h, a in zip(head, pairs[split]))
            for obs_pairs in pairs[split + 1:]:
                block = tuple(_outer_add(b, a)
                              for b, a in zip(block, obs_pairs))
            yield block


def _term_a(weights: np.ndarray, log_prior: np.ndarray,
            divergence: list) -> float:
    """-integral of prior x sum_n expected_divergence_n."""
    return float(np.sum(weights * np.exp(log_prior) * -sum(divergence)))


def kl_term_a(design, protocol: Protocol, correction_mode: str, prior,
              grid: GridSpec) -> float:
    """Term A of :func:`kl_terms` alone, without the joint (choice, set) loop.

    A integrates, against the prior, the coverage-weighted expected log
    ratio of true to corrected-sampled likelihoods, regrouped per
    observation; it is non-positive under uniform conditioning.
    """
    return _term_a(*_lattice(design, protocol, correction_mode, prior,
                             grid)[:3])


def kl_terms(design, protocol: Protocol, correction_mode: str, prior,
             grid: GridSpec) -> KlTerms:
    """The two pieces of the expected posterior KL divergence.

    A is :func:`kl_term_a`; B is the expected log inverse Bayes factor,
    assembled from grid marginal likelihoods over the exact joint of
    choices and sets.  Their sum is the expected KL divergence from the
    full-set posterior to the sampled-set posterior.
    """
    weights, log_prior, divergence, pairs = _lattice(design, protocol,
                                                     correction_mode, prior,
                                                     grid)
    term_a = _term_a(weights, log_prior, divergence)
    term_b = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(pairs, protocol):
        log_m_true = log_trapezoid(log_prior + ll_true, weights)
        log_m_samp = log_trapezoid(log_prior + ll_samp, weights)
        for b in (np.exp(log_pi + log_m_true)
                  * (log_m_samp - log_m_true)).tolist():
            term_b += b
    return KlTerms(term_a, term_b)


def kl_term_a_joint(design, protocol: Protocol, correction_mode: str, prior,
                    grid: GridSpec) -> float:
    """A computed the long way, from the raw joint over (Y, D).

    Independent verification path for :func:`kl_terms`: weights each joint
    outcome by prior x full-model likelihood x set probabilities and
    integrates the log likelihood ratio, with no coverage regrouping.
    """
    weights, log_prior, _, pairs = _lattice(design, protocol,
                                            correction_mode, prior, grid)
    total = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(pairs, protocol):
        integrand = (np.exp(log_prior + ll_true + log_pi[:, None])
                     * (ll_true - ll_samp))
        for a in np.sum(weights * integrand, axis=-1).tolist():
            total += a
    return total


def kl_term_a_entropy_form(design, protocol: Protocol, prior,
                           grid: GridSpec) -> float:
    """A for uniform conditioning via the entropy form:

    integral of p(beta) * (prod_n pi_dagger_n) * sum over joint sets of
    (prod_n ratio_n) ln(prod_n ratio_n), expanded per observation through
    independence.  Only valid for the uniform protocol with its own
    (mcfadden) corrections.
    """
    if protocol.kind != "uniform_wor":
        raise InvalidInputError("entropy form needs the uniform protocol")
    _check_grid(grid, design.K)
    points = grid.lattice()
    weights = grid.weights()
    log_prior = prior.log_density(points)

    log_pi_dagger = 0.0
    s_plain = []   # per obs: sum_D ratio
    s_log = []     # per obs: sum_D ratio ln ratio
    for obs in design.observations:
        sets = enumerate_feasible_sets(protocol, obs.n_alts)
        V = utilities(obs, points)
        log_ratio = (log_sum_exp(np.where(sets.pad, -np.inf, V[:, sets.member_ids]))
                     - log_sum_exp(V)[:, None])
        ratio = np.exp(log_ratio)
        s_plain.append(np.sum(ratio, axis=1))
        s_log.append(np.sum(ratio * log_ratio, axis=1))
        log_pi_dagger += float(sets.log_cond_prob[0, 0])

    inner = sum(s_log[m] * np.prod(s_plain[:m] + s_plain[m + 1:], axis=0)
                for m in range(len(s_plain)))
    integrand = np.exp(log_prior + log_pi_dagger) * inner
    return float(np.sum(weights * integrand))


def expected_kl_direct(design, protocol: Protocol, correction_mode: str, prior,
                       grid: GridSpec) -> float:
    """Expected posterior KL assembled outcome by outcome.

    For every joint (choices, sets): form both normalized grid posteriors,
    take their KL divergence by quadrature, and weight by the joint outcome
    probability.  Equals kl_terms().a + kl_terms().b up to float error while
    sharing no regrouping with that computation.
    """
    weights, log_prior, _, pairs = _lattice(design, protocol,
                                            correction_mode, prior, grid)
    total = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(pairs, protocol):
        lk_true = log_prior + ll_true
        lk_samp = log_prior + ll_samp
        lm_true = log_trapezoid(lk_true, weights)[:, None]
        lm_samp = log_trapezoid(lk_samp, weights)[:, None]
        p_true = np.exp(lk_true - lm_true)
        kl = np.sum(weights * p_true *
                    ((lk_true - lm_true) - (lk_samp - lm_samp)), axis=-1)
        for d in (np.exp(log_pi + lm_true[:, 0]) * kl).tolist():
            total += d
    return total


def protocol_comparison(designs: list, protocols: list[tuple[str, Protocol]],
                        prior, grid: GridSpec) -> ProtocolComparison:
    """A per protocol (mcfadden corrections), summed over the designs.

    Rows come back sorted by A, largest (least information loss) first.
    The uniform flag records whether some uniform-without-replacement
    protocol attains the maximum — an empirical survey result, not a
    theorem.
    """
    rows = []
    for label, protocol in protocols:
        per_design = [kl_term_a(d, protocol, "mcfadden", prior, grid)
                      for d in designs]
        rows.append(ComparisonRow(label, protocol.kind,
                                  float(sum(per_design)), per_design))
    rows.sort(key=lambda r: r.a_total, reverse=True)
    best = max(r.a_total for r in rows)
    uniform_best = any(r.kind == "uniform_wor" and r.a_total >= best - 1e-12
                       for r in rows)
    return ProtocolComparison(rows, uniform_best)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def build_divergence_report(design, protocol: Protocol, correction_mode: str,
                            beta_star: UtilityParams, prior,
                            grid: GridSpec) -> DivergenceReport:
    """All oracle quantities for one design at the process parameters.

    The three expectation scalars are evaluated at beta = beta_star, where
    expected_divergence = expected_quasi_ll - expected_true_ll holds as an
    identity.
    """
    eq = sum(expected_quasi_ll(obs, protocol, beta_star, beta_star,
                               correction_mode)
             for obs in design.observations)
    et = sum(expected_true_ll(obs, beta_star, beta_star)
             for obs in design.observations)
    ed = sum(expected_divergence(obs, protocol, beta_star, correction_mode)
             for obs in design.observations)
    sets = enumerate_feasible_sets(protocol, design.J)
    coverage = np.array([coverage_r(obs, sets, beta_star)
                         for obs in design.observations])
    terms = kl_terms(design, protocol, correction_mode, prior, grid)
    return DivergenceReport(
        expected_quasi_ll=float(eq),
        expected_true_ll=float(et),
        expected_divergence=float(ed),
        r_coverage=coverage,
        kl_term_a=terms.a,
        kl_term_b=terms.b,
    )
