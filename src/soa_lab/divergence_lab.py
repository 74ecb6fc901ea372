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

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import CapacityError, InvalidInputError
from .grids import GridSpec, log_trapezoid
from .model_core import (Observation, SampledSet, UtilityParams, log_softmax,
                         log_sum_exp, utilities)
from .protocols import (Protocol, correction_vector, enumerate_feasible_sets,
                        enumerate_sets)

_MIN_GRID_POINTS = 51


@dataclass
class DivergenceReport:
    """Bundle of the oracle quantities for one (design, protocol, mode)."""

    expected_quasi_ll: float
    expected_true_ll: float
    expected_divergence: float
    r_coverage: dict
    kl_term_a: float
    kl_term_b: float
    metadata: dict = field(default_factory=dict)


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
# coverage and expected quasi log-likelihood
# ---------------------------------------------------------------------------

def coverage_r(observation: Observation, enumerated_set, beta: UtilityParams) -> float:
    """Share of the full exponentiated-utility mass the set accounts for,
    after weighting each member by its conditional set probability."""
    V = utilities(observation, beta)
    members = np.asarray(enumerated_set.member_ids, dtype=int)
    lcp = np.asarray(enumerated_set.log_cond_prob, dtype=float)
    return float(np.exp(log_sum_exp(V[members] + lcp) - log_sum_exp(V)))


def expected_true_ll(observation: Observation, beta_star: UtilityParams,
                     beta: UtilityParams) -> float:
    """sum_i P(i | beta_star, C) ln P(i | beta, C)."""
    lp_star = log_softmax(utilities(observation, beta_star))
    lp = log_softmax(utilities(observation, beta))
    return float(np.exp(lp_star) @ lp)


def expected_quasi_ll(observation: Observation, protocol: Protocol,
                      beta_star: UtilityParams, beta: UtilityParams,
                      correction_mode: str) -> float:
    """Expected sampled-set log-likelihood, choice-first ordering.

    Outer sum over the chosen alternative weighted by the full-model
    probability at beta_star; inner sum over every feasible set containing
    it, weighted by the set's conditional probability; the summand is the
    log corrected sampled probability evaluated at beta.
    """
    V_star = utilities(observation, beta_star)
    V = utilities(observation, beta)
    p_star = np.exp(log_softmax(V_star))
    total = 0.0
    for i in range(observation.n_alts):
        for es in enumerate_sets(protocol, observation, i):
            c = correction_vector(es.log_cond_prob, correction_mode)
            lp_eval = log_softmax(V[es.member_ids] + c)
            pos = int(np.nonzero(es.member_ids == i)[0][0])
            total += p_star[i] * np.exp(es.log_prob_given_chosen) * lp_eval[pos]
    return float(total)


def expected_quasi_ll_setwise(observation: Observation, protocol: Protocol,
                              beta_star: UtilityParams, beta: UtilityParams,
                              correction_mode: str) -> float:
    """Same expectation, regrouped set-first: sum_D R(D) sum_i P(i|D) ln(...).

    Independent code path used to verify the choice-first ordering; the
    set-first weights R and P(i | beta_star, D) always use the conditional
    sampling probabilities (they come from rewriting the joint), regardless
    of the evaluated correction mode.
    """
    V_star = utilities(observation, beta_star)
    V = utilities(observation, beta)
    lse_star = log_sum_exp(V_star)
    total = 0.0
    for members, lcp in enumerate_feasible_sets(protocol, observation.n_alts):
        r = np.exp(log_sum_exp(V_star[members] + lcp) - lse_star)
        p_proc = np.exp(log_softmax(V_star[members] + lcp))
        c = correction_vector(lcp, correction_mode)
        lp_eval = log_softmax(V[members] + c)
        total += r * float(p_proc @ lp_eval)
    return float(total)


# ---------------------------------------------------------------------------
# expected divergence between sampled and full log-likelihoods
# ---------------------------------------------------------------------------

def expected_divergence(observation: Observation, protocol: Protocol,
                        beta: UtilityParams, correction_mode: str) -> float:
    """Split-form expected gap between sampled and full log-likelihood.

    sum_D R(D) [ sum_i P(i|beta,D) c_i  -  ln( sum_D e^{V+c} / sum_C e^V ) ];
    for mcfadden corrections the second piece reduces to -sum_D R ln R.
    """
    V = utilities(observation, beta)
    lse_full = log_sum_exp(V)
    total = 0.0
    for members, lcp in enumerate_feasible_sets(protocol, observation.n_alts):
        log_num = log_sum_exp(V[members] + lcp)
        r = np.exp(log_num - lse_full)
        p_proc = np.exp(V[members] + lcp - log_num)
        c = correction_vector(lcp, correction_mode)
        log_ratio_c = log_sum_exp(V[members] + c) - lse_full
        total += r * (float(p_proc @ c) - log_ratio_c)
    return float(total)


def expected_divergence_direct(observation: Observation, protocol: Protocol,
                               beta: UtilityParams, correction_mode: str) -> float:
    """Direct form: sum_D R sum_i P(i|beta,D) [ln P_eval(i|beta,D) - ln P(i|beta,C)]."""
    V = utilities(observation, beta)
    lp_full = log_softmax(V)
    lse_full = log_sum_exp(V)
    total = 0.0
    for members, lcp in enumerate_feasible_sets(protocol, observation.n_alts):
        log_num = log_sum_exp(V[members] + lcp)
        r = np.exp(log_num - lse_full)
        p_proc = np.exp(V[members] + lcp - log_num)
        c = correction_vector(lcp, correction_mode)
        lp_eval = log_softmax(V[members] + c)
        total += r * float(p_proc @ (lp_eval - lp_full[members]))
    return float(total)


def divergence_uniform_closed_form(observation: Observation, protocol: Protocol,
                                   beta: UtilityParams) -> float:
    """Closed form for uniform conditioning with its own corrections:

    -sum_D pi_dagger * ratio(D) * ln ratio(D),   ratio = sum_D e^V / sum_C e^V.

    Only defined for protocols whose conditional probabilities are a shared
    constant per set (uniform without-replacement sampling).
    """
    if protocol.kind != "uniform_wor":
        raise InvalidInputError("closed form needs the uniform protocol")
    V = utilities(observation, beta)
    lse_full = log_sum_exp(V)
    total = 0.0
    for members, lcp in enumerate_feasible_sets(protocol, observation.n_alts):
        ratio = np.exp(log_sum_exp(V[members]) - lse_full)
        total -= np.exp(lcp[0]) * ratio * np.log(ratio)
    return float(total)


# ---------------------------------------------------------------------------
# KL terms on a parameter grid
# ---------------------------------------------------------------------------

class _ObsGridTables:
    """Per-observation enumerated-set quantities over all grid points.

    ``V`` is (J, P) utilities across the lattice.  For each feasible set the
    tables hold coverage, the evaluated-mode ratio log, and the process-
    probability-weighted correction sum, all shaped (P,).  Pair tables index
    (chosen, set) combinations for the joint enumerations.
    """

    def __init__(self, observation: Observation, protocol: Protocol,
                 mode: str, points: np.ndarray):
        X = observation.attribute_matrix()
        self.V = X @ points.T                        # (J, P)
        self.lse_full = _lse_cols(self.V)            # (P,)
        self.lp_full = self.V - self.lse_full        # log P(i | beta, C)
        self.sets = enumerate_feasible_sets(protocol, observation.n_alts)
        self.r = []            # coverage per set, (P,)
        self.log_ratio_c = []  # ln(sum_D e^{V+c} / sum_C e^V), (P,)
        self.c_term = []       # sum_i P_process(i|D) c_i, (P,)
        self.lp_eval = []      # (m, P) evaluated log member probabilities
        self.lp_proc = []      # (m, P) process log member probabilities
        self.corrections = []
        for members, lcp in self.sets:
            Vd = self.V[members] + lcp[:, None]
            log_num = _lse_cols(Vd)
            self.r.append(np.exp(log_num - self.lse_full))
            lp_proc = Vd - log_num
            c = correction_vector(lcp, mode)
            Vc = self.V[members] + c[:, None]
            log_num_c = _lse_cols(Vc)
            self.log_ratio_c.append(log_num_c - self.lse_full)
            self.c_term.append(np.exp(lp_proc).T @ c)
            self.lp_eval.append(Vc - log_num_c)
            self.lp_proc.append(lp_proc)
            self.corrections.append(c)

    def a_integrand(self) -> np.ndarray:
        """sum_D R (ln ratio_c - sum_i P_proc c_i) at each grid point."""
        out = np.zeros_like(self.lse_full)
        for r, lr, ct in zip(self.r, self.log_ratio_c, self.c_term):
            out += r * (lr - ct)
        return out

    def pairs(self):
        """(chosen id, set index, log pi(D|chosen)) for all feasible pairs."""
        out = []
        for s, (members, lcp) in enumerate(self.sets):
            for pos, i in enumerate(members):
                out.append((int(i), s, float(lcp[pos]), pos))
        return out


def _lse_cols(M: np.ndarray) -> np.ndarray:
    m = np.max(M, axis=0)
    return m + np.log(np.sum(np.exp(M - m), axis=0))


def _check_grid(grid: GridSpec, K: int) -> None:
    if grid.dim != K:
        raise InvalidInputError("grid dimension must match design K")
    if min(grid.points) < _MIN_GRID_POINTS:
        raise InvalidInputError(
            f"grid needs at least {_MIN_GRID_POINTS} points per dimension")


def _grid_tables(design, protocol: Protocol, correction_mode: str, prior,
                 grid: GridSpec) -> tuple[np.ndarray, np.ndarray,
                                          list[_ObsGridTables]]:
    """Quadrature weights, log prior and per-observation tables on the grid."""
    _check_grid(grid, design.K)
    points = grid.lattice()
    tables = [_ObsGridTables(obs, protocol, correction_mode, points)
              for obs in design.observations]
    return grid.weights(), prior.log_density(points), tables


def _joint_outcomes(tables: list[_ObsGridTables], protocol: Protocol):
    """Every joint (choices, sets) outcome of a design, in product order.

    Yields (ln pi, ll_true, ll_samp): the log probability of the sets given
    the choices, and the full-set and evaluated-mode log-likelihoods of the
    choices on the grid.  Refuses, before the first outcome, to enumerate
    more than the protocol's cap.
    """
    cap = protocol.enumeration_cap
    combos = 1
    for t in tables:
        combos *= len(t.pairs())
        if combos > cap:
            raise CapacityError(
                f"joint enumeration would exceed {cap} (choice, set) combinations")
    n_points = tables[0].lse_full.shape[0]
    for combo in product(*[t.pairs() for t in tables]):
        ll_true = np.zeros(n_points)
        ll_samp = np.zeros(n_points)
        log_pi = 0.0
        for t, (i, s, lpi, pos) in zip(tables, combo):
            ll_true += t.lp_full[i]
            ll_samp += t.lp_eval[s][pos]
            log_pi += lpi
        yield log_pi, ll_true, ll_samp


def _term_a(weights: np.ndarray, log_prior: np.ndarray,
            tables: list[_ObsGridTables]) -> float:
    a_sum = np.zeros(log_prior.shape[0])
    for t in tables:
        a_sum += t.a_integrand()
    return float(np.sum(weights * np.exp(log_prior) * a_sum))


def kl_term_a(design, protocol: Protocol, correction_mode: str, prior,
              grid: GridSpec) -> float:
    """Term A of :func:`kl_terms` alone, without the joint (choice, set) loop.

    A integrates, against the prior, the coverage-weighted expected log
    ratio of true to corrected-sampled likelihoods, regrouped per
    observation; it is non-positive under uniform conditioning.
    """
    return _term_a(*_grid_tables(design, protocol, correction_mode, prior,
                                 grid))


def kl_terms(design, protocol: Protocol, correction_mode: str, prior,
             grid: GridSpec) -> KlTerms:
    """The two pieces of the expected posterior KL divergence.

    A is :func:`kl_term_a`; B is the expected log inverse Bayes factor,
    assembled from grid marginal likelihoods over the exact joint of
    choices and sets.  Their sum is the expected KL divergence from the
    full-set posterior to the sampled-set posterior.
    """
    weights, log_prior, tables = _grid_tables(design, protocol,
                                              correction_mode, prior, grid)
    term_a = _term_a(weights, log_prior, tables)
    term_b = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(tables, protocol):
        log_m_true = log_trapezoid(log_prior + ll_true, weights)
        log_m_samp = log_trapezoid(log_prior + ll_samp, weights)
        term_b += np.exp(log_pi + log_m_true) * (log_m_samp - log_m_true)
    return KlTerms(term_a, float(term_b))


def kl_term_a_joint(design, protocol: Protocol, correction_mode: str, prior,
                    grid: GridSpec) -> float:
    """A computed the long way, from the raw joint over (Y, D).

    Independent verification path for :func:`kl_terms`: weights each joint
    outcome by prior x full-model likelihood x set probabilities and
    integrates the log likelihood ratio, with no coverage regrouping.
    """
    weights, log_prior, tables = _grid_tables(design, protocol,
                                              correction_mode, prior, grid)
    total = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(tables, protocol):
        integrand = np.exp(log_prior + ll_true + log_pi) * (ll_true - ll_samp)
        total += float(np.sum(weights * integrand))
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
        X = obs.attribute_matrix()
        V = X @ points.T
        lse_full = _lse_cols(V)
        plain = np.zeros(points.shape[0])
        logged = np.zeros(points.shape[0])
        sets = enumerate_feasible_sets(protocol, obs.n_alts)
        log_pi_dagger += float(sets[0][1][0])
        for members, _ in sets:
            log_ratio = _lse_cols(V[members]) - lse_full
            ratio = np.exp(log_ratio)
            plain += ratio
            logged += ratio * log_ratio
        s_plain.append(plain)
        s_log.append(logged)

    inner = np.zeros(points.shape[0])
    for m in range(len(s_plain)):
        term = s_log[m].copy()
        for n in range(len(s_plain)):
            if n != m:
                term *= s_plain[n]
        inner += term
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
    weights, log_prior, tables = _grid_tables(design, protocol,
                                              correction_mode, prior, grid)
    total = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(tables, protocol):
        lk_true = log_prior + ll_true
        lk_samp = log_prior + ll_samp
        lm_true = log_trapezoid(lk_true, weights)
        lm_samp = log_trapezoid(lk_samp, weights)
        p_true = np.exp(lk_true - lm_true)
        kl = float(np.sum(weights * p_true *
                          ((lk_true - lm_true) - (lk_samp - lm_samp))))
        total += np.exp(log_pi + lm_true) * kl
    return float(total)


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
    identity; the coverage table maps (observation index, member tuple) to
    R at beta_star.
    """
    eq = sum(expected_quasi_ll(obs, protocol, beta_star, beta_star,
                               correction_mode)
             for obs in design.observations)
    et = sum(expected_true_ll(obs, beta_star, beta_star)
             for obs in design.observations)
    ed = sum(expected_divergence(obs, protocol, beta_star, correction_mode)
             for obs in design.observations)
    coverage = {}
    for idx, obs in enumerate(design.observations):
        for members, lcp in enumerate_feasible_sets(protocol, obs.n_alts):
            es = SampledSet(members, lcp)
            coverage[(idx, tuple(int(j) for j in members))] = coverage_r(
                obs, es, beta_star)
    terms = kl_terms(design, protocol, correction_mode, prior, grid)
    return DivergenceReport(
        expected_quasi_ll=float(eq),
        expected_true_ll=float(et),
        expected_divergence=float(ed),
        r_coverage=coverage,
        kl_term_a=terms.a,
        kl_term_b=terms.b,
        metadata={"protocol_kind": protocol.kind,
                  "correction_mode": correction_mode,
                  "grid": grid},
    )
