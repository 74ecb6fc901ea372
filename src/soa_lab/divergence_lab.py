"""Exhaustive-enumeration oracles for the sampled-set expectation identities.

Everything here is exact (up to quadrature on an explicit grid): expected
quasi log-likelihoods in both summation orderings, set-coverage ratios,
expected divergence between sampled and full log-likelihoods in direct,
split, and closed forms, and the two terms of the expected posterior KL
divergence together with independent re-assemblies used to cross-check
them.  Nothing in this module is Monte Carlo.

Every oracle takes a design (N observations sharing J and K) and runs one
masked kernel over blocks of its (N, J, K) attribute tensor.  The
per-observation oracles and the term-A oracles take the protocol's feasible
set table (:func:`enumerate_feasible_sets`); the per-observation ones give
one value per observation: (N,) at one beta, (P, N) for a batch of P.  The
grid-KL oracles (:func:`kl_terms`, :func:`expected_kl_direct`) take the
protocol and enumerate the table themselves.  One pass over the joint
(choice, set) outcomes gives every joint sum, and
:func:`build_divergence_report` enumerates the feasible table once per row,
hands it to every oracle that takes a table and evaluates each oracle once.

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
from .model_core import SetTable, log_softmax, shifted_exp_sum, utilities
# perfbench/tracing.py looks up enumerate_sets here.
from .protocols import (Protocol, centred_corrections,  # noqa: F401
                        enumerate_feasible_sets, enumerate_sets, feasible_pair_count)

_MIN_GRID_POINTS = 51
# Grid cells (outcomes x lattice points) per block of the joint outcome loop.
_BLOCK_CELLS = 1 << 14


@dataclass
class DivergenceReport:
    """Every oracle quantity of one (design, protocol, mode) row.

    ``feasible`` is the protocol's feasible table, from
    :func:`enumerate_feasible_sets`; ``r_coverage`` is (n_obs, S): R at
    beta_star for every observation and every row of ``feasible``.  The
    other fields are the numeric columns of ``divergence.csv``, by name and
    in order.
    """

    feasible: SetTable
    r_coverage: np.ndarray
    expected_quasi_ll: float
    expected_true_ll: float
    expected_divergence: float
    kl_term_a: float
    kl_term_b: float
    expected_kl: float
    r_min: float
    r_max: float
    r_sum_abs_err: float
    resid_ordering: float
    resid_divergence_forms: float
    resid_closed_form: float
    resid_kl_decomposition: float
    resid_entropy_form: float


@dataclass
class KlTerms:
    a: float
    b: float
    a_joint: float
    kl_direct: float


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
# the per-set kernel over a design
# ---------------------------------------------------------------------------

def _log_sum(values: np.ndarray) -> np.ndarray:
    """ln sum exp over the last axis, on the estimators' max-shift."""
    m, s = shifted_exp_sum(values)
    with np.errstate(divide="ignore"):
        return (m + np.log(s))[..., 0]


def _set_kernel(X: np.ndarray, sets: SetTable, mode: str, beta):
    """The corrected softmax of every observation of an (n, J, K) attribute
    array over every row of ``sets``, with ChoiceArrays' arithmetic.

    ``beta`` is one point (K,) or a batch (P, K); a batch puts
    a leading P axis on every output except ``c``.  For S rows of width m:

    * ``log_r`` (n, S): log coverage ln R(D);
    * ``lp_proc`` (n, S, m): process member log-probabilities (lcp corrections);
    * ``lp_eval`` (n, S, m): evaluated member log-probabilities (mode corrections);
    * ``c`` (S, m): the mode's corrections, re-centred per row;
    * ``lp_full`` (n, S, m): ln P(i | beta, C) of each member.

    Padding is -inf in the log-probabilities and 0 in ``c``.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1:] != X.shape[2:]:
        raise InvalidInputError("parameter length does not match attributes")
    V = np.einsum("njk,...nk->...nj", X, np.broadcast_to(
        beta[..., None, :], beta.shape[:-1] + (len(X), X.shape[2])))
    # Flat indices keep an observation's (S, m) values contiguous at a point
    # and a batch's P axis innermost: every sum runs as for one observation.
    flat = (np.arange(len(X)) * X.shape[1])[:, None, None] + sets.member_ids
    lead = V.shape[:-2] + (-1,)
    Vm = V.reshape(lead)[..., flat]
    lp_full = np.where(sets.pad, -np.inf, log_softmax(V).reshape(lead)[..., flat])
    log_r = _log_sum(lp_full + sets.log_cond_prob)
    c = centred_corrections(sets, mode)
    lp_eval = log_softmax(np.where(sets.pad, -np.inf, Vm + c))
    lp_proc = lp_eval if mode == "mcfadden" else log_softmax(
        np.where(sets.pad, -np.inf, Vm + centred_corrections(sets, "mcfadden")))
    return log_r, lp_proc, lp_eval, c, lp_full


def _blocks(design, sets: SetTable, *betas) -> list[slice]:
    """Slices of the design's observations: as many per block as keep the
    (P, n, S, m) kernel at the largest of ``betas`` in ``_BLOCK_CELLS``, >= 1."""
    points = max(np.size(b) for b in betas) // design.K
    rows = max(1, _BLOCK_CELLS // (points * sets.member_ids.size))
    return [slice(lo, lo + rows) for lo in range(0, design.n_obs, rows)]


def _per_block(design, sets: SetTable, mode: str, betas: tuple, reduce,
               axis: int = -1) -> np.ndarray:
    """``reduce`` of each block's kernels at ``betas``, joined along ``axis``."""
    X = design.attribute_tensor()
    return np.concatenate(
        [reduce(*(_set_kernel(X[block], sets, mode, beta) for beta in betas))
         for block in _blocks(design, sets, *betas)], axis)


def _expect(lp: np.ndarray, values: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """sum over each row's members of exp(lp) * values."""
    return np.sum(np.exp(lp) * np.where(pad, 0.0, values), axis=-1)


def _split_divergence(sets: SetTable, kernel: tuple) -> np.ndarray:
    """sum_D R [ sum_i P(i|beta,D) c_i - ln( sum_D e^{V+c} / sum_C e^V ) ]."""
    log_r, lp_proc, _, c, lp_full = kernel
    return np.sum(np.exp(log_r) * (_expect(lp_proc, c, sets.pad)
                                   - _log_sum(lp_full + c)), axis=-1)


# ---------------------------------------------------------------------------
# per-observation oracles
# ---------------------------------------------------------------------------

def coverage_r(design, sets: SetTable, beta) -> np.ndarray:
    """R of every observation and row of ``sets``, (N, S) or (P, N, S): the
    share of the full exponentiated-utility mass the set accounts for, after
    weighting each member by its conditional set probability."""
    return _per_block(design, sets, "none", (beta,),
                      lambda k: np.exp(k[0]), axis=-2)


def expected_true_ll(design, beta_star, beta) -> np.ndarray:
    """sum_i P(i | beta_star, C) ln P(i | beta, C) of each observation."""
    lp_star, lp = (log_softmax(utilities(design.attribute_tensor(), b))
                   for b in (beta_star, beta))
    return np.sum(np.exp(lp_star) * lp, axis=-1)


def expected_quasi_ll(design, feasible: SetTable, beta_star, beta,
                      correction_mode: str) -> np.ndarray:
    """Expected sampled-set log-likelihood of each observation, choice-first.

    Outer sum over the chosen alternative weighted by the full-model
    probability at beta_star; inner sum over every feasible set containing
    it, weighted by the set's conditional probability; the summand is the
    log corrected sampled probability evaluated at beta.
    """
    p_star = np.exp(log_softmax(utilities(design.attribute_tensor(),
                                          beta_star)))
    total = 0.0
    for i in range(design.J):
        at_i = (feasible.member_ids == i) & ~feasible.pad
        # The rows holding i, in order: enumerate_sets(protocol, J, i).
        rows = at_i.any(axis=1)
        sets, at_i = feasible[rows], at_i[rows]
        weights = np.exp(sets.log_cond_prob[at_i])[:, None]
        # One dot product per contiguous row: the same bits in any design.
        inner = _per_block(design, sets, correction_mode, (beta,), lambda k: (
            np.ascontiguousarray(k[2][..., at_i])[..., None, :]
            @ weights)[..., 0, 0])
        total = total + p_star[..., i] * inner
    return total


def expected_quasi_ll_setwise(design, sets: SetTable, beta_star, beta,
                              correction_mode: str) -> np.ndarray:
    """Same expectation, regrouped set-first: sum_D R(D) sum_i P(i|D) ln(...).

    Independent code path used to verify the choice-first ordering; the
    set-first weights R and P(i | beta_star, D) always use the conditional
    sampling probabilities (they come from rewriting the joint), regardless
    of the evaluated correction mode.
    """
    return _per_block(design, sets, correction_mode, (beta_star, beta),
                      lambda star, k: np.sum(np.exp(star[0]) * _expect(
                          star[1], k[2], sets.pad), axis=-1))


def expected_divergence(design, sets: SetTable, beta,
                        correction_mode: str) -> np.ndarray:
    """Split-form expected gap between sampled and full log-likelihood.

    sum_D R(D) [ sum_i P(i|beta,D) c_i  -  ln( sum_D e^{V+c} / sum_C e^V ) ];
    for mcfadden corrections the second piece reduces to -sum_D R ln R.
    """
    return _per_block(design, sets, correction_mode, (beta,),
                      lambda k: _split_divergence(sets, k))


def expected_divergence_direct(design, sets: SetTable, beta,
                               correction_mode: str) -> np.ndarray:
    """Direct form: sum_D R sum_i P(i|beta,D) [ln P_eval(i|beta,D) - ln P(i|beta,C)]."""
    return _per_block(design, sets, correction_mode, (beta,), lambda k: np.sum(
        np.exp(k[0]) * (_expect(k[1], k[2], sets.pad)
                        - _expect(k[1], k[4], sets.pad)), axis=-1))


def divergence_uniform_closed_form(design, sets: SetTable,
                                   beta) -> np.ndarray:
    """Closed form for uniform conditioning with its own corrections:

    -sum_D pi_dagger * ratio(D) * ln ratio(D),   ratio = sum_D e^V / sum_C e^V.

    Only defined for tables whose members share one ln pi_dagger per row,
    as every uniform without-replacement table does.
    """
    lcp = sets.log_cond_prob
    if np.any(~sets.pad & (lcp != lcp[:, :1])):
        raise InvalidInputError("closed form needs equal ln pi(D|j) across "
                                "each set's members")
    log_ratio = _per_block(design, sets, "none", (beta,),
                           lambda k: _log_sum(k[4]), axis=-2)
    return -np.sum(np.exp(sets.log_cond_prob[:, 0]) * np.exp(log_ratio)
                   * log_ratio, axis=-1)


# ---------------------------------------------------------------------------
# KL terms on a parameter grid
# ---------------------------------------------------------------------------

def _check_grid(grid: GridSpec, K: int) -> None:
    if grid.dim != K:
        raise InvalidInputError("grid dimension must match design K")
    if min(grid.points) < _MIN_GRID_POINTS:
        raise InvalidInputError(
            f"grid needs at least {_MIN_GRID_POINTS} points per dimension")


def _lattice(design, sets: SetTable, correction_mode: str, prior,
             grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Quadrature weights, log prior, each observation's expected divergence
    on the lattice (N, P), and per observation its (chosen, set) pairs over
    the feasible table ``sets`` as the arrays ln pi(D|i) (L,),
    ln P(i | beta, C) (L, P) and ln P_eval(i | beta, D) (L, P), in set order,
    then member order."""
    _check_grid(grid, design.K)
    points = grid.lattice()
    s, pos = np.nonzero(~sets.pad)
    log_pi = sets.log_cond_prob[s, pos]
    X = design.attribute_tensor()
    divergence, pairs = [], []
    for block in _blocks(design, sets, points):
        kernel = _set_kernel(X[block], sets, correction_mode, points)
        divergence.append(_split_divergence(sets, kernel).T)
        ll_true, ll_samp = (np.moveaxis(k[..., s, pos], 0, -1)
                            for k in (kernel[4], kernel[2]))
        pairs += [(log_pi, np.ascontiguousarray(t), np.ascontiguousarray(u))
                  for t, u in zip(ll_true, ll_samp)]
    return (grid.weights(), prior.log_density(points),
            np.concatenate(divergence), pairs)


def _outer_add(acc: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Every row of ``acc`` plus every row of ``values``, ``acc`` slowest."""
    return (acc[:, None] + values[None]).reshape((-1,) + values.shape[1:])


def check_joint_cap(design, protocol: Protocol) -> None:
    """Refuse a design as :func:`kl_terms` does, before any work: for too
    many feasible sets, then for too many joint (choice, set) outcomes."""
    cap = protocol.enumeration_cap
    if feasible_pair_count(protocol, design.J) ** design.n_obs > cap:
        raise CapacityError(
            f"joint enumeration would exceed {cap} (choice, set) combinations")


def _joint_outcomes(pairs: list):
    """Every joint (choices, sets) outcome of a design, in product order,
    in blocks of at most ``_BLOCK_CELLS`` grid cells (or one outcome).

    Yields (ln pi (n,), ll_true (n, P), ll_samp (n, P)): the log probability
    of the sets given the choices, and the full-set and evaluated-mode
    log-likelihoods of the choices on the grid, one row per outcome.  Each
    row sums its observations' pairs first to last, starting from zero.
    """
    n_pairs, n_points = pairs[0][1].shape
    rows = max(1, _BLOCK_CELLS // n_points)
    # A block is one combination of the observations before ``split``, a
    # slice of ``chunk`` pairs of observation ``split`` and every
    # combination of the observations after it.
    split, tail = len(pairs) - 1, 1
    while split > 0 and tail * n_pairs <= rows:
        tail *= n_pairs
        split -= 1
    chunk = rows // tail
    zero = (np.zeros(1), np.zeros((1, n_points)), np.zeros((1, n_points)))
    for prefix in product(range(n_pairs), repeat=split):
        head = zero
        for obs_pairs, i in zip(pairs, prefix):
            head = tuple(h + a[i:i + 1] for h, a in zip(head, obs_pairs))
        for lo in range(0, n_pairs, chunk):
            block = tuple(_outer_add(h, a[lo:lo + chunk])
                          for h, a in zip(head, pairs[split]))
            for obs_pairs in pairs[split + 1:]:
                block = tuple(_outer_add(b, a)
                              for b, a in zip(block, obs_pairs))
            yield block


def _term_a(weights: np.ndarray, log_prior: np.ndarray,
            divergence: np.ndarray) -> float:
    """-integral of prior x sum_n expected_divergence_n, n first to last."""
    return float(np.sum(weights * np.exp(log_prior) * -sum(divergence)))


def kl_term_a(design, feasible: SetTable, correction_mode: str, prior,
              grid: GridSpec) -> float:
    """Term A of :func:`kl_terms` alone, without the joint (choice, set) loop,
    over the protocol's feasible table.

    A integrates, against the prior, the coverage-weighted expected log
    ratio of true to corrected-sampled likelihoods, regrouped per
    observation; it is non-positive under uniform conditioning.
    """
    return _term_a(*_lattice(design, feasible, correction_mode, prior,
                             grid)[:3])


def kl_terms(design, protocol: Protocol, correction_mode: str, prior,
             grid: GridSpec) -> KlTerms:
    """The two pieces of the expected posterior KL divergence, and two
    independent re-assemblies, from one pass over the joint outcomes.

    A is :func:`kl_term_a`; B is the expected log inverse Bayes factor from
    grid marginal likelihoods.  A + B is the expected KL divergence from the
    full-set to the sampled-set posterior.  ``a_joint`` is A from the raw
    joint (prior x likelihood x set probabilities times the log likelihood
    ratio, no coverage regrouping); ``kl_direct`` weights each outcome's
    grid KL between the two normalized posteriors by its probability.
    """
    check_joint_cap(design, protocol)
    weights, log_prior, divergence, pairs = _lattice(
        design, enumerate_feasible_sets(protocol, design.J), correction_mode,
        prior, grid)
    term_a = _term_a(weights, log_prior, divergence)
    term_b = a_joint = kl_direct = 0.0
    for log_pi, ll_true, ll_samp in _joint_outcomes(pairs):
        lk_true, lk_samp = log_prior + ll_true, log_prior + ll_samp
        lm_true = log_trapezoid(lk_true, weights)
        lm_samp = log_trapezoid(lk_samp, weights)
        lp_true = lk_true - lm_true[:, None]
        kl = np.sum(weights * np.exp(lp_true)
                    * (lp_true - (lk_samp - lm_samp[:, None])), axis=-1)
        integrand = np.exp(lk_true + log_pi[:, None]) * (ll_true - ll_samp)
        joint = np.exp(log_pi + lm_true)
        for b, a, d in zip((joint * (lm_samp - lm_true)).tolist(),
                           np.sum(weights * integrand, axis=-1).tolist(),
                           (joint * kl).tolist()):
            term_b += b
            a_joint += a
            kl_direct += d
    return KlTerms(term_a, term_b, a_joint, kl_direct)


def kl_term_a_entropy_form(design, sets: SetTable, prior,
                           grid: GridSpec) -> float:
    """A for uniform conditioning via the entropy form, over the feasible
    table ``sets``:

    integral of p(beta) * (prod_n pi_dagger_n) * sum over joint sets of
    (prod_n ratio_n) ln(prod_n ratio_n), expanded per observation through
    independence.  Only valid when every member of every set shares one
    ln pi_dagger, as in every uniform without-replacement table; then
    McFadden's corrections cancel, so A is the same in every mode.
    """
    lcp = sets.log_cond_prob
    if np.any(~sets.pad & (lcp != lcp[0, 0])):
        raise InvalidInputError("entropy form needs one ln pi(D|j) shared by "
                                "every member of every set")
    _check_grid(grid, design.K)
    points = grid.lattice()
    log_ratio = _per_block(design, sets, "none", (points,),
                           lambda k: _log_sum(k[4]), axis=-2)
    ratio = np.exp(log_ratio)
    s_plain = list(np.sum(ratio, axis=-1).T)             # per obs: sum_D ratio
    s_log = list(np.sum(ratio * log_ratio, axis=-1).T)   # sum_D ratio ln ratio
    log_pi_dagger = design.n_obs * float(sets.log_cond_prob[0, 0])
    inner = sum(s_log[m] * np.prod(s_plain[:m] + s_plain[m + 1:], axis=0)
                for m in range(len(s_plain)))
    integrand = np.exp(prior.log_density(points) + log_pi_dagger) * inner
    return float(np.sum(grid.weights() * integrand))


def expected_kl_direct(design, protocol: Protocol, correction_mode: str, prior,
                       grid: GridSpec) -> float:
    """Expected posterior KL assembled outcome by outcome: ``kl_direct`` of
    :func:`kl_terms`."""
    return kl_terms(design, protocol, correction_mode, prior, grid).kl_direct


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
        per_design = [kl_term_a(d, enumerate_feasible_sets(protocol, d.J),
                                "mcfadden", prior, grid) for d in designs]
        rows.append(ComparisonRow(label, protocol.kind,
                                  float(sum(per_design)), per_design))
    rows.sort(key=lambda r: r.a_total, reverse=True)
    best = max(r.a_total for r in rows)
    uniform_best = any(r.kind == "uniform_wor" and r.a_total >= best - 1e-12
                       for r in rows)
    return ProtocolComparison(rows, uniform_best)


def build_divergence_report(design, protocol: Protocol, correction_mode: str,
                            beta_star: np.ndarray, prior,
                            grid: GridSpec) -> DivergenceReport:
    """Every oracle quantity of one ``divergence.csv`` row, each oracle
    evaluated once at beta = beta_star, where expected_divergence =
    expected_quasi_ll - expected_true_ll holds as an identity."""
    def worst(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    sets = enumerate_feasible_sets(protocol, design.J)
    quasi, setwise = (
        oracle(design, sets, beta_star, beta_star, correction_mode)
        for oracle in (expected_quasi_ll, expected_quasi_ll_setwise))
    split, direct = (
        oracle(design, sets, beta_star, correction_mode)
        for oracle in (expected_divergence, expected_divergence_direct))
    true = expected_true_ll(design, beta_star, beta_star)
    coverage = coverage_r(design, sets, beta_star)
    terms = kl_terms(design, protocol, correction_mode, prior, grid)
    resid_closed = resid_entropy = float("nan")
    if protocol.kind == "uniform_wor":
        # With one ln pi per set McFadden's corrections cancel, so the split
        # form and A are those of mcfadden in either mode.
        resid_closed = worst(
            divergence_uniform_closed_form(design, sets, beta_star), split)
        resid_entropy = abs(kl_term_a_entropy_form(design, sets, prior, grid)
                            - terms.a)
    expected_kl = terms.a + terms.b
    # Python's sum adds the observations first to last at any N.
    return DivergenceReport(
        sets, coverage,
        *(sum(values.tolist()) for values in (quasi, true, split)),
        terms.a, terms.b, expected_kl,
        float(coverage.min()), float(coverage.max()),
        float(np.max(np.abs(coverage.sum(axis=1) - 1.0))),
        worst(quasi, setwise), worst(split, direct), resid_closed,
        abs(expected_kl - terms.kl_direct), resid_entropy)
