"""Exhaustive-enumeration oracles for the sampled-set expectation identities.

Everything here is exact (up to quadrature on an explicit grid): expected
quasi log-likelihoods in both summation orderings, set-coverage ratios,
expected divergence between sampled and full log-likelihoods in direct,
split, and closed forms, and the two terms of the expected posterior KL
divergence together with an independent re-assembly used to cross-check
them.  Nothing in this module is Monte Carlo.

Every oracle takes a design (N observations sharing J and K) and runs one
masked kernel over blocks of its (N, J, K) attribute tensor.  The
per-observation oracles and the term-A oracles take the protocol's feasible
set table (:func:`enumerate_feasible_sets`); the per-observation ones give
one value per observation: (N,) at one beta, (P, N) for a batch of P.  The
grid-KL oracles (:func:`kl_terms`, :func:`expected_kl_direct`) take the
protocol and enumerate the table themselves.  One pass over the joint
(choice, set) outcomes gives every joint sum; it evaluates the full-set side
once per choice tuple and the sampled side once per outcome, and
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
from .protocols import (ENUMERATION_CAP, Protocol, centred_corrections,  # noqa: F401
                        enumerate_feasible_sets, enumerate_sets, feasible_pair_count)

MIN_GRID_POINTS = 51
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
    """Terms A and B of the expected posterior KL, and its direct sum."""

    a: float
    b: float
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
    * ``c`` (S, m): the mode's member term of :func:`centred_corrections`;
    * ``lp_full`` (n, S, m): ln P(i | beta, C) of each member.

    The member terms make padding -inf in ``c`` and every log-probability.
    """
    V = utilities(X, np.asarray(beta, dtype=float)[..., None, :])
    # Flat indices keep an observation's (S, m) values contiguous at a point
    # and a batch's P axis innermost: every sum runs as for one observation.
    flat = (np.arange(len(X)) * X.shape[1])[:, None, None] + sets.member_ids
    lead = V.shape[:-2] + (-1,)
    Vm = V.reshape(lead)[..., flat]
    lp_full = (log_softmax(V).reshape(lead)[..., flat]
               + centred_corrections(sets, "none"))
    log_r = _log_sum(lp_full + sets.log_cond_prob)
    c = centred_corrections(sets, mode)
    lp_eval = log_softmax(Vm + c)
    lp_proc = lp_eval if mode == "mcfadden" else log_softmax(
        Vm + centred_corrections(sets, "mcfadden"))
    return log_r, lp_proc, lp_eval, c, lp_full


def _full_log_probs(design, beta) -> np.ndarray:
    """ln P(j | beta, C) of every observation, (N, J) or (P, N, J)."""
    return log_softmax(utilities(design.attribute_tensor(),
                                 np.asarray(beta, dtype=float)[..., None, :]))


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
    lp_star, lp = (_full_log_probs(design, b) for b in (beta_star, beta))
    return np.sum(np.exp(lp_star) * lp, axis=-1)


def expected_quasi_ll(design, feasible: SetTable, beta_star, beta,
                      correction_mode: str) -> np.ndarray:
    """Expected sampled-set log-likelihood of each observation, choice-first.

    Outer sum over the chosen alternative weighted by the full-model
    probability at beta_star; inner sum over every feasible set containing
    it, weighted by the set's conditional probability; the summand is the
    log corrected sampled probability evaluated at beta.
    """
    p_star = np.exp(_full_log_probs(design, beta_star))
    at = [(feasible.member_ids == i) & ~feasible.pad for i in range(design.J)]
    # Alternative i's entries, in the order of enumerate_sets(protocol, J,
    # i), dot their pi(D|i): one dot product per contiguous row, the same
    # bits in any design.
    pi = [np.exp(feasible.log_cond_prob[at_i])[:, None] for at_i in at]
    inner = _per_block(design, feasible, correction_mode, (beta,), lambda k: (
        np.stack([(np.ascontiguousarray(k[2][..., at_i])[..., None, :] @ w)
                  [..., 0, 0] for at_i, w in zip(at, pi)], axis=-1)), axis=-2)
    return sum(p_star[..., i] * inner[..., i] for i in range(design.J))


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
    if min(grid.points) < MIN_GRID_POINTS:
        raise InvalidInputError(
            f"grid needs at least {MIN_GRID_POINTS} points per dimension")


def _lattice(design, sets: SetTable, correction_mode: str, prior,
             grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Quadrature weights, log prior, each observation's expected divergence
    on the lattice (N, P), and per observation its (chosen, set) pairs over
    the feasible table ``sets``, in set order, then member order: the arrays
    ln pi(D|i) (L,) and ln P_eval(i | beta, D) (L, P), each pair's chosen
    id (L,) and the full-set rows ln P(j | beta, C) (J, P)."""
    _check_grid(grid, design.K)
    points = grid.lattice()
    s, pos = np.nonzero(~sets.pad)
    log_pi, members = sets.log_cond_prob[s, pos], sets.member_ids[s, pos]
    # Every pair of one member holds the same full-set entry: read the first.
    first = np.unique(members, return_index=True)[1]
    X = design.attribute_tensor()
    divergence, pairs = [], []
    for block in _blocks(design, sets, points):
        kernel = _set_kernel(X[block], sets, correction_mode, points)
        divergence.append(_split_divergence(sets, kernel).T)
        ll_samp = np.moveaxis(kernel[2][..., s, pos], 0, -1)
        full = np.moveaxis(kernel[4][..., s[first], pos[first]], 0, -1)
        pairs += [(log_pi, np.ascontiguousarray(u), members,
                   np.ascontiguousarray(f)) for u, f in zip(ll_samp, full)]
    return (grid.weights(), prior.log_density(points),
            np.concatenate(divergence), pairs)


def _outer_add(acc: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Every row of ``acc`` plus every row of ``values``, ``acc`` slowest."""
    return (acc[:, None] + values[None]).reshape((-1,) + values.shape[1:])


def check_joint_cap(design, protocol: Protocol) -> None:
    """Refuse a design as :func:`kl_terms` does, before any work: for too
    many feasible sets, then for too many joint (choice, set) outcomes."""
    if feasible_pair_count(protocol, design.J) ** design.n_obs > ENUMERATION_CAP:
        raise CapacityError(f"joint enumeration would exceed {ENUMERATION_CAP}"
                            " (choice, set) combinations")


def _joint_outcomes(pairs: list):
    """Every joint (choices, sets) outcome of a design, in product order,
    in blocks of at most ``_BLOCK_CELLS`` grid cells (or one outcome).

    Yields (table, ln pi (n,), ll_samp (n, P), index (n,)): the log
    probability of the sets given the choices and the evaluated-mode
    log-likelihood of the choices on the grid, one row per outcome, and the
    row of ``table`` holding the outcome's full-set log-likelihood.  The
    full side depends on the choices alone, so ``table`` holds it once per
    choice tuple of the observations from ``split`` on, J^(T - split) rows
    of at most J x ``_BLOCK_CELLS`` cells; it is built once per prefix and
    yielded with each of that prefix's blocks.  Each row, sampled or full,
    sums its observations first to last, starting from zero.
    """
    n_pairs, n_points = pairs[0][1].shape
    members, J = pairs[0][2], len(pairs[0][3])
    rows = max(1, _BLOCK_CELLS // n_points)
    # A block is one combination of the observations before ``split``, a
    # slice of ``chunk`` pairs of observation ``split`` and every
    # combination of the observations after it.
    split, tail = len(pairs) - 1, 1
    while split > 0 and tail * n_pairs <= rows:
        tail *= n_pairs
        split -= 1
    chunk = rows // tail
    # A block's table rows depend on its chunk alone, not on the prefix.
    indices = []
    for lo in range(0, n_pairs, chunk):
        index = members[lo:lo + chunk]
        for _ in pairs[split + 1:]:
            index = (index[:, None] * J + members).ravel()
        indices.append(index)
    zero = np.zeros(1), np.zeros((1, n_points))
    for prefix in product(range(n_pairs), repeat=split):
        head, table = zero, zero[1]
        for (*sampled, obs_members, full), i in zip(pairs, prefix):
            head = tuple(h + a[i:i + 1] for h, a in zip(head, sampled))
            table = table + full[obs_members[i:i + 1]]
        for *_, full in pairs[split:]:
            table = _outer_add(table, full)
        for lo, index in zip(range(0, n_pairs, chunk), indices):
            block = tuple(_outer_add(h, a[lo:lo + chunk])
                          for h, a in zip(head, pairs[split]))
            for obs_pairs in pairs[split + 1:]:
                block = tuple(_outer_add(b, a)
                              for b, a in zip(block, obs_pairs))
            yield table, *block, index


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
    """Terms A and B of the expected posterior KL divergence and its direct
    sum; B and the direct sum come from one pass over the joint outcomes.

    The full-set log-likelihood, marginal and posterior of an outcome
    depend on its choices alone: each is computed once per row of the tuple
    table of :func:`_joint_outcomes` and read by index, while the sampled
    side is computed once per outcome.

    A is :func:`kl_term_a`; B is the expected log inverse Bayes factor from
    grid marginal likelihoods.  A + B is the expected KL divergence from the
    full-set to the sampled-set posterior.  ``kl_direct`` weights each
    outcome's grid KL between the two normalized posteriors by its
    probability.  A assembled from the raw joint, without the coverage
    regrouping, is a test reference (``tests/joint_reference.py``).
    """
    check_joint_cap(design, protocol)
    weights, log_prior, divergence, pairs = _lattice(
        design, enumerate_feasible_sets(protocol, design.J), correction_mode,
        prior, grid)
    term_a = _term_a(weights, log_prior, divergence)
    term_b = kl_direct = 0.0
    table = None
    for tuples, log_pi, ll_samp, c in _joint_outcomes(pairs):
        if tuples is not table:  # the first block of a prefix
            table = tuples
            lk_true = log_prior + table
            lm_true = log_trapezoid(lk_true, weights)
            lp_true = lk_true - lm_true[:, None]
            w_true = weights * np.exp(lp_true)
        lk_samp = log_prior + ll_samp
        lm_samp = log_trapezoid(lk_samp, weights)
        # In place: lp_samp, lp_true - lp_samp, then the KL integrand.
        kl = np.subtract(lk_samp, lm_samp[:, None], out=lk_samp)
        np.subtract(lp_true[c], kl, out=kl)
        kl = np.sum(np.multiply(w_true[c], kl, out=kl), axis=-1)
        lm_c = lm_true[c]
        joint = np.exp(log_pi + lm_c)
        for b, d in zip((joint * (lm_samp - lm_c)).tolist(),
                        (joint * kl).tolist()):
            term_b += b
            kl_direct += d
    return KlTerms(term_a, term_b, kl_direct)


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
