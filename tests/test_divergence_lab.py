"""Exhaustive-enumeration oracles for sampling-induced information loss.

The frozen constants below were produced by this module itself on a fixed
desk-scale design and then pinned, so any later change to the enumeration
or quadrature paths that shifts the numbers will be caught.
"""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import joint_reference
from soa_lab import divergence_lab
from soa_lab import (CapacityError, ChoiceArrays, Dataset, GridSpec,
                     InvalidInputError, Prior, Protocol,
                     build_divergence_report, coverage_r,
                     divergence_uniform_closed_form, enumerate_feasible_sets,
                     enumerate_sets, expected_divergence,
                     expected_divergence_direct, expected_kl_direct,
                     expected_quasi_ll, expected_quasi_ll_setwise,
                     expected_true_ll, kl_term_a, kl_term_a_entropy_form,
                     kl_terms, protocol_comparison)


DESK_X = np.array([[0.9, -0.3, 0.1, -1.4], [-0.6, 0.4, 1.1, 0.2]])[..., None]


def desk_observation():
    """The first desk observation as a one-row design."""
    return Dataset.from_arrays(DESK_X[:1], [2])


def desk_design():
    return Dataset.from_arrays(DESK_X, [2, 0])


BSTAR = np.array([0.8])
UNI = Protocol("uniform_wor", m=2)
IMP = Protocol("importance_independent",
               inclusion_probs=np.array([0.8, 0.6, 0.4, 0.2]))
PRIOR = Prior(np.zeros(1), 4.0 * np.eye(1))
GRID = GridSpec.make(-6.0, 6.0, 161)


def random_observation(rng, J, K):
    """One random observation as a one-row design."""
    return Dataset.from_arrays(rng.normal(size=(1, J, K)),
                               [int(rng.integers(J))])


def random_protocol(rng, kind, J):
    """A uniform protocol of random m, or importance with random p_k."""
    if kind == "uniform_wor":
        return Protocol(kind, m=int(rng.integers(2, J + 1)))
    return Protocol(kind, inclusion_probs=rng.uniform(0.1, 0.9, size=J))


# Every (protocol kind, correction mode) pair the oracles take.
CASES = st.sampled_from([("uniform_wor", "mcfadden"), ("uniform_wor", "none"),
                         ("uniform_wor", "uniform_constant"),
                         ("importance_independent", "mcfadden"),
                         ("importance_independent", "none")])


# ---------------------------------------------------------------------------
# frozen desk-scale values
# ---------------------------------------------------------------------------

def test_frozen_expectations_uniform():
    obs = desk_observation()
    sets = enumerate_feasible_sets(UNI, 4)
    assert abs(expected_quasi_ll(obs, sets, BSTAR, BSTAR, "mcfadden")
               - (-0.5770114712681176)) < 1e-12
    assert abs(expected_true_ll(obs, BSTAR, BSTAR)
               - (-1.2090711035770283)) < 1e-12
    assert abs(expected_divergence(obs, sets, BSTAR, "mcfadden")
               - 0.6320596323089107) < 1e-12


def test_frozen_expectations_importance():
    obs = desk_observation()
    sets = enumerate_feasible_sets(IMP, 4)
    assert abs(expected_quasi_ll(obs, sets, BSTAR, BSTAR, "mcfadden")
               - (-0.7697555018306571)) < 1e-12
    assert abs(expected_quasi_ll(obs, sets, BSTAR, BSTAR, "none")
               - (-0.8262769994943988)) < 1e-12
    assert abs(expected_divergence(obs, sets, BSTAR, "mcfadden")
               - 0.43931560174637135) < 1e-12


def test_frozen_kl_terms():
    ds = desk_design()
    kt = kl_terms(ds, UNI, "mcfadden", PRIOR, GRID)
    assert abs(kt.a - (-0.9923036221998851)) < 1e-12
    assert abs(kt.b - 1.1602391678518464) < 1e-12
    kt = kl_terms(ds, IMP, "mcfadden", PRIOR, GRID)
    assert abs(kt.a - (-0.8371852529150179)) < 1e-12
    assert abs(kt.b - 0.9910086337925633) < 1e-12


def test_term_a_alone_is_kl_terms_a_bitwise():
    ds = desk_design()
    for proto in (UNI, IMP):
        feasible = enumerate_feasible_sets(proto, ds.J)
        for mode in ("mcfadden", "none"):
            assert (kl_term_a(ds, feasible, mode, PRIOR, GRID)
                    == kl_terms(ds, proto, mode, PRIOR, GRID).a)


# ---------------------------------------------------------------------------
# coverage share R
# ---------------------------------------------------------------------------

def test_coverage_is_third_for_pairs_with_equal_utilities():
    # J=3, m=2, flat utilities: three feasible pair-sets, each covering 1/3
    obs = Dataset.from_arrays(np.zeros((1, 3, 1)), [0])
    proto = Protocol("uniform_wor", m=2)
    feasible = enumerate_feasible_sets(proto, 3)
    assert len(feasible) == 3
    for r in coverage_r(obs, feasible, np.array([0.0]))[0]:
        assert abs(r - 1.0 / 3.0) < 1e-14


def test_coverage_sums_to_one_and_stays_in_unit_interval():
    rng = np.random.default_rng(11)
    for trial in range(20):
        J = int(rng.integers(3, 7))
        m = int(rng.integers(2, J + 1))
        obs = random_observation(rng, J, 2)
        beta = rng.normal(size=2)
        proto = (Protocol("uniform_wor", m=m) if trial % 2 == 0 else
                 Protocol("importance_independent",
                          inclusion_probs=rng.uniform(0.1, 0.9, size=J)))
        total = 0.0
        for r in coverage_r(obs, enumerate_feasible_sets(proto, J), beta)[0]:
            assert 0.0 < r <= 1.0 + 1e-12
            total += r
        assert abs(total - 1.0) < 1e-12


def test_full_coverage_when_set_is_everything():
    rng = np.random.default_rng(12)
    obs = random_observation(rng, 4, 1)
    proto = Protocol("uniform_wor", m=4)
    feasible = enumerate_feasible_sets(proto, 4)
    assert len(feasible) == 1
    r, = coverage_r(obs, feasible, rng.normal(size=1))[0]
    assert abs(r - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# expectation identities
# ---------------------------------------------------------------------------

def protocols_for(rng, J):
    return [Protocol("uniform_wor", m=int(rng.integers(2, J + 1))),
            Protocol("importance_independent",
                     inclusion_probs=rng.uniform(0.1, 0.9, size=J))]


def test_choice_first_equals_set_first():
    rng = np.random.default_rng(13)
    for _ in range(10):
        J = int(rng.integers(3, 6))
        obs = random_observation(rng, J, 2)
        bs = rng.normal(size=2)
        b = rng.normal(size=2)
        for proto in protocols_for(rng, J):
            sets = enumerate_feasible_sets(proto, J)
            for mode in ("mcfadden", "none"):
                a = expected_quasi_ll(obs, sets, bs, b, mode)
                c = expected_quasi_ll_setwise(obs, sets, bs, b, mode)
                assert abs(a - c) < 1e-12


def test_divergence_forms_agree_and_match_difference():
    rng = np.random.default_rng(14)
    for _ in range(10):
        J = int(rng.integers(3, 6))
        obs = random_observation(rng, J, 1)
        bs = rng.normal(size=1)
        for proto in protocols_for(rng, J):
            sets = enumerate_feasible_sets(proto, J)
            for mode in ("mcfadden", "none"):
                split = expected_divergence(obs, sets, bs, mode)
                direct = expected_divergence_direct(obs, sets, bs, mode)
                gap = (expected_quasi_ll(obs, sets, bs, bs, mode)
                       - expected_true_ll(obs, bs, bs))
                assert abs(split - direct) < 1e-12
                assert abs(split - gap) < 1e-12


def test_uniform_divergence_closed_form_and_positivity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        J = int(rng.integers(4, 7))
        m = int(rng.integers(2, J))  # strict subsets
        obs = random_observation(rng, J, 1)
        bs = rng.normal(size=1)
        sets = enumerate_feasible_sets(Protocol("uniform_wor", m=m), J)
        closed = divergence_uniform_closed_form(obs, sets, bs)
        assert closed > 0.0
        assert abs(closed - expected_divergence(obs, sets, bs, "mcfadden")) < 1e-12


def test_uniform_conditioning_is_mode_invariant():
    rng = np.random.default_rng(16)
    obs = random_observation(rng, 5, 2)
    bs = rng.normal(size=2)
    sets = enumerate_feasible_sets(Protocol("uniform_wor", m=3), 5)
    vals = [expected_quasi_ll(obs, sets, bs, bs, mode)
            for mode in ("mcfadden", "none", "uniform_constant")]
    assert abs(vals[0] - vals[1]) < 1e-13
    assert abs(vals[0] - vals[2]) < 1e-13


def test_closed_form_rejects_nonuniform_protocols():
    obs = desk_observation()
    with pytest.raises(InvalidInputError):
        divergence_uniform_closed_form(obs, enumerate_feasible_sets(IMP, 4),
                                       BSTAR)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(2, 12),
       p=st.floats(0.05, 0.95))
def test_closed_form_takes_any_table_whose_members_share_ln_pi(seed, J, p):
    """With one inclusion probability for every alternative, each importance
    set's members share ln pi(D|j), so the closed form holds; a second
    probability makes the members differ and the table is refused."""
    rng = np.random.default_rng(seed)
    obs = random_observation(rng, J, 1)
    bs = rng.normal(size=1)
    probs = np.full(J, p)
    sets = enumerate_feasible_sets(
        Protocol("importance_independent", inclusion_probs=probs), J)
    closed = divergence_uniform_closed_form(obs, sets, bs)
    assert abs(closed - expected_divergence(obs, sets, bs, "mcfadden")) < 1e-12
    probs[0] = p / 2
    skewed = enumerate_feasible_sets(
        Protocol("importance_independent", inclusion_probs=probs), J)
    with pytest.raises(InvalidInputError):
        divergence_uniform_closed_form(obs, skewed, bs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(2, 5), K=st.integers(1, 3),
       P=st.integers(1, 4), case=CASES)
def test_oracles_batch_equals_points(seed, J, K, P, case):
    """A (P, K) batch gives the per-point values: (P, 1) on a one-row
    design, where one (K,) point gives (1,)."""
    rng = np.random.default_rng(seed)
    obs = random_observation(rng, J, K)
    kind, mode = case
    proto = random_protocol(rng, kind, J)
    bs, b = rng.normal(size=(2, P, K))
    sets = enumerate_feasible_sets(proto, J)
    oracles = [lambda x, y: expected_true_ll(obs, x, y),
               lambda x, y: expected_quasi_ll(obs, sets, x, y, mode),
               lambda x, y: expected_quasi_ll_setwise(obs, sets, x, y, mode),
               lambda x, y: expected_divergence(obs, sets, y, mode),
               lambda x, y: expected_divergence_direct(obs, sets, y, mode)]
    if kind == "uniform_wor":
        oracles.append(lambda x, y: divergence_uniform_closed_form(obs, sets, y))
    for oracle in oracles:
        batch = oracle(bs, b)
        assert batch.shape == (P, 1)
        for p in range(P):
            point = oracle(bs[p], b[p])
            assert point.shape == (1,)
            assert abs(batch[p] - point) <= 1e-12
    batch = coverage_r(obs, sets, b)
    assert batch.shape == (P, 1, len(sets))
    for p in range(P):
        assert np.max(np.abs(batch[p] - coverage_r(obs, sets, b[p]))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(3, 5), N=st.integers(1, 4),
       K=st.integers(1, 2), P=st.integers(0, 3),
       case=CASES)
def test_design_oracles_equal_each_observation_alone_bitwise(seed, J, N, K, P,
                                                             case):
    """Every oracle on an N-observation design gives, row for row and bit for
    bit, its value on each observation alone as a one-row design: at the
    default block size and with blocks of one observation.  P = 0 evaluates
    at one point, P > 0 at a (P, K) batch."""
    rng = np.random.default_rng(seed)
    kind, mode = case
    proto = random_protocol(rng, kind, J)
    X = rng.normal(size=(N, J, K))
    chosen = rng.integers(J, size=N)
    design = Dataset.from_arrays(X, chosen)
    alone = [Dataset.from_arrays(X[n:n + 1], chosen[n:n + 1]) for n in range(N)]
    bs, b = rng.normal(size=(2, K) if P == 0 else (2, P, K))
    sets = enumerate_feasible_sets(proto, J)
    # (oracle, its observation axis)
    oracles = [(lambda d: coverage_r(d, sets, b), -2),
               (lambda d: expected_true_ll(d, bs, b), -1),
               (lambda d: expected_quasi_ll(d, sets, bs, b, mode), -1),
               (lambda d: expected_quasi_ll_setwise(d, sets, bs, b, mode), -1),
               (lambda d: expected_divergence(d, sets, b, mode), -1),
               (lambda d: expected_divergence_direct(d, sets, b, mode), -1)]
    if kind == "uniform_wor":
        oracles.append(
            (lambda d: divergence_uniform_closed_form(d, sets, b), -1))
    for cells in (divergence_lab._BLOCK_CELLS, 1):
        with mock.patch.object(divergence_lab, "_BLOCK_CELLS", cells):
            for oracle, axis in oracles:
                whole = oracle(design)
                assert whole.shape[axis] == N
                rows = np.concatenate([oracle(d) for d in alone], axis=axis)
                assert np.array_equal(whole, rows)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(2, 8), K=st.integers(1, 2),
       N=st.integers(1, 3), P=st.integers(1, 7), case=CASES)
def test_oracle_kernel_is_the_estimators_softmax_bitwise(seed, J, K, N, P,
                                                         case):
    """On every realized (observation, chosen member, feasible set) row, the
    oracle kernel's evaluated log-probability of the chosen member is
    ChoiceArrays.chosen_log_probs on that row, bit for bit, at a (P, K)
    batch and at one point."""
    rng = np.random.default_rng(seed)
    kind, mode = case
    sets = enumerate_feasible_sets(random_protocol(rng, kind, J), J)
    X = rng.normal(size=(N, J, K))
    s, pos = np.nonzero(~sets.pad)
    n = np.repeat(np.arange(N), s.size)
    s, pos = np.tile(s, N), np.tile(pos, N)
    rows = ChoiceArrays(Dataset.from_arrays(X[n], sets.member_ids[s, pos]),
                        sets[s], mode)
    points = rng.normal(size=(P, K))
    for beta in (points, points[0]):
        lp_eval = divergence_lab._set_kernel(X, sets, mode, beta)[2]
        want = rows.chosen_log_probs(np.broadcast_to(
            beta[..., None, :], beta.shape[:-1] + (n.size, K)))
        assert np.array_equal(lp_eval[..., n, s, pos], want)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(3, 5), K=st.integers(1, 2),
       T=st.integers(1, 3), case=CASES)
def test_joint_loop_grid_loglik_is_the_estimators_loglik_bitwise(seed, J, K,
                                                                 T, case):
    """For each realized outcome (choices, sets) of a small design, the
    sampled-set grid log-likelihood of the joint loop, the sum of the
    observations' ``_lattice`` pairs, is ChoiceArrays.loglik on those
    choices and sets at the grid points, bit for bit."""
    rng = np.random.default_rng(seed)
    kind, mode = case
    sets = enumerate_feasible_sets(random_protocol(rng, kind, J), J)
    s, pos = np.nonzero(~sets.pad)
    # Keep the per-outcome loop small: at most 300 joint outcomes.
    while s.size ** T > 300:
        T -= 1
    X = rng.normal(size=(T, J, K))
    design = Dataset.from_arrays(X, rng.integers(J, size=T))
    grid = GridSpec.make([-4.0] * K, [4.0] * K, [51] * K)
    pairs = divergence_lab._lattice(design, sets, mode,
                                    Prior(np.zeros(K), 4.0 * np.eye(K)),
                                    grid)[3]
    ll_samp = np.concatenate(
        [block[2] for block in divergence_lab._joint_outcomes(pairs)])
    for outcome, ll in zip(product(range(s.size), repeat=T), ll_samp):
        rows = np.array(outcome)
        view = ChoiceArrays(
            Dataset.from_arrays(X, sets.member_ids[s[rows], pos[rows]]),
            sets[s[rows]], mode)
        assert np.array_equal(view.loglik(grid.lattice()), ll)


# ---------------------------------------------------------------------------
# posterior information loss
# ---------------------------------------------------------------------------

def test_kl_decomposition_matches_direct_assembly():
    ds = desk_design()
    for proto in (UNI, IMP):
        for mode in ("mcfadden", "none"):
            kt = kl_terms(ds, proto, mode, PRIOR, GRID)
            direct = expected_kl_direct(ds, proto, mode, PRIOR, GRID)
            assert abs((kt.a + kt.b) - direct) < 1e-12
            assert kt.a + kt.b >= -1e-10  # expected KL is non-negative


def test_term_a_joint_assembly_agrees():
    ds = desk_design()
    for proto in (UNI, IMP):
        kt = kl_terms(ds, proto, "mcfadden", PRIOR, GRID)
        assert abs(kt.a - kt.a_joint) < 1e-12


def test_term_a_entropy_form_agrees_under_uniform():
    ds = desk_design()
    kt = kl_terms(ds, UNI, "mcfadden", PRIOR, GRID)
    feasible = enumerate_feasible_sets(UNI, ds.J)
    entropy = kl_term_a_entropy_form(ds, feasible, PRIOR, GRID)
    assert abs(kt.a - entropy) < 1e-12
    assert kt.a <= 0.0


def test_term_a_entropy_form_refuses_an_importance_table():
    """Importance members do not share one ln pi(D|j), so the entropy form
    does not hold there."""
    with pytest.raises(InvalidInputError):
        kl_term_a_entropy_form(desk_design(), enumerate_feasible_sets(IMP, 4),
                               PRIOR, GRID)


def test_protocol_survey_prefers_uniform():
    rng = np.random.default_rng(17)
    designs = [random_observation(rng, 4, 1) for _ in range(3)]
    protos = [("uniform_m2", Protocol("uniform_wor", m=2)),
              ("skewed", Protocol("importance_independent",
                                  inclusion_probs=np.array([0.9, 0.7, 0.3, 0.1]))),
              ("uniform_m3", Protocol("uniform_wor", m=3))]
    cmp = protocol_comparison(designs, protos, PRIOR, GRID)
    assert cmp.uniform_attains_max
    totals = [r.a_total for r in cmp.rows]
    assert totals == sorted(totals, reverse=True)
    assert all(len(r.a_per_design) == 3 for r in cmp.rows)


def test_report_bundles_consistent_numbers():
    ds = desk_design()
    rep = build_divergence_report(ds, UNI, "mcfadden", BSTAR, PRIOR, GRID)
    assert abs(rep.expected_divergence
               - (rep.expected_quasi_ll - rep.expected_true_ll)) < 1e-12
    assert abs(rep.kl_term_a - (-0.9923036221998851)) < 1e-12
    # coverage table covers every (observation, feasible set) pair and sums
    # to one within each observation
    assert rep.r_coverage.shape == (2, len(enumerate_feasible_sets(UNI, 4)))
    assert np.all(np.abs(rep.r_coverage.sum(axis=1) - 1.0) < 1e-12)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_grid_validation():
    ds = desk_design()
    with pytest.raises(InvalidInputError):
        kl_terms(ds, UNI, "mcfadden", PRIOR, GridSpec.make(-6, 6, 41))
    with pytest.raises(InvalidInputError):
        kl_terms(ds, UNI, "mcfadden", PRIOR,
                 GridSpec.make((-6, -6), (6, 6), (61, 61)))


def test_joint_enumeration_capacity_guard():
    ds = desk_design()
    tight = Protocol("uniform_wor", m=2, enumeration_cap=10)
    with pytest.raises(CapacityError):
        kl_terms(ds, tight, "mcfadden", PRIOR, GRID)


# ---------------------------------------------------------------------------
# block reductions of the joint (choice, set) outcomes
# ---------------------------------------------------------------------------

def _pairs_per_observation(protocol, J):
    if protocol.kind == "uniform_wor":
        return math.comb(J, protocol.m) * protocol.m
    return J * 2 ** (J - 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(3, 5), K=st.integers(1, 2),
       T=st.integers(1, 3),
       case=CASES)
def test_joint_block_reductions_equal_the_outcome_loop_bitwise(seed, J, K, T,
                                                               case):
    """kl_terms gives the bits of the one-outcome-at-a-time loops on all
    four sums (a, b, a_joint, kl_direct), and expected_kl_direct reads
    kl_direct, at the default block size and with blocks of one row, so
    that block boundaries fall inside the product."""
    rng = np.random.default_rng(seed)
    kind, mode = case
    proto = random_protocol(rng, kind, J)
    # Keep the reference loop small: at most 2000 joint outcomes.
    while _pairs_per_observation(proto, J) ** T > 2000:
        T -= 1
    design = Dataset.from_arrays(rng.normal(size=(T, J, K)),
                                 rng.integers(J, size=T))
    prior = Prior(np.zeros(K), 4.0 * np.eye(K))
    grid = GridSpec.make([-5.0] * K, [5.0] * K, [51] * K)
    args = (design, proto, mode, prior, grid)
    want = joint_reference.kl_terms(*args)
    for cells in (divergence_lab._BLOCK_CELLS, 1):
        with mock.patch.object(divergence_lab, "_BLOCK_CELLS", cells):
            assert kl_terms(*args) == want
            assert expected_kl_direct(*args) == want.kl_direct
