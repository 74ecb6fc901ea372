"""Exactness of the set-drawing protocols and their enumerations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import draw_reference
from draw_reference import position_of
from enumeration_reference import reference_sets
from soa_lab import (CapacityError, InvalidInputError, InvalidStateError,
                     Protocol, SampledSet, SetTable,
                     correction_vector, derive_stream, draw_sampled_set,
                     draw_set_table, enumerate_feasible_sets, enumerate_sets,
                     read_sets_csv, seeded_streams, write_sets_csv)
from soa_lab.protocols import centred_corrections, feasible_pair_count


def importance_protocol(J, seed=1):
    rng = np.random.default_rng(seed)
    return Protocol("importance_independent",
                    inclusion_probs=rng.uniform(0.15, 0.85, size=J))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_protocol_validation():
    with pytest.raises(InvalidInputError):
        Protocol("uniform_wor")  # no m
    with pytest.raises(InvalidInputError):
        Protocol("uniform_wor", m=1)
    with pytest.raises(InvalidInputError):
        Protocol("importance_independent",
                 inclusion_probs=np.array([0.5, 1.0]))  # boundary excluded
    with pytest.raises(InvalidInputError):
        Protocol("importance_independent",
                 inclusion_probs=[0.5, np.nan, 0.5])  # nan fails p <= 0, p >= 1
    with pytest.raises(InvalidInputError):
        Protocol("nearest_neighbour", m=2)
    Protocol("uniform_wor", m=5).check_for(J=10)
    with pytest.raises(InvalidInputError):
        Protocol("uniform_wor", m=5).check_for(J=4)
    with pytest.raises(InvalidInputError):
        importance_protocol(4).check_for(J=5)


# ---------------------------------------------------------------------------
# enumeration exactness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("J,m", [(4, 2), (5, 3), (6, 4)])
def test_uniform_enumeration_sums_to_one(J, m):
    proto = Protocol("uniform_wor", m=m)
    sets = enumerate_sets(proto, J, 1)
    assert len(sets) == math.comb(J - 1, m - 1)
    total = sum(np.exp(s.log_cond_prob[position_of(s, 1)]) for s in sets)
    assert abs(total - 1.0) < 1e-12
    for s in sets:
        assert 1 in s.member_ids
        # uniform conditioning: one shared constant per set
        assert np.ptp(s.log_cond_prob) == 0.0
        assert abs(s.log_cond_prob[0] + math.log(math.comb(J - 1, m - 1))) < 1e-12


@pytest.mark.parametrize("J", [3, 4, 5])
def test_importance_enumeration_sums_to_one(J):
    proto = importance_protocol(J)
    sets = enumerate_sets(proto, J, J - 1)
    assert len(sets) == 2 ** (J - 1)
    total = sum(np.exp(s.log_cond_prob[position_of(s, J - 1)]) for s in sets)
    assert abs(total - 1.0) < 1e-12


def test_importance_probability_closed_form():
    """ln pi(D|j) must equal the brute product over in/out alternatives."""
    proto = importance_protocol(5, seed=7)
    p = proto.inclusion_probs
    for es in enumerate_sets(proto, 5, 2):
        members = set(es.member_ids.tolist())
        for pos, j in enumerate(es.member_ids):
            expect = 1.0
            for k in range(5):
                if k == j:
                    continue
                expect *= p[k] if k in members else (1.0 - p[k])
            assert abs(np.exp(es.log_cond_prob[pos]) - expect) < 1e-12


def test_feasible_sets_cover_every_chosen_view():
    """Sum over all feasible sets containing i of pi(D|i) is one, for each i."""
    for proto in (Protocol("uniform_wor", m=3), importance_protocol(5, seed=3)):
        feasible = enumerate_feasible_sets(proto, 5)
        for i in range(5):
            total = 0.0
            for s in feasible:
                pos = np.nonzero(s.member_ids == i)[0]
                if pos.size:
                    total += float(np.exp(s.log_cond_prob[pos[0]]))
            assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("J", range(2, 8))
def test_table_matches_reference_loops(J):
    """Same rows in the same order, same members, ln pi within 1e-12, for
    every chosen alternative and for the feasible case."""
    protos = ([Protocol("uniform_wor", m=m) for m in range(2, J + 1)]
              + [importance_protocol(J, seed=s) for s in range(3)])
    for proto in protos:
        for chosen in [None] + list(range(J)):
            table = (enumerate_feasible_sets(proto, J) if chosen is None
                     else enumerate_sets(proto, J, chosen))
            want = reference_sets(proto, J, chosen)
            assert len(table) == len(want)
            for row, (members, lcp) in zip(table, want):
                assert np.array_equal(row.member_ids, members)
                assert np.max(np.abs(row.log_cond_prob - lcp)) <= 1e-12


def test_enumeration_capacity_error_names_count():
    proto = Protocol("uniform_wor", m=12)
    with pytest.raises(CapacityError) as err:
        enumerate_sets(proto, 24, 0)
    assert str(math.comb(23, 11)) in str(err.value)


@pytest.mark.parametrize("J", range(2, 8))
def test_feasible_pair_count_matches_the_enumeration(J):
    for proto in ([Protocol("uniform_wor", m=m) for m in range(2, J + 1)]
                  + [importance_protocol(J)]):
        table = enumerate_feasible_sets(proto, J)
        assert feasible_pair_count(proto, J) == int(np.sum(~table.pad))


def test_feasible_pair_count_refuses_what_the_enumeration_refuses():
    proto = Protocol("uniform_wor", m=12)
    for count in (enumerate_feasible_sets, feasible_pair_count):
        with pytest.raises(CapacityError) as err:
            count(proto, 24)
        assert str(math.comb(24, 12)) in str(err.value)


# ---------------------------------------------------------------------------
# drawing: chosen containment, frequencies, reproducibility
# ---------------------------------------------------------------------------

def test_draws_always_contain_chosen_and_respect_size():
    proto = Protocol("uniform_wor", m=3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = draw_sampled_set(proto, 4, 7, rng)
        assert s.size == 3
        assert 4 in s.member_ids
        assert np.all(np.diff(s.member_ids) > 0)  # sorted, unique


def test_uniform_draw_frequencies_match_enumeration():
    """Empirical set frequencies within 3 binomial SEs of exact probabilities."""
    J, m, n_draws = 5, 3, 100_000
    proto = Protocol("uniform_wor", m=m)
    rng = np.random.default_rng(42)
    counts = {}
    for _ in range(n_draws):
        s = draw_sampled_set(proto, 0, J, rng)
        counts[tuple(s.member_ids)] = counts.get(tuple(s.member_ids), 0) + 1
    sets = enumerate_sets(proto, J, 0)
    assert len(counts) == len(sets)
    for es in sets:
        p = np.exp(es.log_cond_prob[position_of(es, 0)])
        se = math.sqrt(p * (1 - p) / n_draws)
        observed = counts.get(tuple(es.member_ids), 0) / n_draws
        assert abs(observed - p) < 3 * se + 1e-12


def test_importance_draw_frequencies_match_enumeration():
    J, n_draws = 4, 100_000
    proto = importance_protocol(J, seed=5)
    rng = np.random.default_rng(43)
    counts = {}
    for _ in range(n_draws):
        s = draw_sampled_set(proto, 1, J, rng)
        counts[tuple(s.member_ids)] = counts.get(tuple(s.member_ids), 0) + 1
    for es in enumerate_sets(proto, J, 1):
        p = np.exp(es.log_cond_prob[position_of(es, 1)])
        se = math.sqrt(p * (1 - p) / n_draws)
        observed = counts.get(tuple(es.member_ids), 0) / n_draws
        assert abs(observed - p) < 3 * se + 1e-12


def test_importance_draw_carries_exact_conditional_probs():
    proto = importance_protocol(6, seed=9)
    rng = np.random.default_rng(1)
    enumerated = {tuple(s.member_ids): s.log_cond_prob
                  for s in enumerate_feasible_sets(proto, 6)}
    for _ in range(50):
        s = draw_sampled_set(proto, 3, 6, rng)
        assert np.max(np.abs(s.log_cond_prob
                             - enumerated[tuple(s.member_ids)])) < 1e-12


def test_derived_streams_reproduce_and_separate():
    proto = Protocol("uniform_wor", m=3)
    a = draw_sampled_set(proto, 2, 6, derive_stream(99, 5))
    b = draw_sampled_set(proto, 2, 6, derive_stream(99, 5))
    assert np.array_equal(a.member_ids, b.member_ids)
    c = draw_sampled_set(proto, 2, 6, derive_stream(99, 6))
    d = draw_sampled_set(proto, 2, 6, derive_stream(99, 5, replication=1))
    # different identifiers give statistically independent streams; at the
    # very least the full triple cannot coincide for these seeds
    assert not (np.array_equal(a.member_ids, c.member_ids)
                and np.array_equal(a.member_ids, d.member_ids))


# ---------------------------------------------------------------------------
# streams: numpy's SeedSequence hashing over many keys at once
# ---------------------------------------------------------------------------

SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5]),
                  st.integers(0, 2**140))
KEY_ENTRY = st.one_of(st.integers(0, 50), st.integers(0, 2**32 - 1))


@st.composite
def spawn_keys(draw):
    width = draw(st.sampled_from([2, 3]))
    return draw(st.lists(st.tuples(*[KEY_ENTRY] * width), min_size=1,
                         max_size=6))


def numpy_stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def assert_same_stream(rng, want):
    assert rng.random(3).tobytes() == want.random(3).tobytes()
    assert np.array_equal(rng.choice(19, 4, replace=False),
                          want.choice(19, 4, replace=False))
    assert rng.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, keys=spawn_keys())
def test_seeded_streams_equal_numpy_seed_sequences_bitwise(seed, keys):
    for key, rng in zip(keys, seeded_streams(seed, keys), strict=True):
        assert_same_stream(rng, numpy_stream(seed, key))
        if len(key) == 2:
            assert_same_stream(derive_stream(seed, *key), numpy_stream(seed, key))


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**64 + 5])
def test_many_observation_streams_equal_numpy_bitwise(seed):
    keys = np.column_stack([np.arange(3000), np.zeros(3000, dtype=int)])
    got = np.array([rng.random() for rng in seeded_streams(seed, keys)])
    want = np.array([numpy_stream(seed, (i, 0)).random() for i in range(3000)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed,keys", [
    (-1, [[0, 0]]), (1.5, [[0, 0]]), (True, [[0, 0]]),
    (0, [[2**32, 0]]), (0, [[0, -1]]), (0, [[0.5, 1.0]]), (0, [1, 2]),
    (0, np.zeros((2, 0), dtype=int)),
], ids=["negative_seed", "float_seed", "bool_seed", "key_2_32",
        "negative_key", "float_key", "one_dim_keys", "empty_key"])
def test_streams_refuse_what_the_hashing_cannot_take(seed, keys):
    with pytest.raises(InvalidInputError):
        seeded_streams(seed, keys)


def test_derive_stream_refuses_what_the_hashing_cannot_take():
    for args in ((-1, 0), (0, -1), (0, 2**32), (0, 0, -1)):
        with pytest.raises(InvalidInputError):
            derive_stream(*args)


# ---------------------------------------------------------------------------
# drawing a whole table at once
# ---------------------------------------------------------------------------

def assert_tables_equal_bitwise(got, want):
    for field in ("member_ids", "log_cond_prob", "pad"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


@st.composite
def draw_designs(draw):
    J = draw(st.integers(2, 12))
    if draw(st.booleans()):
        protocol = Protocol("uniform_wor", m=draw(st.integers(2, J)))
    else:
        protocol = Protocol("importance_independent", inclusion_probs=np.array(
            draw(st.lists(st.floats(0.01, 0.99), min_size=J, max_size=J))))
    chosen = draw(st.lists(st.integers(0, J - 1), min_size=1, max_size=40))
    return protocol, J, np.array(chosen)


@settings(max_examples=100, deadline=None)
@given(design=draw_designs(), seed=st.integers(0, 2**40))
def test_draw_set_table_equals_per_observation_draws_bitwise(design, seed):
    protocol, J, chosen = design
    table = draw_set_table(protocol, chosen, J, seed)
    assert_tables_equal_bitwise(
        table, draw_reference.draw_set_table(protocol, chosen, J, seed))
    for i, c in enumerate(chosen.tolist()):
        row = draw_sampled_set(protocol, c, J, derive_stream(seed, i))
        assert row.member_ids.tobytes() == table[i].member_ids.tobytes()
        assert row.log_cond_prob.tobytes() == table[i].log_cond_prob.tobytes()


@st.composite
def seeded_designs(draw):
    """Like draw_designs, but inclusion probabilities and chosen ids come
    from a seeded generator: full-precision probabilities, whose sums round
    as they would in use (hypothesis favours floats of few digits)."""
    J = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    protocol = (Protocol("uniform_wor", m=draw(st.integers(2, J)))
                if draw(st.booleans()) else
                Protocol("importance_independent",
                         inclusion_probs=rng.uniform(0.05, 0.95, size=J)))
    return protocol, J, rng.integers(J, size=draw(st.integers(1, 200)))


@settings(max_examples=60, deadline=None)
@given(design=seeded_designs(), seed=st.integers(0, 2**40))
def test_drawn_rows_equal_the_enumerated_rows_bitwise(design, seed):
    """A drawn set carries the bits of the same set's feasible row: one
    builder makes both tables, at every J."""
    protocol, J, chosen = design
    feasible = {row.member_ids.tobytes(): row.log_cond_prob.tobytes()
                for row in enumerate_feasible_sets(protocol, J)}
    for row in draw_set_table(protocol, chosen, J, seed):
        assert feasible[row.member_ids.tobytes()] == row.log_cond_prob.tobytes()


@settings(max_examples=40, deadline=None)
@given(design=seeded_designs())
def test_sets_holding_an_alternative_are_its_feasible_rows_bitwise(design):
    """enumerate_sets(p, J, c) is the feasible table's rows that hold c, in
    their order, bit for bit."""
    protocol, J, _ = design
    feasible = enumerate_feasible_sets(protocol, J)
    for c in range(J):
        holds = np.any((feasible.member_ids == c) & ~feasible.pad, axis=1)
        assert_tables_equal_bitwise(enumerate_sets(protocol, J, c),
                                    feasible[holds])


def test_ragged_wide_table_equals_per_observation_draws_bitwise():
    """Sets of 1 to 20 members side by side: each row's sums must run over
    exactly its own terms, whatever the padding of the table."""
    J = 20
    protocol = Protocol("importance_independent",
                        inclusion_probs=np.linspace(0.05, 0.95, J))
    chosen = np.random.default_rng(3).integers(0, J, size=600)
    table = draw_set_table(protocol, chosen, J, 12)
    assert len(set((~table.pad).sum(axis=1).tolist())) > 8
    assert_tables_equal_bitwise(
        table, draw_reference.draw_set_table(protocol, chosen, J, 12))


def test_draws_refuse_chosen_ids_outside_the_alternatives():
    proto = Protocol("uniform_wor", m=2)
    with pytest.raises(InvalidInputError):
        draw_set_table(proto, np.array([0, 4]), 4, 1)
    with pytest.raises(InvalidInputError):
        draw_sampled_set(proto, -1, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# correction modes
# ---------------------------------------------------------------------------

def test_correction_vector_modes():
    lcp = SampledSet(np.array([0, 3]), np.array([-1.5, -1.5])).log_cond_prob
    assert np.array_equal(correction_vector(lcp, "none"), np.zeros(2))
    assert np.array_equal(correction_vector(lcp, "mcfadden"), lcp)
    assert np.array_equal(correction_vector(lcp, "uniform_constant"),
                          np.array([-1.5, -1.5]))
    ragged = SampledSet(np.array([0, 3]), np.array([-1.5, -2.0]))
    with pytest.raises(InvalidStateError):
        correction_vector(ragged.log_cond_prob, "uniform_constant")
    with pytest.raises(InvalidInputError):
        correction_vector(lcp, "bonferroni")


def test_padding_is_neginf_in_every_table_and_member_term(tmp_path):
    """Every table the package builds (uniform and importance draws, both
    enumerations, a sets file read back, and slices of each) encodes
    padding only as -inf: ``pad`` is a read-only view equal to
    isneginf(log_cond_prob), and each mode's member term is -inf exactly on
    padding and 0 at each row's largest entry."""
    assert [f.name for f in dataclasses.fields(SetTable)] == [
        "member_ids", "log_cond_prob"]
    J = 6
    chosen = np.random.default_rng(3).integers(0, J, size=40)
    uniform, importance = Protocol("uniform_wor", m=3), importance_protocol(J)
    tables = {"uniform draws": draw_set_table(uniform, chosen, J, 4),
              "importance draws": draw_set_table(importance, chosen, J, 4)}
    for name, protocol in (("uniform", uniform), ("importance", importance)):
        tables[f"{name} feasible"] = enumerate_feasible_sets(protocol, J)
        tables[f"{name} sets of 2"] = enumerate_sets(protocol, J, 2)
    path = tmp_path / "sets.csv"
    write_sets_csv(path, tables["importance draws"], {})
    tables["read back"] = read_sets_csv(path, chosen, J)[0]
    for name, table in list(tables.items()):
        tables[f"{name}, sliced"] = table[1::2]
        tables[f"{name}, indexed"] = table[np.array([2, 0, 2])]
    assert tables["importance draws"].pad.any()
    for name, table in tables.items():
        lcp = table.log_cond_prob
        assert np.array_equal(table.pad, np.isneginf(lcp)), name
        assert not table.pad.flags.writeable, name
        uniform_rows = name.startswith("uniform")
        for mode in ("mcfadden", "none") + ("uniform_constant",) * uniform_rows:
            term = centred_corrections(table, mode)
            assert np.array_equal(np.isneginf(term), table.pad), (name, mode)
            assert np.all(np.max(term, axis=1) == 0.0), (name, mode)
