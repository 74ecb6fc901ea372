"""Probability-kernel identities and container validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soa_lab import (Dataset, InvalidInputError, SampledSet, log_softmax,
                     log_sum_exp, utilities)
from soa_lab.model_core import shifted_exp_sum
from draw_reference import position_of
from probability_reference import (canonical_corrections, mnl_prob_full,
                                   mnl_prob_sampled_corrected)

finite_floats = st.floats(min_value=-30.0, max_value=30.0,
                          allow_nan=False, allow_infinity=False)


def vec(min_size=1, max_size=8):
    return arrays(np.float64, st.integers(min_size, max_size),
                  elements=finite_floats)


# ---------------------------------------------------------------------------
# softmax identities
# ---------------------------------------------------------------------------

@given(vec())
def test_full_probabilities_normalize(v):
    p = mnl_prob_full(v)
    assert np.all(p > 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


@given(vec(), finite_floats)
def test_translation_invariance(v, shift):
    """Adding a constant to every utility cannot move any probability."""
    base = mnl_prob_full(v)
    moved = mnl_prob_full(v + shift)
    assert np.max(np.abs(base - moved)) < 1e-12


@given(vec(2, 6), finite_floats)
def test_constant_correction_cancels_exactly(v, c0):
    """A shared correction constant must vanish bit-for-bit, not just
    approximately: the canonicalized vector is exactly zero."""
    c = np.full(v.shape, c0)
    assert np.array_equal(canonical_corrections(c), np.zeros_like(c))
    corrected = mnl_prob_sampled_corrected(v, c)
    plain = mnl_prob_full(v)
    assert np.array_equal(corrected, plain)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=6))
def test_corrected_probabilities_match_direct_formula(pairs):
    v = np.array([a for a, _ in pairs])
    c = np.array([b for _, b in pairs])
    p = mnl_prob_sampled_corrected(v, c)
    w = np.exp((v + c) - np.max(v + c))
    assert np.max(np.abs(p - w / w.sum())) < 1e-12


def test_extreme_utilities_stay_finite():
    p = mnl_prob_full(np.array([700.0, -700.0, 0.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12
    assert p[0] > 1 - 1e-12


def test_two_alternative_probability_value():
    # V = (2, 0): P(0) = e^2 / (1 + e^2)
    p = mnl_prob_full(np.array([2.0, 0.0]))
    expect = np.exp(2.0) / (1.0 + np.exp(2.0))
    assert abs(p[0] - expect) < 1e-15


def test_log_sum_exp_edges():
    assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf
    assert abs(log_sum_exp(np.array([0.0, 0.0])) - np.log(2.0)) < 1e-15
    with pytest.raises(InvalidInputError):
        log_sum_exp(np.array([]))
    with pytest.raises(InvalidInputError):
        log_sum_exp(np.array([np.nan, 1.0]))


def test_log_softmax_rows_with_padding():
    v = np.array([[0.0, -np.inf, 1.0], [-np.inf, -np.inf, -np.inf]])
    lp = log_softmax(v, axis=-1)
    assert lp[0, 1] == -np.inf
    assert abs(np.exp(lp[0]).sum() - 1.0) < 1e-12
    assert np.all(lp[1] == -np.inf)


def _member_major(a: np.ndarray) -> np.ndarray:
    """``a`` with its last axis outermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


@settings(deadline=None, max_examples=150)
@given(width=st.one_of(st.integers(1, 300),
                       st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129,
                                        135, 136, 255, 256, 257])),
       lead=st.lists(st.integers(1, 4), max_size=2),
       member_major=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
def test_shifted_exp_sum_keeps_the_row_sum_bits_in_any_layout(
        width, lead, member_major, seed):
    """Along the last axis, m and s are np.max and np.sum of a C-ordered
    copy bit for bit, for C-ordered and member-major (last axis outermost)
    memory alike, and s is C-ordered; the terms exp(v - m) are exp(normal)
    draws with some exact zeros."""
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=2.0, size=(*lead, width))
    v[rng.random(v.shape) < 0.1] = -np.inf
    values = _member_major(v) if member_major else v.copy()
    m, s = shifted_exp_sum(values)
    top = np.max(v, axis=-1, keepdims=True)
    top[np.isinf(top)] = 0.0  # an all -inf row shifts by 0: its terms are 0
    assert np.array_equal(m, top)
    assert np.array_equal(s, np.sum(np.exp(v - top), axis=-1, keepdims=True))
    assert s.flags.c_contiguous  # later sums over s keep their order


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_utilities_and_linear_utility_agree():
    """utilities gives x'beta of every alternative with one coefficient
    vector per row, and a point (1, K), a batch (P, 1, K) and per-row
    coefficients (n, K) agree bit for bit."""
    X = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                  [[0.5, 2.0], [-1.0, 0.25], [3.0, -0.5]]])
    betas = np.array([[0.5, -0.25], [1.5, 2.0]])
    batch = utilities(X, betas[:, None, :])
    assert batch.shape == (2, 2, 3)
    for p, beta in enumerate(betas):
        point = utilities(X, beta[None])
        assert np.array_equal(point, batch[p])
        for n, j in np.ndindex(2, 3):
            assert point[n, j] == float(X[n, j] @ beta)  # x'beta, one at a time
    per_row = utilities(X, betas)
    assert np.array_equal(per_row, batch[[0, 1], [0, 1]])
    with pytest.raises(InvalidInputError):
        utilities(X, betas[:, :1])


def test_dataset_round_trips_between_views():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 3, 2))
    chosen = np.array([0, 2, 1, 1])
    ds = Dataset.from_arrays(X, chosen, [5, 5, 6, 6])
    assert ds.n_obs == 4 and ds.J == 3 and ds.K == 2
    # the object view holds the same arrays
    obs = ds.observations
    assert [o.obs_id for o in obs] == [0, 1, 2, 3]
    assert [o.chosen for o in obs] == chosen.tolist()
    assert [o.individual_id for o in obs] == [5, 5, 6, 6]
    assert [[a.id for a in o.alternatives] for o in obs] == [[0, 1, 2]] * 4
    assert np.array_equal(
        np.stack([[a.attributes for a in o.alternatives] for o in obs]), X)


_GOOD_X = np.zeros((3, 2, 1))


@pytest.mark.parametrize("X, chosen, individual_ids", [
    pytest.param(np.zeros((3, 2)), [0, 1, 0], None, id="X_not_3d"),
    pytest.param(np.full((3, 2, 1), np.nan), [0, 1, 0], None,
                 id="X_not_finite"),
    pytest.param(np.array([[[0.0], [np.inf]]]), [0], None, id="X_infinite"),
    pytest.param(_GOOD_X, [0, 2, 0], None, id="chosen_outside"),
    pytest.param(_GOOD_X, [0, -1, 0], None, id="chosen_negative"),
    pytest.param(_GOOD_X, [0, 1], None, id="chosen_length"),
    pytest.param(_GOOD_X, [0, 1, 0], [0, 1], id="individual_ids_length"),
    pytest.param([[[0.0], [1.0]], [[0.0, 1.0], [1.0, 1.0]]], [0, 0], None,
                 id="X_ragged"),
    pytest.param([[["a"], [2.0]]], [0], None, id="X_not_numeric"),
    pytest.param(np.zeros((1, 2, 1)), [0.5], None, id="chosen_fractional"),
    pytest.param(_GOOD_X, [0, 1, 0], [0, 1.5, 2], id="individual_ids_fractional"),
])
def test_from_arrays_refuses(X, chosen, individual_ids):
    with pytest.raises(InvalidInputError):
        Dataset.from_arrays(X, chosen, individual_ids)


def test_sampled_set_validation():
    SampledSet(np.array([0, 2]), np.array([-0.1, -0.2]))
    with pytest.raises(InvalidInputError):
        SampledSet(np.array([0, 0]), np.array([-0.1, -0.1]))  # repeated id
    with pytest.raises(InvalidInputError):
        SampledSet(np.array([0, 1]), np.array([-np.inf, -0.1]))  # zero prob
    with pytest.raises(InvalidInputError):
        SampledSet(np.array([0, 1]), np.array([0.5, -0.1]))  # prob > 1
    with pytest.raises(InvalidInputError):
        SampledSet(np.array([], dtype=int), np.array([]))


def test_sampled_set_position_lookup():
    s = SampledSet(np.array([4, 1, 7]), np.zeros(3))
    assert position_of(s, 7) == 2
    with pytest.raises(InvalidInputError):
        position_of(s, 3)


# ---------------------------------------------------------------------------
# randomized probe battery (the desk-scale identity sweep)
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 31 - 1))
def test_identity_probe_battery(seed):
    rng = np.random.default_rng(seed)
    J = int(rng.integers(2, 9))
    v = rng.normal(scale=3.0, size=J)
    c = rng.normal(scale=2.0, size=J)
    shift = float(rng.normal(scale=10.0))
    p = mnl_prob_sampled_corrected(v, c)
    assert abs(p.sum() - 1.0) < 1e-12
    q = mnl_prob_sampled_corrected(v + shift, c)
    assert np.max(np.abs(p - q)) < 1e-12
    r = mnl_prob_sampled_corrected(v, c + shift)
    assert np.max(np.abs(p - r)) < 1e-12
