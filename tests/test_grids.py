"""Tensor-product trapezoid grids and log-space quadrature."""

import warnings

import numpy as np
import pytest

from soa_lab import (Dataset, GridSpec, InvalidInputError, Prior, Protocol,
                     kl_terms, log_trapezoid)


def test_weights_integrate_constant_to_volume():
    g = GridSpec.make([-1.0, 0.0], [3.0, 2.0], [9, 5])
    assert abs(g.weights().sum() - 8.0) < 1e-12


def test_trapezoid_is_exact_for_linear_functions():
    g = GridSpec.make(-2.0, 5.0, 141)
    x = g.lattice()[:, 0]
    val = float(np.sum(g.weights() * (3.0 * x + 1.0)))
    # integral of 3x+1 on [-2,5] = 3*(25-4)/2 + 7 = 38.5
    assert abs(val - 38.5) < 1e-10


def test_gaussian_integral_converges_with_refinement():
    g = GridSpec.make(-8.0, 8.0, 101)
    x = g.lattice()[:, 0]
    dens = np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)
    coarse = float(np.sum(g.weights() * dens))
    r = g.refined()
    xr = r.lattice()[:, 0]
    fine = float(np.sum(r.weights() * np.exp(-0.5 * xr ** 2) / np.sqrt(2 * np.pi)))
    assert abs(coarse - 1.0) < 1e-6
    assert abs(fine - 1.0) < abs(coarse - 1.0) + 1e-15


def test_two_dim_gaussian():
    g = GridSpec.make([-7.0, -7.0], [7.0, 7.0], [81, 81])
    pts = g.lattice()
    dens = np.exp(-0.5 * np.sum(pts ** 2, axis=1)) / (2.0 * np.pi)
    assert abs(np.sum(g.weights() * dens) - 1.0) < 1e-6


def test_log_trapezoid_matches_linear_space():
    g = GridSpec.make(-6.0, 6.0, 301)
    x = g.lattice()[:, 0]
    log_f = -0.5 * x ** 2
    direct = np.log(np.sum(g.weights() * np.exp(log_f)))
    assert abs(log_trapezoid(log_f, g.weights()) - direct) < 1e-12


def test_log_trapezoid_survives_huge_log_values():
    g = GridSpec.make(-1.0, 1.0, 51)
    x = g.lattice()[:, 0]
    log_f = -0.5 * x ** 2 + 800.0  # overflows exp() without the shift
    val = log_trapezoid(log_f, g.weights())
    assert np.isfinite(val)
    assert abs((val - 800.0) - log_trapezoid(-0.5 * x ** 2, g.weights())) < 1e-10


def test_log_trapezoid_on_rows_equals_each_row_alone():
    g = GridSpec.make(-3.0, 3.0, 201)
    rng = np.random.default_rng(4)
    rows = rng.normal(scale=30.0, size=(7, 201))
    rows[3] += 900.0
    out = log_trapezoid(rows, g.weights())
    assert out.shape == (7,)
    for r in range(7):
        assert out[r] == log_trapezoid(rows[r], g.weights())


def test_log_trapezoid_non_finite_rows_give_minus_inf_and_float_for_1d():
    g = GridSpec.make(-1.0, 1.0, 51)
    rows = np.zeros((4, 51))
    rows[1] = -np.inf
    rows[2, 5] = np.nan
    rows[3, 5:7] = np.inf, 800.0  # a +inf max leaves exp(800) unshifted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_trapezoid(rows, g.weights())
        assert out[1] == out[2] == out[3] == -np.inf
        for row in rows[1:]:
            assert log_trapezoid(row, g.weights()) == -np.inf
    assert abs(out[0] - np.log(2.0)) < 1e-12
    assert type(log_trapezoid(rows[0], g.weights())) is float
    assert type(log_trapezoid(rows[1], g.weights())) is float


def test_kl_terms_on_the_desk_design_raises_no_runtime_warning():
    design = Dataset.from_arrays(
        np.array([[0.9, -0.3, 0.1, -1.4], [-0.6, 0.4, 1.1, 0.2]])[..., None],
        [2, 0])
    prior = Prior(np.zeros(1), 4.0 * np.eye(1))
    grid = GridSpec.make(-6.0, 6.0, 161)
    protocols = (Protocol("uniform_wor", m=2),
                 Protocol("importance_independent",
                          inclusion_probs=np.array([0.8, 0.6, 0.4, 0.2])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for protocol in protocols:
            for mode in ("mcfadden", "none"):
                kl_terms(design, protocol, mode, prior, grid)


def test_refined_doubles_resolution():
    g = GridSpec.make([0.0], [1.0], [11])
    r = g.refined()
    assert r.points == (21,)
    # refined lattice contains the original nodes
    assert np.allclose(r.lattice()[::2], g.lattice())


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        GridSpec.make(1.0, 0.0, 11)
    with pytest.raises(InvalidInputError):
        GridSpec.make(0.0, 1.0, 1)
    with pytest.raises(InvalidInputError):
        GridSpec.make([0.0, 0.0], [1.0], [5, 5])


@pytest.mark.parametrize("lo,hi", [
    (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0), ([0.0, 0.0], [1.0, np.nan]),
])
def test_spec_refuses_non_finite_bounds(lo, hi):
    with pytest.raises(InvalidInputError, match="grid bounds must be finite"):
        GridSpec.make(lo, hi, 11)


def test_lattice_layout_row_major():
    g = GridSpec.make([0.0, 10.0], [1.0, 11.0], [2, 3])
    pts = g.lattice()
    assert pts.shape == (6, 2)
    assert np.allclose(pts[0], [0.0, 10.0])
    assert np.allclose(pts[1], [0.0, 10.5])
    assert np.allclose(pts[-1], [1.0, 11.0])
