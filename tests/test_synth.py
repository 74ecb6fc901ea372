"""Data-generating processes: determinism and distributional checks."""

import numpy as np
import pytest

from soa_lab import (InvalidInputError, MmnlDgpConfig, MnlDgpConfig,
                     generate_mmnl, generate_mnl, log_softmax)


def test_mnl_generation_is_deterministic():
    cfg = MnlDgpConfig(N=50, J=4, K=2, beta_star=np.array([1.0, -1.0]),
                       seed=5)
    a = generate_mnl(cfg)
    b = generate_mnl(cfg)
    assert np.array_equal(a.attribute_tensor(), b.attribute_tensor())
    assert np.array_equal(a.chosen_ids(), b.chosen_ids())
    c = generate_mnl(MnlDgpConfig(N=50, J=4, K=2,
                                  beta_star=np.array([1.0, -1.0]), seed=6))
    assert not np.array_equal(a.chosen_ids(), c.chosen_ids())


def test_mnl_choice_frequencies_match_probabilities():
    """Empirical chosen shares against the model's own probabilities.

    With K=1, two alternatives and fixed attributes x = (1, 0), beta = 2,
    the first alternative is chosen with probability e^2/(1+e^2).
    """
    n = 200_000
    cfg = MnlDgpConfig(N=n, J=2, K=1, beta_star=np.array([2.0]),
                       covariate_law="uniform_0_1", seed=11)
    ds = generate_mnl(cfg)
    X = ds.attribute_tensor()
    P = np.exp(log_softmax(np.einsum("njk,k->nj", X, np.array([2.0])), axis=1))
    share = (ds.chosen_ids() == 0).mean()
    expect = P[:, 0].mean()
    se = np.sqrt(expect * (1 - expect) / n)
    assert abs(share - expect) < 3 * se


def test_fixed_design_share_value():
    # direct check of the binary-logit share at a hand-computed value
    rng = np.random.default_rng(0)
    beta = np.array([2.0])
    X = np.zeros((100_000, 2, 1))
    X[:, 0, 0] = 1.0
    P = np.exp(log_softmax(np.einsum("njk,k->nj", X, beta), axis=1))
    expect = np.exp(2.0) / (1.0 + np.exp(2.0))
    assert abs(P[0, 0] - expect) < 1e-14
    u = rng.random(100_000)
    chosen = (u >= P[:, 0]).astype(int)
    assert abs((chosen == 0).mean() - expect) < 3 * np.sqrt(expect * (1 - expect) / 100_000)


def test_mmnl_panel_structure_and_coefficients():
    mu = np.array([0.5, -0.5])
    sig = np.array([[0.4, 0.1], [0.1, 0.3]])
    cfg = MmnlDgpConfig(N=2000, T=3, J=4, K=2, mu_star=mu, sigma_star=sig, seed=2)
    ds, beta_n = generate_mmnl(cfg)
    assert ds.n_obs == 6000
    ind = ds.individual_ids()
    assert np.array_equal(np.unique(ind), np.arange(2000))
    assert np.all(np.bincount(ind) == 3)
    # the mixing draws should match their population moments
    assert np.max(np.abs(beta_n.mean(axis=0) - mu)) < 4 * np.sqrt(0.4 / 2000)
    emp_cov = np.cov(beta_n.T)
    assert np.max(np.abs(emp_cov - sig)) < 0.06


def test_mmnl_is_deterministic():
    cfg = MmnlDgpConfig(N=30, T=2, J=3, K=1, mu_star=np.array([1.0]),
                        sigma_star=np.array([[0.5]]), seed=8)
    (a, ba) = generate_mmnl(cfg)
    (b, bb) = generate_mmnl(cfg)
    assert np.array_equal(ba, bb)
    assert np.array_equal(a.chosen_ids(), b.chosen_ids())


def test_dgp_validation():
    with pytest.raises(InvalidInputError):
        MnlDgpConfig(N=0, J=3, K=1, beta_star=np.array([1.0]))
    with pytest.raises(InvalidInputError):
        MnlDgpConfig(N=5, J=3, K=2, beta_star=np.array([1.0]))  # K mismatch
    with pytest.raises(InvalidInputError):
        MnlDgpConfig(N=5, J=3, K=1, beta_star=np.array([1.0]),
                     covariate_law="cauchy")
    with pytest.raises(InvalidInputError):
        MmnlDgpConfig(N=5, T=1, J=3, K=1, mu_star=np.array([0.0]),
                      sigma_star=np.array([[-1.0]]))  # not PD
    for mu, sig in [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0), (0.0, np.inf)]:
        with pytest.raises(InvalidInputError, match="finite"):
            MmnlDgpConfig(N=5, T=1, J=3, K=1, mu_star=np.array([mu]),
                          sigma_star=np.array([[sig]]))
    for beta in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="beta_star must be finite"):
            MnlDgpConfig(N=5, J=3, K=2, beta_star=np.array([1.0, beta]))
