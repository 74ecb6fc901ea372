"""Posterior machinery for fixed-coefficient models on full or sampled sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metropolis_reference import reference_metropolis
from soa_lab import (ChoiceArrays, GridSpec, InsufficientDrawsError,
                     InvalidInputError, MnlDgpConfig, PosteriorDraws, Prior,
                     Protocol, UnsupportedDimensionError,
                     draw_set_table, generate_mnl, grid_posterior,
                     kl_decomposition, kl_divergence_grid,
                     log_posterior_kernel, posterior_summary, rw_metropolis)

GRID = GridSpec.make(-8.0, 8.0, 201)


def small_problem(seed=0, N=40, J=4, K=1, beta=0.7):
    cfg = MnlDgpConfig(N=N, J=J, K=K,
                       beta_star=np.full(K, beta), seed=seed)
    ds = generate_mnl(cfg)
    prior = Prior(np.zeros(K), 4.0 * np.eye(K))
    return ds, prior


def sampled_pair(ds, protocol, seed, mode):
    sets = draw_set_table(protocol, ds.chosen_ids(), ds.J, seed)
    return (sets, mode)


# ---------------------------------------------------------------------------
# kernel and grid posterior
# ---------------------------------------------------------------------------

def test_kernel_is_prior_plus_loglik():
    ds, prior = small_problem()
    b = np.array([0.3])
    likelihood = ChoiceArrays(ds, None, "none")
    want = prior.log_density(b) + likelihood.loglik(b)
    assert abs(log_posterior_kernel(b, likelihood, prior) - want) < 1e-12


def test_grid_posterior_normalizes_and_converges():
    ds, prior = small_problem()
    post = grid_posterior(ds, None, prior, GRID)
    mass = float(np.sum(post.weights * post.density))
    assert abs(mass - 1.0) < 1e-10
    assert post.converged
    assert post.log_marginal_refined is not None
    assert abs(post.log_marginal_refined - post.log_marginal) < 1e-6


def test_grid_posterior_matches_bruteforce_marginal():
    ds, prior = small_problem(N=12)
    grid = GridSpec.make(-8.0, 8.0, 101)
    post = grid_posterior(ds, None, prior, grid, check_doubling=False)
    pts = grid.lattice()
    likelihood = ChoiceArrays(ds, None, "none")
    kern = np.array([
        np.exp(log_posterior_kernel(p, likelihood, prior))
        for p in pts])
    w = grid.weights()
    assert abs(post.log_marginal - np.log(np.sum(w * kern))) < 1e-10


def test_grid_posterior_guards():
    ds, prior = small_problem()
    with pytest.raises(InvalidInputError):
        grid_posterior(ds, None, prior, GridSpec.make((-8, -8), (8, 8), 61))
    cfg = MnlDgpConfig(N=10, J=3, K=3,
                       beta_star=np.zeros(3), seed=1)
    ds3 = generate_mnl(cfg)
    with pytest.raises(UnsupportedDimensionError):
        grid_posterior(ds3, None, Prior(np.zeros(3), np.eye(3)),
                       GridSpec.make((-8,) * 3, (8,) * 3, (61,) * 3))


def test_uniform_sampled_posterior_is_mode_invariant_bitwise():
    """Uniform conditioning: constant corrections cancel, so the posterior
    kernel is the same array no matter which correction mode built it."""
    ds, prior = small_problem(N=60)
    sets = draw_set_table(Protocol("uniform_wor", m=2), ds.chosen_ids(),
                          ds.J, 3)
    posts = [grid_posterior(ds, (sets, mode), prior, GRID,
                            check_doubling=False)
             for mode in ("mcfadden", "none", "uniform_constant")]
    assert np.array_equal(posts[0].log_kernel, posts[1].log_kernel)
    assert np.array_equal(posts[0].log_kernel, posts[2].log_kernel)
    assert posts[0].log_marginal == posts[1].log_marginal == posts[2].log_marginal


# ---------------------------------------------------------------------------
# posterior information loss on the grid
# ---------------------------------------------------------------------------

def test_kl_zero_against_itself_and_positive_against_sampled():
    ds, prior = small_problem(N=80)
    full = grid_posterior(ds, None, prior, GRID, check_doubling=False)
    assert abs(kl_divergence_grid(full, full)) < 1e-14
    pair = sampled_pair(ds, Protocol("uniform_wor", m=2), 5, "mcfadden")
    samp = grid_posterior(ds, pair, prior, GRID, check_doubling=False)
    kl = kl_divergence_grid(full, samp)
    assert kl > 0.0


def test_kl_decomposition_sums_to_kl():
    ds, prior = small_problem(N=80)
    full = grid_posterior(ds, None, prior, GRID, check_doubling=False)
    for proto in (Protocol("uniform_wor", m=2),
                  Protocol("importance_independent",
                           inclusion_probs=np.array([0.9, 0.6, 0.4, 0.1]))):
        pair = sampled_pair(ds, proto, 6, "mcfadden")
        samp = grid_posterior(ds, pair, prior, GRID, check_doubling=False)
        llr, log_ibf = kl_decomposition(full, samp)
        assert abs((llr + log_ibf) - kl_divergence_grid(full, samp)) < 1e-10


def test_grid_mismatch_is_rejected():
    ds, prior = small_problem(N=20)
    a = grid_posterior(ds, None, prior, GRID, check_doubling=False)
    b = grid_posterior(ds, None, prior, GridSpec.make(-8.0, 8.0, 101),
                       check_doubling=False)
    with pytest.raises(InvalidInputError):
        kl_divergence_grid(a, b)


# ---------------------------------------------------------------------------
# random-walk sampler
# ---------------------------------------------------------------------------

def test_metropolis_matches_standard_normal_target():
    draws = rw_metropolis(lambda x: -0.5 * np.sum(x * x, axis=-1), np.zeros(1),
                          n_chains=2, n_iter=30000, burn_in=2000,
                          proposal_scale=1.0, seed=42)
    pooled = draws.pooled()[:, 0]
    assert abs(pooled.mean()) < 0.05
    assert abs(pooled.std() - 1.0) < 0.05
    assert np.all(draws.acceptance_rates > 0.1)
    assert np.all(draws.acceptance_rates < 0.9)


def test_metropolis_is_reproducible_and_chain_count_invariant():
    kern = lambda x: -0.5 * np.sum(x * x, axis=-1)
    a = rw_metropolis(kern, np.zeros(2), 3, 400, 100, 0.8, seed=7)
    b = rw_metropolis(kern, np.zeros(2), 3, 400, 100, 0.8, seed=7)
    c = rw_metropolis(kern, np.zeros(2), 1, 400, 100, 0.8, seed=7)
    assert np.array_equal(a.draws, b.draws)
    # Chain 0's stream is the same whatever the chain count.
    assert np.array_equal(a.draws[:1], c.draws)
    d = rw_metropolis(kern, np.zeros(2), 3, 400, 100, 0.8, seed=8)
    assert not np.array_equal(a.draws, d.draws)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 3),
       P=st.integers(1, 40))
def test_prior_density_row_alone_equals_row_in_batch(seed, K, P):
    """A point gets the same bits alone as inside a batch of any size."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(K, K))
    prior = Prior(rng.normal(size=K), A @ A.T + 0.3 * np.eye(K))
    batch = rng.normal(scale=3.0, size=(P, K))
    values = prior.log_density(batch)
    assert values.shape == (P,)
    for p in range(P):
        alone = prior.log_density(batch[p])
        assert isinstance(alone, float)
        assert alone == values[p]


@pytest.mark.parametrize("mean,cov", [
    ([np.nan], [[1.0]]), ([0.0], [[np.nan]]), ([np.inf, 0.0], np.eye(2)),
], ids=["nan_mean", "nan_cov", "inf_mean"])
def test_prior_refuses_non_finite_parameters(mean, cov):
    with pytest.raises(InvalidInputError, match="finite"):
        Prior(mean, cov)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_chains=st.integers(1, 4),
       K=st.integers(1, 3), burn_in=st.sampled_from([0, 30, 50, 99, 151]),
       kept=st.integers(1, 40), kind=st.sampled_from(["quadratic", "choice"]))
def test_lockstep_metropolis_matches_per_chain_reference(seed, n_chains, K,
                                                         burn_in, kept, kind):
    """Lockstep chains reproduce one-chain-at-a-time draws bit for bit,
    across adaptation windows (burn-in 50 and up crosses at least one)."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        mean = rng.normal(size=K)
        prec = rng.uniform(0.2, 5.0, size=K)
        kern = lambda x: -0.5 * np.sum(prec * (x - mean) ** 2, axis=-1)
    else:
        ds, prior = small_problem(seed=seed % 1000, N=15, K=K, beta=0.5)
        proto = Protocol("importance_independent",
                         inclusion_probs=rng.uniform(0.2, 0.9, size=4))
        sets, mode = sampled_pair(ds, proto, seed, "mcfadden")
        lik = ChoiceArrays(ds, sets, mode)
        kern = lambda x: log_posterior_kernel(x, lik, prior)
    init = rng.normal(scale=0.3, size=K)
    scale = float(rng.uniform(0.05, 2.0))
    n_iter = burn_in + kept
    got = rw_metropolis(kern, init, n_chains, n_iter, burn_in, scale, seed)
    want_draws, want_rates = reference_metropolis(kern, init, n_chains, n_iter,
                                                  burn_in, scale, seed)
    assert np.array_equal(got.draws, want_draws)
    assert np.array_equal(got.acceptance_rates, want_rates)


@pytest.mark.parametrize("n_chains", [1, 2, 4])
def test_metropolis_makes_one_kernel_call_per_step(n_chains):
    shapes = []

    def kern(x):
        shapes.append(x.shape)
        return -0.5 * np.sum(x * x, axis=-1)

    rw_metropolis(kern, np.zeros(3), n_chains, 120, 60, 0.5, seed=1)
    assert shapes == [(n_chains, 3)] * 121


def test_metropolis_tracks_grid_posterior():
    """Scaled-down total-variation comparison against the lattice truth."""
    ds, prior = small_problem(N=50)
    full = grid_posterior(ds, None, prior, GRID, check_doubling=False)
    likelihood = ChoiceArrays(ds, None, "none")
    kern = lambda x: log_posterior_kernel(x, likelihood, prior)
    draws = rw_metropolis(kern, np.zeros(1), 2, 25000, 5000, 0.5, seed=11)
    pooled = draws.pooled()[:, 0]

    edges = np.linspace(-8.0, 8.0, 81)
    hist, _ = np.histogram(pooled, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = np.interp(centers, full.points[:, 0], full.density)
    tv = 0.5 * np.sum(np.abs(hist - dens)) * (edges[1] - edges[0])
    assert tv < 0.06


def test_metropolis_validation():
    kern = lambda x: -0.5 * np.sum(x * x, axis=-1)
    with pytest.raises(InvalidInputError):
        rw_metropolis(kern, np.zeros(1), 1, 100, 100, 0.5, seed=0)
    with pytest.raises(InvalidInputError):
        rw_metropolis(kern, np.zeros(1), 1, 100, 10, -1.0, seed=0)
    with pytest.raises(InvalidInputError):
        rw_metropolis(lambda x: np.full(len(x), np.nan), np.zeros(1), 1, 100,
                      10, 0.5, seed=0)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_summary_recomputes_moments():
    rng = np.random.default_rng(21)
    draws = PosteriorDraws(rng.normal(size=(2, 500, 2)), 2, 0,
                           np.array([0.3, 0.4]), seed=0,
                           param_names=["a", "b"])
    s = posterior_summary(draws)
    pooled = draws.pooled()
    assert np.allclose(s.mean, pooled.mean(axis=0))
    assert np.allclose(s.sd, pooled.std(axis=0, ddof=1))
    assert np.allclose(s.q50, np.percentile(pooled, 50, axis=0))
    assert s.n_draws == 1000
    assert np.all(s.ess > 100)  # iid draws: ESS near n
    assert s.param_names == ["a", "b"]


def test_summary_needs_enough_draws():
    draws = PosteriorDraws(np.zeros((1, 50, 1)), 1, 0, np.array([0.2]), seed=0)
    with pytest.raises(InsufficientDrawsError):
        posterior_summary(draws)
