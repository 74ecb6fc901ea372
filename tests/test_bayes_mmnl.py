"""Three-step Gibbs sampler for the hierarchical logit.

The two conjugate steps have closed-form conditionals, so they are tested
against Monte-Carlo moments of the known distributions; the MH step is
tested through its invariances (zero proposal scale, a flat likelihood,
correction-mode cancellation under uniform conditioning).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular

from gibbs_reference import reference_gibbs
from soa_lab import (ChoiceArrays, Dataset, GibbsConfig, InvalidInputError,
                     MixingState, MmnlDgpConfig, MmnlPriors, Protocol,
                     SampledSet, SetTable, derive_stream, draw_sampled_set,
                     draw_set_table, generate_mmnl,
                     gibbs_step_mu, gibbs_step_sigma, run_gibbs,
                     sigma_posterior_params)


def fixed_state(seed=0, N=40, K=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(K, K))
    sigma = A @ A.T + 0.5 * np.eye(K)
    return MixingState(rng.normal(size=K), sigma, rng.normal(size=(N, K)))


# ---------------------------------------------------------------------------
# conjugate steps
# ---------------------------------------------------------------------------

def test_mu_step_matches_normal_conditional_moments():
    state = fixed_state()
    priors = MmnlPriors(np.array([0.5, -0.5]), 2.0 * np.eye(2), 4,
                        np.eye(2))
    a0_inv = np.linalg.inv(priors.A0)
    sig_inv = np.linalg.inv(state.sigma)
    cov = np.linalg.inv(a0_inv + state.n_individuals * sig_inv)
    mean = cov @ (a0_inv @ priors.m0 + sig_inv @ state.beta_all.sum(axis=0))

    rng = np.random.default_rng(123)
    draws = np.array([gibbs_step_mu(state, priors, rng) for _ in range(4000)])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)
    assert np.allclose(np.cov(draws.T), cov, atol=0.02, rtol=0.15)


def test_mu_step_diffuse_prior_centers_on_coefficient_average():
    state = fixed_state(seed=1, N=200)
    priors = MmnlPriors(np.array([50.0, -50.0]), 1e8 * np.eye(2), 4, np.eye(2))
    rng = np.random.default_rng(5)
    draws = np.array([gibbs_step_mu(state, priors, rng) for _ in range(2000)])
    bbar = state.beta_all.mean(axis=0)
    # prior mean far away but essentially flat: the draw centers on beta-bar
    assert np.all(np.abs(draws.mean(axis=0) - bbar) < 0.05)


def test_sigma_conditional_parameters():
    state = fixed_state(seed=2, N=7, K=2)
    priors = MmnlPriors(np.zeros(2), np.eye(2), 5, 2.0 * np.eye(2))
    dof, scale = sigma_posterior_params(state, priors)
    dev = state.beta_all - state.mu
    assert dof == 5 + 7
    assert np.allclose(scale, 2.0 * np.eye(2) + dev.T @ dev, atol=1e-12)


def test_sigma_step_matches_inverted_wishart_mean():
    state = fixed_state(seed=3, N=30, K=2)
    priors = MmnlPriors(np.zeros(2), np.eye(2), 6, np.eye(2))
    dof, scale = sigma_posterior_params(state, priors)
    want = scale / (dof - 2 - 1)  # mean exists since dof > K + 1
    rng = np.random.default_rng(7)
    draws = np.stack([gibbs_step_sigma(state, priors, rng)
                      for _ in range(4000)])
    assert np.allclose(draws.mean(axis=0), want, rtol=0.1, atol=0.02)


def test_sigma_step_draws_are_pd_and_symmetric():
    state = fixed_state(seed=4, N=10, K=3)
    priors = MmnlPriors.default_for(3)
    rng = np.random.default_rng(8)
    for _ in range(50):
        S = gibbs_step_sigma(state, priors, rng)
        assert np.array_equal(S, S.T)
        assert np.min(np.linalg.eigvalsh(S)) > 0.0


def _random_spd(rng, K):
    A = rng.normal(size=(K, K + 2))
    return A @ A.T * rng.exponential(1.0) + 0.05 * np.eye(K)


def _spd_inverse_reference(M):
    L = np.linalg.cholesky(M)
    eye = np.eye(M.shape[0])
    return solve_triangular(L.T, solve_triangular(L, eye, lower=True),
                            lower=False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 3),
       N=st.integers(1, 40))
def test_conjugate_steps_equal_scipy_bitwise(seed, K, N):
    """Both conjugate steps reproduce scipy's formulation bit for bit from
    the same generator state: the inverted-Wishart draw of
    stats.invwishart.rvs, and the normal draw built on triangular-solve
    inverses."""
    rng = np.random.default_rng(seed)
    state = MixingState(rng.normal(size=K), _random_spd(rng, K),
                        rng.normal(size=(N, K)))
    priors = MmnlPriors(rng.normal(size=K), _random_spd(rng, K),
                        K - 1 + rng.exponential(5.0) + 0.01,
                        _random_spd(rng, K))

    dof, scale = sigma_posterior_params(state, priors)
    want = stats.invwishart.rvs(df=dof, scale=scale,
                                random_state=np.random.default_rng(seed))
    want = np.asarray(want, dtype=float).reshape(K, K)
    got = gibbs_step_sigma(state, priors, np.random.default_rng(seed))
    assert np.array_equal(got, 0.5 * (want + want.T))

    sig_inv = _spd_inverse_reference(state.sigma)
    a0_inv = _spd_inverse_reference(priors.A0)
    cov = np.linalg.inv(a0_inv + N * sig_inv)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (a0_inv @ priors.m0 + sig_inv @ state.beta_all.sum(axis=0))
    want_mu = mean + np.linalg.cholesky(cov) @ np.random.default_rng(
        seed).standard_normal(K)
    got_mu = gibbs_step_mu(state, priors, np.random.default_rng(seed))
    assert np.array_equal(got_mu, want_mu)


def test_mixing_state_factor_follows_sigma():
    """The cached Cholesky factor is Sigma's, and assigning Sigma drops it."""
    state = fixed_state(seed=5, K=2)
    assert np.array_equal(state.chol, np.linalg.cholesky(state.sigma))
    state.sigma = 2.0 * np.eye(2)
    assert np.array_equal(state.chol, np.sqrt(2.0) * np.eye(2))


def test_prior_invariants_follow_the_fields():
    priors = MmnlPriors(np.array([1.0, 2.0]), 4.0 * np.eye(2), 5, np.eye(2))
    assert np.array_equal(priors.invariants.a0_inv_m0, [0.25, 0.5])
    priors.A0 = np.eye(2)
    assert np.array_equal(priors.invariants.a0_inv_m0, [1.0, 2.0])
    assert np.array_equal(priors.invariants.chi_dof(10), [14.0, 15.0])


def test_default_priors():
    p = MmnlPriors.default_for(3)
    assert np.array_equal(p.m0, np.zeros(3))
    assert np.array_equal(p.A0, 100.0 * np.eye(3))
    assert p.v0 == 5
    assert np.array_equal(p.S0, np.eye(3))
    with pytest.raises(InvalidInputError):
        MmnlPriors(np.zeros(2), np.eye(2), 0.5, np.eye(2))  # v0 <= K-1


@pytest.mark.parametrize("name,value", [
    ("m0", [np.nan, 0.0]), ("A0", np.diag([np.inf, 1.0])), ("v0", np.inf),
    ("S0", np.full((2, 2), np.nan))], ids=["m0", "A0", "v0", "S0"])
def test_priors_refuse_non_finite_fields(name, value):
    """A non-finite field is refused by name, not accepted (A0 = inf is a
    flat prior on mu) or refused for a symmetry or definiteness it lacks."""
    fields = {"m0": np.zeros(2), "A0": np.eye(2), "v0": 4.0, "S0": np.eye(2)}
    fields[name] = value
    with pytest.raises(InvalidInputError, match=f"prior {name} must be finite"):
        MmnlPriors(**fields)


def test_mixing_state_validation():
    with pytest.raises(InvalidInputError):
        MixingState(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]),
                    np.zeros((3, 2)))  # asymmetric sigma
    with pytest.raises(Exception):
        MixingState(np.zeros(2), -np.eye(2), np.zeros((3, 2)))  # not PD


# ---------------------------------------------------------------------------
# individual-level MH step
# ---------------------------------------------------------------------------

def panel_data(seed=0, N=30, T=4, J=4, K=1):
    cfg = MmnlDgpConfig(N=N, T=T, J=J, K=K, mu_star=np.full(K, 0.8),
                        sigma_star=0.4 * np.eye(K), seed=seed)
    return generate_mmnl(cfg)


def test_loglik_invariant_to_constant_set_probability_shift():
    ds, _ = panel_data()
    rng = np.random.default_rng(1)
    sets = draw_set_table(Protocol("uniform_wor", m=2), ds.chosen_ids(), ds.J,
                          1)
    shifted = SetTable.from_sets([SampledSet(s.member_ids, s.log_cond_prob - 7.0)
                                  for s in sets])
    beta = rng.normal(0.9, 0.5, size=(30, 1))
    a = ChoiceArrays.panel(ds, sets, "mcfadden").panel_loglik(beta)
    b = ChoiceArrays.panel(ds, shifted, "mcfadden").panel_loglik(beta)
    assert np.array_equal(a, b)  # corrections are re-centred before exponentiation
    assert np.array_equal(ChoiceArrays.panel(ds, sets, "none").panel_loglik(beta), a)


def test_zero_proposal_scale_always_accepts():
    """rho = 0 proposes the current point, which is always accepted."""
    ds, _ = panel_data(N=10, T=3)
    out = run_gibbs(ds, MmnlPriors.default_for(1),
                    GibbsConfig(iterations=60, burn_in=20, seed=2, rho=0.0,
                                store_beta_n=True))
    assert np.all(out.individual_acceptance == 1.0)
    assert np.array_equal(out.beta_n_draws, np.zeros_like(out.beta_n_draws))


def test_mh_chain_on_flat_likelihood_samples_the_prior():
    """Identical alternatives carry no information about beta, so the MH
    target is the population density alone and the whole cycle samples the
    prior hierarchy: mu ~ N(m0, A0)."""
    m0, sd = 0.5, 0.6
    ds = Dataset.from_arrays(np.ones((2, 3, 1)), np.array([0, 2]),
                             np.zeros(2, dtype=int))
    priors = MmnlPriors(np.array([m0]), np.array([[sd ** 2]]), 3, np.eye(1))
    out = run_gibbs(ds, priors, GibbsConfig(iterations=2500, burn_in=500,
                                            seed=3, rho=2.0))
    mu = out.draws[0, :, 0]
    # ~400 effective draws: 0.1 is about three Monte-Carlo standard errors
    assert abs(mu.mean() - m0) < 0.1
    assert abs(mu.std() - sd) < 0.1


# ---------------------------------------------------------------------------
# the full cycle
# ---------------------------------------------------------------------------

def test_run_gibbs_shapes_thinning_and_bookkeeping():
    ds, _ = panel_data(N=20, T=3)
    cfg = GibbsConfig(iterations=60, burn_in=20, thin=5, seed=1,
                      store_beta_n=True)
    out = run_gibbs(ds, MmnlPriors.default_for(1), cfg)
    assert out.draws.shape == (1, 8, 2)  # K + K(K+1)/2 = 2 columns
    assert out.param_names == ["mu_0", "sigma_0_0"]
    assert out.beta_n_draws.shape == (8, 20, 1)
    assert out.individual_acceptance.shape == (20,)
    assert np.all((0.0 <= out.individual_acceptance)
                  & (out.individual_acceptance <= 1.0))
    assert np.array_equal(out.individual_ids, np.unique(ds.individual_ids()))
    # sigma draws stay positive
    assert np.all(out.draws[0, :, 1] > 0.0)


def test_run_gibbs_is_reproducible():
    ds, _ = panel_data(N=15, T=3)
    cfg = GibbsConfig(iterations=80, burn_in=30, seed=9)
    a = run_gibbs(ds, MmnlPriors.default_for(1), cfg)
    b = run_gibbs(ds, MmnlPriors.default_for(1), cfg)
    assert np.array_equal(a.draws, b.draws)
    c = run_gibbs(ds, MmnlPriors.default_for(1),
                  GibbsConfig(iterations=80, burn_in=30, seed=10))
    assert not np.array_equal(a.draws, c.draws)


def test_run_gibbs_uniform_sets_mode_invariant_bitwise():
    """Uniform conditioning: every acceptance decision is unchanged by the
    correction mode, so whole chains coincide bit for bit."""
    ds, _ = panel_data(N=15, T=3, J=5)
    sets = draw_set_table(Protocol("uniform_wor", m=3), ds.chosen_ids(),
                          ds.J, 4)
    chains = [run_gibbs(ds, MmnlPriors.default_for(1),
                        GibbsConfig(iterations=100, burn_in=40, seed=2,
                                    sets=(sets, mode)))
              for mode in ("mcfadden", "none", "uniform_constant")]
    assert np.array_equal(chains[0].draws, chains[1].draws)
    assert np.array_equal(chains[0].draws, chains[2].draws)
    assert np.array_equal(chains[0].individual_acceptance,
                          chains[1].individual_acceptance)


def test_run_gibbs_recovers_location_scaled_down():
    ds, _ = panel_data(seed=6, N=100, T=6, J=4)
    cfg = GibbsConfig(iterations=1200, burn_in=400, seed=3)
    out = run_gibbs(ds, MmnlPriors.default_for(1), cfg)
    mu_draws = out.draws[0, :, 0]
    err = abs(mu_draws.mean() - 0.8)
    assert err < max(3.0 * mu_draws.std(), 0.2)


def test_run_gibbs_validates_set_count():
    ds, _ = panel_data(N=10, T=2)
    sets = SetTable.from_sets([
        draw_sampled_set(Protocol("uniform_wor", m=2), int(c), ds.J,
                         derive_stream(1, i))
        for i, c in enumerate(ds.chosen_ids())][:-1])
    with pytest.raises(InvalidInputError):
        run_gibbs(ds, MmnlPriors.default_for(1),
                  GibbsConfig(iterations=10, burn_in=2,
                              sets=(sets, "mcfadden")))


def test_gibbs_config_validation():
    with pytest.raises(InvalidInputError):
        GibbsConfig(iterations=10, burn_in=10)
    with pytest.raises(InvalidInputError):
        GibbsConfig(iterations=10, burn_in=2, thin=0)
    with pytest.raises(InvalidInputError):
        GibbsConfig(iterations=10, burn_in=2, rho=-0.1)
    with pytest.raises(InvalidInputError):
        GibbsConfig(iterations=10, burn_in=2, sets=([], "mcfadden"))
    with pytest.raises(InvalidInputError):
        GibbsConfig(iterations=10, burn_in=2,
                    sets=([SampledSet(np.array([0, 1]), np.zeros(2))], "bogus"))


# ---------------------------------------------------------------------------
# bitwise agreement with the per-iteration reference
# ---------------------------------------------------------------------------

def _assert_matches_reference(ds, priors, cfg):
    got = run_gibbs(ds, priors, cfg)
    want = reference_gibbs(ds, priors, cfg)
    assert np.array_equal(got.draws[0], want["draws"])
    assert np.array_equal(got.individual_acceptance, want["acceptance"])
    assert got.degeneracy_events == want["degeneracy_events"]
    if cfg.store_beta_n:
        assert np.array_equal(got.beta_n_draws, want["beta_n"])
    else:
        assert got.beta_n_draws is None
    return got


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 3),
       sets=st.sampled_from([None, ("uniform_wor", "mcfadden"),
                             ("uniform_wor", "none"),
                             ("uniform_wor", "uniform_constant"),
                             ("importance_independent", "mcfadden"),
                             ("importance_independent", "none")]),
       burn_in=st.integers(0, 60), kept=st.integers(1, 12),
       thin=st.integers(1, 3), store_beta_n=st.booleans())
def test_run_gibbs_matches_per_iteration_reference(seed, K, sets, burn_in,
                                                   kept, thin, store_beta_n):
    """Hoisted invariants, the carried factor of Sigma and the stacked
    density call leave every draw, acceptance rate and stored beta_n of the
    per-iteration sweep unchanged, bit for bit."""
    J = 5
    ds, _ = generate_mmnl(MmnlDgpConfig(
        N=6, T=2, J=J, K=K, mu_star=np.full(K, 0.5),
        sigma_star=0.3 * np.eye(K), seed=seed % 1000))
    if sets is not None:
        kind, mode = sets
        protocol = (Protocol(kind, m=3) if kind == "uniform_wor" else
                    Protocol(kind, inclusion_probs=np.linspace(0.3, 0.7, J)))
        sets = (draw_set_table(protocol, ds.chosen_ids(), J, seed), mode)
    rng = np.random.default_rng(seed)
    priors = MmnlPriors(rng.normal(size=K), _random_spd(rng, K),
                        K + 1 + rng.exponential(2.0), _random_spd(rng, K))
    cfg = GibbsConfig(iterations=burn_in + kept * thin, burn_in=burn_in,
                      thin=thin, seed=seed, rho=0.5, sets=sets,
                      store_beta_n=store_beta_n)
    _assert_matches_reference(ds, priors, cfg)


@pytest.mark.parametrize("K,rotation_seed,eps", [(2, 0, 1e-17),
                                                 (3, 5, 1e-16),
                                                 (3, 13, 1e-17)])
def test_near_singular_sigma_retries_like_the_reference(K, rotation_seed, eps):
    """A prior scale S0 that is singular to working precision starts Sigma
    there, so a conjugate step fails and the run nudges Sigma by 1e-8 I and
    retries.  The factor of the nudged Sigma is taken inside the retry, so
    the degeneracy count and every draw match the reference."""
    Q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).normal(size=(K, K)))
    S0 = Q @ np.diag(np.r_[np.ones(K - 1), eps]) @ Q.T
    priors = MmnlPriors(np.zeros(K), 100.0 * np.eye(K), K + 1.0,
                        0.5 * (S0 + S0.T))
    ds, _ = generate_mmnl(MmnlDgpConfig(N=8, T=2, J=3, K=K, mu_star=np.ones(K),
                                        sigma_star=0.5 * np.eye(K), seed=1))
    got = _assert_matches_reference(
        ds, priors, GibbsConfig(iterations=30, burn_in=10, seed=rotation_seed,
                                store_beta_n=True))
    assert got.degeneracy_events >= 1



def singular_mu_precision_case():
    """A K=3 panel and a prior scale S0 singular to working precision (a
    rotated diag(1, 1, 1e-16)) on which a mu step meets a precision that
    np.linalg.inv refuses as singular."""
    ds, _ = generate_mmnl(MmnlDgpConfig(
        N=50, T=3, J=4, K=3, mu_star=np.array([1.0, 0.0, -1.0]),
        sigma_star=0.5 * np.eye(3), seed=3))
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    return ds, Q @ np.diag([1.0, 1.0, 1e-16]) @ Q.T


def test_singular_mu_precision_is_retried_as_a_degeneracy():
    ds, S0 = singular_mu_precision_case()
    default = MmnlPriors.default_for(3)
    priors = MmnlPriors(default.m0, default.A0, default.v0, S0)
    got = run_gibbs(ds, priors, GibbsConfig(iterations=200, burn_in=100,
                                            seed=3, rho=0.4))
    assert got.degeneracy_events >= 1
    assert np.all(np.isfinite(got.draws))
