"""Quasi-likelihood estimators: gradients, recovery, expansion factors."""

import warnings
from itertools import product
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.stats import qmc

from soa_lab import mle
from soa_lab import (ChoiceArrays, Dataset, InvalidInputError, MmnlDgpConfig,
                     MnlDgpConfig, Protocol, SampledSet,
                     derive_stream, draw_sampled_set, draw_set_table,
                     fit_mmnl_msl, fit_mnl, generate_mmnl, generate_mnl,
                     halton_normal_draws, log_softmax, pack_theta,
                     theta_labels, unpack_theta, utilities)
from soa_lab.draws import halton_points, normal_inv_cdf
from soa_lab.optimize import central_diff_grad
from draw_reference import table_from_sets
from probability_reference import padded_row_log_probs, row_score
from wn_reference import (attribute_matrix, compute_wn, individual_loglik,
                          wn_numerator)


def sampled_for(dataset, protocol, seed):
    return draw_set_table(protocol, dataset.chosen_ids(), dataset.J, seed)


# ---------------------------------------------------------------------------
# gradient of the quasi log-likelihood
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    """100 randomized probes of the analytic gradient, full and sampled."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for probe in range(100):
        N = int(rng.integers(3, 12))
        J = int(rng.integers(2, 7))
        K = int(rng.integers(1, 4))
        X = rng.normal(size=(N, J, K))
        ds = Dataset.from_arrays(X, rng.integers(0, J, size=N))
        beta = rng.normal(scale=0.8, size=K)
        if probe % 2 == 0:
            sets, mode = None, "none"
        else:
            m = int(rng.integers(2, J + 1))
            proto = Protocol("uniform_wor", m=m)
            sets = sampled_for(ds, proto, probe)
            mode = "mcfadden"
        likelihood = ChoiceArrays(ds, sets, mode)
        g = likelihood.score(beta)
        fd = central_diff_grad(likelihood.loglik, beta)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
    assert worst <= 1e-6


def test_loglik_value_on_tiny_example():
    # one observation, two alternatives, K=1: ln P(chosen) = -ln(1 + e^{-dv})
    ds = Dataset.from_arrays([[[1.0], [0.0]]], [0])
    ll = ChoiceArrays(ds, None, "none").loglik(np.array([2.0]))
    assert abs(ll - (-np.log1p(np.exp(-2.0)))) < 1e-14


# ---------------------------------------------------------------------------
# fixed-coefficient fits
# ---------------------------------------------------------------------------

def test_full_set_fit_finds_stationary_point():
    cfg = MnlDgpConfig(N=400, J=5, K=2, beta_star=np.array([1.0, -0.5]),
                       seed=3)
    ds = generate_mnl(cfg)
    res = fit_mnl(ds)
    assert res.converged
    likelihood = ChoiceArrays(ds, None, "none")
    assert np.max(np.abs(likelihood.score(res.estimate))) <= 1e-6
    # local optimality probe
    ll_hat = likelihood.loglik(res.estimate)
    rng = np.random.default_rng(0)
    for _ in range(10):
        delta = rng.normal(scale=0.05, size=2)
        assert likelihood.loglik(res.estimate + delta) < ll_hat
    assert np.all(res.std_errors > 0)


def test_full_set_recovery_within_sampling_error():
    beta_star = np.array([1.0, -0.5])
    cfg = MnlDgpConfig(N=4000, J=6, K=2, beta_star=beta_star, seed=21)
    res = fit_mnl(generate_mnl(cfg))
    assert res.converged
    assert np.all(np.abs(res.estimate - beta_star) < 3 * res.std_errors)


def test_uniform_sampling_modes_agree_bitwise():
    """Uniform conditioning: the correction constant cancels exactly, so the
    whole fit (estimates, SEs, loglik) is bit-identical across modes."""
    cfg = MnlDgpConfig(N=300, J=6, K=2, beta_star=np.array([0.8, -0.8]),
                       seed=5)
    ds = generate_mnl(cfg)
    sets = sampled_for(ds, Protocol("uniform_wor", m=3), seed=6)
    runs = [fit_mnl(ds, sets, mode)
            for mode in ("mcfadden", "none", "uniform_constant")]
    for other in runs[1:]:
        assert np.array_equal(runs[0].estimate, other.estimate)
        assert np.array_equal(runs[0].std_errors, other.std_errors)
        assert runs[0].loglik == other.loglik


def test_importance_needs_corrections():
    """Importance sampling skewed toward high-utility alternatives biases the
    uncorrected fit badly; the sampling corrections repair it.  The skew must
    correlate with utilities — an index-only skew with iid covariates acts
    like an intercept orthogonal to x and leaves the slope nearly unbiased."""
    rng = np.random.default_rng(42)
    N, J = 3000, 5
    shifts = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    X = rng.normal(size=(N, J, 1)) * 0.5 + shifts[None, :, None]
    P = np.exp(log_softmax(X[..., 0], axis=1))
    chosen = (np.cumsum(P, axis=1) < rng.uniform(size=N)[:, None]).sum(axis=1)
    ds = Dataset.from_arrays(X, chosen)

    proto = Protocol("importance_independent",
                     inclusion_probs=np.array([0.05, 0.15, 0.3, 0.6, 0.9]))
    sets = sampled_for(ds, proto, seed=7)
    corrected = fit_mnl(ds, sets, "mcfadden")
    uncorrected = fit_mnl(ds, sets, "none")
    assert abs(corrected.estimate[0] - 1.0) < 3 * corrected.std_errors[0]
    assert abs(uncorrected.estimate[0] - 1.0) > 5 * uncorrected.std_errors[0]


def test_sampled_sets_must_align_with_dataset():
    cfg = MnlDgpConfig(N=10, J=4, K=1, beta_star=np.array([1.0]), seed=1)
    ds = generate_mnl(cfg)
    sets = sampled_for(ds, Protocol("uniform_wor", m=2), seed=2)
    with pytest.raises(InvalidInputError):
        fit_mnl(ds, sets[:-1], "mcfadden")


# ---------------------------------------------------------------------------
# theta packing
# ---------------------------------------------------------------------------

def test_pack_unpack_round_trip():
    rng = np.random.default_rng(4)
    K = 3
    mu = rng.normal(size=K)
    A = rng.normal(size=(K, K))
    L = np.linalg.cholesky(A @ A.T + np.eye(K))
    theta = pack_theta(mu, L)
    mu2, L2 = unpack_theta(theta, K)
    assert np.allclose(mu, mu2, atol=1e-14)
    assert np.allclose(L, L2, atol=1e-14)
    assert len(theta_labels(K)) == theta.size


def test_pack_rejects_nonpositive_diagonal():
    with pytest.raises(InvalidInputError):
        pack_theta(np.zeros(2), np.array([[1.0, 0.0], [0.5, 0.0]]))


# ---------------------------------------------------------------------------
# Halton draw block
# ---------------------------------------------------------------------------

def test_halton_draws_shape_and_determinism():
    a = halton_normal_draws(5, 40, 2)
    b = halton_normal_draws(5, 40, 2)
    assert a.shape == (5, 40, 2)
    assert np.array_equal(a, b)


def test_halton_blocks_are_contiguous_slices_of_one_sequence():
    whole = halton_normal_draws(1, 60, 2).reshape(60, 2)
    split = halton_normal_draws(3, 20, 2).reshape(60, 2)
    assert np.array_equal(whole, split)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_halton_points_equal_scipy_bitwise(dim):
    for n in (1, 7, 1000, 50000):
        sampler = qmc.Halton(d=dim, scramble=False)
        sampler.fast_forward(50)
        assert np.array_equal(halton_points(n, dim), sampler.random(n))


def test_halton_normal_draws_within_16_ulps_of_scipy():
    z = halton_normal_draws(100, 500, 5).reshape(-1, 5)
    want = stats.norm.ppf(halton_points(50000, 5))
    ulps = np.abs(z - want) / np.spacing(np.abs(want))
    assert np.max(ulps) <= 16


def test_normal_inv_cdf_within_4_ulps_of_statistics():
    rng = np.random.default_rng(5)
    p = np.concatenate([halton_points(20000, 5).ravel(),
                        rng.uniform(size=50000),
                        10.0 ** -rng.uniform(1, 300, size=5000),
                        1.0 - 10.0 ** -rng.uniform(1, 16, size=5000)])
    want = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
    got = normal_inv_cdf(p)
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 4


def test_halton_draws_look_standard_normal():
    z = halton_normal_draws(1, 4000, 3).reshape(4000, 3)
    assert np.all(np.isfinite(z))
    assert np.max(np.abs(z.mean(axis=0))) < 0.02
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 0.02
    # quasi-random: no repeated points
    assert len({tuple(r) for r in z[:500].round(12).tolist()}) == 500


# ---------------------------------------------------------------------------
# expansion factor
# ---------------------------------------------------------------------------

def test_wn_is_one_when_sampled_set_is_full_set():
    rng = np.random.default_rng(7)
    obs = Dataset.from_arrays(rng.normal(size=(1, 3, 2)), [1]).observations[0]
    s = SampledSet(np.arange(3), np.zeros(3))  # D = C, pi = 1
    z = rng.normal(size=(8, 2))
    w = compute_wn(rng.normal(size=2),
                   (np.zeros(2), np.eye(2)), obs, s, z)
    assert abs(w - 1.0) < 1e-12


def test_wn_is_one_for_degenerate_mixing():
    """With a single zero draw the mixture collapses to beta_draw = mu."""
    rng = np.random.default_rng(8)
    obs = Dataset.from_arrays(rng.normal(size=(1, 4, 1)), [2]).observations[0]
    proto = Protocol("uniform_wor", m=2)
    s = draw_sampled_set(proto, 2, 4, rng)
    mu = np.array([0.7])
    w = compute_wn(mu, (mu, np.eye(1)), obs, s,
                   np.zeros((1, 1)))
    assert abs(w - 1.0) < 1e-12


def test_wn_matches_bruteforce():
    rng = np.random.default_rng(9)
    K, J, R = 2, 5, 7
    obs = Dataset.from_arrays(rng.normal(size=(1, J, K)), [0]).observations[0]
    proto = Protocol("importance_independent",
                     inclusion_probs=rng.uniform(0.2, 0.8, size=J))
    s = draw_sampled_set(proto, 0, J, rng)
    mu = rng.normal(size=K)
    sigma = np.diag(rng.uniform(0.2, 0.5, size=K))
    z = rng.normal(size=(R, K))
    beta_draw = mu + np.linalg.cholesky(sigma) @ z[3]

    X = attribute_matrix(obs)
    L = np.linalg.cholesky(sigma)
    pi = np.exp(s.log_cond_prob)
    p_draw = np.exp(log_softmax(X @ beta_draw))[s.member_ids]
    betas = mu + z @ L.T
    p_mix = np.mean([np.exp(log_softmax(X @ b))[s.member_ids] for b in betas],
                    axis=0)
    expect = float(pi @ p_draw) / float(pi @ p_mix)

    w = compute_wn(beta_draw, (mu, sigma), obs, s, z)
    assert abs(w - expect) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), K=st.sampled_from([1, 2]),
       importance=st.booleans(), n_ind=st.integers(1, 4),
       T=st.integers(1, 3), J=st.integers(2, 5), R=st.integers(1, 5))
def test_msl_expansion_factor_matches_reference(seed, K, importance, n_ind, T,
                                                J, R):
    """Every per-observation, per-draw ln num inside the exact-factor MSL
    objective equals the scalar reference numerator on the same Halton
    draws."""
    rng = np.random.default_rng(seed)
    n = n_ind * T
    ind = rng.permutation(np.repeat(10 * np.arange(n_ind), T))  # unsorted panel
    ds = Dataset.from_arrays(rng.normal(size=(n, J, K)),
                             rng.integers(0, J, size=n), ind)
    if importance:
        proto = Protocol("importance_independent",
                         inclusion_probs=rng.uniform(0.1, 0.9, size=J))
    else:
        proto = Protocol("uniform_wor", m=int(rng.integers(2, J + 1)))
    sets = sampled_for(ds, proto, seed)
    mu = rng.normal(size=K)
    A = rng.normal(size=(K, K))
    L = np.linalg.cholesky(A @ A.T + 0.3 * np.eye(K))

    seen = {}
    real = mle._SimulatedLikelihood.expansion_numerator

    def spy(self, beta, v_mem):
        out = real(self, beta, v_mem)
        seen["log_num"] = out[0]
        return out

    view = ChoiceArrays.panel(ds, sets, "mcfadden")
    likelihood = mle._SimulatedLikelihood(
        view, halton_normal_draws(view.n_individuals, R, K),
        ds.attribute_tensor())
    with mock.patch.object(mle._SimulatedLikelihood, "expansion_numerator",
                           spy):
        likelihood.loglik(pack_theta(mu, L))
    num = np.exp(seen["log_num"])                   # (R, n), rows by individual

    order = np.argsort(ind, kind="stable")
    z = halton_normal_draws(n_ind, R, K)[np.unique(ind, return_inverse=True)[1]]
    for row, obs_id in enumerate(order):
        obs, zn = ds.observations[obs_id], z[obs_id]
        for r in range(R):
            want = wn_numerator(mu + L @ zn[r], obs,
                                sets[obs_id])
            assert abs(num[r, row] - want) <= 1e-12 * max(1.0, want)


# ---------------------------------------------------------------------------
# maximum simulated likelihood
# ---------------------------------------------------------------------------

def test_msl_recovers_mixing_parameters_full_sets():
    mu_star = np.array([1.0, -1.0])
    sig_star = np.diag([0.5, 0.3])
    cfg = MmnlDgpConfig(N=250, T=5, J=4, K=2, mu_star=mu_star,
                        sigma_star=sig_star, seed=12)
    ds, _ = generate_mmnl(cfg)
    res = fit_mmnl_msl(ds, None, "none", wn_mode="naive_one", r_draws=60)
    assert res.converged
    assert res.mu is not None and res.sigma is not None
    se_mu = res.std_errors[:2]
    assert np.all(np.abs(res.mu - mu_star) < 3.5 * se_mu)
    # mixing spread should be found at roughly the right scale
    assert np.all(np.diag(res.sigma) > 0.05)
    assert np.all(np.diag(res.sigma) < 1.5)


def test_msl_naive_and_exact_wn_agree_at_half_coverage():
    """m/J = 1/2: the expansion-factor correction barely moves the estimate
    (it should stay within one standard error of the naive fit).  The sets
    need enough members for the set-draw probability to stay regular; with
    very small m the exact-factor objective can drift toward degenerate
    mixing, which is why half of J=10 is used rather than half of J=4."""
    mu_star = np.array([0.8])
    cfg = MmnlDgpConfig(N=300, T=5, J=10, K=1, mu_star=mu_star,
                        sigma_star=np.array([[0.4]]), seed=13)
    ds, _ = generate_mmnl(cfg)
    sets = sampled_for(ds, Protocol("uniform_wor", m=5), seed=14)
    naive = fit_mmnl_msl(ds, sets, "mcfadden", wn_mode="naive_one", r_draws=50)
    exact = fit_mmnl_msl(ds, sets, "mcfadden", wn_mode="exact_full_set",
                         r_draws=50)
    gap = np.abs(naive.estimate - exact.estimate)
    assert np.all(gap < np.maximum(naive.std_errors, 1e-3))


def test_msl_is_deterministic():
    cfg = MmnlDgpConfig(N=60, T=3, J=3, K=1, mu_star=np.array([0.5]),
                        sigma_star=np.array([[0.3]]), seed=15)
    ds, _ = generate_mmnl(cfg)
    a = fit_mmnl_msl(ds, None, "none", wn_mode="naive_one", r_draws=40)
    b = fit_mmnl_msl(ds, None, "none", wn_mode="naive_one", r_draws=40)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.loglik == b.loglik


def _panel_objective(ds, sets, corrections, exact, z, theta):
    """fit_mmnl_msl's objective and score at theta on draws z (N, R, K)."""
    view = mle.ChoiceArrays.panel(ds, sets, corrections)
    X = ds.attribute_tensor() if exact and sets is not None else None
    return mle._SimulatedLikelihood(view, z, X).value_and_score(theta)


def test_exact_msl_fit_maximizes_the_exact_factor_objective():
    """Under exact_full_set on sampled sets, the fit's reported log-likelihood
    is the exact-factor objective at its estimate, not the naive one."""
    ds, _ = generate_mmnl(MmnlDgpConfig(N=40, T=3, J=6, K=1,
                                        mu_star=np.array([0.8]),
                                        sigma_star=np.array([[0.4]]), seed=9))
    sets = sampled_for(ds, Protocol("uniform_wor", m=3), seed=10)
    res = fit_mmnl_msl(ds, sets, "mcfadden", "exact_full_set", r_draws=20)
    z = halton_normal_draws(40, 20, 1)
    exact, naive = (_panel_objective(ds, sets, "mcfadden", use_wn, z,
                                     res.estimate)[0]
                    for use_wn in (True, False))
    assert res.loglik == exact
    assert abs(exact - naive) > 1e-6


def _random_theta(rng, K):
    A = rng.normal(size=(K, K))
    return pack_theta(rng.normal(size=K),
                      np.linalg.cholesky(0.5 * A @ A.T + 0.2 * np.eye(K)))


@pytest.mark.parametrize("seed", range(12))
def test_exact_msl_probabilities_of_every_choice_sequence_sum_to_one(seed):
    """J=4, T=2, K=1, fixed draws: with the panel denominator the exact-W
    probabilities of all choice sequences inside the observed sets sum to
    one; the draw-averaged denominator does not."""
    rng = np.random.default_rng(seed)
    J, T, R = 4, 2, 3
    X = rng.normal(size=(T, J, 1))
    if seed % 2:
        proto = Protocol("importance_independent",
                         inclusion_probs=rng.uniform(0.2, 0.8, size=J))
    else:
        proto = Protocol("uniform_wor", m=2)
    sets = table_from_sets([
        draw_sampled_set(proto, int(rng.integers(J)), J, rng) for _ in range(T)])
    z = rng.normal(size=(1, R, 1))
    theta = _random_theta(rng, 1)
    mu, L = unpack_theta(theta, 1)
    panel = averaged = 0.0
    for choices in product(*(sets[t].member_ids.tolist() for t in range(T))):
        ds = Dataset.from_arrays(X, np.array(choices), np.zeros(T, dtype=int))
        panel += np.exp(_panel_objective(ds, sets, "mcfadden", True, z,
                                         theta)[0])
        averaged += np.exp(individual_loglik(
            mu, L, ds.observations, [sets[t] for t in range(T)], z[0],
            "mcfadden", "draw_averaged"))
    assert abs(panel - 1.0) <= 1e-12
    assert abs(averaged - 1.0) > 1e-6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 2),
       exact=st.booleans(), importance=st.booleans(),
       corrections=st.sampled_from(["mcfadden", "none"]),
       n_ind=st.integers(1, 4), T=st.integers(1, 3), J=st.integers(2, 5),
       R=st.integers(1, 5))
def test_msl_objective_matches_scalar_reference(seed, K, exact, importance,
                                                corrections, n_ind, T, J, R):
    """The objective equals the draw-by-draw reference; at T=1 the panel
    denominator is also the draw-averaged one, to 1e-12."""
    rng = np.random.default_rng(seed)
    n = n_ind * T
    ds = Dataset.from_arrays(rng.normal(size=(n, J, K)),
                             rng.integers(0, J, size=n),
                             np.repeat(np.arange(n_ind), T))
    if importance:
        proto = Protocol("importance_independent",
                         inclusion_probs=rng.uniform(0.1, 0.9, size=J))
    else:
        proto = Protocol("uniform_wor", m=int(rng.integers(2, J + 1)))
    sets = sampled_for(ds, proto, seed)
    z = rng.normal(size=(n_ind, R, K))
    theta = _random_theta(rng, K)
    mu, L = unpack_theta(theta, K)
    got = _panel_objective(ds, sets, corrections, exact, z, theta)[0]
    forms = ["panel" if exact else None] + (["draw_averaged"]
                                            if exact and T == 1 else [])
    for form in forms:
        want = sum(individual_loglik(
            mu, L, ds.observations[i * T:(i + 1) * T],
            [sets[t] for t in range(i * T, (i + 1) * T)], z[i], corrections,
            form) for i in range(n_ind))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 3),
       exact=st.booleans(),
       sets_kind=st.sampled_from(["full", "uniform", "importance"]),
       corrections=st.sampled_from(["mcfadden", "none"]),
       n_ind=st.integers(1, 4), T=st.integers(1, 3), J=st.integers(2, 5),
       R=st.integers(1, 6))
def test_msl_score_matches_central_differences(seed, K, exact, sets_kind,
                                               corrections, n_ind, T, J, R):
    rng = np.random.default_rng(seed)
    n = n_ind * T
    ds = Dataset.from_arrays(rng.normal(size=(n, J, K)),
                             rng.integers(0, J, size=n),
                             rng.permutation(np.repeat(np.arange(n_ind), T)))
    if sets_kind == "full":
        sets = None
    elif sets_kind == "importance":
        sets = sampled_for(ds, Protocol(
            "importance_independent",
            inclusion_probs=rng.uniform(0.1, 0.9, size=J)), seed)
    else:
        sets = sampled_for(ds, Protocol("uniform_wor",
                                        m=int(rng.integers(2, J + 1))), seed)
    z = rng.normal(size=(n_ind, R, K))
    theta = _random_theta(rng, K)
    f, g = _panel_objective(ds, sets, corrections, exact, z, theta)
    fd = central_diff_grad(
        lambda t: _panel_objective(ds, sets, corrections, exact, z, t)[0], theta)
    assert np.isfinite(f)
    assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


def test_msl_objective_at_an_overflowing_scale_is_minus_inf():
    """A line-search probe at an extreme scale returns -inf, warning-free."""
    cfg = MmnlDgpConfig(N=5, T=2, J=4, K=1, mu_star=np.array([1.0]),
                        sigma_star=np.array([[0.5]]), seed=3)
    ds, _ = generate_mmnl(cfg)
    sets = sampled_for(ds, Protocol("uniform_wor", m=2), seed=4)
    z = halton_normal_draws(5, 10, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in ([0.0, 800.0], [1e308, 0.0], [-1e308, 5.0]):
            f, _ = _panel_objective(ds, sets, "mcfadden", True, z,
                                    np.array(theta))
            assert f == -np.inf
        # Large but finite scales stay finite: the expansion numerator is
        # formed in logs, so no member probability underflows to zero.
        f, _ = _panel_objective(ds, sets, "mcfadden", True, z,
                                np.array([0.0, 30.0]))
        assert np.isfinite(f)


@pytest.mark.parametrize("seed", [7, 11, 21])
def test_exact_msl_recovers_mu_on_sparse_sampled_panels(seed):
    """N=100, T=5, J=10, m=4: the exact expansion factor used to reward a
    large mixing scale here and land 9-18 SE above mu*."""
    ds, _ = generate_mmnl(MmnlDgpConfig(N=100, T=5, J=10, K=1,
                                        mu_star=np.array([1.0]),
                                        sigma_star=np.array([[0.5]]),
                                        seed=seed))
    sets = sampled_for(ds, Protocol("uniform_wor", m=4), seed=seed + 1)
    res = fit_mmnl_msl(ds, sets, "mcfadden", "exact_full_set", r_draws=50)
    assert res.converged
    assert abs(res.mu[0] - 1.0) <= 4 * res.std_errors[0]


# ---------------------------------------------------------------------------
# work arrays reused across evaluations
# ---------------------------------------------------------------------------

def _random_panel(rng, n_ind, T, J, K):
    n = n_ind * T
    return Dataset.from_arrays(rng.normal(size=(n, J, K)),
                               rng.integers(0, J, size=n),
                               rng.permutation(np.repeat(np.arange(n_ind), T)))


def _panel_sets(ds, sets_kind, rng, seed):
    """None (full sets), equal-size uniform sets, or ragged sets that pad
    (for J >= 3 and two or more observations)."""
    J = ds.J
    if sets_kind == "full":
        return None
    if sets_kind == "uniform":
        return sampled_for(ds, Protocol("uniform_wor",
                                        m=int(rng.integers(2, J + 1))), seed)
    sizes = rng.integers(2, J + 1, size=ds.n_obs)
    sizes[0] = 2 if sizes[-1] > 2 else J  # at least two sizes
    return table_from_sets([
        draw_sampled_set(Protocol("uniform_wor", m=int(m)), int(c), J,
                         derive_stream(seed, i))
        for i, (c, m) in enumerate(zip(ds.chosen_ids(), sizes))])


def _work_likelihood(seed, K, exact, sets_kind, J=4):
    rng = np.random.default_rng(seed)
    ds = _random_panel(rng, 3, 2, J, K)
    view = mle.ChoiceArrays.panel(ds, _panel_sets(ds, sets_kind, rng, seed),
                                  "mcfadden")
    lik = mle._SimulatedLikelihood(
        view, rng.normal(size=(3, 4, K)),
        ds.attribute_tensor() if exact and sets_kind != "full" else None)
    return lik, [_random_theta(rng, K) for _ in range(3)]


def _arrays_of(lik):
    return [a for a in vars(lik).values() if isinstance(a, np.ndarray)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 3), exact=st.booleans(),
       sets_kind=st.sampled_from(["full", "uniform", "ragged"]))
def test_msl_value_and_score_unchanged_by_calls_at_other_points(
        seed, K, exact, sets_kind):
    """The work arrays carry nothing from one evaluation into the next."""
    lik, (a, b, c) = _work_likelihood(seed, K, exact, sets_kind)
    f0, g0 = lik.value_and_score(a)
    g0_copy = g0.copy()
    lik.value_and_score(b)
    lik.value_and_score(c)
    f1, g1 = lik.value_and_score(a)
    assert f1 == f0
    assert np.array_equal(g1, g0)
    assert np.array_equal(g0, g0_copy)


@pytest.mark.parametrize("sets_kind", ["full", "uniform", "ragged"])
@pytest.mark.parametrize("exact", [False, True])
def test_msl_cached_score_survives_later_evaluations(sets_kind, exact):
    """After loglik(a) and then loglik(b), the score kept for a is unchanged,
    and no returned array shares memory with the likelihood's arrays."""
    lik, (a, b, _) = _work_likelihood(5, 2, exact, sets_kind)
    lik.loglik(a)
    g_a = lik.score(a)
    g_a_copy = g_a.copy()
    lik.loglik(b)
    g_b = lik.score(b)
    assert np.array_equal(g_a, g_a_copy)
    assert np.array_equal(lik.score(a), g_a_copy)
    returned = [g_a, g_b, lik.value_and_score(a)[1]]
    assert not any(np.shares_memory(r, w)
                   for r in returned for w in _arrays_of(lik))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 3),
       n_ind=st.integers(1, 4), T=st.integers(1, 3), J=st.integers(3, 6),
       sets_kind=st.sampled_from(["full", "uniform", "ragged"]),
       corrections=st.sampled_from(["mcfadden", "none"]),
       scale=st.sampled_from([0.1, 1.0, 30.0]))
def test_chosen_log_probs_equal_the_gathered_log_softmax(seed, K, n_ind, T, J,
                                                        sets_kind, corrections,
                                                        scale):
    """The chosen member's shifted utility less the log-sum gives the bits
    of its entry in the whole log softmax, padded rows included, for rows
    (n, K) and batches (P, n, K); panel_loglik and loglik sum those bits."""
    rng = np.random.default_rng(seed)
    ds = _random_panel(rng, n_ind, T, J, K)
    view = mle.ChoiceArrays.panel(ds, _panel_sets(ds, sets_kind, rng, seed),
                                  corrections)
    padded = (view.member_term is not None
              and bool(np.isneginf(view.member_term).any()))
    assert padded == (sets_kind == "ragged" and ds.n_obs > 1)

    def gathered(beta_rows):
        lp = view.log_probs(beta_rows)
        return np.take_along_axis(
            lp, np.broadcast_to(view.chosen_pos, lp.shape[:-1])[..., None],
            axis=-1)[..., 0]

    beta = scale * rng.normal(size=(n_ind, K))
    rows = beta[view.obs_to_ind]
    assert np.array_equal(view.chosen_log_probs(rows), gathered(rows))
    assert np.array_equal(view.panel_loglik(beta),
                          view.panel_sum(gathered(rows)))
    points = scale * rng.normal(size=(3, K))
    batch = np.broadcast_to(points[:, None, :], (3, view.n, K))
    assert np.array_equal(view.chosen_log_probs(batch), gathered(batch))
    assert np.array_equal(view.loglik(points),
                          np.sum(gathered(batch), axis=-1))


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("sets_kind", ["importance", "full"])
def test_choice_arrays_equal_the_one_row_kernels_on_wide_rows(sets_kind, K):
    """Rows wider than 8 (ragged importance sets at J=20, inclusion 0.2 to
    0.8) and wider than 128 (full sets at J=150), held member-major, give
    the bits of the one-row kernels on each padded row: log_probs,
    chosen_log_probs and panel_loglik at per-row coefficients, loglik and
    score at a point."""
    rng = np.random.default_rng(40 + K)
    n_ind, T = 8, 5
    n = n_ind * T
    J = 20 if sets_kind == "importance" else 150
    ds = Dataset.from_arrays(rng.normal(size=(n, J, K)),
                             rng.integers(0, J, size=n),
                             np.repeat(np.arange(n_ind), T))
    if sets_kind == "importance":
        protocol = Protocol("importance_independent",
                            inclusion_probs=np.linspace(0.2, 0.8, J))
        sets = draw_set_table(protocol, ds.chosen_ids(), J, 7)
        ids, c, pad = sets.member_ids, sets.log_cond_prob, sets.pad
        assert ids.shape[1] > 8 and pad.any()
    else:
        sets, ids = None, np.tile(np.arange(J), (n, 1))
        c, pad = np.zeros((n, J)), np.zeros((n, J), dtype=bool)
    view = ChoiceArrays.panel(ds, sets, "mcfadden")
    assert not view.X_mem.flags.c_contiguous
    x = np.where(pad[..., None], 0.0,
                 ds.attribute_tensor()[np.arange(n)[:, None], ids])
    pos = np.argmax((ids == ds.chosen_ids()[:, None]) & ~pad, axis=1)

    def one_row_log_probs(beta_rows):
        return np.array([padded_row_log_probs(
            utilities(x[i][None], beta_rows[i][None])[0], c[i], pad[i])
            for i in range(n)])

    beta = rng.normal(size=(n_ind, K))
    rows = beta[view.obs_to_ind]
    lp = one_row_log_probs(rows)
    assert np.array_equal(view.log_probs(rows), lp)
    assert np.array_equal(view.chosen_log_probs(rows), lp[np.arange(n), pos])
    assert np.array_equal(view.panel_loglik(beta),
                          view.panel_sum(lp[np.arange(n), pos]))
    point = rng.normal(size=K)
    lp = one_row_log_probs(np.tile(point, (n, 1)))
    terms = [row_score(x[i], pos[i], lp[i]) for i in range(n)]
    assert view.loglik(point) == np.sum(lp[np.arange(n), pos])
    assert np.array_equal(view.score(point), np.sum(terms, axis=0))
    # Two rows at a time too, so that no row's last bit is lost in the sum.
    for i in range(0, n, 2):
        pair = ChoiceArrays(
            Dataset.from_arrays(ds.attribute_tensor()[i:i + 2],
                                ds.chosen_ids()[i:i + 2]),
            None if sets is None else sets[i:i + 2], "mcfadden")
        assert np.array_equal(pair.score(point), terms[i] + terms[i + 1])
