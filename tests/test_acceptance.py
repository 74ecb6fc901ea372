"""Acceptance gate: the eleven headline guarantees, one line printed each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
PASS lines with their runtimes.  Every check is seeded, so failures are
reproducible, and each criterion asserts its own runtime budget.
"""

import time

import numpy as np

from soa_lab import (ChoiceArrays, Dataset, GibbsConfig, GridSpec,
                     MmnlDgpConfig, MmnlPriors, MnlDgpConfig,
                     Prior, Protocol,
                     divergence_uniform_closed_form, draw_sampled_set,
                     draw_set_table,
                     enumerate_feasible_sets, enumerate_sets,
                     expected_divergence,
                     expected_divergence_direct, expected_quasi_ll,
                     expected_quasi_ll_setwise, fit_mmnl_msl, fit_mnl,
                     generate_mmnl, generate_mnl, gibbs_step_mu,
                     gibbs_step_sigma, grid_posterior, kl_decomposition,
                     kl_divergence_grid, kl_term_a_entropy_form, kl_terms,
                     log_posterior_kernel, log_softmax, MixingState,
                     protocol_comparison,
                     run_gibbs, rw_metropolis,
                     sigma_posterior_params)
from soa_lab.cli import main as cli_main
from soa_lab.optimize import central_diff_grad
from child_cli import outputs_under_one_and_two_threads
from draw_reference import position_of, table_from_sets
from probability_reference import (canonical_corrections, mnl_prob_full,
                                   mnl_prob_sampled_corrected)


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float,
            detail: str = "") -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {status} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]{extra}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 1. probability identities
# ---------------------------------------------------------------------------

def test_criterion_01_probability_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        J = int(rng.integers(2, 9))
        v = rng.normal(scale=3.0, size=J)
        p = mnl_prob_full(v)
        worst = max(worst, abs(float(p.sum()) - 1.0))
        shift = float(rng.normal(scale=50.0))
        worst = max(worst, float(np.max(np.abs(mnl_prob_full(v + shift) - p))))
        m = int(rng.integers(2, J + 1))
        const = float(rng.normal())
        corr = mnl_prob_sampled_corrected(v[:m], np.full(m, const))
        plain = mnl_prob_full(v[:m])
        worst = max(worst, float(np.max(np.abs(corr - plain))))
    _report(1, "probability identities", worst <= 1e-12,
            time.perf_counter() - t0, 1.0, f"worst residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. protocol exactness
# ---------------------------------------------------------------------------

def _frequency_check(protocol, J, chosen, n_draws, rng):
    table = {tuple(e.member_ids): np.exp(e.log_cond_prob[position_of(e, chosen)])
             for e in enumerate_sets(protocol, J, chosen)}
    norm_err = abs(sum(table.values()) - 1.0)
    counts = {k: 0 for k in table}
    for _ in range(n_draws):
        s = draw_sampled_set(protocol, chosen, J, rng)
        counts[tuple(s.member_ids)] += 1
    max_sigma = 0.0
    for k, pi in table.items():
        se = np.sqrt(pi * (1.0 - pi) / n_draws)
        if se > 0:
            max_sigma = max(max_sigma, abs(counts[k] / n_draws - pi) / se)
    return norm_err, max_sigma


def test_criterion_02_protocol_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    n_draws = 100_000
    parts = []
    uni = Protocol("uniform_wor", m=3)
    for chosen in range(6):
        total = sum(np.exp(e.log_cond_prob[position_of(e, chosen)])
                    for e in enumerate_sets(uni, 6, chosen))
        parts.append(abs(total - 1.0) <= 1e-12)
    norm_u, sig_u = _frequency_check(uni, 6, 2, n_draws, rng)
    imp = Protocol("importance_independent",
                   inclusion_probs=np.array([0.9, 0.7, 0.5, 0.3, 0.15]))
    norm_i, sig_i = _frequency_check(imp, 5, 1, n_draws, rng)
    parts += [norm_u <= 1e-12, norm_i <= 1e-12, sig_u < 3.0, sig_i < 3.0]
    _report(2, "protocol exactness", all(parts), time.perf_counter() - t0,
            30.0, f"max |z| uniform {sig_u:.2f}, importance {sig_i:.2f}")


# ---------------------------------------------------------------------------
# 3. entropy consistency of the expected quasi likelihood
# ---------------------------------------------------------------------------

def test_criterion_03_entropy_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    shifts = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
    design = Dataset.from_arrays(rng.normal(shifts, 0.5, size=(6, 4))[..., None],
                                 np.zeros(6, dtype=int))
    bstar = np.array([0.5])
    uni = Protocol("uniform_wor", m=2)
    imp = Protocol("importance_independent",
                   inclusion_probs=np.array([0.1, 0.3, 0.6, 0.9]))
    grid = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.01), 10)

    def argmax_beta(proto, mode):
        # The whole grid as one (401, 1) batch: (401, 6) values.
        totals = expected_quasi_ll(design, enumerate_feasible_sets(proto, 4),
                                   bstar, grid[:, None], mode).sum(axis=1)
        return float(grid[int(np.argmax(totals))])

    at_uni = argmax_beta(uni, "mcfadden")
    at_imp = argmax_beta(imp, "mcfadden")
    at_bad = argmax_beta(imp, "none")
    ok = (at_uni == 0.5 and at_imp == 0.5 and abs(at_bad - 0.5) > 0.05)
    _report(3, "entropy consistency", ok, time.perf_counter() - t0, 60.0,
            f"argmax uniform {at_uni}, importance {at_imp}, "
            f"uncorrected {at_bad}")


# ---------------------------------------------------------------------------
# 4. divergence identities on 50 random designs
# ---------------------------------------------------------------------------

def test_criterion_04_divergence_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    min_uniform_divergence = np.inf
    for trial in range(50):
        J = int(rng.integers(3, 7))
        K = int(rng.integers(1, 3))
        obs = Dataset.from_arrays(rng.normal(size=(1, J, K)),
                                  [int(rng.integers(J))])
        bstar = rng.normal(size=K)
        if trial % 2 == 0:
            proto = Protocol("uniform_wor", m=int(rng.integers(2, J)))
            mode = "mcfadden"
        else:
            proto = Protocol("importance_independent",
                             inclusion_probs=rng.uniform(0.15, 0.85, size=J))
            mode = "mcfadden" if trial % 4 == 1 else "none"
        sets = enumerate_feasible_sets(proto, J)
        split = expected_divergence(obs, sets, bstar, mode)[0]
        direct = expected_divergence_direct(obs, sets, bstar, mode)[0]
        worst = max(worst, abs(split - direct))
        if proto.kind == "uniform_wor":
            closed = divergence_uniform_closed_form(obs, sets, bstar)[0]
            worst = max(worst, abs(split - closed))
            min_uniform_divergence = min(min_uniform_divergence, closed)
        worst = max(worst,
                    abs(expected_quasi_ll(obs, sets, bstar, bstar, mode)[0]
                        - expected_quasi_ll_setwise(obs, sets, bstar, bstar,
                                                    mode)[0]))
    ok = worst <= 1e-10 and min_uniform_divergence > 0.0
    _report(4, "divergence identities", ok, time.perf_counter() - t0, 60.0,
            f"worst residual {worst:.2e}, "
            f"min uniform divergence {min_uniform_divergence:.3e}")


# ---------------------------------------------------------------------------
# 5. posterior KL machinery
# ---------------------------------------------------------------------------

def test_criterion_05_kl_machinery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    prior = Prior(np.zeros(1), 4.0 * np.eye(1))
    grid = GridSpec.make(-6.0, 6.0, 201)
    designs = []
    for _ in range(3):
        rows = [(rng.normal(size=(4, 1)), int(rng.integers(4))) for _ in range(2)]
        designs.append(Dataset.from_arrays([x for x, _ in rows],
                                           [c for _, c in rows]))
    uni = Protocol("uniform_wor", m=2)
    # random importance protocols matched to the uniform protocol's size:
    # expected set cardinality ~= 2, so the survey compares conditioning
    # shape rather than sheer coverage
    imps = []
    for _ in range(20):
        u = rng.uniform(0.1, 0.6, size=4)
        imps.append(Protocol("importance_independent",
                             inclusion_probs=np.minimum(
                                 u * (4.0 / 3.0) / u.sum(), 0.95)))

    min_kl = np.inf
    max_a_uniform = -np.inf
    worst_entropy = 0.0
    worst_decomp = 0.0
    for design in designs:
        for proto in [uni] + imps:
            kt = kl_terms(design, proto, "mcfadden", prior, grid)
            min_kl = min(min_kl, kt.a + kt.b)
            if proto.kind == "uniform_wor":
                max_a_uniform = max(max_a_uniform, kt.a)
                worst_entropy = max(
                    worst_entropy,
                    abs(kt.a - kl_term_a_entropy_form(
                        design, enumerate_feasible_sets(proto, design.J),
                        prior, grid)))
            as_sampled = table_from_sets(
                [enumerate_sets(proto, design.J, c)[0]
                 for c in design.chosen_ids().tolist()])
            p_true = grid_posterior(design, None, prior, grid,
                                    check_doubling=False)
            p_samp = grid_posterior(design, (as_sampled, "mcfadden"), prior,
                                    grid, check_doubling=False)
            llr, log_ibf = kl_decomposition(p_true, p_samp)
            worst_decomp = max(worst_decomp,
                               abs(kl_divergence_grid(p_true, p_samp)
                                   - (llr + log_ibf)))
    survey = protocol_comparison(
        designs, [("uniform", uni)] + [(f"imp_{i}", p)
                                       for i, p in enumerate(imps)],
        prior, grid)
    ok = (min_kl >= -1e-10 and worst_decomp < 1e-8 and worst_entropy < 1e-8
          and max_a_uniform <= 0.0 and survey.uniform_attains_max)
    _report(5, "KL machinery", ok, time.perf_counter() - t0, 300.0,
            f"min KL {min_kl:.2e}, decomposition residual {worst_decomp:.1e}, "
            f"entropy residual {worst_entropy:.1e}, uniform best: "
            f"{survey.uniform_attains_max}")


# ---------------------------------------------------------------------------
# 6. classical recovery at N=2000, J=10, K=2, m=4
# ---------------------------------------------------------------------------

def test_criterion_06_classical_recovery():
    t0 = time.perf_counter()
    beta_star = np.array([1.0, -0.5])

    ds_a = generate_mnl(MnlDgpConfig(N=2000, J=10, K=2,
                                     beta_star=beta_star,
                                     seed=61))
    sets_a = draw_set_table(Protocol("uniform_wor", m=4), ds_a.chosen_ids(),
                            ds_a.J, 62)
    fa = fit_mnl(ds_a, sets_a, "none")
    dev_a = np.abs(fa.estimate - beta_star) / fa.std_errors

    rng = np.random.default_rng(63)
    shifts = np.linspace(-1.0, 1.0, 10)
    X = np.stack([rng.normal(shifts[None, :], 0.5, size=(2000, 10)),
                  rng.normal(size=(2000, 10))], axis=-1)
    P = np.exp(log_softmax(X @ beta_star, axis=1))
    chosen = np.minimum((rng.random(2000)[:, None]
                         >= np.cumsum(P, axis=1)).sum(axis=1), 9)
    ds_b = Dataset.from_arrays(X, chosen)
    proto = Protocol("importance_independent",
                     inclusion_probs=np.linspace(0.05, 0.95, 10))
    sets_b = draw_set_table(proto, ds_b.chosen_ids(), ds_b.J, 64)
    fb = fit_mnl(ds_b, sets_b, "mcfadden")
    fc = fit_mnl(ds_b, sets_b, "none")
    dev_b = np.abs(fb.estimate - beta_star) / fb.std_errors
    dev_c = np.abs(fc.estimate - beta_star) / fc.std_errors

    ok = (fa.converged and fb.converged and fc.converged
          and np.all(dev_a < 3.0) and np.all(dev_b < 3.0)
          and np.max(dev_c) > 5.0)
    _report(6, "classical recovery", ok, time.perf_counter() - t0, 120.0,
            f"uniform+none {np.max(dev_a):.2f} SE, "
            f"importance+mcfadden {np.max(dev_b):.2f} SE, "
            f"importance+none {np.max(dev_c):.1f} SE")


# ---------------------------------------------------------------------------
# 7. analytic gradient vs central differences
# ---------------------------------------------------------------------------

def test_criterion_07_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst = 0.0
    for probe in range(100):
        N = int(rng.integers(3, 15))
        J = int(rng.integers(2, 8))
        K = int(rng.integers(1, 4))
        ds = Dataset.from_arrays(rng.normal(size=(N, J, K)),
                                 rng.integers(0, J, size=N))
        beta = rng.normal(scale=0.8, size=K)
        if probe % 2 == 0:
            sets, mode = None, "none"
        else:
            proto = Protocol("uniform_wor", m=int(rng.integers(2, J + 1)))
            sets = draw_set_table(proto, ds.chosen_ids(), ds.J, probe)
            mode = "mcfadden"
        likelihood = ChoiceArrays(ds, sets, mode)
        g = likelihood.score(beta)
        fd = central_diff_grad(likelihood.loglik, beta)
        rel = float(np.max(np.abs(g - fd))) / max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, rel)
    _report(7, "gradient check", worst <= 1e-6, time.perf_counter() - t0,
            10.0, f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Bayesian MNL: sampler vs grid, mode identity, BvM
# ---------------------------------------------------------------------------

def test_criterion_08_bayes_mnl():
    t0 = time.perf_counter()
    prior = Prior(np.zeros(1), 4.0 * np.eye(1))
    grid = GridSpec.make(-8.0, 8.0, 201)
    ds = generate_mnl(MnlDgpConfig(N=100, J=4, K=1,
                                   beta_star=np.array([0.7]), seed=81))
    full = grid_posterior(ds, None, prior, grid, check_doubling=False)
    likelihood = ChoiceArrays(ds, None, "none")
    kern = lambda x: log_posterior_kernel(x, likelihood, prior)
    draws = rw_metropolis(kern, np.zeros(1), n_chains=2, n_iter=60_000,
                          burn_in=10_000, proposal_scale=0.5, seed=82)
    pooled = draws.pooled()[:, 0]
    edges = np.arange(-8.0, 8.0 + 1e-9, 0.2)
    hist, _ = np.histogram(pooled, bins=edges)
    fine = np.linspace(-8.0, 8.0, 3201)
    dens = np.interp(fine, full.points[:, 0], full.density)
    mass = np.array([np.trapezoid(dens[(fine >= lo) & (fine <= hi + 1e-12)],
                                  fine[(fine >= lo) & (fine <= hi + 1e-12)])
                     for lo, hi in zip(edges[:-1], edges[1:])])
    mass /= mass.sum()
    tv = 0.5 * float(np.sum(np.abs(hist / pooled.size - mass)))

    # uniform conditioning: identical posterior exactly, and the identical
    # kernel gives the identical Metropolis trajectory
    sets = draw_set_table(Protocol("uniform_wor", m=2), ds.chosen_ids(),
                          ds.J, 84)
    g_mcf = grid_posterior(ds, (sets, "mcfadden"), prior, grid,
                           check_doubling=False)
    g_none = grid_posterior(ds, (sets, "none"), prior, grid,
                            check_doubling=False)
    grids_equal = bool(np.array_equal(g_mcf.log_kernel, g_none.log_kernel))
    chains = [rw_metropolis(
        lambda x, lik=ChoiceArrays(ds, sets, mode):
            log_posterior_kernel(x, lik, prior),
        np.zeros(1), 1, 2000, 500, 0.5, seed=85)
        for mode in ("mcfadden", "none")]
    chains_equal = bool(np.array_equal(chains[0].draws, chains[1].draws))

    ds_big = generate_mnl(MnlDgpConfig(N=4000, J=4, K=1,
                                       beta_star=np.array([0.7]),
                                       seed=83))
    mle = fit_mnl(ds_big)
    post = grid_posterior(ds_big, None, Prior(np.zeros(1), 100.0 * np.eye(1)),
                          grid, check_doubling=False)
    pmean = float(np.sum(post.weights * post.density * post.points[:, 0]))
    bvm_dev = abs(pmean - mle.estimate[0]) / mle.std_errors[0]

    ok = tv < 0.02 and grids_equal and chains_equal and bvm_dev < 3.0
    _report(8, "Bayesian MNL", ok, time.perf_counter() - t0, 300.0,
            f"TV {tv:.4f}, mode identity {grids_equal and chains_equal}, "
            f"BvM {bvm_dev:.2f} SE")


# ---------------------------------------------------------------------------
# 9. Bayesian MMNL Gibbs at N=500, T=5, J=10, K=2, m=4
# ---------------------------------------------------------------------------

def test_criterion_09_bayes_mmnl_gibbs():
    t0 = time.perf_counter()
    mu_star = np.array([1.0, -1.0])
    sigma_star = np.array([[0.5, 0.1], [0.1, 0.3]])
    ds, _ = generate_mmnl(MmnlDgpConfig(N=500, T=5, J=10, K=2,
                                        mu_star=mu_star,
                                        sigma_star=sigma_star, seed=91))
    sets = draw_set_table(Protocol("uniform_wor", m=4), ds.chosen_ids(),
                          ds.J, 92)
    priors = MmnlPriors.default_for(2)
    out_s = run_gibbs(ds, priors, GibbsConfig(iterations=20_000,
                                              burn_in=10_000, seed=93,
                                              sets=(sets, "mcfadden")))
    out_f = run_gibbs(ds, priors, GibbsConfig(iterations=20_000,
                                              burn_in=10_000, seed=93))
    mu_s = out_s.draws[0, :, :2]
    mu_f = out_f.draws[0, :, :2]
    dev_star = np.abs(mu_s.mean(axis=0) - mu_star) / mu_s.std(axis=0)
    gap_full = np.abs(mu_s.mean(axis=0) - mu_f.mean(axis=0))

    # conjugate-step spot checks
    state = MixingState(np.zeros(2), np.eye(2),
                        np.random.default_rng(94).normal(size=(80, 2)))
    diffuse = MmnlPriors(np.full(2, 30.0), 1e8 * np.eye(2), 4, np.eye(2))
    rng = np.random.default_rng(95)
    mu_draws = np.array([gibbs_step_mu(state, diffuse, rng)
                         for _ in range(800)])
    diffuse_ok = np.all(np.abs(mu_draws.mean(axis=0)
                               - state.beta_all.mean(axis=0)) < 0.1)
    dof, scale = sigma_posterior_params(state, priors)
    dev = state.beta_all - state.mu
    book_ok = (dof == priors.v0 + 80
               and np.allclose(scale, priors.S0 + dev.T @ dev, atol=1e-12))
    sig_draws = np.stack([gibbs_step_sigma(state, priors, rng)
                          for _ in range(2000)])
    moment_ok = np.allclose(sig_draws.mean(axis=0), scale / (dof - 2 - 1),
                            rtol=0.1, atol=0.02)

    ok = (np.all(dev_star < 3.0) and np.all(gap_full < 0.1)
          and diffuse_ok and book_ok and moment_ok)
    _report(9, "Bayesian MMNL Gibbs", ok, time.perf_counter() - t0, 900.0,
            f"mu* dev {np.max(dev_star):.2f} post SDs, full-vs-sampled gap "
            f"{np.max(gap_full):.3f}, conjugacy "
            f"{diffuse_ok and book_ok and moment_ok}")


# ---------------------------------------------------------------------------
# 10. MSL expansion-factor contrast at m/J = 1/2
# ---------------------------------------------------------------------------

def test_criterion_10_msl_wn_contrast():
    t0 = time.perf_counter()
    ds, _ = generate_mmnl(MmnlDgpConfig(N=300, T=5, J=10, K=1,
                                        mu_star=np.array([0.8]),
                                        sigma_star=np.array([[0.4]]),
                                        seed=13))
    sets = draw_set_table(Protocol("uniform_wor", m=5), ds.chosen_ids(),
                          ds.J, 14)
    naive = fit_mmnl_msl(ds, sets, "mcfadden", wn_mode="naive_one",
                         r_draws=50)
    exact = fit_mmnl_msl(ds, sets, "mcfadden", wn_mode="exact_full_set",
                         r_draws=50)
    rel = np.abs(naive.estimate - exact.estimate) / naive.std_errors
    ok = naive.converged and exact.converged and bool(np.all(rel < 1.0))
    _report(10, "MSL Wn contrast", ok, time.perf_counter() - t0, 300.0,
            f"max gap {np.max(rel):.2f} naive SEs across all parameters")


# ---------------------------------------------------------------------------
# 11. reproducibility of every command
# ---------------------------------------------------------------------------

def _run_cli(args):
    assert cli_main(args) == 0


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(f"""dgp.model=mmnl
dgp.n=20
dgp.t=3
dgp.j=4
dgp.k=1
dgp.mu_star=0.8
dgp.sigma_star=0.4
seed=1
output.dir={data_dir}
""")
    sets_dir = tmp_path / "sets"
    sample_cfg = tmp_path / "sample.cfg"
    sample_cfg.write_text(f"""inputs.dataset={data_dir / 'dataset.csv'}
protocol.kind=uniform_wor
protocol.m=2
seed=2
output.dir={sets_dir}
""")
    fit_dir = tmp_path / "fit"
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(f"""inputs.dataset={data_dir / 'dataset.csv'}
inputs.sets={sets_dir / 'sets.csv'}
correction.sets=sampled
correction.mode=mcfadden
fit.estimator=mnl
seed=3
output.dir={fit_dir}
""")
    bayes_dir = tmp_path / "bayes"
    bayes_cfg = tmp_path / "bayes.cfg"
    bayes_cfg.write_text(f"""inputs.dataset={data_dir / 'dataset.csv'}
bayes.method=gibbs
bayes.iterations=200
bayes.burn_in=50
seed=4
output.dir={bayes_dir}
""")
    div_dir = tmp_path / "div"
    div_cfg = tmp_path / "div.cfg"
    div_cfg.write_text(f"""divergence.j=4
divergence.n_designs=1
grid.points=61
seed=5
output.dir={div_dir}
""")

    plan = [("generate", gen_cfg, data_dir), ("sample", sample_cfg, sets_dir),
            ("fit", fit_cfg, fit_dir), ("bayes", bayes_cfg, bayes_dir),
            ("divergence", div_cfg, div_dir)]
    first = {}
    for verb, cfg, out in plan:
        _run_cli([verb, "--config", str(cfg)])
        first[verb] = _snapshot(out)
    identical = True
    for verb, cfg, out in plan:
        _run_cli([verb, "--config", str(cfg)])
        identical = identical and _snapshot(out) == first[verb]

    # thread-count invariance of a multi-chain sampler run and an MSL fit
    mcmc_dir, msl_dir = tmp_path / "mcmc", tmp_path / "msl"
    mcmc_cfg, msl_cfg = tmp_path / "mcmc.cfg", tmp_path / "msl.cfg"
    mcmc_cfg.write_text(f"""inputs.dataset={data_dir / 'dataset.csv'}
bayes.method=rw_metropolis
bayes.iterations=300
bayes.burn_in=100
bayes.chains=3
seed=6
output.dir={mcmc_dir}
""")
    msl_cfg.write_text(f"""inputs.dataset={data_dir / 'dataset.csv'}
inputs.sets={sets_dir / 'sets.csv'}
correction.sets=sampled
correction.mode=mcfadden
fit.estimator=mmnl_msl
fit.wn_mode=exact_full_set
seed=7
output.dir={msl_dir}
""")
    threads_same = all(
        one == two for one, two in (
            outputs_under_one_and_two_threads([verb, "--config", cfg], out)
            for verb, cfg, out in (("bayes", mcmc_cfg, mcmc_dir),
                                   ("fit", msl_cfg, msl_dir))))

    ok = identical and threads_same
    _report(11, "reproducibility", ok, time.perf_counter() - t0, 300.0,
            f"rerun identical {identical}, thread invariant {threads_same}")
