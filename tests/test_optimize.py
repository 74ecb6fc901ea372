"""Ascent routine and numeric differentiation utilities."""

import numpy as np
import pytest

from soa_lab import (ChoiceArrays, MnlDgpConfig, Protocol, draw_set_table,
                     generate_mnl)
from soa_lab.errors import InvalidInputError
from soa_lab.optimize import (central_diff_grad, hessian_from_f,
                              hessian_from_grad, maximize,
                              std_errors_from_hessian)


def quad_problem(seed=0, n=4):
    """Random strongly concave quadratic with known maximizer."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    Q = A @ A.T + n * np.eye(n)
    b = rng.normal(size=n)
    x_star = np.linalg.solve(Q, b)

    def f(x):
        return float(b @ x - 0.5 * x @ Q @ x)

    def g(x):
        return b - Q @ x

    return f, g, Q, x_star


def test_quadratic_converges_to_solution():
    f, g, _, x_star = quad_problem()
    res = maximize(f, g, np.zeros(4), tol=1e-10)
    assert res.converged
    assert np.max(np.abs(res.x - x_star)) < 1e-8
    assert np.max(np.abs(res.grad)) <= 1e-10


def test_rosenbrock_valley():
    def f(v):
        return -((1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2)

    def g(v):
        return np.array([2.0 * (1.0 - v[0]) + 400.0 * v[0] * (v[1] - v[0] ** 2),
                         -200.0 * (v[1] - v[0] ** 2)])

    res = maximize(f, g, np.array([-1.2, 1.0]), tol=1e-8, max_iter=500)
    assert res.converged
    assert np.max(np.abs(res.x - 1.0)) < 1e-6


def test_objective_may_be_minus_inf_off_domain():
    """Rejected -inf trials must not kill the run (log-barrier style)."""
    def f(x):
        if x[0] <= 0.0:
            return -np.inf
        return float(np.log(x[0]) - x[0])

    def g(x):
        return np.array([1.0 / x[0] - 1.0])

    res = maximize(f, g, np.array([3.0]), tol=1e-10)
    assert res.converged
    assert abs(res.x[0] - 1.0) < 1e-8


def test_nonfinite_start_rejected():
    with pytest.raises(InvalidInputError):
        maximize(lambda x: -np.inf, lambda x: x, np.zeros(2))


def test_iteration_budget_reported():
    f, g, _, _ = quad_problem(seed=1)
    res = maximize(f, g, np.zeros(4), tol=1e-16, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def test_run_ends_when_the_objective_cannot_resolve_the_ascent():
    """A corrected logit fit on importance sets (N=4000, J=20) reaches
    max|g| ~ 3e-6 within ten iterations; the ascent left is ~1e-15, below
    what f ~ -7100 resolves, so every full step loses to rounding and the
    shortened step that passes leaves f unchanged.  Such a run must end
    rather than spend its whole iteration budget."""
    ds = generate_mnl(MnlDgpConfig(N=4000, J=20, K=2,
                                   beta_star=np.array([1.0, -0.5]),
                                   seed=23))
    proto = Protocol("importance_independent",
                     inclusion_probs=np.round(np.linspace(0.2, 0.8, 20), 6))
    sets = draw_set_table(proto, ds.chosen_ids(), ds.J, 24)
    lik = ChoiceArrays(ds, sets, "mcfadden")
    res = maximize(lik.loglik, lik.score, np.zeros(2), max_iter=200)
    assert res.iterations < 200
    assert res.converged == (np.max(np.abs(res.grad)) <= 1e-6)
    assert np.max(np.abs(res.grad)) < 1e-5
    assert res.f == lik.loglik(res.x)


def test_run_ends_when_rounding_noise_drives_the_gradient():
    """Near its optimum f ~ 1e8 cannot resolve any ascent, and the gradient
    there is noise above tol.  Steps that do not shrink max|g| mark the
    stall and end the run instead of spending the iteration budget."""
    rng = np.random.default_rng(0)

    def f(x):
        return 1e8 - 1e-6 * float(np.sum((x - 1.0) ** 2))

    def g(x):
        return -2e-6 * (x - 1.0) + rng.uniform(-1e-5, 1e-5, size=x.size)

    res = maximize(f, g, np.zeros(2), tol=1e-6, max_iter=200)
    assert not res.converged
    assert res.iterations < 20


@pytest.mark.parametrize("J,m,seed", [(2, None, 9), (20, None, 11), (20, 5, 13)],
                         ids=["full_J2_seed9", "full_J20_seed11",
                              "uniform_m5_seed13"])
def test_fits_near_the_resolution_of_f_still_converge(J, m, seed):
    """Logit fits (N=4000, K=2, from zero, tol 1e-6) whose last steps
    predict an ascent below what f ~ -2000..-10000 resolves.  Their full
    steps lose a few ulps of f to rounding, and a stop on any shortened
    step that leaves f unchanged ended each short of the tolerance; the
    gradient still falls, so each must converge."""
    ds = generate_mnl(MnlDgpConfig(N=4000, J=J, K=2,
                                   beta_star=np.array([1.0, -0.5]),
                                   seed=seed))
    sets = None if m is None else draw_set_table(
        Protocol("uniform_wor", m=m), ds.chosen_ids(), ds.J, seed + 1)
    lik = ChoiceArrays(ds, sets, "mcfadden" if sets is not None else "none")
    res = maximize(lik.loglik, lik.score, np.zeros(2))
    assert res.converged
    assert np.max(np.abs(res.grad)) <= 1e-6
    assert res.iterations < 30


def test_central_difference_gradient():
    f, g, _, _ = quad_problem(seed=2)
    x = np.array([0.3, -0.7, 1.1, 0.0])
    fd = central_diff_grad(f, x)
    assert np.max(np.abs(fd - g(x))) < 1e-6


def test_hessians_recover_quadratic_curvature():
    f, g, Q, _ = quad_problem(seed=3)
    x = np.array([0.1, 0.2, -0.3, 0.4])
    Hg = hessian_from_grad(g, x)
    Hf = hessian_from_f(f, x)
    assert np.max(np.abs(Hg + Q)) < 1e-6      # Hessian of f is -Q
    assert np.max(np.abs(Hf + Q)) < 1e-4


def test_standard_errors_from_hessian():
    Q = np.array([[4.0, 1.0], [1.0, 2.0]])
    se = std_errors_from_hessian(-Q)  # loglik curvature -Q
    cov = np.linalg.inv(Q)
    assert np.max(np.abs(se - np.sqrt(np.diag(cov)))) < 1e-12
    # non-PD information: nan, not an exception
    se_bad = std_errors_from_hessian(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert np.isnan(se_bad[0]) and not np.isnan(se_bad[1])
