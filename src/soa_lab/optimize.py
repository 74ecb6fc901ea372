"""Quasi-Newton ascent with backtracking line search, plus numeric Hessians.

Small and self-contained on purpose: the estimators need an ascender whose
line-search and stopping behaviour is pinned down exactly (Armijo
backtracking, max-norm gradient test), and whose rejected steps may probe
parameter values where the objective is -inf (e.g. overflowing Cholesky
scales) without dying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-14
# How many ulps of |f| its evaluation is trusted to; see maximize.
_F_RESOLUTION_ULPS = 4


@dataclass
class AscentResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    converged: bool
    iterations: int


def maximize(f: Callable[[np.ndarray], float],
             grad: Callable[[np.ndarray], np.ndarray],
             x0: np.ndarray,
             tol: float = 1e-6,
             max_iter: int = 200) -> AscentResult:
    """BFGS ascent of ``f`` from ``x0``.

    Convergence means max|grad| <= tol.  A line search that cannot improve
    the objective ends the run (converged only if the gradient test already
    holds).  Where the ascent a full step predicts (g'p) is below what f
    resolves, a few ulps of |f|, the line search sees only rounding noise:
    the full step is taken unless it loses more than that, and a step that
    does not shrink max|grad| there is a stall that ends the run.  -inf/nan
    trial values are treated as rejected steps.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise InvalidInputError("x0 must be a 1-d vector")
    n = x.size
    H = np.eye(n)  # inverse-Hessian approximation (of the negated objective)
    fx = f(x)
    if not np.isfinite(fx):
        raise InvalidInputError("objective not finite at the starting point")
    g = np.asarray(grad(x), dtype=float)

    for it in range(1, max_iter + 1):
        if np.max(np.abs(g)) <= tol:
            return AscentResult(x, fx, g, True, it - 1)
        p = H @ g  # ascent direction
        slope = float(g @ p)
        if slope <= 0.0:  # H lost positive-definiteness; restart from identity
            H = np.eye(n)
            p = g.copy()
            slope = float(g @ g)
        resolution = _F_RESOLUTION_ULPS * float(np.spacing(abs(fx)))
        unresolved = slope <= resolution
        step = 1.0
        accepted = False
        while step >= _MIN_STEP:
            x_new = x + step * p
            f_new = f(x_new)
            if np.isfinite(f_new) and (
                    f_new >= fx + _ARMIJO_C1 * step * slope
                    or (unresolved and step == 1.0
                        and f_new >= fx - resolution)):
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            return AscentResult(x, fx, g, bool(np.max(np.abs(g)) <= tol), it)
        g_new = np.asarray(grad(x_new), dtype=float)
        if unresolved and np.max(np.abs(g_new)) >= np.max(np.abs(g)):
            return AscentResult(x, fx, g, bool(np.max(np.abs(g)) <= tol), it)
        s = x_new - x
        y = g_new - g  # note: ascent; curvature condition is s @ y < 0
        sy = float(s @ y)
        if sy < -1e-12 * max(1.0, float(np.linalg.norm(s)) * float(np.linalg.norm(y))):
            # Ascent form of the inverse update: with y = g_new - g (gradients
            # of f, not -f), curvature wants s.y < 0 and the usual minimization
            # formula maps to rho = -1/s.y with update matrix I + rho s y'.
            rho = -1.0 / sy
            I = np.eye(n)
            V = I + rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        x, fx, g = x_new, f_new, g_new

    return AscentResult(x, fx, g, bool(np.max(np.abs(g)) <= tol), max_iter)


def central_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                      h: float = 1e-6) -> np.ndarray:
    """Central differences with per-coordinate relative steps: the gradient
    of a scalar f, or one row per coordinate for a vector-valued f."""
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(x.size):
        hi = h * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += hi
        xm = x.copy(); xm[i] -= hi
        rows.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * hi))
    return np.array(rows, dtype=float)


def hessian_from_grad(grad: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                      h: float = 1e-5) -> np.ndarray:
    """Symmetrized central differences of a gradient callable."""
    H = central_diff_grad(grad, x, h)
    return 0.5 * (H + H.T)


def hessian_from_f(f: Callable[[np.ndarray], float], x: np.ndarray,
                   h: float = 1e-4) -> np.ndarray:
    """Second central differences of a scalar objective."""
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = np.array([h * max(1.0, abs(x[i])) for i in range(n)])
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n); ei[i] = steps[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n); ej[j] = steps[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return H


def std_errors_from_hessian(H: np.ndarray) -> np.ndarray:
    """Asymptotic standard errors from a log-likelihood Hessian.

    Entries come from the diagonal of (-H)^-1; non-PD information matrices
    yield nan entries rather than an exception, since a failed fit should
    still produce a report.
    """
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        return np.full(H.shape[0], np.nan)
    d = np.diag(cov).copy()
    d[d < 0.0] = np.nan
    return np.sqrt(d)
