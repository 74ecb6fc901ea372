"""Classical estimation on full or sampled choice sets.

The fixed-coefficient estimator maximizes the corrected quasi
log-likelihood

    sum_n ln[ exp(V_in + c_in) / sum_{j in D_n} exp(V_jn + c_jn) ]

with an analytic gradient.  The mixing estimator maximizes a simulated
log-likelihood over theta = (mu, vech of the Cholesky factor of Sigma,
log-diagonal), with fixed Halton draws and an optional per-observation
expansion factor W that re-weights each draw by how well the sampled set
covers that draw's full-set probabilities relative to the mixture average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .draws import halton_normal_draws
from .errors import InvalidInputError
from .model_core import Dataset, SetTable, UtilityParams, log_softmax
from .optimize import (central_diff_grad, hessian_from_f, hessian_from_grad,
                       maximize, std_errors_from_hessian)
from .protocols import correction_vector

WN_MODES = ("naive_one", "exact_full_set")


@dataclass
class FitResult:
    """Outcome of one maximization.

    ``estimate`` is UtilityParams for the fixed-coefficient model and the
    packed (mu, vech L with log-diagonal) vector for the mixing model, in
    which case ``mu``/``sigma``/``chol`` carry the decoded values.
    """

    estimate: object
    std_errors: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    chol: np.ndarray | None = None
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the prepared choice likelihood
# ---------------------------------------------------------------------------

class ChoiceArrays:
    """The corrected softmax over every observation's evaluation set.

    Built once per run, then evaluated at any number of coefficient points.
    Rows are observations; columns are the members of each row's evaluation
    set (full set when ``sampled`` is None, else the sampled subset, padded
    with -inf utilities).  For sampled sets the padded member ids and raw
    log conditional probabilities (``member_idx``, ``log_pi``) are kept for
    the expansion factor.
    """

    def __init__(self, dataset: Dataset, sampled: SetTable | None,
                 mode: str):
        X = dataset.attribute_tensor()
        chosen = dataset.chosen_ids()
        n = X.shape[0]
        self.X = X
        if sampled is None:
            self.X_mem = X
            self.chosen_pos = chosen
            self.c_shift = np.zeros((n, X.shape[1]))
            self.pad = np.zeros((n, X.shape[1]), dtype=bool)
        else:
            if len(sampled) != n:
                raise InvalidInputError(
                    f"{len(sampled)} sampled sets for {n} observations")
            ids, pad = sampled.member_ids, sampled.pad
            hits = (ids == chosen[:, None]) & ~pad
            bad = np.any((ids < 0) | (ids >= dataset.J), axis=1)
            if np.any(bad | (hits.sum(axis=1) != 1)):
                i = int(np.argmax(bad | (hits.sum(axis=1) != 1)))
                raise InvalidInputError(
                    f"sampled set {i} has member ids outside 0..{dataset.J - 1}"
                    if bad[i] else f"sampled set {i} lacks its chosen "
                    f"alternative {chosen[i]}")
            c = correction_vector(sampled.log_cond_prob, mode)
            self.X_mem = np.where(pad[..., None], 0.0,
                                  X[np.arange(n)[:, None], ids])
            # Re-centring the corrections never changes a probability and
            # makes shared-constant corrections vanish exactly.
            c_max = np.max(np.where(pad, -np.inf, c), axis=1, keepdims=True)
            self.c_shift = np.where(pad, 0.0, c - c_max)
            self.pad = pad
            self.chosen_pos = np.argmax(hits, axis=1)
            self.log_pi = sampled.log_cond_prob
            self.member_idx = ids
        self.any_pad = bool(self.pad.any())
        self.n = n
        self.K = dataset.K
        self.x_chosen = self.X_mem[np.arange(n), self.chosen_pos]

    @classmethod
    def panel(cls, dataset: Dataset, sampled: SetTable | None,
              mode: str) -> "ChoiceArrays":
        """Rows sorted (stably) by individual, for per-individual sums.

        ``obs_to_ind`` maps each row to its individual's index and
        ``group_starts`` marks each individual's first row.
        """
        if sampled is not None and len(sampled) != dataset.n_obs:
            raise InvalidInputError(
                f"{len(sampled)} sampled sets for {dataset.n_obs} observations")
        ind = dataset.individual_ids()
        order = np.argsort(ind, kind="stable")
        sorted_ind = ind[order]
        self = cls(Dataset.from_arrays(dataset.attribute_tensor()[order],
                                       dataset.chosen_ids()[order], sorted_ind),
                   None if sampled is None else sampled[order], mode)
        first = np.ones(sorted_ind.size, dtype=bool)
        first[1:] = sorted_ind[1:] != sorted_ind[:-1]
        self.group_starts = np.nonzero(first)[0]
        self.n_individuals = self.group_starts.size
        self.obs_to_ind = np.cumsum(first) - 1
        self.individual_ids = sorted_ind[self.group_starts]
        return self

    def log_probs(self, beta_rows: np.ndarray) -> np.ndarray:
        """Log member probabilities; beta_rows is (n, K) or (R, n, K)."""
        V = np.einsum("nmk,...nk->...nm", self.X_mem, beta_rows) + self.c_shift
        if self.any_pad:
            V = np.where(self.pad, -np.inf, V)
        return log_softmax(V, axis=-1)

    def chosen_log_probs(self, beta_rows: np.ndarray) -> np.ndarray:
        lp = self.log_probs(beta_rows)
        return np.take_along_axis(
            lp, np.broadcast_to(self.chosen_pos, lp.shape[:-1])[..., None],
            axis=-1)[..., 0]

    def _check(self, beta: np.ndarray) -> None:
        if beta.shape[-1:] != (self.K,):
            raise InvalidInputError("beta length must equal dataset K")

    def loglik(self, beta: np.ndarray) -> float | np.ndarray:
        """Summed log-likelihood at one point (K,), or (P,) for points (P, K)."""
        self._check(beta)
        if beta.ndim == 1:
            rows = np.broadcast_to(beta, (self.n, self.K))
            return float(np.sum(self.chosen_log_probs(rows)))
        P = beta.shape[0]
        rows = np.broadcast_to(beta[:, None, :], (P, self.n, self.K))
        return np.sum(self.chosen_log_probs(rows), axis=-1)

    def score(self, beta: np.ndarray) -> np.ndarray:
        """Analytic gradient at one point: sum_n [x_chosen - sum_j P_j x_j]."""
        self._check(beta)
        P = np.exp(self.log_probs(np.broadcast_to(beta, (self.n, self.K))))
        return np.sum(self.x_chosen - np.einsum("nm,nmk->nk", P, self.X_mem),
                      axis=0)

    def panel_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum (..., n) per-row values into (..., n_individuals)."""
        return np.add.reduceat(values, self.group_starts, axis=-1)

    def panel_loglik(self, beta_by_ind: np.ndarray) -> np.ndarray:
        """Per-individual log-likelihood for coefficients (n_individuals, K)."""
        return self.panel_sum(self.chosen_log_probs(beta_by_ind[self.obs_to_ind]))


# ---------------------------------------------------------------------------
# fixed-coefficient quasi likelihood
# ---------------------------------------------------------------------------

def quasi_loglik(dataset: Dataset, sampled: SetTable | None,
                 corrections: str, beta: UtilityParams) -> float:
    """Corrected log-likelihood over each observation's evaluation set."""
    return ChoiceArrays(dataset, sampled, corrections).loglik(beta.beta)


def quasi_loglik_grad(dataset: Dataset, sampled: SetTable | None,
                      corrections: str, beta: UtilityParams) -> np.ndarray:
    """Analytic gradient: sum_n [ x_chosen - sum_j P_j x_j ]."""
    return ChoiceArrays(dataset, sampled, corrections).score(beta.beta)


def fit_mnl(dataset: Dataset, sampled: SetTable | None = None,
            corrections: str = "mcfadden", init: UtilityParams | None = None,
            tol: float = 1e-6, max_iter: int = 200) -> FitResult:
    """Maximize the quasi log-likelihood; concave, so converged == global.

    Non-convergence is reported through the result, not raised.
    """
    likelihood = ChoiceArrays(dataset, sampled, corrections)
    x0 = np.zeros(dataset.K) if init is None else init.beta.copy()
    res = maximize(likelihood.loglik, likelihood.score, x0, tol=tol,
                   max_iter=max_iter)
    se = std_errors_from_hessian(hessian_from_grad(likelihood.score, res.x))
    return FitResult(UtilityParams(res.x), se, res.f, res.converged,
                     res.iterations)


# ---------------------------------------------------------------------------
# mixing-model packing helpers
# ---------------------------------------------------------------------------

def pack_theta(mu: np.ndarray, L: np.ndarray) -> np.ndarray:
    """(mu, lower Cholesky) -> flat vector; diagonal entries stored as logs."""
    K = mu.shape[0]
    rows, cols = np.tril_indices(K)
    vech = L[rows, cols].copy()
    diag = rows == cols
    if np.any(L[np.diag_indices(K)] <= 0.0):
        raise InvalidInputError("Cholesky diagonal must be positive")
    vech[diag] = np.log(vech[diag])
    return np.concatenate([mu, vech])


def unpack_theta(theta: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (K + K * (K + 1) // 2,):
        raise InvalidInputError("theta has wrong length for K")
    mu = theta[:K].copy()
    rows, cols = np.tril_indices(K)
    vech = theta[K:].copy()
    diag = rows == cols
    vech[diag] = np.exp(vech[diag])
    L = np.zeros((K, K))
    L[rows, cols] = vech
    return mu, L


def theta_labels(K: int) -> list[str]:
    rows, cols = np.tril_indices(K)
    labels = [f"mu_{i + 1}" for i in range(K)]
    labels += [f"logL_{r + 1}_{c + 1}" if r == c else f"L_{r + 1}_{c + 1}"
               for r, c in zip(rows, cols)]
    return labels


# ---------------------------------------------------------------------------
# maximum simulated likelihood
# ---------------------------------------------------------------------------

def expansion_log_terms(arrays: ChoiceArrays, beta: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray] | None:
    """ln numerator (R, n) and ln denominator (n,) of the expansion factor.

    ``beta`` holds the mixing draws as (R, n, K).  For observation n and
    draw r, W = num / den: the numerator weights the sampled members'
    full-set probabilities at beta_r by the members' conditional set
    probabilities; the denominator applies the same weights to full-set
    probabilities averaged over all R draws.  None when a denominator
    collapses to zero.
    """
    v_full = np.einsum("njk,rnk->rnj", arrays.X, beta)
    lp_full = log_softmax(v_full, axis=-1)                  # (R, n, J)
    member_idx, log_pi = arrays.member_idx, arrays.log_pi
    lp_mem = np.take_along_axis(
        lp_full, np.broadcast_to(member_idx, lp_full.shape[:1] + member_idx.shape),
        axis=-1)
    weighted = log_pi[None] + lp_mem
    m = np.max(weighted, axis=-1, keepdims=True)
    log_num = (m + np.log(np.sum(np.exp(weighted - m), axis=-1,
                                 keepdims=True)))[..., 0]
    p_mix = np.exp(lp_full).mean(axis=0)                    # (n, J)
    den = np.sum(np.exp(log_pi) * np.where(
        np.isfinite(log_pi),
        np.take_along_axis(p_mix, member_idx, axis=-1), 0.0), axis=-1)
    if np.any(den <= 0.0):
        return None
    return log_num, np.log(den)


def fit_mmnl_msl(dataset: Dataset, sampled: SetTable | None,
                 corrections: str, wn_mode: str, r_draws: int,
                 init: np.ndarray | None = None, tol: float = 1e-3,
                 max_iter: int = 200) -> FitResult:
    """Maximum simulated likelihood for the normal-mixing panel logit.

    Per individual: ln[(1/R) sum_r prod_t W_nt(beta_r) P(i_nt | beta_r, set_nt)],
    with beta_r = mu + L z_r.  The Halton draw block is generated once and
    reused for every objective evaluation; with ``wn_mode='naive_one'`` the
    expansion factor is identically one.  ``sampled=None`` fits on full sets
    (the expansion factor is then exactly one and is skipped).
    """
    if wn_mode not in WN_MODES:
        raise InvalidInputError(f"unknown Wn mode {wn_mode!r}")
    K = dataset.K
    view = ChoiceArrays.panel(dataset, sampled, corrections)
    use_wn = wn_mode == "exact_full_set" and sampled is not None

    z = halton_normal_draws(view.n_individuals, r_draws, K)  # (N, R, K)
    z_obs = z[view.obs_to_ind]                                # (n_obs, R, K)
    log_r = np.log(r_draws)

    def sim_loglik(theta: np.ndarray) -> float:
        mu, L = unpack_theta(theta, K)
        if not np.all(np.isfinite(L)):
            return -np.inf
        beta = np.swapaxes(mu + np.einsum("nrk,jk->nrj", z_obs, L), 0, 1)
        lp = view.chosen_log_probs(beta)                      # (R, n_obs)
        if use_wn:
            terms = expansion_log_terms(view, beta)
            if terms is None:
                return -np.inf
            log_num, log_den = terms
            lp = lp + log_num - log_den[None]
        per_ind = view.panel_sum(lp)                          # (R, N)
        m = np.max(per_ind, axis=0)
        if not np.all(np.isfinite(m)):
            return -np.inf
        lse = m + np.log(np.sum(np.exp(per_ind - m), axis=0))
        return float(np.sum(lse - log_r))

    grad = partial(central_diff_grad, sim_loglik, h=1e-5)
    if init is None:
        init = pack_theta(np.zeros(K), np.exp(-1.0) * np.eye(K))
    res = maximize(sim_loglik, grad, init, tol=tol, max_iter=max_iter)
    se = std_errors_from_hessian(hessian_from_f(sim_loglik, res.x))
    mu, L = unpack_theta(res.x, K)
    return FitResult(res.x, se, res.f, res.converged, res.iterations,
                     mu=mu, sigma=L @ L.T, chol=L,
                     notes={"wn_mode": wn_mode,
                            "wn_denominator": "draw_averaged",
                            "r_draws": r_draws})
