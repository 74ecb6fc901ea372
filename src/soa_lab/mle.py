"""Classical estimation on full or sampled choice sets.

The fixed-coefficient estimator maximizes the corrected quasi
log-likelihood

    sum_n ln[ exp(V_in + c_in) / sum_{j in D_n} exp(V_jn + c_jn) ]

with an analytic gradient.  The mixing estimator maximizes a simulated
log-likelihood over theta = (mu, vech of the Cholesky factor of Sigma,
log-diagonal), with fixed Halton draws.  With the exact expansion factor
each individual's simulated probability of their choices on their sampled
sets, mean_r prod_t P(i_t | beta_r, D_t) num_tr, is divided by the
per-individual panel denominator mean_r prod_t num_tr, where num_tr
weights the sampled members' full-set probabilities at draw r by their
conditional set probabilities.  One kernel returns this objective and its
analytic score in a single pass over the draws.

Each fit builds its kernel once: one :class:`ChoiceArrays` holds the
padded member attributes, the member term and the chosen positions, and
the mixing likelihood adds the Halton block and its work arrays, which
every objective and score evaluation overwrites in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .draws import halton_normal_draws
from .errors import InvalidInputError
from .model_core import (Dataset, SetTable, log_softmax, shifted_exp_sum,
                         utilities)
# hessian_from_f is not called here; perfbench/tracing.py wraps it by name
# as mle.hessian_from_f, until the run trace moves into the package.
from .optimize import (hessian_from_f, hessian_from_grad,  # noqa: F401
                       maximize, std_errors_from_hessian)
from .protocols import centred_corrections

WN_MODES = ("naive_one", "exact_full_set")


@dataclass
class FitResult:
    """Outcome of one maximization.

    ``estimate`` is beta (K,) for the fixed-coefficient model and the packed
    (mu, vech L with log-diagonal) vector for the mixing model, in which
    case ``mu`` and ``sigma`` carry the decoded values.
    """

    estimate: np.ndarray
    std_errors: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None


# ---------------------------------------------------------------------------
# the prepared choice likelihood
# ---------------------------------------------------------------------------

def _member_major(a: np.ndarray) -> np.ndarray:
    """``a`` (n, m, ...) with its member axis outermost in memory."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


class ChoiceArrays:
    """The corrected softmax over every observation's evaluation set.

    Built once per run, then evaluated at any number of coefficient points.
    Rows are observations; columns are the members of each row's evaluation
    set (full set when ``sampled`` is None, else the sampled subset, padded
    with zero attributes).  Sampled sets add ``member_term`` (full sets:
    None), the term of :func:`centred_corrections`, -inf on padding, to each
    utility and keep ``log_pi``, their raw ln pi, for the expansion factor.
    The member-side arrays (``X_mem``, ``member_term`` and each call's
    utilities) keep their (..., n, m) shapes but hold the member axis
    outermost in memory, so a reduction over a row's members runs
    elementwise across whole planes of observations.
    """

    def __init__(self, dataset: Dataset, sampled: SetTable | None,
                 mode: str):
        X = dataset.attribute_tensor()
        chosen = dataset.chosen_ids()
        n = X.shape[0]
        self.member_term = None
        if sampled is None:
            self.X_mem = _member_major(X)
            self.chosen_pos = chosen
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
            self.X_mem = _member_major(np.where(
                pad[..., None], 0.0, X[np.arange(n)[:, None], ids]))
            self.member_term = _member_major(centred_corrections(sampled, mode))
            self.chosen_pos = np.argmax(hits, axis=1)
            self.log_pi = sampled.log_cond_prob
        self.n = n
        self.K = dataset.K
        self._rows = np.arange(n)
        self.x_chosen = self.X_mem[self._rows, self.chosen_pos]

    @classmethod
    def panel(cls, dataset: Dataset, sampled: SetTable | None,
              mode: str) -> "ChoiceArrays":
        """Rows sorted (stably) by individual, for per-individual sums.

        ``order`` and ``obs_to_ind`` map each row to its observation in
        ``dataset`` and its individual; ``group_starts`` marks the first rows.
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
        self.order = order
        return self

    def _utilities(self, beta_rows: np.ndarray) -> np.ndarray:
        """Corrected member utilities, -inf on padding: (..., n, m), laid
        out member-major like ``X_mem``."""
        V = utilities(self.X_mem, beta_rows)
        if self.member_term is not None:
            V += self.member_term
        return V

    def log_probs(self, beta_rows: np.ndarray) -> np.ndarray:
        """Log member probabilities; beta_rows is (n, K) or (R, n, K)."""
        return log_softmax(self._utilities(beta_rows), axis=-1)

    def chosen_log_probs(self, beta_rows: np.ndarray) -> np.ndarray:
        """Log probability of each row's chosen member: (n,) for rows (n, K),
        (R, n) for (R, n, K).

        The chosen member's shifted utility less the row's log-sum: the
        bits of its entry in :meth:`log_probs`, without forming the rest.
        """
        V = self._utilities(beta_rows)
        chosen = V[..., self._rows, self.chosen_pos]
        m, s = shifted_exp_sum(V, out=V)
        with np.errstate(divide="ignore", invalid="ignore"):
            chosen = (chosen - m[..., 0]) - np.log(s[..., 0])
        np.copyto(chosen, -np.inf, where=s[..., 0] == 0)
        return chosen

    def _check(self, beta: np.ndarray) -> None:
        if beta.shape[-1:] != (self.K,):
            raise InvalidInputError("beta length must equal dataset K")

    def loglik(self, beta: np.ndarray) -> float | np.ndarray:
        """Summed log-likelihood at one point (K,), or (P,) for points (P, K)."""
        self._check(beta)
        total = np.sum(self.chosen_log_probs(beta[..., None, :]), axis=-1)
        return float(total) if beta.ndim == 1 else total

    def score(self, beta: np.ndarray) -> np.ndarray:
        """Analytic gradient at one point: sum_n [x_chosen - sum_j P_j x_j]."""
        self._check(beta)
        # Row-major operands: the sum over members keeps one order
        # whatever K (einsum reduces a contiguous axis its own way).
        P = np.ascontiguousarray(np.exp(self.log_probs(beta[None])))
        return np.sum(self.x_chosen - np.einsum(
            "nm,nmk->nk", P, np.ascontiguousarray(self.X_mem)), axis=0)

    def panel_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum (..., n) per-row values into (..., n_individuals)."""
        return np.add.reduceat(values, self.group_starts, axis=-1)

    def panel_loglik(self, beta_by_ind: np.ndarray) -> np.ndarray:
        """Per-individual log-likelihood for coefficients (n_individuals, K)."""
        return self.panel_sum(self.chosen_log_probs(beta_by_ind[self.obs_to_ind]))


# ---------------------------------------------------------------------------
# fixed-coefficient quasi likelihood
# ---------------------------------------------------------------------------

def fit_mnl(dataset: Dataset, sampled: SetTable | None = None,
            corrections: str = "mcfadden") -> FitResult:
    """Maximize the quasi log-likelihood from beta = 0, to the optimizer's
    default tolerance; concave, so converged == global.  Non-convergence is
    reported through the result, not raised.
    """
    likelihood = ChoiceArrays(dataset, sampled, corrections)
    res = maximize(likelihood.loglik, likelihood.score, np.zeros(dataset.K))
    se = std_errors_from_hessian(hessian_from_grad(likelihood.score, res.x))
    return FitResult(res.x, se, res.f, res.converged, res.iterations)


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

class _SimulatedLikelihood:
    """The simulated panel log-likelihood of the mixing model and its score.

    Per individual n with draws beta_r = mu + L z_nr (Train 2009, ch. 10):

        l_n = ln sum_r exp(A_nr) - ln sum_r exp(B_nr)
        A_nr = sum_t [ln P(i_t | beta_r, D_t) + ln num_tr],  B_nr = sum_t ln num_tr

    with the exact expansion factor (``use_wn``), whose denominator is the
    individual's whole panel, mean_r prod_t num_tr.  Without it B_nr = ln R
    and A_nr drops the ln num terms: l_n = ln mean_r prod_t P(i_t | beta_r, D_t).

    Built once per fit from a panel :class:`ChoiceArrays`, the Halton block
    z (n_individuals, R, K) and, for the exact factor only, the caller's
    (N, J, K) attributes ``X``; arrays are held coefficient- and
    alternative-major, (K or alternatives, R, rows), so every reduction
    over alternatives runs across whole (R, rows) planes.  The (K, R, n),
    (m, R, n) and (J, R, n) work arrays are allocated here once and
    overwritten by every evaluation; nothing returned refers to them.
    """

    def __init__(self, view: ChoiceArrays, z: np.ndarray,
                 X: np.ndarray | None):
        def planes(a: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(np.moveaxis(a, -1, 0))

        self.view, self.use_wn, self.K = view, X is not None, view.K
        self.z = planes(np.swapaxes(z[view.obs_to_ind], 0, 1))   # (K, R, n)
        self.x_mem = planes(np.swapaxes(view.X_mem, 0, 1))        # (K, m, n)
        self.x_chosen = view.x_chosen.T                           # (K, n)
        term = view.member_term
        self.c_eval, self.c_chosen = (0.0, 0.0) if term is None else (
            term.T[:, None], term[np.arange(view.n), view.chosen_pos])
        self.log_r = np.log(z.shape[1])
        R, m = z.shape[1], self.x_mem.shape[1]
        self._beta = np.empty((self.K, R, view.n))
        self._d_row = np.empty((self.K, R, view.n))
        self._v_mem = np.empty((m, R, view.n))
        self._p = np.empty((m, R, view.n))
        if self.use_wn:
            self.x_full = planes(np.swapaxes(X[view.order], 0, 1))  # (K, J, n)
            self.log_pi = view.log_pi.T[:, None]                  # (m, 1, n)
            self._q = np.empty((m, R, view.n))
            self._p_full = np.empty((X.shape[1], R, view.n))
            self._d_num = np.empty((self.K, R, view.n))
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def expansion_numerator(self, beta: np.ndarray, v_mem: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """ln num (R, n) and its gradient in beta (K, R, n).

        For observation t and draw r, num = sum_{j in D_t} pi(D_t | j)
        P(j | beta_r, C): the sampled members' full-set probabilities
        weighted by their conditional set probabilities (Guevara &
        Ben-Akiva 2013).  Its gradient is sum_{j in D} q_j x_j -
        sum_{j in C} P_j x_j with q_j = pi_j P_j / num.  ``v_mem`` holds
        the members' uncorrected utilities (m, R, n).
        """
        p_full = np.einsum("kjn,krn->jrn", self.x_full, beta, out=self._p_full)
        m, s = shifted_exp_sum(p_full, axis=0, out=p_full)
        p_full /= s
        lse_full = m + np.log(s)
        q = np.add(v_mem, self.log_pi, out=self._q)
        m, s = shifted_exp_sum(q, axis=0, out=q)
        q /= s
        grad = np.einsum("mrn,kmn->krn", q, self.x_mem, out=self._d_num)
        grad -= np.einsum("jrn,kjn->krn", p_full, self.x_full)
        return ((m + np.log(s)) - lse_full)[0], grad

    def value_and_score(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """sum_n l_n at ``theta`` and its analytic gradient, in one pass.

        The score weights each draw's gradient in beta by softmax_r(A) and
        softmax_r(B), then takes the chain rule through beta = mu + L z and
        the log-diagonal of L.  A theta whose value is not finite (a line
        search probing an extreme scale) gives (-inf, nan score).
        """
        K, view = self.K, self.view
        failed = -np.inf, np.full(theta.size, np.nan)
        with np.errstate(all="ignore"):
            mu, L = unpack_theta(theta, K)
            if not np.all(np.isfinite(L)):
                return failed
            beta = np.einsum("kl,lrn->krn", L, self.z, out=self._beta)
            beta += mu[:, None, None]
            v_mem = np.einsum("kmn,krn->mrn", self.x_mem, beta, out=self._v_mem)
            p = np.add(v_mem, self.c_eval, out=self._p)
            m, s = shifted_exp_sum(p, axis=0, out=p)
            p /= s
            lp_chosen = (np.einsum("kn,krn->rn", self.x_chosen, beta)
                         + self.c_chosen - (m + np.log(s))[0])      # (R, n)
            d_beta = np.einsum("mrn,kmn->krn", p, self.x_mem, out=self._d_row)
            np.subtract(self.x_chosen[:, None], d_beta, out=d_beta)
            if self.use_wn:
                log_num, d_num = self.expansion_numerator(beta, v_mem)
                lp_chosen += log_num
            w_a = view.panel_sum(lp_chosen)
            m, s = shifted_exp_sum(w_a, axis=0, out=w_a)
            w_a = (w_a / s)[:, view.obs_to_ind]
            d_beta *= w_a
            per_ind = m + np.log(s)
            if self.use_wn:
                w_b = view.panel_sum(log_num)
                m, s = shifted_exp_sum(w_b, axis=0, out=w_b)
                per_ind = per_ind - (m + np.log(s))
                d_num *= w_a - (w_b / s)[:, view.obs_to_ind]
                d_beta += d_num
            else:
                per_ind = per_ind - self.log_r
            if not np.all(np.isfinite(per_ind)):
                return failed
            d_L = d_beta.reshape(K, -1) @ self.z.reshape(K, -1).T
        rows, cols = np.tril_indices(K)
        d_vech = d_L[rows, cols] * np.where(rows == cols, L[rows, cols], 1.0)
        return float(np.sum(per_ind)), np.concatenate(
            [d_beta.sum(axis=(1, 2)), d_vech])

    def loglik(self, theta: np.ndarray) -> float:
        """The objective; keeps the score at ``theta`` for :meth:`score`."""
        f, g = self.value_and_score(theta)
        self._last = np.array(theta, dtype=float), g
        return f

    def score(self, theta: np.ndarray) -> np.ndarray:
        """The score; reused from the last :meth:`loglik` call at ``theta``."""
        if self._last is not None and np.array_equal(self._last[0], theta):
            return self._last[1]
        return self.value_and_score(theta)[1]


def fit_mmnl_msl(dataset: Dataset, sampled: SetTable | None,
                 corrections: str, wn_mode: str, r_draws: int) -> FitResult:
    """Maximum simulated likelihood for the normal-mixing panel logit.

    The objective is :class:`_SimulatedLikelihood`'s, on a Halton draw
    block that is generated once and reused for every evaluation.
    ``wn_mode='naive_one'`` sets the expansion factor to one;
    ``sampled=None`` fits on full sets, where it is exactly one and is
    skipped.  The fit starts at mu = 0, Sigma = e^-2 I.  Each objective call
    also computes the score, which the following gradient call at the same
    point reuses; the fit converges at max|score| <= 1e-3.  Standard errors
    come from central differences of the score.
    """
    if wn_mode not in WN_MODES:
        raise InvalidInputError(f"unknown Wn mode {wn_mode!r}")
    K = dataset.K
    view = ChoiceArrays.panel(dataset, sampled, corrections)
    use_wn = wn_mode == "exact_full_set" and sampled is not None
    likelihood = _SimulatedLikelihood(
        view, halton_normal_draws(view.n_individuals, r_draws, K),
        dataset.attribute_tensor() if use_wn else None)
    res = maximize(likelihood.loglik, likelihood.score,
                   pack_theta(np.zeros(K), np.exp(-1.0) * np.eye(K)), tol=1e-3)
    se = std_errors_from_hessian(hessian_from_grad(likelihood.score, res.x))
    mu, L = unpack_theta(res.x, K)
    return FitResult(res.x, se, res.f, res.converged, res.iterations,
                     mu=mu, sigma=L @ L.T)
