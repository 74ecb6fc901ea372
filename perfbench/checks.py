"""Output checks, computed apart from soa_lab.

Every check reads the CSV files a verb wrote and returns a list of
problems (empty when the output is right).  The reference values come
from this module's own numpy code or from properties the method must
have; nothing here calls into the package.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Field names and data rows of a soa-lab CSV (``#`` header lines skipped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def columns(path: Path) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV whose cells are all numbers."""
    fields, rows = read_table(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(fields))
    return {name: data[:, i] for i, name in enumerate(fields)}


def fit_report(path: Path) -> dict[str, tuple[float, str]]:
    """metric -> (value, context) from fit_report.csv."""
    fields, rows = read_table(path)
    at = {name: i for i, name in enumerate(fields)}
    return {r[at["metric"]]: (float(r[at["value"]]), r[at["context"]])
            for r in rows}


def summary(path: Path) -> dict[str, dict[str, float]]:
    """parameter -> {mean, sd, ...} from summary.csv."""
    fields, rows = read_table(path)
    return {r[0]: {f: float(v) for f, v in zip(fields[1:], r[1:])} for r in rows}


# ---------------------------------------------------------------------------
# choice data and the corrected quasi log-likelihood
# ---------------------------------------------------------------------------

class ChoiceData:
    """dataset.csv and sets.csv as arrays; set rows grouped by observation."""

    def __init__(self, dataset_csv: Path, sets_csv: Path):
        d = columns(dataset_csv)
        self.N = int(d["obs_id"].max()) + 1
        self.J = int(d["alt_id"].max()) + 1
        xs = sorted(k for k in d if k.startswith("x"))
        self.K = len(xs)
        self.layout_ok = (
            np.array_equal(d["obs_id"], np.repeat(np.arange(self.N), self.J))
            and np.array_equal(d["alt_id"], np.tile(np.arange(self.J), self.N)))
        self.X = np.stack([d[x] for x in xs], axis=-1).reshape(self.N, self.J,
                                                               self.K)
        flagged = d["chosen"] == 1
        self.n_flagged = np.bincount(d["obs_id"][flagged].astype(int),
                                     minlength=self.N)
        self.chosen = np.full(self.N, -1)
        self.chosen[d["obs_id"][flagged].astype(int)] = d["alt_id"][flagged]
        s = columns(sets_csv)
        self.obs = s["obs_id"].astype(int)
        self.alt = s["alt_id"].astype(int)
        self.lcp = s["log_cond_prob"]
        self.starts = np.flatnonzero(np.r_[True, self.obs[1:] != self.obs[:-1]])
        self.sizes = np.diff(np.r_[self.starts, self.obs.size])
        self.is_chosen = self.alt == self.chosen[self.obs]

    def structure_problems(self) -> list[str]:
        problems = []
        if not self.layout_ok or np.any(self.n_flagged != 1):
            problems.append("dataset.csv is not one row per (obs, alt) with "
                            "exactly one chosen alternative per observation")
        if not np.array_equal(self.obs[self.starts], np.arange(self.N)):
            problems.append("sets.csv does not hold one block per observation "
                            "in order")
        per_set = np.add.reduceat(self.is_chosen.astype(int), self.starts)
        missing = np.flatnonzero(per_set != 1)
        if missing.size:
            problems.append(f"{missing.size} sets do not contain their "
                            f"observation's chosen alternative (first: obs "
                            f"{int(self.obs[self.starts[missing[0]]])})")
        return problems

    def quasi_loglik(self, betas: np.ndarray) -> np.ndarray:
        """McFadden-corrected log-likelihood at each row of betas (P, K)."""
        v = self.X[self.obs, self.alt] @ betas.T + self.lcp[:, None]
        m = np.maximum.reduceat(v, self.starts, axis=0)
        lse = m + np.log(np.add.reduceat(np.exp(v - np.repeat(m, self.sizes,
                                                              axis=0)),
                                         self.starts, axis=0))
        return np.sum(v[self.is_chosen] - lse, axis=0)

    def importance_lcp_problems(self, probs: np.ndarray) -> list[str]:
        """log pi(D|j) = sum_{k in D, k != j} ln p_k + sum_{k not in D} ln(1-p_k)."""
        log_p, log_q = np.log(probs), np.log1p(-probs)
        in_p = np.repeat(np.add.reduceat(log_p[self.alt], self.starts), self.sizes)
        in_q = np.repeat(np.add.reduceat(log_q[self.alt], self.starts), self.sizes)
        expected = in_p - log_p[self.alt] + (log_q.sum() - in_q)
        worst = float(np.max(np.abs(expected - self.lcp)))
        if not worst <= 1e-12:
            return [f"log_cond_prob differs from the inclusion product by {worst:.3g}"]
        return []


def grid_posterior_moments(data: ChoiceData, center: np.ndarray,
                           half_width: float = 2.5, points: int = 201,
                           chunk: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sd of the corrected posterior under an N(0, I) prior.

    Trapezoid quadrature on a K-dimensional lattice centred on ``center``;
    raises ValueError when the lattice edge still carries mass.
    """
    axes = [np.linspace(c - half_width, c + half_width, points) for c in center]
    lattice = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                       axis=-1)
    w1 = np.full(points, 2.0 * half_width / (points - 1))
    w1[[0, -1]] *= 0.5
    weights = np.ones(1)
    for _ in center:
        weights = np.multiply.outer(weights, w1).ravel()
    log_k = np.concatenate([
        data.quasi_loglik(lattice[i:i + chunk]) for i in range(0, len(lattice),
                                                               chunk)])
    log_k -= 0.5 * np.sum(lattice ** 2, axis=1)
    dens = np.exp(log_k - log_k.max())
    on_edge = np.any((lattice == lattice.min(axis=0))
                     | (lattice == lattice.max(axis=0)), axis=1)
    if dens[on_edge].max() > 1e-10:
        raise ValueError("quadrature box too small for the posterior")
    mass = weights * dens
    mass /= mass.sum()
    mean = mass @ lattice
    sd = np.sqrt(mass @ (lattice - mean) ** 2)
    return mean, sd


def batch_means_mcse(draws_csv: Path, names: list[str],
                     batches_per_chain: int = 5) -> np.ndarray:
    """Monte Carlo SE of the pooled mean by non-overlapping batch means."""
    d = columns(draws_csv)
    means = []
    for c in np.unique(d["chain"]):
        rows = d["chain"] == c
        x = np.stack([d[n][rows] for n in names], axis=-1)
        size = x.shape[0] // batches_per_chain
        means.append(x[:size * batches_per_chain]
                     .reshape(batches_per_chain, size, -1).mean(axis=1))
    means = np.concatenate(means)
    return means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_metropolis(summary_csv: Path, draws_csv: Path, data: ChoiceData,
                     beta_star: np.ndarray, n_mcse: float = 5.0) -> list[str]:
    """Posterior means agree with an independent quadrature of the posterior."""
    names = [f"beta_{k + 1}" for k in range(data.K)]
    summ = summary(summary_csv)
    reported = np.array([summ[n]["mean"] for n in names])
    d = columns(draws_csv)
    pooled = np.stack([d[n] for n in names], axis=-1).mean(axis=0)
    problems = []
    if not np.allclose(reported, pooled, rtol=1e-12, atol=0.0):
        problems.append(f"summary means {reported} differ from the draws' "
                        f"means {pooled}")
    try:
        mean, _ = grid_posterior_moments(data, beta_star)
    except ValueError as exc:
        return problems + [str(exc)]
    mcse = batch_means_mcse(draws_csv, names)
    gap = np.abs(reported - mean)
    if not np.all(gap <= n_mcse * mcse):
        problems.append(f"posterior means {reported} differ from quadrature "
                        f"{mean} by {gap}, over {n_mcse} MCSE {mcse}")
    return problems


def msl_fit_converged(report_csv: Path) -> list[str]:
    if fit_report(report_csv)["converged"][0] == 1:
        return []
    return ["MSL fit did not converge"]


def msl_mu_problems(report_csv: Path, mu_star: float) -> list[str]:
    """A problem when the MSL estimate of mu lies more than 4 SEs from mu_star."""
    value, context = fit_report(report_csv)["estimate[mu_1]"]
    se = float(context.split("=", 1)[1])
    if abs(value - mu_star) <= 4.0 * se:
        return []
    return [f"MSL mu_1={value:.6g} is more than 4 SE ({se:.3g}) from "
            f"mu_star={mu_star}"]


def check_gibbs(summary_csv: Path, mu_star: float) -> list[str]:
    mu = summary(summary_csv)["mu_0"]
    if abs(mu["mean"] - mu_star) <= 4.0 * mu["sd"]:
        return []
    return [f"Gibbs mean of mu {mu['mean']:.6g} is more than 4 posterior SD "
            f"({mu['sd']:.3g}) from mu_star={mu_star}"]


# Closed forms that exist for uniform conditioning only.
UNIFORM_ONLY = {"resid_closed_form", "resid_entropy_form"}


def check_divergence(divergence_csv: Path, n_rows: int) -> list[str]:
    """Residuals at float error (nan where undefined); expected KL >= 0."""
    fields, rows = read_table(divergence_csv)
    at = {name: i for i, name in enumerate(fields)}
    residuals = ["r_sum_abs_err"] + [f for f in fields if f.startswith("resid_")]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} divergence rows, expected {n_rows}")
    for r in rows:
        where = f"design {r[at['design_id']]} {r[at['protocol']]}"
        uniform = r[at["protocol"]].startswith("uniform_wor")
        for name in residuals:
            value = float(r[at[name]])
            defined = uniform or name not in UNIFORM_ONLY
            if defined and not value <= 1e-9:
                problems.append(f"{where}: {name}={value!r} exceeds 1e-9")
            if not defined and not math.isnan(value):
                problems.append(f"{where}: {name}={value!r} should be nan")
        kl = float(r[at["expected_kl"]])
        if not kl >= -1e-12:
            problems.append(f"{where}: expected_kl={kl!r} is negative")
    return problems
