"""The three workloads: their inputs, their timed rounds and their checks.

``prepare`` writes a workload's config files and returns two lists of
(verb, config) calls: the set-up calls that build its input files, and the
calls of one timed round.  Every round repeats the same calls on the same
files.  ``check`` runs after timing on the files the last round wrote and
returns (problems, faults): problems make the run incorrect; each fault is
one operation of the round that hit a known program fault and counts as
failed.

All paths in configs are relative: verbs run with the run directory as the
working directory, so the config hashes in the outputs do not depend on
where the checkout lives.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks

J_REF, K_REF = 20, 2
BETA_STAR = np.array([1.0, -0.5])
# Importance inclusion probabilities, strictly inside (0, 1), spread so the
# sets are ragged and the McFadden corrections differ across members.
INCLUSION = np.round(np.linspace(0.2, 0.8, J_REF), 6)


def _write(path: Path, pairs: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return path.name


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _mnl_configs(d: Path, prefix: str, n: int, seed: int) -> tuple[str, str]:
    """generate + importance-sample configs for a cross-sectional logit."""
    gen = _write(d / f"{prefix}_generate.cfg", {
        "dgp.model": "mnl", "dgp.n": n, "dgp.j": J_REF, "dgp.k": K_REF,
        "dgp.beta_star": _floats(BETA_STAR), "seed": seed,
        "output.dir": f"{prefix}_data"})
    sample = _write(d / f"{prefix}_sample.cfg", {
        "inputs.dataset": f"{prefix}_data/dataset.csv",
        "protocol.kind": "importance_independent",
        "protocol.inclusion_probs": _floats(INCLUSION), "seed": seed + 1,
        "output.dir": f"{prefix}_sets"})
    return gen, sample


def _sampled_inputs(prefix: str) -> dict:
    return {"inputs.dataset": f"{prefix}_data/dataset.csv",
            "inputs.sets": f"{prefix}_sets/sets.csv",
            "correction.sets": "sampled", "correction.mode": "mcfadden"}


class MnlPipeline:
    """generate -> importance sample, at J=20, K=2.

    The corrected MNL fit is left out: at this N it stalls short of its
    gradient tolerance on some seeds (README.md), and an operation that
    fails on some seeds only would make ``failed`` depend on the seed.
    """

    name = "mnl_pipeline"
    N = 4000

    def prepare(self, d: Path, seed: int) -> tuple[list, list]:
        gen, sample = _mnl_configs(d, "mnl", self.N, seed)
        return [], [("generate", gen), ("sample", sample)]

    def check(self, d: Path) -> tuple[list[str], list[str]]:
        data = checks.ChoiceData(d / "mnl_data/dataset.csv",
                                 d / "mnl_sets/sets.csv")
        problems = data.structure_problems()
        if problems:
            return problems, []
        return data.importance_lcp_problems(INCLUSION), []


class SampledEstimators:
    """Metropolis on importance sets; MSL and Gibbs on one mixed-logit panel.

    The panel is fixed (its seeds do not follow ``--seed``): the MSL fit with
    the exact expansion factor lands on a spurious optimum for it, every
    time, and is counted as a failed operation; see README.md.  The
    Metropolis data and both samplers' streams follow ``--seed``.
    """

    name = "sampled_estimators"
    N_CROSS = 60
    PANEL = {"dgp.model": "mmnl", "dgp.n": 100, "dgp.t": 5, "dgp.j": 10,
             "dgp.k": 1, "dgp.mu_star": 1.0, "dgp.sigma_star": 0.5, "seed": 7}
    PANEL_M = 4
    MU_STAR = 1.0

    def prepare(self, d: Path, seed: int) -> tuple[list, list]:
        gen, sample = _mnl_configs(d, "rw", self.N_CROSS, seed)
        panel_gen = _write(d / "panel_generate.cfg", {
            **self.PANEL, "output.dir": "panel_data"})
        panel_sample = _write(d / "panel_sample.cfg", {
            "inputs.dataset": "panel_data/dataset.csv",
            "protocol.kind": "uniform_wor", "protocol.m": self.PANEL_M,
            "seed": 8, "output.dir": "panel_sets"})
        rw = _write(d / "rw_bayes.cfg", {
            **_sampled_inputs("rw"), "bayes.method": "rw_metropolis",
            "bayes.iterations": 400, "bayes.burn_in": 200, "bayes.chains": 2,
            "bayes.proposal_scale": 0.15, "seed": seed + 2,
            "output.dir": "rw_bayes"})
        msl = _write(d / "panel_fit.cfg", {
            **_sampled_inputs("panel"), "fit.estimator": "mmnl_msl",
            "fit.wn_mode": "exact_full_set", "fit.r_draws": 30, "seed": 9,
            "output.dir": "panel_fit"})
        gibbs = _write(d / "panel_bayes.cfg", {
            **_sampled_inputs("panel"), "bayes.method": "gibbs",
            "bayes.iterations": 600, "bayes.burn_in": 300,
            "seed": seed + 3, "output.dir": "panel_bayes"})
        return ([("generate", gen), ("sample", sample),
                 ("generate", panel_gen), ("sample", panel_sample)],
                [("bayes", rw), ("fit", msl), ("bayes", gibbs)])

    def check(self, d: Path) -> tuple[list[str], list[str]]:
        data = checks.ChoiceData(d / "rw_data/dataset.csv",
                                 d / "rw_sets/sets.csv")
        problems = data.structure_problems()
        if problems:
            return problems, []
        problems += checks.check_metropolis(d / "rw_bayes/summary.csv",
                                            d / "rw_bayes/draws.csv", data,
                                            BETA_STAR)
        fit = d / "panel_fit/fit_report.csv"
        problems += checks.msl_fit_converged(fit)
        problems += checks.check_gibbs(d / "panel_bayes/summary.csv",
                                       self.MU_STAR)
        return problems, checks.msl_mu_problems(fit, self.MU_STAR)


class OracleDesigns:
    """Exhaustive divergence oracles on T=2 panels, K=1, a 201-point grid."""

    name = "oracle_designs"
    N_DESIGNS = 4

    def prepare(self, d: Path, seed: int) -> tuple[list, list]:
        div = _write(d / "divergence.cfg", {
            "divergence.j": 5, "divergence.k": 1, "divergence.m": 2,
            "divergence.t": 2, "divergence.n_designs": self.N_DESIGNS,
            "grid.points": 201, "seed": seed, "output.dir": "divergence"})
        return [], [("divergence", div)]

    def check(self, d: Path) -> tuple[list[str], list[str]]:
        # Two protocol rows (uniform, importance) per design.
        return checks.check_divergence(d / "divergence/divergence.csv",
                                       2 * self.N_DESIGNS), []


WORKLOADS = {w.name: w for w in (MnlPipeline, SampledEstimators, OracleDesigns)}
