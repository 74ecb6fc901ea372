"""Each output check passes on real verb outputs and fails on a planted error.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from soa_lab.cli import main as cli_main  # noqa: E402


def verb(tmp: Path, name: str, pairs: dict) -> None:
    cfg = tmp / f"{name}_{pairs['output.dir'].replace('/', '_')}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main([name, "--config", str(cfg)]) == 0


def plant(src: Path, dst: Path, column: str, value, where=None) -> Path:
    """Copy a CSV, replacing ``column`` in the first data row ``where`` selects
    (or dropping that row: value=None)."""
    with open(src, newline="") as fh:
        lines = fh.read().splitlines()
    head = [line for line in lines if line.startswith("#")]
    fields, *rows = list(csv.reader(line for line in lines
                                    if not line.startswith("#")))
    at = fields.index(column)
    i = next(i for i, r in enumerate(rows)
             if where is None or where(dict(zip(fields, r))))
    if value is None:
        del rows[i]
    else:
        rows[i][at] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([fields] + rows)
    dst.write_text("\n".join(head) + "\n" + buf.getvalue())
    return dst


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("outputs")
    probs = workloads._floats(workloads.INCLUSION)
    verb(tmp, "generate", {"dgp.model": "mnl", "dgp.n": 300, "dgp.j": 20,
                           "dgp.k": 2, "dgp.beta_star": "1.0, -0.5",
                           "seed": 3, "output.dir": f"{tmp}/data"})
    sampled = {"inputs.dataset": f"{tmp}/data/dataset.csv",
               "inputs.sets": f"{tmp}/sets/sets.csv",
               "correction.sets": "sampled", "correction.mode": "mcfadden"}
    verb(tmp, "sample", {"inputs.dataset": f"{tmp}/data/dataset.csv",
                         "protocol.kind": "importance_independent",
                         "protocol.inclusion_probs": probs, "seed": 4,
                         "output.dir": f"{tmp}/sets"})
    verb(tmp, "bayes", {**sampled, "bayes.method": "rw_metropolis",
                        "bayes.iterations": 400, "bayes.burn_in": 200,
                        "bayes.chains": 2, "bayes.proposal_scale": 0.15,
                        "seed": 6, "output.dir": f"{tmp}/rw"})
    verb(tmp, "generate", {**workloads.SampledEstimators.PANEL,
                           "dgp.n": 40, "output.dir": f"{tmp}/panel"})
    verb(tmp, "bayes", {"inputs.dataset": f"{tmp}/panel/dataset.csv",
                        "bayes.method": "gibbs", "bayes.iterations": 400,
                        "bayes.burn_in": 200, "seed": 7,
                        "output.dir": f"{tmp}/gibbs"})
    verb(tmp, "fit", {"inputs.dataset": f"{tmp}/panel/dataset.csv",
                      "fit.estimator": "mmnl_msl", "fit.r_draws": 20,
                      "seed": 8, "output.dir": f"{tmp}/msl"})
    verb(tmp, "divergence", {"divergence.j": 4, "divergence.k": 1,
                             "divergence.m": 2, "divergence.t": 2,
                             "divergence.n_designs": 1, "grid.points": 101,
                             "seed": 9, "output.dir": f"{tmp}/div"})
    return tmp


def choice_data(out: Path, sets: Path | None = None) -> checks.ChoiceData:
    return checks.ChoiceData(out / "data/dataset.csv",
                             sets or out / "sets/sets.csv")


def test_set_checks_pass_on_real_outputs(out):
    data = choice_data(out)
    assert data.structure_problems() == []
    assert data.importance_lcp_problems(workloads.INCLUSION) == []


def test_set_without_its_chosen_alternative_is_caught(out, tmp_path):
    data = choice_data(out)
    chosen = int(data.chosen[0])
    bad = plant(out / "sets/sets.csv", tmp_path / "sets.csv", "alt_id", None,
                where=lambda r: r["obs_id"] == "0"
                and r["alt_id"] == str(chosen))
    assert choice_data(out, bad).structure_problems()


def test_log_cond_prob_off_by_1e_9_is_caught(out, tmp_path):
    src = out / "sets/sets.csv"
    first = float(checks.columns(src)["log_cond_prob"][0])
    bad = plant(src, tmp_path / "sets.csv", "log_cond_prob",
                repr(first - 1e-9))
    assert choice_data(out, bad).importance_lcp_problems(workloads.INCLUSION)


def test_metropolis_check(out, tmp_path):
    data = choice_data(out)
    summary, draws = out / "rw/summary.csv", out / "rw/draws.csv"
    assert checks.check_metropolis(summary, draws, data,
                                   workloads.BETA_STAR) == []
    mean = checks.summary(summary)["beta_1"]["mean"]
    shifted = plant(summary, tmp_path / "summary.csv", "mean",
                    repr(mean + 0.3), where=lambda r: r["parameter"] == "beta_1")
    assert checks.check_metropolis(shifted, draws, data, workloads.BETA_STAR)
    # A shift inside the Monte Carlo error still contradicts the draws file.
    nudged = plant(summary, tmp_path / "nudged.csv", "mean",
                   repr(mean + 1e-6), where=lambda r: r["parameter"] == "beta_1")
    assert checks.check_metropolis(nudged, draws, data, workloads.BETA_STAR)


def test_msl_checks(out, tmp_path):
    report = out / "msl/fit_report.csv"
    assert checks.msl_fit_converged(report) == []
    assert checks.msl_mu_problems(report, 1.0) == []
    far = plant(report, tmp_path / "far.csv", "value", "12.9",
                where=lambda r: r["metric"] == "estimate[mu_1]")
    assert checks.msl_mu_problems(far, 1.0)
    stalled = plant(report, tmp_path / "stalled.csv", "value", "0",
                    where=lambda r: r["metric"] == "converged")
    assert checks.msl_fit_converged(stalled)


def test_gibbs_check(out, tmp_path):
    summary = out / "gibbs/summary.csv"
    assert checks.check_gibbs(summary, 1.0) == []
    bad = plant(summary, tmp_path / "summary.csv", "mean", "3.0",
                where=lambda r: r["parameter"] == "mu_0")
    assert checks.check_gibbs(bad, 1.0)


def test_divergence_checks(out, tmp_path):
    src = out / "div/divergence.csv"
    assert checks.check_divergence(src, 2) == []
    uniform = lambda r: r["protocol"].startswith("uniform")  # noqa: E731
    importance = lambda r: not uniform(r)  # noqa: E731
    planted = [
        ("resid_ordering", "1e-06", uniform),
        ("r_sum_abs_err", "2e-09", importance),
        ("resid_closed_form", "nan", uniform),
        ("resid_entropy_form", "0.0", importance),
        ("expected_kl", "-1e-06", uniform),
        ("design_id", None, importance),
    ]
    for i, (column, value, where) in enumerate(planted):
        bad = plant(src, tmp_path / f"div{i}.csv", column, value, where=where)
        assert checks.check_divergence(bad, 2), column


def test_snapshot_sees_one_changed_byte(out, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(out / "sets", copy)
    before = run.snapshot(copy)
    data = bytearray((copy / "sets.csv").read_bytes())
    data[-2] ^= 1
    (copy / "sets.csv").write_bytes(bytes(data))
    assert run.snapshot(copy) != before


def test_quadrature_matches_a_gaussian():
    """The quadrature recovers the moments of a known normal posterior."""
    class NormalLikelihood:  # log-likelihood of N((0.3, -0.2), 0.01 I)
        @staticmethod
        def quasi_loglik(b):
            return -0.5 * np.sum(((b - [0.3, -0.2]) / 0.1) ** 2, axis=1)
    mean, sd = checks.grid_posterior_moments(NormalLikelihood, np.zeros(2))
    # Product of N(0.3, 0.01) and the N(0, 1) prior, per coordinate.
    prec = 1 / 0.01 + 1
    np.testing.assert_allclose(mean, np.array([0.3, -0.2]) / 0.01 / prec,
                               rtol=1e-9)
    np.testing.assert_allclose(sd, np.sqrt(1 / prec), rtol=1e-6)
