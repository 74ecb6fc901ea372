"""End-to-end runs of the command-line driver in temporary directories."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

import draw_reference
from child_cli import outputs_under_one_and_two_threads
from csv_reference import read_csv, read_manifest
from soa_lab import (Protocol, SampledSet, enumerate_feasible_sets,
                     enumerate_sets, read_dataset_csv, write_sets_csv)
from soa_lab.cli import main, parse_config_text


# A run length whose arrays lie past numpy's address space: numpy refuses
# them without allocating.
PAST_NUMPY = 10 ** 30


def write_config(path, text):
    path.write_text(text)
    return str(path)


def run(argv):
    return main(argv)


def generate_config(tmp_path, out, seed=1, model="mnl", n=40, j=4, k=1,
                    extra=""):
    body = f"""
# synthetic choice data
dgp.model={model}
dgp.n={n}
dgp.j={j}
dgp.k={k}
seed={seed}
output.dir={out}
{extra}
"""
    if model == "mnl":
        body += "dgp.beta_star=0.8\n"
    else:
        body += "dgp.t=3\ndgp.mu_star=0.8\ndgp.sigma_star=0.4\n"
    return write_config(tmp_path / f"gen_{out.name}.cfg", body)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text():
    pairs = parse_config_text("a.b=1\n# comment\n\nc=x y\n", {"a.b", "c"})
    assert pairs == {"a.b": "1", "c": "x y"}


def test_parse_rejects_bad_lines_and_duplicates():
    from soa_lab import ConfigError
    with pytest.raises(ConfigError):
        parse_config_text("not a pair\n", {"a"})
    with pytest.raises(ConfigError):
        parse_config_text("a=1\na=2\n", {"a"})


def test_missing_config_file_is_exit_2(tmp_path):
    assert run(["generate", "--config", str(tmp_path / "absent.cfg")]) == 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "run1"
    cfg = generate_config(tmp_path, out)
    assert run(["generate", "--config", cfg]) == 0
    meta, fields, rows = read_csv(out / "dataset.csv")
    assert fields == ["obs_id", "individual_id", "alt_id", "chosen", "x1"]
    assert len(rows) == 40 * 4
    manifest = read_manifest(out / "manifest.json")
    assert manifest["command"] == "generate"
    assert manifest["config_hash"] == meta["config_hash"]
    assert "dataset.csv" in manifest["outputs"]


def test_generate_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = generate_config(tmp_path, out_a)
    cfg_b = generate_config(tmp_path, out_b)
    assert run(["generate", "--config", cfg_a]) == 0
    assert run(["generate", "--config", cfg_b]) == 0
    da = (out_a / "dataset.csv").read_bytes()
    db = (out_b / "dataset.csv").read_bytes()
    assert da == db


def test_seed_override_changes_hash_and_data(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = generate_config(tmp_path, out_a)
    cfg_b = generate_config(tmp_path, out_b)
    assert run(["generate", "--config", cfg_a]) == 0
    assert run(["generate", "--config", cfg_b, "--seed", "99"]) == 0
    ma = read_manifest(out_a / "manifest.json")
    mb = read_manifest(out_b / "manifest.json")
    assert ma["config_hash"] != mb["config_hash"]
    assert mb["config"]["seed"] == "99"
    assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()


def negative_seed_config(tmp_path, verb):
    """A config the verb would run, but for its seed of -1 on line 2."""
    out = tmp_path / "out"
    body = {"generate": "dgp.model=mnl\ndgp.n=20\ndgp.j=3\ndgp.k=1\n"
                        "dgp.beta_star=0.5",
            "divergence": "divergence.j=3\ndivergence.t=1\n"
                          "divergence.n_designs=1\ngrid.points=21"}.get(verb)
    if body is None:
        dataset = pipeline_generate(tmp_path, n=20)
        body = (f"inputs.dataset={dataset}\n" + (
            "protocol.kind=uniform_wor\nprotocol.m=2" if verb == "sample" else
            "bayes.method=rw_metropolis\nbayes.iterations=20\nbayes.burn_in=10"))
    return write_config(tmp_path / "neg.cfg",
                        f"# negative seed\nseed = -1\n{body}\noutput.dir={out}\n")


@pytest.mark.parametrize("verb", ["generate", "sample", "bayes", "divergence"])
def test_negative_seed_is_exit_2_naming_the_line(tmp_path, capsys, verb):
    cfg = negative_seed_config(tmp_path, verb)
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: seed '-1' is not a non-negative integer" in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_is_exit_2(tmp_path, capsys):
    cfg = generate_config(tmp_path, tmp_path / "out")
    assert run(["generate", "--config", cfg, "--seed", "-1"]) == 2
    assert "--seed: seed '-1' is not a non-negative integer" in (
        capsys.readouterr().err)


def test_unwritable_output_is_exit_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    out = blocker / "sub"
    cfg = generate_config(tmp_path, out)
    assert run(["generate", "--config", cfg]) == 3


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def pipeline_generate(tmp_path, name="data", seed=1, **kw):
    out = tmp_path / name
    cfg = generate_config(tmp_path, out, seed=seed, **kw)
    assert run(["generate", "--config", cfg]) == 0
    return out / "dataset.csv"


def test_sample_carries_dataset_lineage(tmp_path):
    dataset = pipeline_generate(tmp_path)
    out = tmp_path / "sets"
    cfg = write_config(tmp_path / "s.cfg", f"""
inputs.dataset={dataset}
protocol.kind=uniform_wor
protocol.m=2
seed=5
output.dir={out}
""")
    assert run(["sample", "--config", cfg]) == 0
    meta, fields, rows = read_csv(out / "sets.csv")
    assert fields == ["obs_id", "alt_id", "log_cond_prob"]
    assert len(rows) == 40 * 2
    from soa_lab import file_hash
    assert meta["dataset_hash"] == file_hash(dataset)


def test_sample_missing_dataset_is_exit_2(tmp_path):
    cfg = write_config(tmp_path / "s.cfg", f"""
inputs.dataset={tmp_path / 'none.csv'}
protocol.kind=uniform_wor
protocol.m=2
seed=5
output.dir={tmp_path / 'o'}
""")
    assert run(["sample", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def sample_sets(tmp_path, dataset, name="sets", m=2, seed=5):
    out = tmp_path / name
    cfg = write_config(tmp_path / f"{name}.cfg", f"""
inputs.dataset={dataset}
protocol.kind=uniform_wor
protocol.m={m}
seed={seed}
output.dir={out}
""")
    assert run(["sample", "--config", cfg]) == 0
    return out / "sets.csv"


IMPORTANCE_P = [0.2, 0.9, 0.35, 0.5, 0.65, 0.1, 0.8, 0.3, 0.55, 0.7, 0.45, 0.25]


@pytest.mark.parametrize("settings,protocol", [
    ("protocol.kind=uniform_wor\nprotocol.m=4", Protocol("uniform_wor", m=4)),
    ("protocol.kind=importance_independent\nprotocol.inclusion_probs="
     + ",".join(map(str, IMPORTANCE_P)),
     Protocol("importance_independent", inclusion_probs=IMPORTANCE_P)),
], ids=["uniform_wor", "importance_independent"])
def test_sample_writes_the_per_observation_reference_draws(tmp_path, settings,
                                                           protocol):
    """sets.csv is byte for byte what the per-observation loop (one
    SeedSequence-built stream and one SampledSet per observation) gives."""
    dataset = pipeline_generate(tmp_path, n=300, j=12)
    out = tmp_path / "sets"
    cfg = write_config(tmp_path / "s.cfg", f"inputs.dataset={dataset}\n"
                       f"{settings}\nseed=6\noutput.dir={out}\n")
    assert run(["sample", "--config", cfg]) == 0
    ds, _ = read_dataset_csv(dataset)
    manifest = read_manifest(out / "manifest.json")
    want = tmp_path / "want.csv"
    write_sets_csv(want, draw_reference.draw_set_table(protocol, ds.chosen_ids(),
                                                       ds.J, 6),
                   {"config_hash": manifest["config_hash"], "command": "sample",
                    "dataset_hash": manifest["dataset_hash"]})
    assert (out / "sets.csv").read_bytes() == want.read_bytes()


def test_sample_builds_no_sampled_set(tmp_path, monkeypatch):
    dataset = pipeline_generate(tmp_path, n=50)

    def refuse(self):
        raise AssertionError("sample built a SampledSet")
    monkeypatch.setattr(SampledSet, "__post_init__", refuse)
    sample_sets(tmp_path, dataset)


def report_metrics(path):
    _, _, rows = read_csv(path)
    return {r[2]: float(r[3]) for r in rows}


def test_fit_full_and_sampled(tmp_path):
    dataset = pipeline_generate(tmp_path, n=200)
    sets = sample_sets(tmp_path, dataset)

    out_full = tmp_path / "fit_full"
    cfg_full = write_config(tmp_path / "ff.cfg", f"""
inputs.dataset={dataset}
fit.estimator=mnl
seed=1
output.dir={out_full}
""")
    assert run(["fit", "--config", cfg_full]) == 0
    m_full = report_metrics(out_full / "fit_report.csv")
    assert m_full["converged"] == 1
    assert "estimate[beta_1]" in m_full
    assert m_full["loglik"] < 0

    out_s = tmp_path / "fit_sampled"
    cfg_s = write_config(tmp_path / "fs.cfg", f"""
inputs.dataset={dataset}
inputs.sets={sets}
correction.sets=sampled
correction.mode=mcfadden
fit.estimator=mnl
seed=1
output.dir={out_s}
""")
    assert run(["fit", "--config", cfg_s]) == 0
    m_s = report_metrics(out_s / "fit_report.csv")
    assert m_s["converged"] == 1
    # both estimates target the same coefficient
    assert abs(m_s["estimate[beta_1]"] - m_full["estimate[beta_1]"]) < 0.5


def test_fit_refuses_foreign_sets(tmp_path):
    data_a = pipeline_generate(tmp_path, name="da", seed=1)
    data_b = pipeline_generate(tmp_path, name="db", seed=2)
    sets_a = sample_sets(tmp_path, data_a, name="sa")
    cfg = write_config(tmp_path / "f.cfg", f"""
inputs.dataset={data_b}
inputs.sets={sets_a}
correction.sets=sampled
fit.estimator=mnl
seed=1
output.dir={tmp_path / 'o'}
""")
    assert run(["fit", "--config", cfg]) == 2


def test_fit_msl_reports_sigma(tmp_path):
    dataset = pipeline_generate(tmp_path, name="panel", model="mmnl", n=30,
                                j=3)
    out = tmp_path / "msl"
    cfg = write_config(tmp_path / "msl.cfg", f"""
inputs.dataset={dataset}
fit.estimator=mmnl_msl
fit.wn_mode=naive_one
fit.r_draws=30
seed=1
output.dir={out}
""")
    assert run(["fit", "--config", cfg]) == 0
    m = report_metrics(out / "fit_report.csv")
    assert "estimate[mu_1]" in m
    assert "sigma[1,1]" in m
    assert m["sigma[1,1]"] > 0


# ---------------------------------------------------------------------------
# bayes
# ---------------------------------------------------------------------------

def test_bayes_metropolis_outputs(tmp_path):
    dataset = pipeline_generate(tmp_path, n=60)
    out = tmp_path / "mcmc"
    cfg = write_config(tmp_path / "b.cfg", f"""
inputs.dataset={dataset}
bayes.method=rw_metropolis
bayes.iterations=400
bayes.burn_in=100
bayes.chains=2
prior.mean=0
prior.cov=4
seed=3
output.dir={out}
""")
    assert run(["bayes", "--config", cfg]) == 0
    _, fields, rows = read_csv(out / "draws.csv")
    assert fields == ["chain", "iteration", "beta_1"]
    assert len(rows) == 2 * 300
    _, _, srows = read_csv(out / "summary.csv")
    names = [r[0] for r in srows]
    assert "beta_1" in names and "acceptance_chain_1" in names


def test_bayes_thread_setting_does_not_change_draws(tmp_path):
    """A three-chain Metropolis run writes the same bytes under one and two
    BLAS threads."""
    dataset = pipeline_generate(tmp_path, n=40)
    out = tmp_path / "mcmc"
    cfg = write_config(tmp_path / "mcmc.cfg", f"""
inputs.dataset={dataset}
bayes.method=rw_metropolis
bayes.iterations=300
bayes.burn_in=100
bayes.chains=3
seed=3
output.dir={out}
""")
    one, two = outputs_under_one_and_two_threads(["bayes", "--config", cfg],
                                                 out)
    assert "draws.csv" in one and one == two


def test_bayes_gibbs_outputs_beta_n(tmp_path):
    dataset = pipeline_generate(tmp_path, name="panel2", model="mmnl", n=12,
                                j=3)
    out = tmp_path / "gibbs"
    cfg = write_config(tmp_path / "g.cfg", f"""
inputs.dataset={dataset}
bayes.method=gibbs
bayes.iterations=160
bayes.burn_in=40
bayes.thin=1
bayes.store_beta_n=true
seed=4
output.dir={out}
""")
    assert run(["bayes", "--config", cfg]) == 0
    _, fields, rows = read_csv(out / "draws.csv")
    assert fields == ["chain", "iteration", "mu_0", "sigma_0_0"]
    assert len(rows) == 120
    _, bfields, brows = read_csv(out / "beta_n.csv")
    assert bfields == ["iteration", "individual_id", "beta_1"]
    assert len(brows) == 120 * 12
    manifest = read_manifest(out / "manifest.json")
    assert set(manifest["outputs"]) == {"draws.csv", "summary.csv", "beta_n.csv"}


@pytest.mark.parametrize("method,settings,key", [
    ("rw_metropolis", "bayes.chains=0", "bayes.chains"),
    ("rw_metropolis", "bayes.chains=-1", "bayes.chains"),
    ("rw_metropolis", "bayes.proposal_scale=nan", "bayes.proposal_scale"),
    ("rw_metropolis", "bayes.proposal_scale=inf", "bayes.proposal_scale"),
    ("rw_metropolis", "bayes.proposal_scale=0", "bayes.proposal_scale"),
    ("rw_metropolis", "bayes.burn_in=60", "bayes.burn_in"),
    ("gibbs", "bayes.rho=inf", "bayes.rho"),
    ("gibbs", "bayes.rho=nan", "bayes.rho"),
    ("gibbs", "bayes.rho=-1", "bayes.rho"),
    ("gibbs", "bayes.thin=0", "bayes.thin"),
    ("gibbs", "bayes.burn_in=60", "bayes.burn_in"),
    ("gibbs", "prior.v0=0", "prior.v0"),
    ("gibbs", "prior.s0=-1", "prior.s0"),
    ("gibbs", "prior.a0=0", "prior.a0"),
    ("gibbs", "prior.m0=1, 2", "prior.m0"),
    ("gibbs", "correction.mode=foo", "correction.mode"),
    ("rw_metropolis", f"bayes.iterations={PAST_NUMPY}", "bayes.iterations"),
    ("gibbs", f"bayes.iterations={PAST_NUMPY}", "bayes.iterations"),
    ("rw_metropolis", f"bayes.chains={PAST_NUMPY}", "bayes.chains"),
    ("rw_metropolis", "bayes.iterations=60\nbayes.burn_in=10\nbayes.chains=1",
     "bayes.iterations"),
    ("gibbs", "bayes.iterations=300\nbayes.burn_in=100\nbayes.thin=3",
     "bayes.iterations"),
], ids=["chains_0", "chains_negative", "scale_nan", "scale_inf", "scale_0",
        "metropolis_burn_in_at_iterations", "rho_inf", "rho_nan",
        "rho_negative", "thin_0", "gibbs_burn_in_at_iterations", "v0_at_k1",
        "s0_negative", "a0_zero", "m0_wrong_length", "mode_unknown",
        "metropolis_iterations_past_numpy", "gibbs_iterations_past_numpy",
        "chains_past_numpy", "metropolis_keeps_50_draws",
        "gibbs_keeps_67_draws"])
def test_bayes_sampler_setting_out_of_range_is_exit_2(tmp_path, capsys,
                                                      monkeypatch, method,
                                                      settings, key):
    """A sampler or prior setting the library refuses, a run length whose
    arrays numpy cannot allocate, or one that keeps too few draws to
    summarize exits 2 naming its config key, before sampling, without a
    traceback or an output file."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler ran")

    for sampler in ("rw_metropolis", "run_gibbs"):
        monkeypatch.setattr(f"soa_lab.cli.{sampler}", refuse)
    dataset = pipeline_generate(tmp_path, name="panel", model="mmnl", n=20,
                                j=6)
    sets = sample_sets(tmp_path, dataset)
    out = tmp_path / "b"
    base = {"bayes.iterations": "60", "bayes.burn_in": "20"}
    base.update(line.split("=", 1) for line in settings.splitlines())
    cfg = write_config(tmp_path / "b.cfg", f"""inputs.dataset={dataset}
inputs.sets={sets}
correction.sets=sampled
bayes.method={method}
seed=1
output.dir={out}
""" + "".join(f"{k}={v}\n" for k, v in base.items()))
    assert run(["bayes", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("verb,settings,key", [
    ("sample", "protocol.kind=uniform_wor\nprotocol.m=1", "protocol.m"),
    ("sample", "protocol.kind=uniform_wor\nprotocol.m=9", "protocol.m"),
    ("sample", "protocol.kind=importance_independent\n"
               "protocol.inclusion_probs=0.5, 1.0, 0.5, 0.5, 0.5",
     "protocol.inclusion_probs"),
    ("sample", "protocol.kind=importance_independent\n"
               "protocol.inclusion_probs=0.5, 0.5", "protocol.inclusion_probs"),
    ("fit", "fit.estimator=mmnl_msl\nfit.r_draws=0", "fit.r_draws"),
    ("fit", "fit.estimator=mmnl_msl\nfit.wn_mode=foo", "fit.wn_mode"),
    ("fit", f"fit.estimator=mmnl_msl\nfit.r_draws={PAST_NUMPY}",
     "fit.r_draws"),
], ids=["m_1", "m_above_j", "probability_1", "probs_wrong_length",
        "r_draws_0", "wn_mode_unknown", "r_draws_past_numpy"])
def test_sample_and_fit_setting_out_of_range_is_exit_2(tmp_path, capsys, verb,
                                                       settings, key):
    """A protocol or fit setting the library refuses exits 2 naming its
    config key, without a traceback or an output file."""
    dataset = pipeline_generate(tmp_path, model="mmnl", n=10, j=5)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", f"""inputs.dataset={dataset}
{settings}
seed=1
output.dir={out}
""")
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


def test_bayes_gibbs_prior_m0_repeats_one_value(tmp_path):
    """prior.m0 is a coefficient vector: one value at K=2 gives the draws of
    that value written twice."""
    out = tmp_path / "data"
    gen = write_config(tmp_path / "g.cfg", f"""dgp.model=mmnl
dgp.n=12
dgp.t=3
dgp.j=3
dgp.k=2
dgp.mu_star=0.8, -0.4
dgp.sigma_star=0.4
seed=1
output.dir={out}
""")
    assert run(["generate", "--config", gen]) == 0
    bodies = []
    for name, m0 in (("one", "0.5"), ("two", "0.5, 0.5")):
        cfg = write_config(tmp_path / f"{name}.cfg", f"""
inputs.dataset={out / "dataset.csv"}
bayes.method=gibbs
bayes.iterations=140
bayes.burn_in=20
prior.m0={m0}
seed=3
output.dir={tmp_path / name}
""")
        assert run(["bayes", "--config", cfg]) == 0
        bodies.append(read_csv(tmp_path / name / "draws.csv")[1:])
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_divergence_residuals_are_tiny(tmp_path):
    out = tmp_path / "div"
    cfg = write_config(tmp_path / "d.cfg", f"""
divergence.j=4
divergence.k=1
divergence.m=2
divergence.t=1
divergence.n_designs=2
grid.lo=-6
grid.hi=6
grid.points=61
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 0
    _, fields, rows = read_csv(out / "divergence.csv")
    assert len(rows) == 4  # two protocols per design
    col = {name: i for i, name in enumerate(fields)}
    for r in rows:
        assert float(r[col["r_sum_abs_err"]]) < 1e-10
        assert float(r[col["resid_ordering"]]) < 1e-10
        assert float(r[col["resid_kl_decomposition"]]) < 1e-10
        assert float(r[col["expected_kl"]]) >= -1e-10
        if r[col["protocol"]].startswith("uniform"):
            assert float(r[col["expected_divergence"]]) > 0.0
            assert float(r[col["kl_term_a"]]) <= 1e-12


def test_divergence_capacity_exit_4(tmp_path):
    out = tmp_path / "divbig"
    cfg = write_config(tmp_path / "dbig.cfg", f"""
divergence.j=24
divergence.m=12
divergence.n_designs=1
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 4


def test_divergence_refuses_before_the_first_row(tmp_path, capsys,
                                                 monkeypatch):
    """J=5, m=2, T=4: the uniform row (20^4 joint outcomes) is within the
    cap, the importance row (80^4) is not; the run is refused before the
    uniform row's joint loop starts."""
    from soa_lab import divergence_lab

    calls = []
    real = divergence_lab._joint_outcomes
    monkeypatch.setattr(divergence_lab, "_joint_outcomes",
                        lambda *a: calls.append(a) or real(*a))
    out = tmp_path / "divrow"
    cfg = write_config(tmp_path / "drow.cfg", f"""
divergence.j=5
divergence.m=2
divergence.t=4
divergence.n_designs=2
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 4
    assert capsys.readouterr().err == (
        "error: design 0 (importance_seeded): joint enumeration would exceed "
        "1000000 (choice, set) combinations\n")
    assert calls == []
    assert not (out / "divergence.csv").exists()


def test_divergence_refuses_k_above_two_before_any_work(tmp_path, capsys,
                                                        monkeypatch):
    """Every row ends in a grid posterior, which supports K <= 2, so K = 3
    is refused before the first oracle runs."""
    from soa_lab import divergence_lab

    def refuse(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(divergence_lab, "_set_kernel", refuse)
    out = tmp_path / "divk3"
    cfg = write_config(tmp_path / "dk3.cfg", f"""
divergence.j=3
divergence.k=3
divergence.n_designs=1
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "'divergence.k'" in err
    assert "Traceback" not in err
    assert not (out / "divergence.csv").exists()


@pytest.mark.parametrize("mode", ["uniform_constant", "bogus"])
def test_divergence_refuses_a_mode_the_importance_row_cannot_take(
        tmp_path, capsys, monkeypatch, mode):
    """Every design also runs an importance row, which uniform_constant
    cannot correct; that mode and an unknown one exit 2 when the config is
    read, naming the key and the reason."""
    from soa_lab import divergence_lab

    def refuse(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(divergence_lab, "_set_kernel", refuse)
    out = tmp_path / f"div_{mode}"
    cfg = write_config(tmp_path / f"d_{mode}.cfg", f"""
divergence.j=5
divergence.m=3
divergence.t=2
divergence.n_designs=4
correction.mode={mode}
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "'correction.mode'" in err
    assert "importance row" in err
    assert "Traceback" not in err
    assert not (out / "divergence.csv").exists()


@pytest.mark.parametrize("mode,lattices", [("mcfadden", [1, 1]),
                                           ("none", [1, 1])])
def test_divergence_makes_one_pass_per_row(tmp_path, monkeypatch, mode,
                                           lattices):
    """Per (uniform, importance) row: one lattice and one pass over the
    joint outcomes, in either mode: with one ln pi per uniform set the
    entropy check's A is the row's own."""
    from soa_lab import cli, divergence_lab

    counts = {"_lattice": 0, "_joint_outcomes": 0}
    for name in counts:
        real = getattr(divergence_lab, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(divergence_lab, name, counted)
    per_row = []
    real_row = cli._divergence_row

    def row(*args):
        before = dict(counts)
        result = real_row(*args)
        per_row.append(tuple(counts[k] - before[k] for k in counts))
        return result

    monkeypatch.setattr(cli, "_divergence_row", row)
    out = tmp_path / "divpass"
    cfg = write_config(tmp_path / "dpass.cfg", f"""
divergence.j=4
divergence.t=2
divergence.n_designs=1
correction.mode={mode}
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 0
    assert per_row == [(n, 1) for n in lattices]


@pytest.mark.parametrize("mode", ["mcfadden", "none"])
def test_divergence_enumerates_two_tables_per_row(tmp_path, mode):
    """Each row enumerates its feasible table once for the report and once
    inside kl_terms; every other oracle and the realized sets read the
    report's table."""
    from soa_lab import protocols

    out = tmp_path / "divenum"
    cfg = write_config(tmp_path / "denum.cfg", f"""
divergence.j=4
divergence.t=2
divergence.n_designs=2
correction.mode={mode}
seed=2
output.dir={out}
""")
    with mock.patch.object(protocols, "_enumerate",
                           wraps=protocols._enumerate) as enumerate_:
        assert run(["divergence", "--config", cfg]) == 0
    _, _, rows = read_csv(out / "divergence.csv")
    assert enumerate_.call_count == 2 * len(rows) == 8


@hsettings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), J=st.integers(2, 9),
       kind=st.sampled_from(["uniform_wor", "importance_independent"]))
def test_realized_sets_are_the_first_enumerated_rows_bitwise(seed, J, kind):
    """The divergence row's realized set for chosen c is the first row of
    enumerate_sets(protocol, J, c), members and ln pi bit for bit, at
    importance widths of 8 and more too."""
    from soa_lab import cli

    rng = np.random.default_rng(seed)
    protocol = (Protocol(kind, m=int(rng.integers(2, J + 1)))
                if kind == "uniform_wor" else
                Protocol(kind, inclusion_probs=rng.uniform(0.05, 0.95, J)))
    chosen = rng.integers(J, size=int(rng.integers(1, 6)))
    realized = cli._realized_sets(enumerate_feasible_sets(protocol, J), chosen)
    assert len(realized) == chosen.size
    for row, c in zip(realized, chosen.tolist()):
        want = enumerate_sets(protocol, J, c)[0]
        assert np.array_equal(row.member_ids, want.member_ids)
        assert np.array_equal(row.log_cond_prob, want.log_cond_prob)


def test_divergence_rejects_bad_mode_pairing(tmp_path):
    out = tmp_path / "divbad"
    cfg = write_config(tmp_path / "dbad.cfg", f"""
divergence.j=4
correction.mode=uniform_constant
seed=2
output.dir={out}
""")
    assert run(["divergence", "--config", cfg]) == 2


@pytest.mark.parametrize("key", ["divergence.j", "divergence.t",
                                 "divergence.k", "divergence.n_designs"])
def test_divergence_sizes_below_one_are_exit_2(tmp_path, capsys, key):
    out = tmp_path / "o"
    for size in (0, -1):
        cfg = write_config(tmp_path / "dzero.cfg",
                           f"{key}={size}\nseed=2\noutput.dir={out}\n")
        assert run(["divergence", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err
        assert "Traceback" not in err
        assert not (out / "divergence.csv").exists()


_MMNL = "dgp.model=mmnl\ndgp.n=6\ndgp.t=2\ndgp.j=3\ndgp.k=1\n"
_GIBBS = "bayes.method=gibbs\nbayes.iterations=60\nbayes.burn_in=20\n"


@pytest.mark.parametrize("verb,settings,key", [
    ("generate", "dgp.model=mnl\ndgp.n=6\ndgp.j=3\ndgp.k=1\n"
                 "dgp.beta_star=nan", "dgp.beta_star"),
    ("divergence", "divergence.beta_star=inf", "divergence.beta_star"),
    ("generate", _MMNL + "dgp.mu_star=nan\ndgp.sigma_star=0.4", "dgp.mu_star"),
    ("generate", _MMNL + "dgp.mu_star=0.8\ndgp.sigma_star=inf",
     "dgp.sigma_star"),
    ("divergence", "prior.mean=nan", "prior.mean"),
    ("divergence", "prior.cov=nan", "prior.cov"),
    ("bayes", _GIBBS + "prior.m0=nan", "prior.m0"),
    ("bayes", _GIBBS + "prior.a0=inf", "prior.a0"),
    ("bayes", _GIBBS + "prior.s0=nan", "prior.s0"),
    ("bayes", _GIBBS + "prior.v0=inf", "prior.v0"),
    ("divergence", "grid.lo=nan", "grid.lo"),
    ("divergence", "grid.hi=inf", "grid.hi"),
    ("bayes", "bayes.method=rw_metropolis\nbayes.iterations=60\n"
              "bayes.burn_in=20\nbayes.proposal_scale=nan",
     "bayes.proposal_scale"),
    ("bayes", _GIBBS + "bayes.rho=inf", "bayes.rho"),
    ("sample", "protocol.kind=importance_independent\n"
               "protocol.inclusion_probs=0.5, nan, 0.5",
     "protocol.inclusion_probs"),
], ids=["generate", "divergence", "dgp.mu_star", "dgp.sigma_star",
        "prior.mean", "prior.cov", "prior.m0", "prior.a0", "prior.s0",
        "prior.v0", "grid.lo", "grid.hi", "bayes.proposal_scale",
        "bayes.rho", "protocol.inclusion_probs"])
def test_a_non_finite_beta_star_is_exit_2_naming_the_key(tmp_path, capsys,
                                                        verb, settings, key):
    """A non-finite value of a number or list-of-numbers key is refused by
    name, where the config is read, before any output is written."""
    if verb in ("bayes", "sample"):
        dataset = pipeline_generate(tmp_path, name="panel", model="mmnl",
                                    n=6, j=3)
        settings += f"\ninputs.dataset={dataset}"
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "b.cfg",
                       f"{settings}\nseed=2\noutput.dir={out}\n")
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err and "is not finite" in err
    assert "Traceback" not in err
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("settings,key", [
    ("divergence.beta_star=1, 2", "divergence.beta_star"),
    ("divergence.k=2\nprior.mean=1, 2, 3", "prior.mean"),
], ids=["beta_star_at_k1", "prior_mean_at_k2"])
def test_divergence_wrong_length_parameter_is_exit_2(tmp_path, capsys,
                                                     settings, key):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "dlen.cfg",
                       f"{settings}\nseed=2\noutput.dir={out}\n")
    assert run(["divergence", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "Traceback" not in err
    assert not (out / "divergence.csv").exists()


@pytest.mark.parametrize("settings,key,reason", [
    ("grid.points=50", "grid.points", "50 is below 51"),
    ("grid.lo=3\ngrid.hi=3", "grid.lo", "needs hi > lo"),
    ("divergence.m=1", "divergence.m", "1 is below 2"),
    ("divergence.j=5\ndivergence.m=6", "divergence.m",
     "6 exceeds divergence.j = 5"),
    ("prior.cov=-1", "prior.cov", "prior covariance must be PD"),
    ("divergence.beta_star=1, 2", "divergence.beta_star",
     "need 1 entry, got 2"),
    (f"grid.points={PAST_NUMPY}", "grid.points", "cannot be allocated"),
], ids=["grid_points", "grid_bounds", "m_below_2", "m_above_j",
        "prior_cov_not_pd", "beta_star_at_k1", "grid_points_past_numpy"])
def test_divergence_refusals_name_the_key_before_any_work(
        tmp_path, capsys, monkeypatch, settings, key, reason):
    """A divergence setting out of range exits 2 naming its key and the
    reason, before the first oracle runs."""
    from soa_lab import divergence_lab

    def refuse(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(divergence_lab, "_set_kernel", refuse)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "dkey.cfg",
                       f"{settings}\nseed=2\noutput.dir={out}\n")
    assert run(["divergence", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and reason in err
    assert "Traceback" not in err
    assert not (out / "divergence.csv").exists()


def test_generate_refuses_a_non_finite_mixing_mean(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = generate_config(tmp_path, out, model="mmnl")
    write_config(tmp_path / cfg, (tmp_path / cfg).read_text().replace(
        "dgp.mu_star=0.8", "dgp.mu_star=nan"))
    assert run(["generate", "--config", cfg]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


_DGP = {"mnl": {"dgp.model": "mnl", "dgp.n": "6", "dgp.j": "3", "dgp.k": "2",
                "dgp.beta_star": "0.8"},
        "mmnl": {"dgp.model": "mmnl", "dgp.n": "6", "dgp.t": "2", "dgp.j": "3",
                 "dgp.k": "2", "dgp.mu_star": "0.8", "dgp.sigma_star": "0.4"}}


def dgp_config(tmp_path, out, model, settings=""):
    pairs = dict(_DGP[model], seed="1", **{"output.dir": str(out)})
    pairs.update(line.split("=", 1) for line in settings.splitlines())
    return write_config(tmp_path / "g.cfg",
                        "".join(f"{k}={v}\n" for k, v in pairs.items()))


@pytest.mark.parametrize("model,settings,key", [
    ("mnl", "dgp.n=100000000000000000000000000", "dgp.n"),
    ("mnl", f"dgp.j={PAST_NUMPY}", "dgp.j"),
    ("mmnl", f"dgp.t={PAST_NUMPY}", "dgp.t"),
    ("mnl", "dgp.n=0", "dgp.n"),
    ("mnl", "dgp.j=-1", "dgp.j"),
    ("mnl", "dgp.k=0", "dgp.k"),
    ("mmnl", "dgp.t=0", "dgp.t"),
    ("mnl", "dgp.covariate_law=foo", "dgp.covariate_law"),
    ("mnl", "dgp.beta_star=1, 2, 3", "dgp.beta_star"),
    ("mmnl", "dgp.mu_star=1, 2, 3", "dgp.mu_star"),
    ("mmnl", "dgp.sigma_star=1, 2, 2, 1", "dgp.sigma_star"),
    ("mmnl", "dgp.sigma_star=1, 0.5, 0, 1", "dgp.sigma_star"),
], ids=["n_past_numpy", "j_past_numpy", "t_past_numpy", "n_0",
        "j_negative", "k_0", "t_0", "law_unknown",
        "beta_star_at_k2", "mu_star_at_k2", "sigma_star_not_pd",
        "sigma_star_not_symmetric"])
def test_generate_setting_out_of_range_is_exit_2(tmp_path, capsys, model,
                                                settings, key):
    """A data-generating setting the library refuses exits 2 naming its
    config key, without a traceback or an output file."""
    out = tmp_path / "o"
    assert run(["generate", "--config",
                dgp_config(tmp_path, out, model, settings)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("model", ["mnl", "mmnl"])
def test_generate_attributes_numpy_cannot_allocate_are_exit_2(
        tmp_path, capsys, monkeypatch, model):
    """A generator that runs out of memory is refused naming dgp.n."""
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(f"soa_lab.cli.generate_{model}", exhaust)
    out = tmp_path / "o"
    assert run(["generate", "--config", dgp_config(tmp_path, out, model)]) == 2
    err = capsys.readouterr().err
    assert "config key 'dgp.n'" in err and "cannot be allocated" in err
    assert not any(out.iterdir())


_PANEL_RUNS = {
    "msl": "fit.estimator=mmnl_msl\nfit.r_draws=5",
    "chains": "bayes.method=rw_metropolis\nbayes.iterations=200\n"
              "bayes.burn_in=100\nbayes.chains=100000000000000",
    "metropolis": "bayes.method=rw_metropolis\n"
                  "bayes.iterations=100000000000000\nbayes.burn_in=100",
    "gibbs": "bayes.method=gibbs\nbayes.iterations=100000000000000\n"
             "bayes.burn_in=50",
}


@pytest.mark.parametrize("verb,run_name,patched,key", [
    ("fit", "msl", "soa_lab.cli.fit_mmnl_msl", "fit.r_draws"),
    ("bayes", "chains", "soa_lab.cli.rw_metropolis", "bayes.chains"),
    ("bayes", "metropolis", "soa_lab.cli.rw_metropolis", "bayes.iterations"),
    ("bayes", "gibbs", "soa_lab.cli.run_gibbs", "bayes.iterations"),
    ("divergence", None, "soa_lab.divergence_lab.build_divergence_report",
     "grid.points"),
], ids=["r_draws", "chains", "metropolis_iterations", "gibbs_iterations",
        "grid_points"])
def test_a_run_that_runs_out_of_memory_is_exit_2_naming_its_key(
        tmp_path, capsys, monkeypatch, verb, run_name, patched, key):
    """A run whose allocation raises MemoryError (here a monkeypatched
    one, so nothing large is allocated) is refused naming the config key
    that sized it."""
    def exhaust(*args, **kwargs):
        raise MemoryError

    if verb == "divergence":
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "d.cfg", "divergence.j=3\n"
                           "divergence.n_designs=1\nseed=2\n"
                           f"output.dir={out}\n")
    else:
        dataset = pipeline_generate(tmp_path, name="panel", model="mmnl",
                                    n=8, j=3)
        cfg = run_config(tmp_path, dataset, extra=_PANEL_RUNS[run_name])
        out = tmp_path / "run_out"
    monkeypatch.setattr(patched, exhaust)
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "cannot be allocated" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("model,key", [("mnl", "dgp.beta_star"),
                                       ("mmnl", "dgp.mu_star")])
def test_generate_coefficient_vector_repeats_one_value(tmp_path, model, key):
    """One value of a K=2 coefficient vector is that value twice."""
    data = []
    for value in ("0.8", "0.8, 0.8"):
        out = tmp_path / value.replace(", ", "_")
        cfg = dgp_config(tmp_path, out, model, f"{key}={value}")
        assert run(["generate", "--config", cfg]) == 0
        dataset, _ = read_dataset_csv(out / "dataset.csv")
        data.append((dataset.attribute_tensor(), dataset.chosen_ids()))
    assert all(np.array_equal(a, b) for a, b in zip(*data))


# ---------------------------------------------------------------------------
# malformed inputs, numerical failures, one likelihood build per verb
# ---------------------------------------------------------------------------

def corrupt_first_row_of(path, prefix, edit):
    """Apply edit to the first line starting with prefix; its line number."""
    lines = path.read_text().splitlines()
    lineno = next(i for i, ln in enumerate(lines, 1) if ln.startswith(prefix))
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    return lineno


def run_config(tmp_path, dataset, sets=None, extra=""):
    sampled = ("" if sets is None else
               f"inputs.sets={sets}\ncorrection.sets=sampled\n")
    return write_config(tmp_path / "run.cfg", f"""
inputs.dataset={dataset}
{sampled}{extra}
seed=1
output.dir={tmp_path / 'run_out'}
""")


@pytest.mark.parametrize("edit", [
    lambda ln: ln.rsplit(",", 1)[0] + ",abc",  # non-numeric attribute
    lambda ln: "3.5," + ln.split(",", 1)[1],   # non-integer obs_id
    lambda ln: ln.rsplit(",", 1)[0],           # short row
    lambda ln: ln.rsplit(",", 1)[0] + ",nan",  # non-finite attribute
], ids=["non_numeric", "non_integer", "short_row", "nan_attribute"])
def test_malformed_dataset_is_exit_2_naming_the_line(tmp_path, capsys, edit):
    dataset = pipeline_generate(tmp_path, n=10)
    lineno = corrupt_first_row_of(dataset, "3,", edit)
    assert run(["fit", "--config", run_config(tmp_path, dataset)]) == 2
    err = capsys.readouterr().err
    assert f"{dataset}:{lineno}:" in err
    assert "Traceback" not in err


def test_dataset_obs_id_gap_is_exit_2_naming_the_line(tmp_path, capsys):
    dataset = pipeline_generate(tmp_path, n=10)
    lines = dataset.read_text().splitlines()
    # observation 3 becomes 10: ten distinct ids, but not 0..9
    lineno = next(i for i, ln in enumerate(lines, 1) if ln.startswith("3,"))
    dataset.write_text("".join(
        ("10," + ln[2:] if ln.startswith("3,") else ln) + "\n" for ln in lines))
    assert run(["fit", "--config", run_config(tmp_path, dataset)]) == 2
    err = capsys.readouterr().err
    assert (f"{dataset}:{lineno}: obs_id 10 outside 0..9: observation ids "
            "are not dense") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda ln: ln.rsplit(",", 1)[0] + ",x",  # non-numeric log_cond_prob
    lambda ln: ln.rsplit(",", 1)[0],         # short row
    lambda ln: ln.split(",")[0] + ",99," + ln.split(",")[2],  # alt_id range
    lambda ln: ln.rsplit(",", 1)[0] + ",nan",  # non-finite log_cond_prob
    lambda ln: ln.rsplit(",", 1)[0] + ",1.0",  # positive log_cond_prob
    lambda ln: ln + "\n" + ln,                 # repeated (obs, alt) row
], ids=["non_numeric", "short_row", "alt_id_out_of_range", "nan_log_prob",
        "positive_log_prob", "repeated_row"])
def test_malformed_sets_are_exit_2_naming_the_line(tmp_path, capsys, edit):
    dataset = pipeline_generate(tmp_path, n=10)
    sets = sample_sets(tmp_path, dataset)
    lineno = corrupt_first_row_of(sets, "4,", edit)
    assert run(["fit", "--config", run_config(tmp_path, dataset, sets)]) == 2
    err = capsys.readouterr().err
    assert f"{sets}:{lineno}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb,settings", [
    ("fit", "fit.estimator=mnl"),
    ("bayes", "bayes.method=rw_metropolis\nbayes.iterations=200\n"
              "bayes.burn_in=100"),
])
def test_a_set_without_its_chosen_alternative_is_exit_2_naming_the_line(
        tmp_path, capsys, verb, settings):
    """Without observation 0's record of its chosen alternative, the error
    used to name the set but not the file and line."""
    dataset = pipeline_generate(tmp_path, n=10)
    sets = sample_sets(tmp_path, dataset)
    chosen = read_dataset_csv(dataset)[0].chosen_ids()[0]
    lines = [ln for ln in sets.read_text().splitlines()
             if not ln.startswith(f"0,{chosen},")]
    sets.write_text("".join(ln + "\n" for ln in lines))
    lineno = next(i for i, ln in enumerate(lines, 1) if ln.startswith("0,"))
    cfg = run_config(tmp_path, dataset, sets, extra=settings)
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert (f"{sets}:{lineno}: sampled set 0 lacks its chosen alternative "
            f"{chosen}") in err
    assert "Traceback" not in err


def test_numerical_degeneracy_is_exit_2(tmp_path, capsys, monkeypatch):
    from soa_lab import NumericalDegeneracyError, cli

    def degenerate(*args, **kwargs):
        raise NumericalDegeneracyError("sigma is not positive definite")

    monkeypatch.setattr(cli, "run_gibbs", degenerate)
    dataset = pipeline_generate(tmp_path, name="panel", model="mmnl", n=6, j=3)
    cfg = write_config(tmp_path / "g.cfg", f"""
inputs.dataset={dataset}
bayes.method=gibbs
bayes.iterations=160
bayes.burn_in=40
seed=4
output.dir={tmp_path / 'gibbs'}
""")
    assert run(["bayes", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: sigma is not positive definite" in err
    assert "Traceback" not in err


def test_singular_mu_precision_finishes_without_a_traceback(tmp_path,
                                                             capsys):
    """A prior.s0 singular to working precision (a rotated
    diag(1, 1, 1e-16)) makes a mu step's precision singular; the Gibbs run
    retries it as a numerical degeneracy and finishes."""
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    s0 = Q @ np.diag([1.0, 1.0, 1e-16]) @ Q.T
    gen = write_config(tmp_path / "gen.cfg", f"""
dgp.model=mmnl
dgp.n=50
dgp.t=3
dgp.j=4
dgp.k=3
dgp.mu_star=1,0,-1
dgp.sigma_star=0.5
seed=3
output.dir={tmp_path / 'panel'}
""")
    assert run(["generate", "--config", gen]) == 0
    dataset = tmp_path / "panel" / "dataset.csv"
    cfg = write_config(tmp_path / "g.cfg", f"""
inputs.dataset={dataset}
bayes.method=gibbs
bayes.iterations=200
bayes.burn_in=100
prior.s0={",".join(map(repr, s0.ravel().tolist()))}
seed=3
output.dir={tmp_path / 'gibbs'}
""")
    assert run(["bayes", "--config", cfg]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb,settings", [
    ("bayes", "bayes.method=rw_metropolis\nbayes.iterations=200\n"
              "bayes.burn_in=100\nbayes.chains=2"),
    ("bayes", "bayes.method=gibbs\nbayes.iterations=150\nbayes.burn_in=50"),
    ("fit", "fit.estimator=mnl"),
    ("fit", "fit.estimator=mmnl_msl\nfit.wn_mode=exact_full_set\n"
            "fit.r_draws=5"),
], ids=["rw_metropolis", "gibbs", "mnl", "mmnl_msl"])
def test_one_likelihood_build_per_verb(tmp_path, monkeypatch, verb, settings):
    from soa_lab import ChoiceArrays

    dataset = pipeline_generate(tmp_path, name="panel", model="mmnl", n=8, j=3)
    sets = sample_sets(tmp_path, dataset)
    builds = []
    build = ChoiceArrays.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(ChoiceArrays, "__init__", counted)
    cfg = run_config(tmp_path, dataset, sets, extra=settings)
    assert run([verb, "--config", cfg]) == 0
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# the closed config contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("verb,key", [
    ("bayes", "bayes.chainz"), ("bayes", "runtime.threads"),
    ("fit", "bayes.chains"), ("generate", "protocol.m"),
], ids=["misspelt", "runtime_threads", "other_verbs_key", "sample_key"])
def test_unknown_config_key_is_exit_2_naming_the_line(tmp_path, capsys, verb,
                                                      key):
    cfg = write_config(tmp_path / "c.cfg", f"seed = 1\n# note\n{key} = 4\n")
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3: unknown key {key!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("method,key", [
    ("gibbs", "bayes.chains"), ("gibbs", "bayes.proposal_scale"),
    ("gibbs", "prior.mean"), ("gibbs", "prior.cov"),
    ("rw_metropolis", "bayes.thin"), ("rw_metropolis", "bayes.rho"),
    ("rw_metropolis", "bayes.store_beta_n"), ("rw_metropolis", "prior.m0"),
    ("rw_metropolis", "prior.a0"), ("rw_metropolis", "prior.s0"),
    ("rw_metropolis", "prior.v0"),
])
def test_bayes_key_the_method_does_not_read_is_exit_2(tmp_path, capsys,
                                                      method, key):
    """gibbs with bayes.chains = 4 used to run one chain, and rw_metropolis
    with bayes.thin = 5 kept every draw; each now names the key's line."""
    dataset = pipeline_generate(tmp_path, name="panel", model="mmnl", n=6, j=3)
    out = tmp_path / "b"
    cfg = write_config(tmp_path / "b.cfg", f"""inputs.dataset={dataset}
bayes.method={method}
{key}=4
bayes.iterations=200
bayes.burn_in=100
seed=1
output.dir={out}
""")
    assert run(["bayes", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3: unknown key {key!r}" in err
    assert "Traceback" not in err
    assert not (out / "draws.csv").exists()


@pytest.mark.parametrize("verb,settings,key,selected", [
    ("generate", "dgp.model=mnl\ndgp.n=6\ndgp.j=3\ndgp.k=1\n"
                 "dgp.beta_star=1\ndgp.t=3", "dgp.t", "dgp.model = mnl"),
    ("generate", "dgp.model=mmnl\ndgp.n=6\ndgp.t=2\ndgp.j=3\ndgp.k=1\n"
                 "dgp.mu_star=1\ndgp.sigma_star=1\ndgp.beta_star=1",
     "dgp.beta_star", "dgp.model = mmnl"),
    ("sample", "protocol.kind=uniform_wor\nprotocol.m=2\n"
               "protocol.inclusion_probs=0.5", "protocol.inclusion_probs",
     "protocol.kind = uniform_wor"),
    ("sample", "protocol.kind=importance_independent\n"
               "protocol.inclusion_probs=0.5\nprotocol.m=2", "protocol.m",
     "protocol.kind = importance_independent"),
    ("fit", "correction.mode=mcfadden\ninputs.sets=missing.csv",
     "correction.mode", "correction.sets = full"),
    ("fit", "fit.estimator=mnl\nfit.wn_mode=naive_one\nfit.r_draws=5",
     "fit.wn_mode", "fit.estimator = mnl"),
    ("bayes", "bayes.method=gibbs\nbayes.iterations=200\nbayes.burn_in=100\n"
              "bayes.chains=4", "bayes.chains", "bayes.method = gibbs"),
], ids=["dgp_mnl", "dgp_mmnl", "protocol_uniform", "protocol_importance",
        "correction_full", "fit_mnl", "bayes_gibbs"])
def test_a_key_the_selected_branch_does_not_read_is_exit_2(
        tmp_path, capsys, verb, settings, key, selected):
    """Apart from bayes, each of these runs used to finish with the key
    ignored; now the key's line is named, with the switch that left it
    unread."""
    dataset = pipeline_generate(tmp_path, name="panel", model="mmnl", n=6, j=3)
    lines = ([] if verb == "generate" else [f"inputs.dataset={dataset}"])
    lines += [*settings.split("\n"), "seed=1", f"output.dir={tmp_path / 'o'}"]
    cfg = write_config(tmp_path / "c.cfg", "\n".join(lines) + "\n")
    lineno = next(i for i, ln in enumerate(lines, 1)
                  if ln.startswith(f"{key}="))
    assert run([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}: unknown key {key!r} with {selected}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
