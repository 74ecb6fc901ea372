"""CSV/manifest plumbing: round trips, hashing, lineage refusal."""

import numpy as np
import pytest

from soa_lab import (ConfigError, Dataset, InvalidInputError, MnlDgpConfig,
                     PosteriorDraws, Protocol, UtilityParams, config_hash,
                     derive_stream, draw_sampled_set, file_hash, fmt,
                     generate_mnl, posterior_summary, read_csv,
                     read_dataset_csv, read_manifest, read_sets_csv,
                     verify_lineage, write_csv, write_dataset_csv,
                     write_draws_csv, write_manifest, write_report_csv,
                     write_sets_csv, write_summary_csv)


def small_dataset(seed=0, N=12, J=4, K=2):
    cfg = MnlDgpConfig(N=N, J=J, K=K, beta_star=UtilityParams(np.ones(K)),
                       seed=seed)
    return generate_mnl(cfg)


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def test_fmt_round_trips_floats():
    assert fmt(0.1) == "0.1"
    assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert fmt(np.float64(2.5)) == "2.5"
    assert fmt(7) == "7"
    assert fmt(True) == "True"
    assert fmt("uniform_wor") == "uniform_wor"


def test_config_hash_is_order_insensitive_and_filtered():
    a = {"dgp.n": "100", "dgp.j": "5", "seed": "1"}
    b = {"seed": "1", "dgp.j": "5", "dgp.n": "100"}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    # output/runtime settings never perturb the hash
    c = dict(a, **{"output.dir": "/tmp/x", "runtime.threads": "8"})
    assert config_hash(c) == config_hash(a)
    d = dict(a, seed="2")
    assert config_hash(d) != config_hash(a)


def test_file_hash_tracks_content(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("alpha")
    h1 = file_hash(p)
    p.write_text("beta")
    assert file_hash(p) != h1
    assert len(h1) == 12


# ---------------------------------------------------------------------------
# generic csv layer
# ---------------------------------------------------------------------------

def test_csv_round_trip_with_headers(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, {"config_hash": "abc", "kind": "demo"}, ["a", "b"],
              [[1, 0.5], [2, 0.25]])
    meta, fields, rows = read_csv(p)
    assert meta == {"config_hash": "abc", "kind": "demo"}
    assert fields == ["a", "b"]
    assert rows == [["1", "0.5"], ["2", "0.25"]]
    text = p.read_text()
    assert text.startswith("# config_hash=abc\n# kind=demo\n")


def test_csv_writes_are_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        write_csv(p, {"h": "v"}, ["x"], [[1.0 / 3.0]])
    assert p1.read_bytes() == p2.read_bytes()


def test_lineage_refusal():
    verify_lineage({"dataset_hash": "abc"}, "dataset_hash", "abc", "sets file")
    with pytest.raises(ConfigError):
        verify_lineage({"dataset_hash": "abc"}, "dataset_hash", "def",
                       "sets file")
    with pytest.raises(ConfigError):
        verify_lineage({}, "dataset_hash", "abc", "sets file")


# ---------------------------------------------------------------------------
# dataset and sets files
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    ds = small_dataset()
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ds, {"config_hash": "h"})
    back, meta = read_dataset_csv(p)
    assert meta["config_hash"] == "h"
    assert back.n_obs == ds.n_obs and back.J == ds.J and back.K == ds.K
    assert np.array_equal(back.attribute_tensor(), ds.attribute_tensor())
    assert np.array_equal(back.chosen_ids(), ds.chosen_ids())
    assert np.array_equal(back.individual_ids(), ds.individual_ids())


def test_dataset_reader_rejects_malformed_choice_column(tmp_path):
    ds = small_dataset(N=3)
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ds, {})
    lines = p.read_text().splitlines()
    # flip every chosen flag of the first observation to zero
    fixed = []
    for ln in lines:
        parts = ln.split(",")
        if ln.startswith("0,") and parts[3] == "1":
            parts[3] = "0"
            ln = ",".join(parts)
        fixed.append(ln)
    p.write_text("\n".join(fixed) + "\n")
    with pytest.raises(InvalidInputError):
        read_dataset_csv(p)


def test_sets_round_trip(tmp_path):
    ds = small_dataset(N=15, J=5)
    sets = [draw_sampled_set(Protocol("uniform_wor", m=3), o,
                             derive_stream(2, o.obs_id))
            for o in ds.observations]
    p = tmp_path / "s.csv"
    write_sets_csv(p, sets, {"dataset_hash": "xyz"})
    back, meta = read_sets_csv(p, n_obs=15, J=5)
    assert meta["dataset_hash"] == "xyz"
    assert len(back) == 15
    for s, b in zip(sets, back):
        assert np.array_equal(s.member_ids, b.member_ids)
        assert np.array_equal(s.log_cond_prob, b.log_cond_prob)


def test_sets_reader_checks_observation_count(tmp_path):
    ds = small_dataset(N=4, J=4)
    sets = [draw_sampled_set(Protocol("uniform_wor", m=2), o,
                             derive_stream(2, o.obs_id))
            for o in ds.observations]
    p = tmp_path / "s.csv"
    write_sets_csv(p, sets, {})
    with pytest.raises(InvalidInputError):
        read_sets_csv(p, n_obs=5, J=4)


# ---------------------------------------------------------------------------
# report, draws, summary, manifest
# ---------------------------------------------------------------------------

def test_report_rows(tmp_path):
    p = tmp_path / "r.csv"
    write_report_csv(p, [("run", "hash", "loglik", -12.5, "se=0.1")],
                     {"config_hash": "hash"})
    meta, fields, rows = read_csv(p)
    assert fields == ["run_id", "config_hash", "metric", "value", "context"]
    assert rows[0][2] == "loglik"
    assert float(rows[0][3]) == -12.5


def test_draws_csv_iteration_column(tmp_path):
    draws = PosteriorDraws(np.arange(12, dtype=float).reshape(1, 6, 2),
                           1, 100, np.array([0.3]), seed=0,
                           param_names=["mu_0", "sigma_0_0"])
    p = tmp_path / "dr.csv"
    write_draws_csv(p, draws, {}, thin=10)
    _, fields, rows = read_csv(p)
    assert fields == ["chain", "iteration", "mu_0", "sigma_0_0"]
    assert [r[1] for r in rows] == ["100", "110", "120", "130", "140", "150"]


def test_summary_csv_contains_acceptance_rows(tmp_path):
    rng = np.random.default_rng(0)
    draws = PosteriorDraws(rng.normal(size=(2, 200, 1)), 2, 0,
                           np.array([0.25, 0.35]), seed=0, param_names=["b"])
    p = tmp_path / "sm.csv"
    write_summary_csv(p, posterior_summary(draws), {})
    _, fields, rows = read_csv(p)
    assert fields == ["parameter", "mean", "sd", "q025", "median", "q975", "ess"]
    names = [r[0] for r in rows]
    assert names == ["b", "acceptance_chain_0", "acceptance_chain_1"]
    assert float(rows[1][1]) == 0.25


def test_manifest_round_trip_and_determinism(tmp_path):
    payload = {"command": "fit", "config_hash": "abc",
               "outputs": {"report": "deadbeef"}}
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(p1, payload)
    write_manifest(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_manifest(p1) == payload
    assert b"time" not in p1.read_bytes().lower()
