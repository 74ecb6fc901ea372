"""CSV/manifest plumbing: round trips, hashing, lineage refusal."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from csv_reference import fmt, read_csv, read_manifest, render_csv
from draw_reference import table_from_sets
from soa_lab import storage
from soa_lab import (ConfigError, Dataset, InvalidInputError, MnlDgpConfig,
                     PosteriorDraws, Protocol, SampledSet,
                     config_hash, draw_set_table, file_hash,
                     generate_mnl,
                     posterior_summary, read_dataset_csv, read_sets_csv,
                     verify_lineage, write_csv, write_dataset_csv,
                     write_draws_csv, write_manifest, write_report_csv,
                     write_sets_csv, write_summary_csv)


def small_dataset(seed=0, N=12, J=4, K=2):
    cfg = MnlDgpConfig(N=N, J=J, K=K, beta_star=np.ones(K),
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
    # the output directory never perturbs the hash
    c = dict(a, **{"output.dir": "/tmp/x"})
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


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1])
def test_file_hash_is_the_sha256_of_the_bytes(tmp_path, size):
    p = tmp_path / "x.bin"
    p.write_bytes(np.random.default_rng(size).bytes(size))
    assert file_hash(p) == hashlib.sha256(p.read_bytes()).hexdigest()[:12]


def test_file_hash_memory_does_not_grow_with_the_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(np.random.default_rng(0).bytes(8 << 20))
    tracemalloc.start()
    try:
        file_hash(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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


def test_dataset_reader_takes_rows_in_any_order(tmp_path):
    ds = small_dataset(N=30, J=5, K=3)
    canonical, shuffled = tmp_path / "d.csv", tmp_path / "shuffled.csv"
    write_dataset_csv(canonical, ds, {"config_hash": "h"})
    lines = canonical.read_text().splitlines(keepends=True)
    head, data = lines[:2], lines[2:]
    order = np.random.default_rng(5).permutation(len(data))
    shuffled.write_text("".join(head + [data[i] for i in order]))
    back, meta = read_dataset_csv(shuffled)
    write_dataset_csv(tmp_path / "again.csv", back, meta)
    assert (tmp_path / "again.csv").read_bytes() == canonical.read_bytes()


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
    sets = draw_set_table(Protocol("uniform_wor", m=3), ds.chosen_ids(),
                          ds.J, 2)
    p = tmp_path / "s.csv"
    write_sets_csv(p, sets, {"dataset_hash": "xyz"})
    back, meta = read_sets_csv(p, ds.chosen_ids(), J=5)
    assert meta["dataset_hash"] == "xyz"
    assert len(back) == 15
    for s, b in zip(sets, back):
        assert np.array_equal(s.member_ids, b.member_ids)
        assert np.array_equal(s.log_cond_prob, b.log_cond_prob)


def test_sets_reader_checks_observation_count(tmp_path):
    ds = small_dataset(N=4, J=4)
    sets = draw_set_table(Protocol("uniform_wor", m=2), ds.chosen_ids(),
                          ds.J, 2)
    p = tmp_path / "s.csv"
    write_sets_csv(p, sets, {})
    with pytest.raises(InvalidInputError):
        read_sets_csv(p, np.append(ds.chosen_ids(), 0), J=4)


def test_a_bad_row_is_named_after_a_logarithmic_number_of_parses(
        tmp_path, monkeypatch):
    ds = small_dataset(N=4096, J=4)
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ds, {})
    lines = p.read_text().splitlines()
    n_rows = len(lines) - 1
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",abc"   # last row
    lines[-3] = lines[-3] + ",1.0"                     # an earlier one
    p.write_text("\n".join(lines) + "\n")
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: (
        calls.append(1), loadtxt(*a, **k))[1])
    with pytest.raises(InvalidInputError,
                       match=rf"d.csv:{len(lines) - 2}: .*7 were found"):
        read_dataset_csv(p)
    # one bulk parse, one per halving, one to word the message
    assert len(calls) <= 2 + int(np.ceil(np.log2(n_rows)))


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


# ---------------------------------------------------------------------------
# the column writer against the row-wise reference, and bulk-reader round trips
# ---------------------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
               0.1, 1.0 / 3.0, float("nan"), float("inf"), float("-inf")]


def float_arrays(n, finite=False):
    edge = [v for v in EDGE_FLOATS if np.isfinite(v)] if finite else EDGE_FLOATS
    elements = st.one_of(st.floats(allow_nan=not finite,
                                   allow_infinity=not finite),
                         st.sampled_from(edge))
    return hnp.arrays(np.float64, n, elements=elements)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_column_writer_matches_the_row_reference(tmp_path_factory, data):
    n = data.draw(st.integers(0, 25))
    ints = data.draw(hnp.arrays(np.int64, n, elements=st.integers(
        -2 ** 63, 2 ** 63 - 1)))
    floats = data.draw(float_arrays(n))
    flags = data.draw(hnp.arrays(np.bool_, n))
    mixed = data.draw(st.lists(st.one_of(st.integers(), st.floats(),
                                         st.booleans()),
                               min_size=n, max_size=n))
    text = data.draw(st.lists(st.text(alphabet='ab ,"\n;=[]'),
                              min_size=n, max_size=n))
    fields = ["i", "x", "flag", "mixed", "text,quoted"]
    path = tmp_path_factory.mktemp("w") / "t.csv"
    storage._write_columns(path, {"h": "v"}, fields,
                           [ints, floats, flags, mixed, text])
    rows = [list(r) for r in zip(ints, floats, flags, mixed, text)]
    assert path.read_text(encoding="utf-8") == render_csv({"h": "v"}, fields,
                                                          rows)


def test_column_writer_bytes_do_not_depend_on_the_chunk_size(tmp_path,
                                                             monkeypatch):
    n = len(EDGE_FLOATS)
    fields = ["i", "x", "mixed", "flag"]
    columns = [np.arange(n) * (2 ** 62 // n), np.array(EDGE_FLOATS),
               [1, 2.5, True, "a,b"] * 3 + [0, -0.0, 7],
               np.arange(n) % 3 == 0]
    rows = [list(r) for r in zip(*columns)]
    # cell budgets below, at and above one row's width, some dividing neither
    # the width nor the row count
    for cells in (1, 2, 3, 5, len(fields), 1 << 15):
        monkeypatch.setattr(storage, "_CHUNK_CELLS", cells)
        storage._write_columns(tmp_path / "t.csv", {"h": "v"}, fields, columns)
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == render_csv(
            {"h": "v"}, fields, rows)


def test_column_writer_memory_does_not_grow_with_the_row_count(tmp_path):
    def peak(n):
        rng = np.random.default_rng(n)
        columns = [np.repeat(np.arange(n // 8), 8), rng.integers(0, 50, n),
                   np.tile(np.arange(8), n // 8), rng.integers(0, 2, n),
                   rng.normal(size=n), rng.normal(size=n)]
        tracemalloc.start()
        try:
            storage._write_columns(tmp_path / "t.csv", {"h": "v"},
                                   list("abcdef"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(1 << 17) - peak(1 << 14) < 1 << 20


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bulk_readers_round_trip_bit_for_bit(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    J = data.draw(st.integers(1, 4))
    K = data.draw(st.integers(1, 3))
    X = data.draw(float_arrays((n, J, K), finite=True))
    chosen = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, J - 1)))
    ind = data.draw(hnp.arrays(np.int64, n, elements=st.integers(
        -2 ** 63, 2 ** 63 - 1)))
    ds = Dataset.from_arrays(X, chosen, ind)
    d = tmp_path_factory.mktemp("rt")
    write_dataset_csv(d / "d.csv", ds, {"config_hash": "h"})
    back, _ = read_dataset_csv(d / "d.csv")
    assert back.attribute_tensor().tobytes() == X.tobytes()
    assert np.array_equal(back.chosen_ids(), chosen)
    assert np.array_equal(back.individual_ids(), ind)

    lcp_cells = st.one_of(st.floats(max_value=0.0, allow_nan=False,
                                    allow_infinity=False),
                          st.sampled_from([v for v in EDGE_FLOATS
                                           if np.isfinite(v) and v <= 0.0]))
    sets = table_from_sets([
        SampledSet(members, data.draw(hnp.arrays(np.float64, members.size,
                                                 elements=lcp_cells)))
        for members in (np.array(data.draw(st.lists(
            st.integers(0, J - 1), min_size=1, max_size=J, unique=True)))
            for _ in range(n))])
    write_sets_csv(d / "s.csv", sets, {})
    back_sets, _ = read_sets_csv(d / "s.csv", sets.member_ids[:, 0], J=J)
    assert np.array_equal(back_sets.member_ids, sets.member_ids)
    assert np.array_equal(back_sets.pad, sets.pad)
    assert back_sets.log_cond_prob.tobytes() == sets.log_cond_prob.tobytes()
