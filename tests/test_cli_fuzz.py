"""Mutated config, dataset.csv and sets.csv files through the ``fit`` verb.

Whatever the mutation, the verb ends with a documented exit code and no
traceback.  Every mutation of one data row is a fault, reported with exit
2 and ``path:line`` naming the mutated line or the first line of its
observation.
"""

import contextlib
import io
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from soa_lab.cli import main

N, J = 6, 3
OUT_OF_RANGE = {("dataset.csv", 0): ["-1", str(N + 4), "10" * 12],
                ("dataset.csv", 2): ["-1", str(J + 2)],
                ("dataset.csv", 3): ["2", "-1"],
                ("sets.csv", 0): ["-1", str(N)],
                ("sets.csv", 1): ["-1", str(J)],
                ("sets.csv", 2): ["0.5", "1e300"]}
ROW_FAULTS = ("drop_cell", "extra_cell", "non_numeric", "non_integer", "nan",
              "out_of_range", "duplicate_row")


def _silent(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    (d / "gen.cfg").write_text(
        f"dgp.model = mnl\ndgp.n = {N}\ndgp.j = {J}\ndgp.k = 2\n"
        f"dgp.beta_star = 0.5, -0.5\nseed = 3\noutput.dir = {d}\n")
    (d / "sample.cfg").write_text(
        f"inputs.dataset = {d / 'dataset.csv'}\nprotocol.kind = uniform_wor\n"
        f"protocol.m = 2\nseed = 4\noutput.dir = {d / 'sets'}\n")
    assert _silent(["generate", "--config", str(d / "gen.cfg")])[0] == 0
    assert _silent(["sample", "--config", str(d / "sample.cfg")])[0] == 0
    shutil.copy(d / "sets" / "sets.csv", d / "sets.csv")
    return d


def _data_lines(lines):
    """Indices of data rows: after the '#' header block and field names."""
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    return list(range(first + 1, len(lines)))


def _mutate_row(data, name, cells):
    kind = data.draw(st.sampled_from(ROW_FAULTS), label="fault")
    int_cols = ([0, 1, 2, 3] if name == "dataset.csv" else [0, 1])
    if kind == "drop_cell":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    elif kind == "extra_cell":
        cells.insert(data.draw(st.integers(0, len(cells))), "0")
    elif kind == "non_numeric":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
            st.sampled_from(["abc", "", "1e", "--1", "0x1"]))
    elif kind == "non_integer":
        cells[data.draw(st.sampled_from(int_cols))] = data.draw(
            st.sampled_from(["1.0", "0.5", "1e3"]))
    elif kind == "nan":
        col = data.draw(st.sampled_from(int_cols + [len(cells) - 1]))
        cells[col] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "out_of_range":
        col = data.draw(st.sampled_from(
            [c for (f, c) in OUT_OF_RANGE if f == name]))
        cells[col] = data.draw(st.sampled_from(OUT_OF_RANGE[(name, col)]))
    return kind


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_end_cleanly(inputs, tmp_path_factory, data):
    d = tmp_path_factory.mktemp("run")
    for name in ("dataset.csv", "sets.csv"):
        shutil.copy(inputs / name, d / name)
    config = [f"inputs.dataset = {d / 'dataset.csv'}",
              f"inputs.sets = {d / 'sets.csv'}", "correction.sets = sampled",
              "correction.mode = mcfadden", "fit.estimator = mnl", "seed = 1",
              f"output.dir = {d / 'out'}"]
    target = data.draw(st.sampled_from(["config", "dataset.csv", "sets.csv"]),
                       label="target")
    named = None  # (path, acceptable line numbers) the error must name
    if target == "config":
        at = data.draw(st.integers(0, len(config)), label="line")
        if data.draw(st.booleans(), label="unknown_key"):
            key = data.draw(st.from_regex(r"[a-z]{1,6}\.[a-z_]{1,8}",
                                          fullmatch=True), label="key")
            config.insert(at, f"{key} = 1")
            if key not in {c.split(" = ")[0] for c in config[:at]
                           + config[at + 1:]}:
                named = (d / "c.cfg", {at + 1})
        else:
            i = data.draw(st.integers(0, len(config) - 1), label="copied")
            config.insert(at, config[i])  # a duplicated key
            named = (d / "c.cfg", {at + 1, i + 1 + (i >= at)})
    else:
        path = d / target
        lines = path.read_text().splitlines()
        k = data.draw(st.sampled_from(_data_lines(lines)), label="row")
        cells = lines[k].split(",")
        obs = cells[0]
        first_of_obs = next(i for i in _data_lines(lines)
                            if lines[i].split(",")[0] == obs)
        if _mutate_row(data, target, cells) == "duplicate_row":
            lines.insert(k, lines[k])
            k += 1
        else:
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        named = (path, {k + 1, first_of_obs + 1})
    (d / "c.cfg").write_text("\n".join(config) + "\n")

    code, err = _silent(["fit", "--config", str(d / "c.cfg")])
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if target != "config":
        assert code == 2, "every row mutation is a fault"
    if named is not None and code != 0:
        path, lines = named
        found = re.findall(rf"{re.escape(str(path))}:(\d+):", err)
        assert found and int(found[0]) in lines, err
