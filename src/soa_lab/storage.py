"""CSV and manifest persistence with byte-reproducible output.

Every file this module writes is a pure function of its inputs: floats are
rendered with ``repr`` (shortest round-trip form), JSON keys are sorted,
newlines are always ``\\n``, and no timestamps or host information appear
anywhere.  Each file starts with ``# key=value`` header lines carrying at
least the producing config's hash; files derived from a dataset also carry
the dataset file's content hash so downstream commands can refuse
mismatched lineage.
"""

from __future__ import annotations

import csv
import hashlib
import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .model_core import Dataset, SetTable

# Config keys with these prefixes never influence results, so they are
# excluded from the config hash.
HASH_EXCLUDED_PREFIXES = ("output.",)

HASH_LEN = 12


def config_hash(pairs: dict[str, str]) -> str:
    """Hash of the result-relevant config entries (sorted key=value lines)."""
    lines = [f"{k}={pairs[k]}" for k in sorted(pairs)
             if not k.startswith(HASH_EXCLUDED_PREFIXES)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:HASH_LEN]


def file_hash(path) -> str:
    """Hash of a file's bytes, read in 1 MiB blocks so memory stays bounded."""
    digest, block = hashlib.sha256(), bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(memoryview(block)[:size])
    return digest.hexdigest()[:HASH_LEN]


# ---------------------------------------------------------------------------
# low-level csv plumbing
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    """One cell: repr for floats, str otherwise; text holding a delimiter,
    quote or line break is quoted as the csv module would."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column) -> list[str]:
    """A float array goes through repr, an integer array through str once
    per distinct value; mixed cells one by one, so ints stay ints."""
    if not isinstance(column, np.ndarray):
        return [_cell(v) for v in column]
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    values, index = np.unique(column, return_inverse=True)
    labels = np.array(list(map(str, values.tolist())), dtype=object)
    return labels[index].tolist()


_CHUNK_CELLS = 1 << 14  # cells rendered per write, so memory stays bounded


def _write_columns(path, headers: dict[str, str], fieldnames: list[str],
                   columns: list) -> None:
    rows = max(1, _CHUNK_CELLS // len(columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in headers.items())
        fh.write(",".join(map(_cell, fieldnames)) + "\n")
        for start in range(0, len(columns[0]), rows):
            chunk = [_cells(c[start:start + rows]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def write_csv(path, headers: dict[str, str], fieldnames: list[str],
              rows: list[list]) -> None:
    _write_columns(path, headers, fieldnames,
                   list(zip(*rows)) if rows else [()] * len(fieldnames))


def _read_head(path) -> tuple[dict[str, str], list[str], int]:
    """(header metadata, fieldnames, number of lines before the data)."""
    meta, fields = {}, None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if fields is None and line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif fields is None and line.strip():
                fields, skip = next(csv.reader([line])), lineno
            elif fields is not None and line.split("#", 1)[0].strip():
                return meta, fields, skip
    raise InvalidInputError(f"{path} has no data rows")


def _data_lines(path, skip: int):
    """(line number, line) of every data row; used on the error path only,
    so reading a well-formed file keeps no per-row bookkeeping."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > skip and line.split("#", 1)[0].strip():
                yield lineno, line


def _load_table(path, skip: int, dtype: np.dtype) -> np.ndarray:
    """Parse every data row in bulk; on failure bisect to the first bad
    line and name it, for about one more parse of the file."""
    def error(lines):  # np.loadtxt's complaint about these rows, if any
        try:
            np.loadtxt([line for _, line in lines], dtype=dtype, delimiter=",",
                       comments="#")
        except ValueError as exc:
            return str(exc).split(" at row ")[0]
    try:
        return np.loadtxt(path, dtype=dtype, delimiter=",", comments="#",
                          skiprows=skip, ndmin=1, encoding="utf-8")
    except ValueError as exc:
        lines = list(_data_lines(path, skip))
        while len(lines) > 1:
            half = len(lines) // 2
            lines = lines[:half] if error(lines[:half]) else lines[half:]
        message = error(lines)  # _read_head has seen at least one data row
        if message is None:
            raise InvalidInputError(f"{path}: {exc}") from None
        raise InvalidInputError(f"{path}:{lines[0][0]}: {message}") from None


def _check_rows(path, skip: int, bad: np.ndarray, message) -> None:
    """Refuse the file if ``bad`` flags a data row: name the first one's
    line, with ``message(row)`` saying what is wrong."""
    if np.any(bad):
        row = int(np.argmax(bad))
        lineno = next(islice(_data_lines(path, skip), row, None))[0]
        raise InvalidInputError(f"{path}:{lineno}: {message(row)}")


def verify_lineage(meta: dict[str, str], key: str, expected: str,
                   what: str) -> None:
    """Refuse to consume a file whose recorded hash disagrees."""
    found = meta.get(key)
    if found != expected:
        raise ConfigError(
            f"{what}: recorded {key} {found!r} does not match expected "
            f"{expected!r}; inputs are from a different run")


# ---------------------------------------------------------------------------
# datasets and sampled sets
# ---------------------------------------------------------------------------

_DATASET_IDS = ["obs_id", "individual_id", "alt_id", "chosen"]
_SETS_FIELDS = ["obs_id", "alt_id", "log_cond_prob"]


def write_dataset_csv(path, dataset: Dataset, headers: dict[str, str]) -> None:
    """Long format: one row per (observation, alternative)."""
    X = dataset.attribute_tensor()
    n, J, K = X.shape
    chosen = dataset.chosen_ids()[:, None] == np.arange(J)
    fields = _DATASET_IDS + [f"x{k + 1}" for k in range(K)]
    _write_columns(path, headers, fields, [
        np.repeat(np.arange(n), J), np.repeat(dataset.individual_ids(), J),
        np.tile(np.arange(J), n), chosen.ravel().astype(int),
        *(X[:, :, k].ravel() for k in range(K))])


def read_dataset_csv(path) -> tuple[Dataset, dict[str, str]]:
    """Rows may come in any order; every observation needs alternatives
    0..J-1 once each, one chosen flag and one individual id.  A bad row
    names its line, a bad observation the line of its first row."""
    meta, fields, skip = _read_head(path)
    K = len(fields) - 4
    if K < 1 or fields[:4] != _DATASET_IDS:
        raise InvalidInputError(f"{path} is not a dataset file")
    rows = _load_table(path, skip, np.dtype(
        [(f, "i8") for f in _DATASET_IDS] + [("x", "f8", (K,))]))
    obs, ind, alt, flag, x = (rows[f] for f in _DATASET_IDS + ["x"])
    _check_rows(path, skip, (flag < 0) | (flag > 1),
                lambda k: f"chosen flag {flag[k]} is not 0 or 1")
    _check_rows(path, skip, ~np.isfinite(x).all(axis=1),
                lambda k: "attributes must be finite")
    order = np.lexsort((alt, obs))
    obs_s = obs[order]
    n = 1 + int(np.count_nonzero(obs_s[1:] != obs_s[:-1]))  # distinct ids
    _check_rows(path, skip, (obs < 0) | (obs >= n), lambda k: (
        f"obs_id {obs[k]} outside 0..{n - 1}: observation ids are not dense"))
    counts = np.bincount(obs_s, minlength=n)
    J = int(np.argmax(np.bincount(counts)))  # the most common row count
    rank = np.arange(obs.size) - (np.cumsum(counts) - counts)[obs_s]
    bad_alts = (counts != J) | (np.bincount(obs_s, alt[order] != rank,
                                            minlength=n) > 0)
    del obs_s, rank  # freed before the gathers below raise the peak
    n_chosen = np.bincount(obs, flag, minlength=n)
    _check_rows(path, skip, (bad_alts | (n_chosen != 1))[obs],
                lambda k: f"observation {obs[k]} " + (
                    "lacks dense alternative ids 0..J-1" if bad_alts[obs[k]]
                    else "marks several alternatives chosen"
                    if n_chosen[obs[k]] > 1 else "marks no choice"))
    ind = ind[order].reshape(n, J)
    _check_rows(path, skip, np.any(ind != ind[:, :1], axis=1)[obs],
                lambda k: f"observation {obs[k]} has several individual ids")
    return Dataset.from_arrays(x[order].reshape(n, J, K),
                               np.argmax(flag[order].reshape(n, J), axis=1),
                               ind[:, 0]), meta


def write_sets_csv(path, sets: SetTable, headers: dict[str, str]) -> None:
    keep = ~sets.pad
    _write_columns(path, headers, _SETS_FIELDS,
                   [np.nonzero(keep)[0], sets.member_ids[keep],
                    sets.log_cond_prob[keep]])


def read_sets_csv(path, chosen: np.ndarray,
                  J: int) -> tuple[SetTable, dict[str, str]]:
    """Sampled sets, each holding its observation's ``chosen`` id, of a
    dataset with J alternatives; a bad row names its line, a bad set its
    first line."""
    n_obs = len(chosen)
    meta, fields, skip = _read_head(path)
    if fields != _SETS_FIELDS:
        raise InvalidInputError(f"{path} is not a sampled-sets file")
    rows = _load_table(path, skip, np.dtype(
        [("obs_id", "i8"), ("alt_id", "i8"), ("log_cond_prob", "f8")]))
    obs, alt, lcp = (rows[f] for f in _SETS_FIELDS)
    _check_rows(path, skip, (alt < 0) | (alt >= J),
                lambda k: f"alt_id {alt[k]} outside 0..{J - 1}")
    _check_rows(path, skip, ~((lcp > -np.inf) & (lcp <= 0.0)), lambda k: (
        f"log_cond_prob {float(lcp[k])!r} is not a finite log probability"))
    _check_rows(path, skip, (obs < 0) | (obs >= n_obs),
                lambda k: f"obs_id {obs[k]} outside 0..{n_obs - 1}")
    if np.any(np.bincount(obs, minlength=n_obs) == 0):
        raise InvalidInputError(
            f"{path}: set records do not cover observations 0..{n_obs - 1}")
    order = np.lexsort((alt, obs))
    o, a = obs[order], alt[order]
    repeated = np.zeros(n_obs, dtype=bool)
    repeated[o[1:][(o[1:] == o[:-1]) & (a[1:] == a[:-1])]] = True
    _check_rows(path, skip, repeated[obs],
                lambda k: "sampled set has repeated member ids")
    lacks = np.bincount(obs, alt == chosen[obs], minlength=n_obs) == 0
    _check_rows(path, skip, lacks[obs], lambda k: (
        f"sampled set {obs[k]} lacks its chosen alternative {chosen[obs[k]]}"))
    return SetTable.from_flat(obs, alt, lcp, n_obs), meta


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

def write_report_csv(path, rows: list[tuple], headers: dict[str, str]) -> None:
    """rows: (run_id, config_hash, metric, value, context)."""
    write_csv(path, headers,
              ["run_id", "config_hash", "metric", "value", "context"], rows)


def write_draws_csv(path, draws, headers: dict[str, str], thin: int = 1) -> None:
    """chain, iteration (absolute), then one column per parameter."""
    names = draws.param_names or [f"beta_{k}" for k in range(draws.dim)]
    C, S, D = draws.draws.shape
    _write_columns(path, headers, ["chain", "iteration"] + names, [
        np.repeat(np.arange(C), S),
        np.tile(draws.burn_in + thin * np.arange(S), C),
        *(draws.draws[:, :, k].ravel() for k in range(D))])


def write_beta_n_csv(path, draws, headers: dict[str, str], thin: int = 1) -> None:
    """Stored individual-coefficient draws: iteration, individual, beta_*."""
    if draws.beta_n_draws is None:
        raise InvalidInputError("no individual draws were stored")
    n_kept, n_ind, K = draws.beta_n_draws.shape
    ids = (draws.individual_ids if draws.individual_ids is not None
           else np.arange(n_ind))
    _write_columns(
        path, headers,
        ["iteration", "individual_id"] + [f"beta_{k + 1}" for k in range(K)],
        [np.repeat(draws.burn_in + thin * np.arange(n_kept), n_ind),
         np.tile(np.asarray(ids, dtype=int), n_kept),
         *(draws.beta_n_draws[:, :, k].ravel() for k in range(K))])


def write_summary_csv(path, summary, headers: dict[str, str]) -> None:
    names = summary.param_names or [
        f"param_{k}" for k in range(summary.mean.shape[0])]
    rates = np.atleast_1d(summary.acceptance_rates).astype(float)
    nan = np.full(rates.size, np.nan)
    _write_columns(
        path, headers,
        ["parameter", "mean", "sd", "q025", "median", "q975", "ess"],
        [names + [f"acceptance_chain_{c}" for c in range(rates.size)],
         np.concatenate([summary.mean, rates]),
         *(np.concatenate([np.asarray(v, dtype=float), nan]) for v in (
             summary.sd, summary.q025, summary.q50, summary.q975,
             summary.ess))])


def write_manifest(path, payload: dict) -> None:
    """Sorted-key JSON; deliberately free of timestamps and host details."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8", newline="")

