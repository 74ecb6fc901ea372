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
import io
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .model_core import Dataset, SampledSet

# Config keys with these prefixes never influence results, so they are
# excluded from the config hash.
HASH_EXCLUDED_PREFIXES = ("output.", "runtime.")

HASH_LEN = 12


def fmt(x) -> str:
    """Render one cell: repr for floats (round-trips exactly), str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def config_hash(pairs: dict[str, str]) -> str:
    """Hash of the result-relevant config entries (sorted key=value lines)."""
    lines = [f"{k}={pairs[k]}" for k in sorted(pairs)
             if not k.startswith(HASH_EXCLUDED_PREFIXES)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:HASH_LEN]


def file_hash(path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digest[:HASH_LEN]


# ---------------------------------------------------------------------------
# low-level csv plumbing
# ---------------------------------------------------------------------------

def _render_csv(headers: dict[str, str], fieldnames: list[str],
                rows: list[list]) -> str:
    buf = io.StringIO()
    for key, value in headers.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


def write_csv(path, headers: dict[str, str], fieldnames: list[str],
              rows: list[list]) -> None:
    Path(path).write_text(_render_csv(headers, fieldnames, rows),
                          encoding="utf-8", newline="")


def read_csv(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(header metadata, fieldnames, data rows) of one of our CSV files."""
    text = Path(path).read_text(encoding="utf-8")
    meta = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if line.strip():
            lines.append(line)
    if not lines:
        raise InvalidInputError(f"{path} has no data rows")
    parsed = list(csv.reader(lines))
    return meta, parsed[0], parsed[1:]


def _row_error(path, row: int, message) -> InvalidInputError:
    """Name the source line of data row ``row`` (as numbered by read_csv).

    Line numbers are recovered here, on the error path only, so reading a
    well-formed file keeps no per-row bookkeeping.
    """
    kept = [n for n, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1)
        if line.strip() and not line.startswith("#")]
    return InvalidInputError(f"{path}:{kept[row + 1]}: {message}")


def _obs_error(path, rows: list[list[str]], obs: int,
               message) -> InvalidInputError:
    """Name the first row of observation ``obs`` (an already parsed id)."""
    first = next(k for k, row in enumerate(rows) if int(row[0]) == obs)
    return _row_error(path, first, message)


def verify_lineage(meta: dict[str, str], key: str, expected: str,
                   what: str) -> None:
    """Refuse to consume a file whose recorded hash disagrees."""
    found = meta.get(key)
    if found != expected:
        raise ConfigError(
            f"{what}: recorded {key} {found!r} does not match expected "
            f"{expected!r}; inputs are from a different run")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def dataset_fieldnames(K: int) -> list[str]:
    return ["obs_id", "individual_id", "alt_id", "chosen"] + [
        f"x{k + 1}" for k in range(K)]


def write_dataset_csv(path, dataset: Dataset, headers: dict[str, str]) -> None:
    """Long format: one row per (observation, alternative)."""
    X = dataset.attribute_tensor()
    chosen = dataset.chosen_ids()
    individual = dataset.individual_ids()
    rows = []
    for i in range(dataset.n_obs):
        for j in range(dataset.J):
            rows.append([i, int(individual[i]), j, int(chosen[i] == j)]
                        + list(X[i, j]))
    write_csv(path, headers, dataset_fieldnames(dataset.K), rows)


def read_dataset_csv(path) -> tuple[Dataset, dict[str, str]]:
    meta, fields, rows = read_csv(path)
    K = len(fields) - 4
    if K < 1 or fields[:4] != ["obs_id", "individual_id", "alt_id", "chosen"]:
        raise InvalidInputError(f"{path} is not a dataset file")
    if not rows:
        raise InvalidInputError(f"{path} has no data rows")
    by_obs: dict[int, list] = {}
    individual = {}
    for k, row in enumerate(rows):
        try:
            if len(row) != len(fields):
                raise ValueError(f"{len(row)} cells, expected {len(fields)}")
            i = int(row[0])
            individual[i] = int(row[1])
            by_obs.setdefault(i, []).append(
                (int(row[2]), int(row[3]), [float(v) for v in row[4:]]))
        except ValueError as exc:
            raise _row_error(path, k, exc) from None
    n = len(by_obs)
    if sorted(by_obs) != list(range(n)):
        raise InvalidInputError(f"{path}: observation ids are not dense 0..N-1")
    J = len(by_obs[0])
    X = np.empty((n, J, K))
    chosen = np.full(n, -1, dtype=int)
    ind = np.empty(n, dtype=int)
    for i in range(n):
        alts = sorted(by_obs[i])
        if [a[0] for a in alts] != list(range(J)):
            raise _obs_error(path, rows, i, f"observation {i} lacks dense "
                             "alternative ids 0..J-1")
        for j, flag, xs in alts:
            X[i, j] = xs
            if flag:
                if chosen[i] >= 0:
                    raise _obs_error(path, rows, i, f"observation {i} marks "
                                     "several alternatives chosen")
                chosen[i] = j
        if chosen[i] < 0:
            raise _obs_error(path, rows, i, f"observation {i} marks no choice")
        ind[i] = individual[i]
    try:
        return Dataset.from_arrays(X, chosen, ind), meta
    except InvalidInputError as exc:
        # Every cell parsed and every id checked, so what is left to fail is
        # a non-finite attribute: name the first row carrying one.
        bad = next(k for k, row in enumerate(rows)
                   if not np.isfinite(np.array(row[4:], dtype=float)).all())
        raise _row_error(path, bad, exc) from None


# ---------------------------------------------------------------------------
# sampled sets
# ---------------------------------------------------------------------------

def write_sets_csv(path, sets: list[SampledSet], headers: dict[str, str]) -> None:
    rows = []
    for i, s in enumerate(sets):
        for pos in range(s.size):
            rows.append([i, int(s.member_ids[pos]), float(s.log_cond_prob[pos])])
    write_csv(path, headers, ["obs_id", "alt_id", "log_cond_prob"], rows)


def read_sets_csv(path, n_obs: int,
                  J: int) -> tuple[list[SampledSet], dict[str, str]]:
    """Sampled sets for observations 0..n_obs-1 of a dataset with J
    alternatives; a bad cell names its line, a bad set its first line."""
    meta, fields, rows = read_csv(path)
    if fields != ["obs_id", "alt_id", "log_cond_prob"]:
        raise InvalidInputError(f"{path} is not a sampled-sets file")
    by_obs: dict[int, list] = {}
    for k, row in enumerate(rows):
        try:
            if len(row) != 3:
                raise ValueError(f"{len(row)} cells, expected 3")
            alt, lcp = int(row[1]), float(row[2])
            if not 0 <= alt < J:
                raise ValueError(f"alt_id {alt} outside 0..{J - 1}")
            if not -np.inf < lcp <= 0.0:
                raise ValueError(f"log_cond_prob {lcp!r} is not a finite "
                                 "log probability")
            by_obs.setdefault(int(row[0]), []).append((alt, lcp))
        except ValueError as exc:
            raise _row_error(path, k, exc) from None
    if sorted(by_obs) != list(range(n_obs)):
        raise InvalidInputError(
            f"{path}: set records do not cover observations 0..{n_obs - 1}")
    sets = []
    for i in range(n_obs):
        members = np.array([m for m, _ in by_obs[i]], dtype=int)
        lcp = np.array([c for _, c in by_obs[i]], dtype=float)
        try:
            sets.append(SampledSet(members, lcp))
        except InvalidInputError as exc:
            raise _obs_error(path, rows, i, exc) from None
    return sets, meta


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

def write_report_csv(path, rows: list[tuple], headers: dict[str, str]) -> None:
    """rows: (run_id, config_hash, metric, value, context)."""
    write_csv(path, headers,
              ["run_id", "config_hash", "metric", "value", "context"],
              [list(r) for r in rows])


def write_draws_csv(path, draws, headers: dict[str, str], thin: int = 1) -> None:
    """chain, iteration (absolute), then one column per parameter."""
    names = draws.param_names or [f"beta_{k}" for k in range(draws.dim)]
    rows = []
    for c in range(draws.n_chains):
        for i in range(draws.draws.shape[1]):
            rows.append([c, draws.burn_in + i * thin] + list(draws.draws[c, i]))
    write_csv(path, headers, ["chain", "iteration"] + names, rows)


def write_beta_n_csv(path, draws, headers: dict[str, str], thin: int = 1) -> None:
    """Stored individual-coefficient draws: iteration, individual, beta_*."""
    if draws.beta_n_draws is None:
        raise InvalidInputError("no individual draws were stored")
    n_kept, n_ind, K = draws.beta_n_draws.shape
    ids = (draws.individual_ids if draws.individual_ids is not None
           else np.arange(n_ind))
    rows = []
    for i in range(n_kept):
        for n in range(n_ind):
            rows.append([draws.burn_in + i * thin, int(ids[n])]
                        + list(draws.beta_n_draws[i, n]))
    write_csv(path, headers,
              ["iteration", "individual_id"] + [f"beta_{k + 1}" for k in range(K)],
              rows)


def write_summary_csv(path, summary, headers: dict[str, str]) -> None:
    names = summary.param_names or [
        f"param_{k}" for k in range(summary.mean.shape[0])]
    rows = []
    for k, name in enumerate(names):
        rows.append([name, float(summary.mean[k]), float(summary.sd[k]),
                     float(summary.q025[k]), float(summary.q50[k]),
                     float(summary.q975[k]), float(summary.ess[k])])
    nan = float("nan")
    for c, rate in enumerate(np.atleast_1d(summary.acceptance_rates)):
        rows.append([f"acceptance_chain_{c}", float(rate), nan, nan, nan, nan, nan])
    write_csv(path, headers,
              ["parameter", "mean", "sd", "q025", "median", "q975", "ess"],
              rows)


def write_manifest(path, payload: dict) -> None:
    """Sorted-key JSON; deliberately free of timestamps and host details."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8", newline="")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
