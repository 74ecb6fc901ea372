"""Row-wise reference CSV plumbing for the tests.

``render_csv`` is the cell-by-cell rendering the column writer in
``soa_lab.storage`` must reproduce byte for byte; ``read_csv`` and
``read_manifest`` read the files the command-line verbs write.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    """Render one cell: repr for floats (round-trips exactly), str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def render_csv(headers: dict[str, str], fieldnames: list[str],
               rows: list[list]) -> str:
    buf = io.StringIO()
    for key, value in headers.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


def read_csv(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(header metadata, fieldnames, data rows) of a soa-lab CSV file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if line.startswith("#") and "=" in body:
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
    parsed = list(csv.reader(ln for ln in lines
                             if ln.strip() and not ln.startswith("#")))
    return meta, parsed[0], parsed[1:]


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
