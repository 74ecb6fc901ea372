"""Write the divergence verb's outputs over a fixed matrix of 24 configs.

    python tests/divergence_matrix.py OUT_DIR

Runs ``soa_lab.cli.main`` from this checkout's ``src/`` on seeds 1-3, both
correction modes (``mcfadden``, ``none``) and four design shapes, two
designs each:

* J=5, K=1, m=2, T=2 on 201 grid points (the benchmark's shape);
* J=4, K=2, m=2, T=2 on 51 x 51 points;
* J=4, K=1, m=3, T=3 on 101 points;
* J=8, K=1, m=3, T=1 on 101 points.

Each config writes ``OUT_DIR/<name>/divergence.csv`` and its manifest.
Output directories are relative to OUT_DIR, so the files do not depend on
where OUT_DIR is, and the outputs of two checkouts compare with
``diff -r OUT_A OUT_B``: a change that keeps every oracle's bits prints
nothing.  Pytest does not collect this file.

    python tests/divergence_matrix.py --compare OUT_A OUT_B

compares the two matrices' ``divergence.csv`` files column by column: for
each numeric column it prints the number of cells that differ and the
largest absolute difference (inf where one side is nan), for example::

    column                          changed  largest |diff|
    expected_quasi_ll                     4  1.1102230246251565e-16
    expected_true_ll                      0  0.0

It exits 1 if a file is missing, or if a header, a row count or a design
cell (``design_id``, ``protocol``, ``mode``, ``beta_star``) differs.
"""

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from soa_lab.cli import main  # noqa: E402

# (J, K, m, T, grid points per dimension)
SHAPES = [(5, 1, 2, 2, 201), (4, 2, 2, 2, 51), (4, 1, 3, 3, 101),
          (8, 1, 3, 1, 101)]


def configs():
    """(name, config text) of every matrix entry."""
    for J, K, m, T, points in SHAPES:
        for seed in (1, 2, 3):
            for mode in ("mcfadden", "none"):
                name = f"j{J}_k{K}_m{m}_t{T}_p{points}_seed{seed}_{mode}"
                yield name, (
                    f"divergence.j = {J}\ndivergence.k = {K}\n"
                    f"divergence.m = {m}\ndivergence.t = {T}\n"
                    f"divergence.n_designs = 2\ngrid.points = {points}\n"
                    f"correction.mode = {mode}\nseed = {seed}\n"
                    f"output.dir = {name}\n")


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.chdir(out_dir):
        for name, text in configs():
            cfg = Path(f"{name}.cfg")
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["divergence", "--config", str(cfg)])
            print(f"{name}: exit {code}")
            if code != 0:
                return code
    return 0


# The columns that name a row rather than measure it.
DESIGN_COLUMNS = 4


def read_rows(path: Path) -> list[list[str]]:
    """The header and rows of a divergence.csv, without its # lines."""
    with path.open(newline="") as f:
        return list(csv.reader(line for line in f if not line.startswith("#")))


def compare(out_a: Path, out_b: Path) -> int:
    header, changed, largest = None, None, None
    for name, _ in configs():
        paths = [out / name / "divergence.csv" for out in (out_a, out_b)]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            print(f"missing: {', '.join(missing)}")
            return 1
        (head_a, *rows_a), (head_b, *rows_b) = map(read_rows, paths)
        if head_a != head_b or (header is not None and head_a != header):
            print(f"{name}: headers differ")
            return 1
        if header is None:
            header = head_a
            changed = [0] * len(header)
            largest = [0.0] * len(header)
        if len(rows_a) != len(rows_b):
            print(f"{name}: {len(rows_a)} rows against {len(rows_b)}")
            return 1
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            if row_a[:DESIGN_COLUMNS] != row_b[:DESIGN_COLUMNS]:
                print(f"{name}: row {i} design cells differ")
                return 1
            for col in range(DESIGN_COLUMNS, len(header)):
                if row_a[col] != row_b[col]:
                    diff = abs(float(row_a[col]) - float(row_b[col]))
                    changed[col] += 1
                    largest[col] = max(largest[col],
                                       math.inf if math.isnan(diff) else diff)
    print(f"{'column':<30}{'changed':>9}  largest |diff|")
    for col in range(DESIGN_COLUMNS, len(header)):
        print(f"{header[col]:<30}{changed[col]:>9}  {largest[col]!r}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
