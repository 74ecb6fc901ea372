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
"""

import contextlib
import io
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
