"""Write every file the benchmark workloads' set-up and one round produce.

    python tests/output_matrix.py OUT_DIR

Runs the three workloads of ``perfbench/workloads.py`` (``mnl_pipeline``,
``sampled_estimators`` and ``oracle_designs``) at seeds 1-3 through
``soa_lab.cli.main`` from this checkout's ``src/``.  Each (workload, seed)
gets ``OUT_DIR/<workload>-seed<seed>/``: the workload's ``prepare`` writes
its configs there, then its set-up calls and one round's calls run there,
as ``perfbench/run.py`` runs them.  The configs hold relative paths, so the
files do not depend on where OUT_DIR is, and the outputs of two checkouts
compare with ``diff -r OUT_A OUT_B``: a change that keeps every output's
bytes prints nothing.  ``perfbench/`` is only read; no bytecode is written
under it.  Pytest does not collect this file.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from soa_lab.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def run(out_dir: Path) -> int:
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            run_dir = (out_dir / f"{name}-seed{seed}").resolve()
            run_dir.mkdir(parents=True, exist_ok=True)
            with contextlib.chdir(run_dir):
                setup_calls, round_calls = workload().prepare(run_dir, seed)
                for verb, cfg in setup_calls + round_calls:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main([verb, "--config", cfg])
                    if code != 0:
                        print(f"{run_dir.name}: {verb} {cfg}: exit {code}")
                        return code
            files = sum(p.is_file() for p in run_dir.rglob("*"))
            print(f"{run_dir.name}: {files} files")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
