"""Run a command-line verb in a child interpreter with a set thread count.

BLAS and OpenMP read their thread counts when numpy is first imported, so a
thread setting can only be varied across fresh interpreters.
"""

import os
import subprocess
import sys
from pathlib import Path

import soa_lab

_SRC = str(Path(soa_lab.__file__).resolve().parents[1])


def run_cli_with_threads(args, threads: int) -> None:
    """``soa-lab *args`` in a new interpreter under OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS = ``threads``; fails unless it exits 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from soa_lab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *map(str, args)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def outputs_under_one_and_two_threads(args, out_dir) -> list[dict]:
    """The files ``args`` writes into ``out_dir``, by name as bytes, run
    under 1 and then under 2 threads."""
    runs = []
    for threads in (1, 2):
        run_cli_with_threads(args, threads)
        runs.append({p.name: p.read_bytes()
                     for p in sorted(Path(out_dir).iterdir())})
    return runs
