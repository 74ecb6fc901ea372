"""The package runs on numpy alone: scipy is a test-only reference.

A child interpreter refuses every ``scipy`` import, checks that importing
``soa_lab.cli`` loads neither scipy nor ``numpy.random``, then runs the
mixed logit pipeline through the command-line driver.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = textwrap.dedent("""
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy import refused: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import soa_lab.cli
    leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not leaked, leaked
    # numpy loads numpy.random lazily; importing it would add to every
    # verb's start-up, also of verbs that draw nothing.
    assert "numpy.random" not in sys.modules

    configs = {
        "gen.cfg": "dgp.model = mmnl\\ndgp.n = 12\\ndgp.t = 3\\ndgp.j = 5\\n"
                   "dgp.k = 1\\ndgp.mu_star = 0.8\\ndgp.sigma_star = 0.4\\n"
                   "seed = 1\\noutput.dir = data\\n",
        "sample.cfg": "inputs.dataset = data/dataset.csv\\n"
                      "protocol.kind = uniform_wor\\nprotocol.m = 3\\n"
                      "seed = 2\\noutput.dir = sets\\n",
        "fit.cfg": "inputs.dataset = data/dataset.csv\\n"
                   "inputs.sets = sets/sets.csv\\ncorrection.sets = sampled\\n"
                   "correction.mode = mcfadden\\nfit.estimator = mmnl_msl\\n"
                   "fit.wn_mode = naive_one\\nfit.r_draws = 10\\nseed = 3\\n"
                   "output.dir = fit\\n",
        "bayes.cfg": "inputs.dataset = data/dataset.csv\\n"
                     "inputs.sets = sets/sets.csv\\ncorrection.sets = sampled\\n"
                     "correction.mode = mcfadden\\nbayes.method = gibbs\\n"
                     "bayes.iterations = 150\\nbayes.burn_in = 40\\nseed = 4\\n"
                     "output.dir = bayes\\n",
    }
    for verb, name in [("generate", "gen.cfg"), ("sample", "sample.cfg"),
                       ("fit", "fit.cfg"), ("bayes", "bayes.cfg")]:
        with open(name, "w") as f:
            f.write(configs[name])
        code = soa_lab.cli.main([verb, "--config", name])
        assert code == 0, (verb, code)
    leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not leaked, leaked
    print("numpy-only pipeline ok")
""")


def test_pipeline_runs_with_scipy_imports_refused(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "numpy-only pipeline ok" in proc.stdout
    for out in ("data/dataset.csv", "sets/sets.csv", "fit/fit_report.csv",
                "bayes/draws.csv"):
        assert (tmp_path / out).is_file()
