"""The benchmark tracer's hooks still fit the package.

``perfbench/tracing.py`` replaces functions by name on soa_lab's modules
and reads the arguments of some of them.  Installing it and running one
small divergence report here makes a renamed function or a changed
argument shape fail with the unit tests, not only in a traced benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

import soa_lab.divergence_lab as dlab
from soa_lab import Dataset, GridSpec, Prior, Protocol

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_a_divergence_report():
    tracer = load_tracing().Tracer()
    tracer.begin_pass("round", "round")
    design = Dataset.from_arrays(
        np.array([[0.9, -0.3, 0.1], [-0.6, 0.4, 1.1]])[..., None], [2, 0])
    tracer.install()
    try:
        dlab.build_divergence_report(
            design, Protocol("uniform_wor", m=2), "mcfadden",
            np.array([0.8]), Prior(np.zeros(1), 4.0 * np.eye(1)),
            GridSpec.make(-6.0, 6.0, 51))
    finally:
        tracer.uninstall()
    totals = tracer.totals["round"]
    assert totals["divergence_lab.report.calls"] == 1
    assert totals["divergence_lab.joint_loop.calls"] > 0
    assert totals["divergence_lab.joint_combinations"] > 0
    assert totals["protocols.enumeration.calls"] > 0
