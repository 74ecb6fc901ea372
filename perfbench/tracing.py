"""Spans and counters recorded around the calls into soa_lab's modules.

Nothing here edits the package.  ``Tracer.install`` replaces functions on
the module objects where their callers look them up (``soa_lab.cli``
imports most names directly, so ``soa_lab.cli.fit_mmnl_msl`` is the binding
the ``fit`` verb calls), and ``Tracer.uninstall`` puts the originals back.
Untraced rounds therefore run the package exactly as shipped.

Work is booked per *pass*: one set-up pass or one timed round.  Coarse
calls also leave a span (name, start, end, parent, pass); calls made
thousands of times per round (kernel evaluations, per-observation set
draws, enumerations) only add to counters, so the trace stays small.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


def _pairs_per_observation(protocol, J: int) -> int:
    """(chosen, set) pairs one observation contributes to a joint loop."""
    if protocol.kind == "uniform_wor":
        return math.comb(J, protocol.m) * protocol.m
    return J * 2 ** (J - 1)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, defaultdict] = {}
        self.pass_kind: dict[str, str] = {}
        self.current: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------------

    def begin_pass(self, name: str, kind: str) -> None:
        """Book subsequent work to pass ``name`` (kind: setup/round/reference)."""
        self.current = name
        self.pass_kind[name] = kind
        self.totals.setdefault(name, defaultdict(float))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[self.current][key] += value

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def timed(self, name: str, fn, args, kwargs, keep_span: bool):
        """Call fn, booking its duration to ``name``."""
        stack = self._stack()
        span_id = None
        if keep_span:
            with self._lock:
                span_id = len(self.spans)
                self.spans.append({"id": span_id, "name": name,
                                   "parent": stack[-1] if stack else None,
                                   "pass": self.current})
            stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if keep_span:
                stack.pop()
                self.spans[span_id]["start"] = start - self._origin
                self.spans[span_id]["end"] = end - self._origin
            self.add(name + ".time", end - start)
            self.add(name + ".calls", 1)
        return result

    # -- patching ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, keep_span: bool = True,
              after=None, wrap_args=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            result = self.timed(name, original, args, kwargs, keep_span)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap_observations(self, Dataset) -> None:
        """Time the first (object-building) access of Dataset.observations."""
        original = Dataset.__dict__["observations"]

        def fget(ds):
            if getattr(ds, "_observations", "unset") is not None:
                return original.fget(ds)
            result = self.timed("model_core.observations", original.fget,
                                (ds,), {}, True)
            self.add("model_core.observations.count", len(result))
            return result

        Dataset.observations = property(fget, original.fset)
        self._patches.append((Dataset, "observations", original))

    def install(self) -> None:
        import soa_lab.bayes_mmnl as bayes_mmnl
        import soa_lab.cli as cli
        import soa_lab.divergence_lab as dlab
        import soa_lab.mle as mle
        import soa_lab.storage as storage
        from soa_lab.model_core import Dataset

        def count_into(key, count):
            return lambda args, result: self.add(key, count(args, result))

        def n_rows(ds):
            return ds.n_obs * ds.J

        self._wrap(cli, "generate_mnl", "synth.generate")
        self._wrap(cli, "generate_mmnl", "synth.generate")
        self._wrap(storage, "write_dataset_csv", "storage.dataset_write",
                   after=count_into("storage.dataset_write.rows",
                                    lambda a, r: n_rows(a[1])))
        self._wrap(storage, "read_dataset_csv", "storage.dataset_read",
                   after=count_into("storage.dataset_read.rows",
                                    lambda a, r: n_rows(r[0])))
        self._wrap(storage, "write_sets_csv", "storage.sets_write",
                   after=count_into("storage.sets_write.rows",
                                    lambda a, r: sum(s.size for s in a[1])))
        self._wrap(storage, "read_sets_csv", "storage.sets_read",
                   after=count_into("storage.sets_read.rows",
                                    lambda a, r: sum(s.size for s in r[0])))
        self._wrap(storage, "write_draws_csv", "storage.draws_write",
                   after=count_into("storage.draws_write.rows",
                                    lambda a, r: a[1].draws.shape[0]
                                    * a[1].draws.shape[1]))
        self._wrap_observations(Dataset)

        self._wrap(cli, "derive_stream", "protocols.draw", keep_span=False)
        self._wrap(cli, "draw_sampled_set", "protocols.draw", keep_span=False,
                   after=count_into("protocols.sets_drawn", lambda a, r: 1))
        for owner in (dlab, cli):
            self._wrap(owner, "enumerate_sets", "protocols.enumeration",
                       keep_span=False,
                       after=count_into("protocols.sets_enumerated",
                                        lambda a, r: len(r)))
        self._wrap(dlab, "enumerate_feasible_sets", "protocols.enumeration",
                   keep_span=False,
                   after=count_into("protocols.sets_enumerated",
                                    lambda a, r: len(r)))

        self._wrap(cli, "fit_mmnl_msl", "mle.msl_fit")

        def count_objective(args, kwargs):
            f = args[0]

            def counted(x):
                self.add("optimize.objective_evals", 1)
                return f(x)
            return (counted,) + tuple(args[1:]), kwargs

        self._wrap(mle, "maximize", "optimize.maximize",
                   wrap_args=count_objective,
                   after=count_into("optimize.iterations",
                                    lambda a, r: r.iterations))
        self._wrap(mle, "hessian_from_grad", "optimize.hessian")
        self._wrap(mle, "hessian_from_f", "optimize.hessian")

        self._wrap(cli, "log_posterior_kernel", "bayes_mnl.kernel",
                   keep_span=False)
        self._wrap(cli, "rw_metropolis", "bayes_mnl.rw_metropolis")
        self._wrap(cli, "posterior_summary", "bayes_mnl.posterior_summary")
        self._wrap(cli, "grid_posterior", "bayes_mnl.grid_posterior")

        self._wrap(cli, "run_gibbs", "bayes_mmnl.run_gibbs",
                   after=count_into("bayes_mmnl.iterations",
                                    lambda a, r: a[2].iterations))
        self._wrap(bayes_mmnl, "gibbs_step_mu", "bayes_mmnl.conjugate",
                   keep_span=False)
        self._wrap(bayes_mmnl, "gibbs_step_sigma", "bayes_mmnl.conjugate",
                   keep_span=False)

        def joint(args, result):
            design, protocol = args[0], args[1]
            self.add("divergence_lab.joint_combinations",
                     _pairs_per_observation(protocol, design.J) ** design.n_obs)

        def kl_terms_call(args, result):
            self.add("divergence_lab.kl_terms_calls", 1)
            joint(args, result)

        self._wrap(dlab, "build_divergence_report", "divergence_lab.report")
        self._wrap(dlab, "kl_terms", "divergence_lab.joint_loop",
                   after=kl_terms_call)
        self._wrap(dlab, "expected_kl_direct", "divergence_lab.joint_loop",
                   after=joint)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def per_pass(self, key: str) -> float:
        """Median per timed round, or per set-up pass for set-up-only work."""
        for kind in ("round", "setup"):
            values = [t.get(key, 0.0) for name, t in self.totals.items()
                      if self.pass_kind[name] == kind]
            if any(values):
                return statistics.median(values)
        return 0.0

    def total(self, key: str, kinds=("setup", "round")) -> float:
        return sum(t.get(key, 0.0) for name, t in self.totals.items()
                   if self.pass_kind[name] in kinds)

    def ratio(self, num: str, den: str, scale: float = 1.0) -> float:
        d = self.total(den)
        return scale * self.total(num) / d if d > 0 else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        m: dict[str, tuple[float, str]] = {}
        for verb in ("generate", "sample", "fit", "bayes", "divergence"):
            m[f"cli.{verb}_s"] = (self.per_pass(f"cli.{verb}.time"), "s")
        m["synth.generate_s"] = (self.per_pass("synth.generate.time"), "s")
        for stem in ("dataset_write", "dataset_read", "sets_write",
                     "sets_read", "draws_write"):
            m[f"storage.{stem}_rows_per_s"] = (
                self.ratio(f"storage.{stem}.rows", f"storage.{stem}.time"),
                "rows/s")
        m["model_core.observations_per_s"] = (
            self.ratio("model_core.observations.count",
                       "model_core.observations.time"), "obs/s")
        m["protocols.sets_drawn_per_s"] = (
            self.ratio("protocols.sets_drawn", "protocols.draw.time"), "sets/s")
        m["protocols.enumeration_s"] = (
            self.per_pass("protocols.enumeration.time"), "s")
        m["protocols.feasible_sets_enumerated"] = (
            self.per_pass("protocols.sets_enumerated"), "count")
        m["mle.msl_fit_s"] = (self.per_pass("mle.msl_fit.time"), "s")
        m["optimize.objective_evals"] = (
            self.per_pass("optimize.objective_evals"), "count")
        m["optimize.iterations"] = (self.per_pass("optimize.iterations"), "count")
        m["optimize.hessian_s"] = (self.per_pass("optimize.hessian.time"), "s")
        m["bayes_mnl.kernel_ms_per_eval"] = (
            self.ratio("bayes_mnl.kernel.time", "bayes_mnl.kernel.calls", 1e3),
            "ms")
        m["bayes_mnl.kernel_evals"] = (
            self.per_pass("bayes_mnl.kernel.calls"), "count")
        serial = self.total("bayes_mnl.rw_metropolis.time", kinds=("reference",))
        pooled = self.per_pass("bayes_mnl.rw_metropolis.time")
        m["bayes_mnl.chain_pool_speedup"] = (
            serial / pooled if serial > 0 and pooled > 0 else 0.0, "ratio")
        m["bayes_mnl.posterior_summary_ms"] = (
            1e3 * self.per_pass("bayes_mnl.posterior_summary.time"), "ms")
        m["bayes_mnl.grid_posterior_ms"] = (
            1e3 * self.per_pass("bayes_mnl.grid_posterior.time"), "ms")
        iters = self.total("bayes_mmnl.iterations")
        gibbs = self.total("bayes_mmnl.run_gibbs.time")
        conj = self.total("bayes_mmnl.conjugate.time")

        def per_iter(seconds, scale):
            return scale * seconds / iters if iters else 0.0

        m["bayes_mmnl.gibbs_ms_per_iter"] = (per_iter(gibbs, 1e3), "ms")
        m["bayes_mmnl.conjugate_us_per_iter"] = (per_iter(conj, 1e6), "us")
        m["bayes_mmnl.mh_sweep_us_per_iter"] = (per_iter(gibbs - conj, 1e6), "us")
        m["divergence_lab.report_s"] = (
            self.per_pass("divergence_lab.report.time"), "s")
        m["divergence_lab.kl_terms_calls"] = (
            self.per_pass("divergence_lab.kl_terms_calls"), "count")
        m["divergence_lab.joint_loops"] = (
            self.per_pass("divergence_lab.joint_loop.calls"), "count")
        m["divergence_lab.joint_combinations"] = (
            self.per_pass("divergence_lab.joint_combinations"), "count")
        m["divergence_lab.combinations_per_s"] = (
            self.ratio("divergence_lab.joint_combinations",
                       "divergence_lab.joint_loop.time"), "1/s")
        return m

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans,
                   "passes": {name: {"kind": self.pass_kind[name],
                                     "totals": dict(t)}
                              for name, t in self.totals.items()},
                   **extra}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
