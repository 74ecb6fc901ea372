"""Batch command-line driver.

Five verbs cover the workflow: ``generate`` simulates a dataset,
``sample`` draws fixed choice subsets for it, ``fit`` runs the classical
estimators, ``bayes`` runs the posterior samplers, ``divergence`` runs the
exhaustive expectation oracles.  Every command is a pure function of its
config file and input files: outputs are byte-identical on rerun, carry
the config hash in their headers, and record content hashes of consumed
files so mismatched lineage is refused.

Config files are flat ``key = value`` text with dotted section prefixes::

    dgp.model = mnl
    dgp.n = 2000
    protocol.kind = uniform_wor
    protocol.m = 4
    seed = 7
    output.dir = runs/demo

Each verb accepts only the keys it reads (``VERB_KEYS``); any other key
is an error naming its ``file:line``.  ``output.dir`` never affects numbers
and is excluded from the config hash.  ``--seed`` and ``--out`` override the
``seed`` and ``output.dir`` keys (the seed override happens before
hashing, because it changes results).

Exit codes: 0 success (including reported non-convergence), 2 config,
validation or malformed-input error, or a numerical degeneracy (a matrix
that should be positive definite is not), 3 I/O error, 4
enumeration-capacity error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import storage
from .bayes_mmnl import GibbsConfig, MmnlPriors, run_gibbs
from .bayes_mnl import (Prior, grid_posterior, kl_decomposition,
                        kl_divergence_grid, log_posterior_kernel,
                        posterior_summary, rw_metropolis)
from . import divergence_lab as dlab
from .errors import (CapacityError, ConfigError, InvalidInputError,
                     InvalidStateError, NumericalDegeneracyError)
from .grids import GridSpec
from .mle import ChoiceArrays, fit_mmnl_msl, fit_mnl, theta_labels
from .model_core import Dataset, SetTable, log_softmax
# perfbench/tracing.py looks up draw_sampled_set and enumerate_sets here.
from .protocols import (Protocol, derive_stream, draw_sampled_set,  # noqa: F401
                        draw_set_table, enumerate_sets)
from .synth import MmnlDgpConfig, MnlDgpConfig, generate_mmnl, generate_mnl

_MISSING = object()
_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# The keys each verb reads.  Any other key ends the run with exit 2, so a
# misspelt key cannot silently fall back to its default.
_SET_KEYS = "inputs.dataset inputs.sets correction.sets correction.mode "
_PRIOR_KEYS = "prior.mean prior.cov "
VERB_KEYS = {verb: {"seed", "output.dir", *keys.split()} for verb, keys in {
    "generate": "dgp.model dgp.n dgp.t dgp.j dgp.k dgp.beta_star dgp.mu_star "
                "dgp.sigma_star dgp.covariate_law",
    "sample": "inputs.dataset protocol.kind protocol.m "
              "protocol.inclusion_probs",
    "fit": _SET_KEYS + "fit.estimator fit.wn_mode fit.r_draws",
    "bayes": _SET_KEYS + _PRIOR_KEYS + "bayes.method bayes.iterations "
             "bayes.burn_in bayes.chains bayes.proposal_scale bayes.thin "
             "bayes.rho bayes.store_beta_n prior.m0 prior.a0 prior.s0 "
             "prior.v0",
    "divergence": _PRIOR_KEYS + "correction.mode divergence.j divergence.k "
                  "divergence.m divergence.t divergence.n_designs "
                  "divergence.beta_star grid.lo grid.hi grid.points",
}.items()}

# The keys that only some values of a switch key read: switch -> (default,
# {value: its keys}).  A key that the selected value does not read is refused
# like an unknown key; a missing or unknown value is left to the verb.
_BRANCH_KEYS = {
    "dgp.model": (None, {"mnl": "dgp.beta_star",
                         "mmnl": "dgp.t dgp.mu_star dgp.sigma_star"}),
    "protocol.kind": (None, {"uniform_wor": "protocol.m",
                             "importance_independent": "protocol.inclusion_probs"}),
    "correction.sets": ("full", {"full": "",
                                 "sampled": "inputs.sets correction.mode"}),
    "fit.estimator": ("mnl", {"mnl": "", "mmnl_msl": "fit.wn_mode fit.r_draws"}),
    "bayes.method": (None, {
        "rw_metropolis": "bayes.chains bayes.proposal_scale prior.mean prior.cov",
        "gibbs": "bayes.thin bayes.rho bayes.store_beta_n prior.m0 prior.a0 "
                 "prior.s0 prior.v0"}),
}


def parse_config_text(text: str, keys: set[str],
                      source: str = "<config>") -> dict[str, str]:
    """Key/value pairs of a config whose keys must all be in ``keys`` and
    be read under the switch values it selects."""
    pairs: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key == "seed":
            _check_seed(value, f"{source}:{lineno}")
        pairs[key] = value
        lines[key] = lineno
    for switch, (default, branches) in _BRANCH_KEYS.items():
        value = pairs.get(switch, default)
        unread = [key for other, names in branches.items() if other != value
                  for key in names.split() if key in pairs]
        if switch in keys and value in branches and unread:
            key = min(unread, key=lines.get)
            raise ConfigError(f"{source}:{lines[key]}: unknown key {key!r} "
                              f"with {switch} = {value}")
    return pairs


def _check_seed(value: str, where: str) -> None:
    """Refuse a seed that is not a non-negative integer, naming ``where``
    it came from: random streams are keyed by non-negative seeds only."""
    try:
        ok = int(value) >= 0
    except ValueError:
        ok = False
    if not ok:
        raise ConfigError(f"{where}: seed {value!r} is not a non-negative "
                          "integer")


class Config:
    """Typed access to the flat key/value pairs, with pointed errors."""

    def __init__(self, pairs: dict[str, str], keys: set[str]):
        self.pairs = pairs
        self.keys = keys

    def get(self, key: str, default=_MISSING) -> str:
        assert key in self.keys, f"{key!r} is read but not declared"
        if key in self.pairs:
            return self.pairs[key]
        if default is _MISSING:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def _parsed(self, key: str, default, parse, what: str):
        value = self.get(key, default)
        if not isinstance(value, str):
            return value  # a default, already typed
        try:
            return parse(value)
        except (ValueError, KeyError):
            raise ConfigError(f"config key {key!r}: {value!r} is not {what}")

    def get_int(self, key: str, default=_MISSING) -> int:
        return self._parsed(key, default, int, "an integer")

    def get_float(self, key: str, default=_MISSING) -> float:
        return self._parsed(key, default, float, "a number")

    def get_bool(self, key: str, default=_MISSING) -> bool:
        return self._parsed(key, default, lambda v: _BOOLEANS[v.lower()],
                            "a boolean")

    def get_floats(self, key: str, default=_MISSING) -> np.ndarray | None:
        return self._parsed(
            key, default, lambda v: np.array([float(x) for x in v.split(",")]),
            "a comma-separated list of numbers")

    def get_vector(self, key: str, K: int, default=_MISSING) -> np.ndarray | None:
        """K numbers, or one number repeated K times."""
        values = self.get_floats(key, default)
        if values is None or values.size == K:
            return values
        if values.size == 1:
            return np.full(K, values[0])
        raise ConfigError(f"config key {key!r}: need 1 or {K} entries, "
                          f"got {values.size}")


def parse_config_file(path, keys: set[str]) -> Config:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    return Config(parse_config_text(p.read_text(encoding="utf-8"), keys, str(p)),
                  keys)


def build_protocol(cfg: Config) -> Protocol:
    kind = cfg.get("protocol.kind")
    if kind == "uniform_wor":
        return Protocol(kind, m=cfg.get_int("protocol.m"))
    if kind == "importance_independent":
        return Protocol(kind, inclusion_probs=cfg.get_floats(
            "protocol.inclusion_probs"))
    raise ConfigError(f"config key 'protocol.kind': unknown protocol {kind!r}")


def build_prior(cfg: Config, K: int) -> Prior:
    mean = _finite("prior.mean", cfg.get_vector("prior.mean", K, np.zeros(K)))
    cov = _finite("prior.cov", cfg.get_floats("prior.cov", None))
    return Prior(mean,
                 np.eye(K) if cov is None else _square_from(cov, K, "prior.cov"))


def build_grid(cfg: Config, K: int) -> GridSpec:
    return GridSpec.make(cfg.get_vector("grid.lo", K, np.full(K, -8.0)),
                         cfg.get_vector("grid.hi", K, np.full(K, 8.0)),
                         [cfg.get_int("grid.points", 201)] * K)


def _finite(key: str, values: np.ndarray | float | None):
    """``values``, unless one of them is not finite."""
    if values is not None and not np.all(np.isfinite(values)):
        raise ConfigError(f"config key {key!r}: {np.asarray(values).tolist()} "
                          "is not finite")
    return values


def _square_from(values: np.ndarray, K: int, key: str) -> np.ndarray:
    """K x K from one value (times I), K diagonal or K * K row-major entries."""
    if values.size in (1, K):
        return np.diag(np.broadcast_to(values, K))
    if values.size == K * K:
        return values.reshape(K, K)
    raise ConfigError(f"config key {key!r}: need 1 entry, {K} diagonal "
                      f"entries or {K * K} row-major entries")


def load_dataset(cfg: Config) -> tuple[Dataset, str]:
    path = Path(cfg.get("inputs.dataset"))
    if not path.is_file():
        raise ConfigError(f"referenced dataset file {path} does not exist")
    dataset, _ = storage.read_dataset_csv(path)
    return dataset, storage.file_hash(path)


def load_sets(cfg: Config, dataset: Dataset,
              dataset_hash: str) -> tuple[SetTable | None, str]:
    """(sampled sets, mode) per the correction.* keys; None means full sets."""
    which = cfg.get("correction.sets", "full")
    if which == "full":
        return None, "none"
    if which != "sampled":
        raise ConfigError("config key 'correction.sets' must be 'full' or 'sampled'")
    path = Path(cfg.get("inputs.sets"))
    if not path.is_file():
        raise ConfigError(f"referenced sets file {path} does not exist")
    sets, meta = storage.read_sets_csv(path, dataset.chosen_ids(), dataset.J)
    storage.verify_lineage(meta, "dataset_hash", dataset_hash, str(path))
    return sets, cfg.get("correction.mode", "mcfadden")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: Config, out_dir: Path, chash: str) -> None:
    model = cfg.get("dgp.model")
    seed = cfg.get_int("seed")
    K = cfg.get_int("dgp.k")
    law = cfg.get("dgp.covariate_law", "standard_normal")
    if model == "mnl":
        dgp = MnlDgpConfig(N=cfg.get_int("dgp.n"), J=cfg.get_int("dgp.j"), K=K,
                           beta_star=_finite("dgp.beta_star",
                                             cfg.get_floats("dgp.beta_star")),
                           covariate_law=law, seed=seed)
        dataset = generate_mnl(dgp)
    elif model == "mmnl":
        dgp = MmnlDgpConfig(
            N=cfg.get_int("dgp.n"), T=cfg.get_int("dgp.t"),
            J=cfg.get_int("dgp.j"), K=K,
            mu_star=_finite("dgp.mu_star", cfg.get_floats("dgp.mu_star")),
            sigma_star=_square_from(
                _finite("dgp.sigma_star", cfg.get_floats("dgp.sigma_star")), K,
                "dgp.sigma_star"),
            covariate_law=law, seed=seed)
        dataset, _ = generate_mmnl(dgp)
    else:
        raise ConfigError("config key 'dgp.model' must be 'mnl' or 'mmnl'")

    dataset_path = out_dir / "dataset.csv"
    storage.write_dataset_csv(dataset_path, dataset,
                              {"config_hash": chash, "command": "generate"})
    _finish(cfg, out_dir, chash, "generate", [dataset_path])


def cmd_sample(cfg: Config, out_dir: Path, chash: str) -> None:
    dataset, ds_hash = load_dataset(cfg)
    sets = draw_set_table(build_protocol(cfg), dataset.chosen_ids(), dataset.J,
                          cfg.get_int("seed"))
    sets_path = out_dir / "sets.csv"
    storage.write_sets_csv(sets_path, sets,
                           {"config_hash": chash, "command": "sample",
                            "dataset_hash": ds_hash})
    _finish(cfg, out_dir, chash, "sample", [sets_path], dataset_hash=ds_hash)


def cmd_fit(cfg: Config, out_dir: Path, chash: str) -> None:
    dataset, ds_hash = load_dataset(cfg)
    sampled, mode = load_sets(cfg, dataset, ds_hash)
    estimator = cfg.get("fit.estimator", "mnl")
    run_id = f"fit-{chash}"
    if estimator == "mnl":
        result = fit_mnl(dataset, sampled, mode)
        names = [f"beta_{k + 1}" for k in range(dataset.K)]
    elif estimator == "mmnl_msl":
        result = fit_mmnl_msl(dataset, sampled, mode,
                              wn_mode=cfg.get("fit.wn_mode", "exact_full_set"),
                              r_draws=cfg.get_int("fit.r_draws", 100))
        names = theta_labels(dataset.K)
    else:
        raise ConfigError("config key 'fit.estimator' must be 'mnl' or 'mmnl_msl'")

    rows = [(run_id, chash, f"estimate[{name}]", float(value),
             f"se={float(se)!r}")
            for name, value, se in zip(names, result.estimate, result.std_errors)]
    if estimator == "mmnl_msl":
        rows += [(run_id, chash, f"sigma[{i + 1},{j + 1}]",
                  float(result.sigma[i, j]), "")
                 for i in range(dataset.K) for j in range(i + 1)]
    rows.append((run_id, chash, "loglik", float(result.loglik), ""))
    rows.append((run_id, chash, "converged", int(result.converged), ""))
    rows.append((run_id, chash, "iterations", int(result.iterations), ""))

    report_path = out_dir / "fit_report.csv"
    storage.write_report_csv(report_path, rows,
                             {"config_hash": chash, "command": "fit",
                              "dataset_hash": ds_hash})
    _finish(cfg, out_dir, chash, "fit", [report_path], dataset_hash=ds_hash)


def cmd_bayes(cfg: Config, out_dir: Path, chash: str) -> None:
    method = cfg.get("bayes.method")
    dataset, ds_hash = load_dataset(cfg)
    sampled, mode = load_sets(cfg, dataset, ds_hash)
    seed = cfg.get_int("seed")
    iterations = cfg.get_int("bayes.iterations")
    burn_in = cfg.get_int("bayes.burn_in")
    thin = 1

    if method == "rw_metropolis":
        prior = build_prior(cfg, dataset.K)
        likelihood = ChoiceArrays(dataset, sampled, mode)

        def kernel(points: np.ndarray) -> np.ndarray:
            return log_posterior_kernel(points, likelihood, prior)

        draws = rw_metropolis(kernel, prior.mean,
                              n_chains=cfg.get_int("bayes.chains", 2),
                              n_iter=iterations, burn_in=burn_in,
                              proposal_scale=cfg.get_float("bayes.proposal_scale", 0.5),
                              seed=seed)
        draws.param_names = [f"beta_{k + 1}" for k in range(dataset.K)]
    elif method == "gibbs":
        K, default = dataset.K, MmnlPriors.default_for(dataset.K)
        a0, s0 = (_finite(key, cfg.get_floats(key, None))
                  for key in ("prior.a0", "prior.s0"))
        priors = MmnlPriors(
            m0=_finite("prior.m0", cfg.get_floats("prior.m0", default.m0)),
            A0=default.A0 if a0 is None else _square_from(a0, K, "prior.a0"),
            v0=_finite("prior.v0", cfg.get_float("prior.v0", default.v0)),
            S0=default.S0 if s0 is None else _square_from(s0, K, "prior.s0"))
        thin = cfg.get_int("bayes.thin", 1)
        gibbs_cfg = GibbsConfig(
            iterations=iterations, burn_in=burn_in, thin=thin, seed=seed,
            rho=cfg.get_float("bayes.rho", 0.4),
            sets=None if sampled is None else (sampled, mode),
            store_beta_n=cfg.get_bool("bayes.store_beta_n", False))
        draws = run_gibbs(dataset, priors, gibbs_cfg)
    else:
        raise ConfigError(
            "config key 'bayes.method' must be 'rw_metropolis' or 'gibbs'")

    summary = posterior_summary(draws)
    headers = {"config_hash": chash, "command": "bayes", "dataset_hash": ds_hash}
    draws_path = out_dir / "draws.csv"
    summary_path = out_dir / "summary.csv"
    storage.write_draws_csv(draws_path, draws, headers, thin=thin)
    storage.write_summary_csv(summary_path, summary, headers)
    outputs = [draws_path, summary_path]
    if draws.beta_n_draws is not None:
        beta_path = out_dir / "beta_n.csv"
        storage.write_beta_n_csv(beta_path, draws, headers, thin=thin)
        outputs.append(beta_path)
    _finish(cfg, out_dir, chash, "bayes", outputs, dataset_hash=ds_hash)


_DIVERGENCE_FIELDS = [
    "design_id", "protocol", "mode", "beta_star",
    "expected_quasi_ll", "expected_true_ll", "expected_divergence",
    "kl_term_a", "kl_term_b", "expected_kl",
    "r_min", "r_max", "r_sum_abs_err",
    "resid_ordering", "resid_divergence_forms", "resid_closed_form",
    "resid_kl_decomposition", "resid_entropy_form",
    "resid_posterior_decomposition",
]


def _realized_sets(feasible: SetTable, chosen: np.ndarray) -> SetTable:
    """Per chosen id, the first row of the feasible table that holds it: the
    first row of ``enumerate_sets(protocol, J, chosen)``, bit for bit."""
    holds = ((feasible.member_ids == chosen[:, None, None])
             & ~feasible.pad).any(axis=2)
    return feasible[holds.argmax(axis=1)]


def _divergence_row(design_id: int, label: str, mode: str, design: Dataset,
                    protocol: Protocol, beta_star: np.ndarray, prior: Prior,
                    grid: GridSpec) -> list:
    report = dlab.build_divergence_report(design, protocol, mode, beta_star,
                                          prior, grid)
    # One concrete (Y, D): the realized choices with the first feasible set
    # per observation, comparing grid-KL against its two-term decomposition.
    as_sampled = _realized_sets(report.feasible, design.chosen_ids())
    p_true = grid_posterior(design, None, prior, grid, check_doubling=False)
    p_samp = grid_posterior(design, (as_sampled, mode), prior, grid,
                            check_doubling=False)
    llr, log_ibf = kl_decomposition(p_true, p_samp)
    resid_decomp = abs(kl_divergence_grid(p_true, p_samp) - (llr + log_ibf))
    return [design_id, label, mode, ";".join(map(repr, beta_star.tolist())),
            *(getattr(report, name) for name in _DIVERGENCE_FIELDS[4:-1]),
            resid_decomp]


# Each design gets a uniform and an importance row; uniform_constant
# corrections hold on the uniform protocol only.
_DIVERGENCE_MODES = ("mcfadden", "none")


def cmd_divergence(cfg: Config, out_dir: Path, chash: str) -> None:
    seed = cfg.get_int("seed")
    J = cfg.get_int("divergence.j", 4)
    K = cfg.get_int("divergence.k", 1)
    m = cfg.get_int("divergence.m", 2)
    T = cfg.get_int("divergence.t", 1)
    n_designs = cfg.get_int("divergence.n_designs", 3)
    for key, size in (("divergence.j", J), ("divergence.k", K),
                      ("divergence.t", T), ("divergence.n_designs", n_designs)):
        if size < 1:
            raise ConfigError(f"config key {key!r}: {size} is below 1")
    if K > 2:
        raise ConfigError(f"config key 'divergence.k': {K} is above 2, the "
                          "largest K a grid posterior supports")
    mode = cfg.get("correction.mode", "mcfadden")
    if mode not in _DIVERGENCE_MODES:
        raise ConfigError(
            f"config key 'correction.mode': divergence accepts 'mcfadden' or "
            f"'none', not {mode!r}: every design also runs an importance row, "
            "whose members' set probabilities differ, so 'uniform_constant' "
            "cannot correct it")
    prior = build_prior(cfg, K)
    grid = build_grid(cfg, K)
    beta_cfg = _finite("divergence.beta_star",
                       cfg.get_vector("divergence.beta_star", K, None))

    # Every row is checked against the enumeration caps before the first
    # is computed, so a run that will be refused does no work.
    todo = []
    for d in range(n_designs):
        rng = derive_stream(seed, 3, d)
        X = rng.normal(size=(T, J, K))
        beta_star = rng.normal(size=K) if beta_cfg is None else beta_cfg
        P = np.exp(log_softmax(X @ beta_star, axis=1))
        chosen = np.minimum((rng.random(T)[:, None] >= np.cumsum(P, axis=1))
                            .sum(axis=1), J - 1)
        design = Dataset.from_arrays(X, chosen)
        probs = rng.uniform(0.2, 0.8, size=J)
        protocols = [(f"uniform_wor_m{m}", Protocol("uniform_wor", m=m)),
                     ("importance_seeded",
                      Protocol("importance_independent", inclusion_probs=probs))]
        for label, protocol in protocols:
            try:
                dlab.check_joint_cap(design, protocol)
            except CapacityError as exc:
                raise CapacityError(f"design {d} ({label}): {exc}") from exc
            todo.append((d, label, design, protocol, beta_star))
    rows = [_divergence_row(d, label, mode, design, protocol, beta_star, prior,
                            grid)
            for d, label, design, protocol, beta_star in todo]

    path = out_dir / "divergence.csv"
    storage.write_csv(path, {"config_hash": chash, "command": "divergence"},
                      _DIVERGENCE_FIELDS, rows)
    _finish(cfg, out_dir, chash, "divergence", [path])


def _finish(cfg: Config, out_dir: Path, chash: str, command: str,
            outputs: list[Path], dataset_hash: str | None = None) -> None:
    payload = {
        "command": command,
        "config_hash": chash,
        "config": dict(sorted(cfg.pairs.items())),
        "outputs": {p.name: storage.file_hash(p) for p in outputs},
    }
    if dataset_hash is not None:
        payload["dataset_hash"] = dataset_hash
    storage.write_manifest(out_dir / "manifest.json", payload)
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {out_dir / 'manifest.json'}")


_COMMANDS = {
    "generate": cmd_generate,
    "sample": cmd_sample,
    "fit": cmd_fit,
    "bayes": cmd_bayes,
    "divergence": cmd_divergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="soa-lab",
        description="Sampling-of-alternatives experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text in [
            ("generate", "simulate a dataset from a configured DGP"),
            ("sample", "draw fixed choice subsets for a dataset"),
            ("fit", "run classical (quasi-)likelihood estimators"),
            ("bayes", "run posterior samplers"),
            ("divergence", "run the exhaustive expectation oracles")]:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="flat key=value file")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int,
                       help="seed override (changes results and config hash)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config_file(args.config, VERB_KEYS[args.command])
        if args.seed is not None:
            _check_seed(str(args.seed), "--seed")
            cfg.pairs["seed"] = str(args.seed)
        if args.out is not None:
            cfg.pairs["output.dir"] = args.out
        out_dir = Path(cfg.get("output.dir"))
        chash = storage.config_hash(cfg.pairs)
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out_dir, chash)
        return 0
    except (ConfigError, InvalidInputError, InvalidStateError,
            NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
