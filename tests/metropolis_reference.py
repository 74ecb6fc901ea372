"""Per-chain reference for the lockstep random-walk Metropolis sampler.

One chain after another and one point at a time, straight from the
algorithm: Gaussian proposals, a log-uniform accept test, and during
burn-in a multiplicative scale nudge toward a 0.3 acceptance rate after
every 50 iterations.  ``kernel`` is the same batched kernel the sampler
takes, called here on a single (1, K) row.  The tests compare
``soa_lab.rw_metropolis`` against this bit for bit.
"""

import math

import numpy as np

ADAPT_TARGET = 0.3
ADAPT_WINDOW = 50


def run_chain(kernel, init: np.ndarray, n_iter: int, burn_in: int,
              scale0: float, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """(kept draws (n_iter - burn_in, K), post-burn-in acceptance rate)."""

    def at(point):
        return float(kernel(point[None, :])[0])

    dim = init.size
    x = init.copy()
    fx = at(x)
    scale = scale0
    kept = np.empty((n_iter - burn_in, dim))
    accepted_window = 0
    accepted_kept = 0
    for t in range(n_iter):
        prop = x + scale * rng.standard_normal(dim)
        fp = at(prop)
        if np.log(rng.random()) < fp - fx:
            x, fx = prop, fp
            accepted_window += 1
            if t >= burn_in:
                accepted_kept += 1
        if t < burn_in:
            if (t + 1) % ADAPT_WINDOW == 0:
                rate = accepted_window / ADAPT_WINDOW
                scale *= math.exp(0.5 * (rate - ADAPT_TARGET))
                accepted_window = 0
        else:
            kept[t - burn_in] = x
    return kept, accepted_kept / max(1, n_iter - burn_in)


def reference_metropolis(kernel, init, n_chains: int, n_iter: int,
                         burn_in: int, proposal_scale: float,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(draws (n_chains, n_kept, K), acceptance rates (n_chains,))."""
    init = np.atleast_1d(np.asarray(init, dtype=float))
    results = [run_chain(kernel, init, n_iter, burn_in, proposal_scale,
                         np.random.default_rng(s))
               for s in np.random.SeedSequence(seed).spawn(n_chains)]
    return (np.stack([r[0] for r in results]),
            np.array([r[1] for r in results]))
