"""Quasi-random standard-normal draws for simulated likelihoods.

Classic (unscrambled) Halton points: dimension d is the radical inverse of
the point index in the d-th prime base, and the customary first 50 points
(indices 0-49) are discarded.  The points are mapped through the normal
inverse CDF of the standard library (``statistics.NormalDist.inv_cdf``,
Wichura's algorithm AS 241).  Each individual receives a contiguous block
of the common sequence, so the draw set is a pure function of
(n_individuals, n_draws, dim) — no seed — and is generated once per fit
and cached.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .errors import InvalidInputError

_DISCARD = 50


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def halton_points(n: int, dim: int) -> np.ndarray:
    """(n, dim) Halton points of indices 50 .. 49 + n, each in (0, 1).

    Digits are accumulated least significant first, each scaled by the next
    power of 1/base.
    """
    columns = []
    for base in _first_primes(dim):
        q = np.arange(_DISCARD, _DISCARD + n)
        column = np.zeros(n)
        scale = 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            column += digit * scale
            scale /= base
        columns.append(column)
    return np.stack(columns, axis=1)


def halton_normal_draws(n_individuals: int, n_draws: int, dim: int) -> np.ndarray:
    """(n_individuals, n_draws, dim) block-partitioned normal Halton draws."""
    if min(n_individuals, n_draws, dim) < 1:
        raise InvalidInputError("n_individuals, n_draws, dim must be >= 1")
    u = halton_points(n_individuals * n_draws, dim)
    z = np.fromiter(map(NormalDist().inv_cdf, u.ravel().tolist()), float, u.size)
    return z.reshape(n_individuals, n_draws, dim)
