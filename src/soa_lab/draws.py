"""Quasi-random standard-normal draws for simulated likelihoods.

Classic (unscrambled) Halton points: dimension d is the radical inverse of
the point index in the d-th prime base, and the customary first 50 points
(indices 0-49) are discarded.  The points are mapped through the normal
inverse CDF by Wichura's algorithm AS 241, evaluated on whole arrays with
the coefficients and operation order of the standard library's
``statistics.NormalDist.inv_cdf``; only the logarithm may round
differently, so a quantile can differ from the standard library's by a
few ulps.  Each individual receives a contiguous block of the common
sequence, so the draw set is a pure function of (n_individuals, n_draws,
dim) — no seed — and is generated once per fit and cached.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_DISCARD = 50

# AS 241 (Wichura 1988) rational approximations, highest degree first:
# the central region |p - 0.5| <= 0.425, then the tail with
# r = sqrt(-ln min(p, 1 - p)) <= 5, then the far tail.
_CENTRAL = ((2.5090809287301226727e+3, 3.3430575583588128105e+4,
             6.7265770927008700853e+4, 4.5921953931549871457e+4,
             1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4,
             3.9307895800092710610e+4, 2.1213794301586595867e+4,
             5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_TAIL = ((7.7454501427834140764e-4, 2.2723844989269184583e-2,
          2.4178072517745061177e-1, 1.2704582524523683826e+0,
          3.6478483247632046050e+0, 5.7694972214606914055e+0,
          4.6303378461565452959e+0, 1.4234371107496835773e+0),
         (1.0507500716444168432e-9, 5.4759380849953449460e-4,
          1.5198666563616457197e-2, 1.4810397642748007459e-1,
          6.8976733498510000455e-1, 1.6763848301838038494e+0,
          2.0531916266377588219e+0, 1.0))
_FAR_TAIL = ((2.0103343992922881327e-7, 2.7115555687434875782e-5,
              1.2426609473880784386e-3, 2.6532189526576123093e-2,
              2.9656057182850489123e-1, 1.7848265399172913358e+0,
              5.4637849111641143699e+0, 6.6579046435011037772e+0),
             (2.0442631033899397856e-15, 1.4215117583164458887e-7,
              1.8463183175100546818e-5, 7.8686913114561325910e-4,
              1.4875361290850614853e-2, 1.3692988092273580531e-1,
              5.9983220655588793769e-1, 1.0))


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


def _ratio(coefficients: tuple, r: np.ndarray, scale=1.0) -> np.ndarray:
    """num(r) * scale / den(r), each polynomial by Horner's rule from the
    highest degree."""
    num, den = (np.full_like(r, c[0]) for c in coefficients)
    for a, b in zip(*(c[1:] for c in coefficients)):
        num = num * r + a
        den = den * r + b
    return num * scale / den


def normal_inv_cdf(p: np.ndarray) -> np.ndarray:
    """Standard-normal quantiles of probabilities strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = _ratio(_CENTRAL, 0.180625 - qc * qc, qc)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    xt = np.empty_like(r)
    xt[near] = _ratio(_TAIL, r[near] - 1.6)
    xt[~near] = _ratio(_FAR_TAIL, r[~near] - 5.0)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x


def halton_normal_draws(n_individuals: int, n_draws: int, dim: int) -> np.ndarray:
    """(n_individuals, n_draws, dim) block-partitioned normal Halton draws."""
    if min(n_individuals, n_draws, dim) < 1:
        raise InvalidInputError("n_individuals, n_draws, dim must be >= 1")
    u = halton_points(n_individuals * n_draws, dim)
    return normal_inv_cdf(u).reshape(n_individuals, n_draws, dim)
