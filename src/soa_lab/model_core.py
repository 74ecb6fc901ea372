"""Core data containers and multinomial-logit probability kernels.

Everything downstream (estimation, divergence oracles, posterior samplers)
funnels through the handful of functions here, so they are written once, in
log space with max-shifting, and never duplicated elsewhere.

Conventions used throughout the package:

* An observation's alternatives carry dense integer ids 0..J-1.
* A "sampled set" is a subset of those ids that always contains the chosen
  alternative, together with one log conditional sampling probability per
  member: entry j holds the log probability that exactly this subset would
  have been drawn had j been the chosen alternative.
* A correction mode says how those log probabilities enter the utilities
  before the softmax: "mcfadden" adds them, "none" ignores them, and
  "uniform_constant" requires them to share a single value (which then
  cancels from the softmax).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

CORRECTION_MODES = ("mcfadden", "none", "uniform_constant")


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class Alternative:
    """One alternative inside an observation: an id plus its attribute row."""

    id: int
    attributes: np.ndarray


@dataclass
class Observation:
    """A view of one choice situation of a :class:`Dataset`: its J
    alternatives and the index chosen.  ``individual_id`` groups
    observations into panels; for cross-sectional data it repeats
    ``obs_id``.  Only :attr:`Dataset.observations` builds these, from arrays
    that :meth:`Dataset.from_arrays` has checked."""

    obs_id: int
    alternatives: list[Alternative]
    chosen: int
    individual_id: int

    def attribute_matrix(self) -> np.ndarray:
        """(J, K) matrix with row j = attributes of alternative j."""
        return np.stack([a.attributes for a in self.alternatives])


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an int array; text, fractions and non-finite numbers
    are refused where a plain ``dtype=int`` cast would raise or truncate."""
    try:
        values = np.asarray(values)
    except ValueError:  # ragged nesting
        raise InvalidInputError(f"{what} must be integers") from None
    whole = values.dtype.kind in "iub" or (values.dtype.kind == "f" and bool(
        np.all((np.abs(values) < 2.0 ** 63) & (values == np.trunc(values)))))
    if not whole:
        raise InvalidInputError(f"{what} must be integers")
    return np.asarray(values, dtype=int)


class Dataset:
    """Observations sharing J and K, held as an (N, J, K) attribute tensor,
    chosen ids and individual ids.  :meth:`from_arrays` is the only
    constructor; :attr:`observations` is an object view built on first use.
    """

    @classmethod
    def from_arrays(cls, X: np.ndarray, chosen: np.ndarray,
                    individual_ids: np.ndarray | None = None) -> "Dataset":
        """Build a dataset from an (N, J, K) attribute tensor.

        ``chosen`` holds one alternative id per observation;
        ``individual_ids`` defaults to 0..N-1 (cross-sectional data).
        """
        try:
            X = np.asarray(X, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError("X must be a numeric (N, J, K) array") from None
        chosen = _whole_numbers(chosen, "chosen ids")
        if X.ndim != 3:
            raise InvalidInputError("X must have shape (N, J, K)")
        n, J, _ = X.shape
        if chosen.shape != (n,):
            raise InvalidInputError("chosen must have one entry per observation")
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("attributes must be finite")
        if np.any(chosen < 0) or np.any(chosen >= J):
            raise InvalidInputError("chosen ids outside 0..J-1")
        if individual_ids is None:
            individual_ids = np.arange(n)
        individual_ids = _whole_numbers(individual_ids, "individual_ids")
        if individual_ids.shape != (n,):
            raise InvalidInputError("individual_ids must have one entry per observation")

        self = cls.__new__(cls)
        self.J = J
        self.K = X.shape[2]
        self._X = X
        self._chosen = chosen
        self._individual = individual_ids
        self._observations = None
        return self

    @property
    def observations(self) -> list[Observation]:
        if self._observations is None:
            self._observations = [
                Observation(i, [Alternative(j, self._X[i, j])
                                for j in range(self.J)],
                            int(self._chosen[i]), int(self._individual[i]))
                for i in range(self.n_obs)]
        return self._observations

    @property
    def n_obs(self) -> int:
        return self._X.shape[0]

    def attribute_tensor(self) -> np.ndarray:
        """(N, J, K) stacked attribute matrices."""
        return self._X

    def chosen_ids(self) -> np.ndarray:
        return self._chosen

    def individual_ids(self) -> np.ndarray:
        return self._individual


@dataclass
class SampledSet:
    """A drawn subset of one observation's alternatives.

    ``member_ids`` always contains the chosen alternative.  Entry k of
    ``log_cond_prob`` is the log probability that this exact subset would be
    drawn conditional on member k being the chosen one; all entries must be
    finite (positive conditioning) and non-positive.
    """

    member_ids: np.ndarray
    log_cond_prob: np.ndarray

    def __post_init__(self):
        self.member_ids = np.asarray(self.member_ids, dtype=int)
        self.log_cond_prob = np.asarray(self.log_cond_prob, dtype=float)
        if self.member_ids.ndim != 1 or self.log_cond_prob.shape != self.member_ids.shape:
            raise InvalidInputError("member_ids and log_cond_prob must be 1-d and aligned")
        if self.member_ids.size == 0:
            raise InvalidInputError("sampled set cannot be empty")
        if len(set(self.member_ids.tolist())) != self.member_ids.size:
            raise InvalidInputError("sampled set has repeated member ids")
        # Sets are small, so Python-level checks beat numpy calls here.
        lcp = self.log_cond_prob.tolist()
        if not all(-math.inf < v <= 0.0 for v in lcp):
            if not all(map(math.isfinite, lcp)):
                raise InvalidInputError(
                    "log conditional probabilities must be finite "
                    "(the drawing protocol must give every drawn set positive "
                    "probability under each of its members)")
            raise InvalidInputError("log conditional probabilities must be <= 0")

    @property
    def size(self) -> int:
        return self.member_ids.size

    def position_of(self, alt_id: int) -> int:
        """Index of ``alt_id`` inside ``member_ids`` (error if absent)."""
        hits = np.nonzero(self.member_ids == alt_id)[0]
        if hits.size != 1:
            raise InvalidInputError(f"alternative {alt_id} not in sampled set")
        return int(hits[0])


@dataclass
class SetTable:
    """Every observation's sampled set, padded to the largest set size.

    Row i holds observation i's members and log conditional probabilities
    in member order, then padding where ``pad`` is True (member id 0, log
    probability -inf).  ``len`` is the number of observations.
    """

    member_ids: np.ndarray
    log_cond_prob: np.ndarray
    pad: np.ndarray

    @classmethod
    def from_flat(cls, obs: np.ndarray, alt: np.ndarray, lcp: np.ndarray,
                  n_obs: int) -> "SetTable":
        """Pack (obs, alt, log_cond_prob) records, keeping record order."""
        order = np.argsort(obs, kind="stable")
        obs = obs[order]
        sizes = np.bincount(obs, minlength=n_obs)
        col = np.arange(obs.size) - (np.cumsum(sizes) - sizes)[obs]
        shape = (n_obs, int(sizes.max(initial=0)))
        member_ids = np.zeros(shape, dtype=int)
        log_cond_prob = np.full(shape, -np.inf)
        member_ids[obs, col] = alt[order]
        log_cond_prob[obs, col] = lcp[order]
        return cls(member_ids, log_cond_prob,
                   np.arange(shape[1]) >= sizes[:, None])

    @classmethod
    def from_sets(cls, sets: list[SampledSet]) -> "SetTable":
        sizes = [s.size for s in sets]
        return cls.from_flat(np.repeat(np.arange(len(sets)), sizes),
                             np.concatenate([s.member_ids for s in sets]),
                             np.concatenate([s.log_cond_prob for s in sets]),
                             len(sets))

    def __len__(self) -> int:
        return self.member_ids.shape[0]

    def __getitem__(self, i):
        """Row i as a SampledSet (so iterating yields every row); a slice or
        index array gives a SetTable."""
        if not isinstance(i, (int, np.integer)):
            return SetTable(self.member_ids[i], self.log_cond_prob[i],
                            self.pad[i])
        keep = ~self.pad[i]
        return SampledSet(self.member_ids[i, keep], self.log_cond_prob[i, keep])


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------

def shifted_exp_sum(values: np.ndarray, axis: int = -1, out=None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The one max-shift: m, the maximum along ``axis`` (kept; 0 where not
    finite), and s = sum exp(v - m), 0 for an all -inf slice, summed in C
    order so that its bits do not depend on the memory layout; exp(v - m) is
    left in ``out`` (may be ``values``).  ln sum exp is m + ln s."""
    m = np.max(values, axis=axis, keepdims=True)
    np.copyto(m, 0.0, where=~np.isfinite(m))
    e = np.subtract(values, m, out=out)
    np.exp(e, out=e)
    return m, np.sum(np.ascontiguousarray(e), axis=axis, keepdims=True)


def log_sum_exp(values) -> float | np.ndarray:
    """log(sum(exp(values))) over the last axis with max-shift: a float for
    a vector, an array for a stack of them; -inf entries add nothing."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InvalidInputError("log_sum_exp of an empty vector")
    if np.any(np.isnan(v) | (v == np.inf)):
        raise InvalidInputError("log_sum_exp requires finite (or -inf) entries")
    m, s = shifted_exp_sum(v)
    with np.errstate(divide="ignore"):
        out = (m + np.log(s))[..., 0]
    return float(out) if v.ndim == 1 else out


def log_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-wise log probabilities exp(v)/sum exp(v), max-shifted.

    -inf entries are allowed and come back as -inf (zero probability);
    used by the estimators to pad ragged sampled sets.
    """
    v = np.asarray(values, dtype=float)
    m, s = shifted_exp_sum(v, axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (v - m) - np.log(s)
    # A row that is entirely -inf carries no mass; keep it -inf rather than
    # letting the (-inf) - (-inf) subtraction produce nans.
    np.copyto(out, -np.inf, where=s == 0)
    return out


def utilities(X: np.ndarray, beta) -> np.ndarray:
    """Linear utilities x'beta of an (..., J, K) attribute array: (..., J)
    at one point (K,), (P, ..., J) for a batch (P, K)."""
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.shape[-1] != beta.shape[-1]:
        raise InvalidInputError("parameter length does not match attributes")
    return (beta @ X.reshape(-1, X.shape[-1]).T).reshape(beta.shape[:-1]
                                                         + X.shape[:-1])
