"""Choice-set sampling protocols.

Two protocols are implemented, both independent of the utility parameters
so sets never need redrawing during estimation:

* ``uniform_wor`` — the chosen alternative plus m-1 of the remaining J-1
  drawn uniformly without replacement.  Conditional on any member j being
  the chosen one, the probability of the drawn set is the constant
  1/C(J-1, m-1), so the correction factor is the same for every member
  (uniform conditioning) and cancels from the corrected softmax.
* ``importance_independent`` — each non-chosen alternative k enters the set
  independently with probability p_k in (0,1).  Conditional on member j
  being chosen, the set probability has the closed product form
  prod_{k in D, k != j} p_k * prod_{k not in D} (1 - p_k).

Keeping every p_k strictly inside (0,1) guarantees that each feasible set
has positive probability under each of its members, so all stored log
conditional probabilities are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, InvalidInputError, InvalidStateError
from .model_core import CORRECTION_MODES, Observation, SampledSet

PROTOCOL_KINDS = ("uniform_wor", "importance_independent")

DEFAULT_ENUMERATION_CAP = 10 ** 6

# Tolerance for deciding that a correction vector is a shared constant.
_UNIFORM_ATOL = 1e-12


@dataclass
class Protocol:
    """Immutable description of how sampled sets are drawn.

    ``m`` (total size, chosen included) applies to uniform_wor only;
    ``inclusion_probs`` (length J, entries strictly in (0,1)) applies to
    importance_independent only.
    """

    kind: str
    m: int | None = None
    inclusion_probs: np.ndarray | None = None
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise InvalidInputError(f"unknown protocol kind {self.kind!r}")
        if self.kind == "uniform_wor":
            if self.m is None or int(self.m) != self.m or self.m < 2:
                raise InvalidInputError("uniform_wor needs integer m >= 2")
            self.m = int(self.m)
            if self.inclusion_probs is not None:
                raise InvalidInputError("uniform_wor takes no inclusion_probs")
        else:
            if self.inclusion_probs is None:
                raise InvalidInputError(
                    "importance_independent needs inclusion_probs")
            p = np.asarray(self.inclusion_probs, dtype=float)
            if p.ndim != 1 or p.size == 0:
                raise InvalidInputError("inclusion_probs must be a 1-d vector")
            if np.any(p <= 0.0) or np.any(p >= 1.0):
                raise InvalidInputError(
                    "inclusion probabilities must lie strictly inside (0,1)")
            self.inclusion_probs = p
            if self.m is not None:
                raise InvalidInputError("importance_independent takes no m")

    def check_for(self, J: int) -> None:
        """Validate the protocol against a concrete choice-set size."""
        if self.kind == "uniform_wor":
            if self.m > J:
                raise InvalidInputError(f"m={self.m} exceeds J={J}")
        else:
            if self.inclusion_probs.shape[0] != J:
                raise InvalidInputError(
                    f"inclusion_probs has length {self.inclusion_probs.shape[0]},"
                    f" choice set has J={J}")


@dataclass
class EnumeratedSet:
    """One feasible set for a fixed chosen alternative, with probabilities.

    ``log_prob_given_chosen`` is the log probability of drawing exactly this
    set given the fixed chosen alternative; ``log_cond_prob`` holds the same
    quantity conditional on each member having been the chosen one instead.
    """

    member_ids: np.ndarray
    log_prob_given_chosen: float
    log_cond_prob: np.ndarray

    def __post_init__(self):
        self.member_ids = np.asarray(self.member_ids, dtype=int)
        self.log_cond_prob = np.asarray(self.log_cond_prob, dtype=float)


def _importance_log_cond_probs(members: np.ndarray, J: int,
                               log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """ln pi(D|j) for every member j under independent inclusion.

    Each entry is accumulated as a sum of non-positive terms (never as a
    difference), so results are guaranteed <= 0 in floating point.
    """
    out_mask = np.ones(J, dtype=bool)
    out_mask[members] = False
    log_out = float(np.sum(log_q[out_mask]))
    lp_members = log_p[members]
    total_in = float(np.sum(lp_members))
    out = (total_in - lp_members) + log_out
    # Mathematically <= 0; the subtraction can leave ~1 ulp of positive dust.
    return np.minimum(out, 0.0)


def draw_sampled_set(protocol: Protocol, chosen: int, J: int,
                     rng_stream: np.random.Generator) -> SampledSet:
    """Draw one sampled set for an observation with J alternatives whose
    chosen alternative is ``chosen``; the set always contains it.

    The caller supplies the seeded stream (see :func:`derive_stream`), so
    replications stay reproducible however they are scheduled.
    """
    protocol.check_for(J)
    others = np.array([j for j in range(J) if j != chosen], dtype=int)

    if protocol.kind == "uniform_wor":
        picked = rng_stream.choice(others, size=protocol.m - 1, replace=False)
        members = np.sort(np.concatenate(([chosen], picked)))
        log_pi = -math.log(math.comb(J - 1, protocol.m - 1))
        return SampledSet(members, np.full(members.size, log_pi))

    p = protocol.inclusion_probs
    include = rng_stream.random(others.size) < p[others]
    members = np.sort(np.concatenate(([chosen], others[include])))
    log_p = np.log(p)
    log_q = np.log1p(-p)
    return SampledSet(members, _importance_log_cond_probs(members, J, log_p, log_q))


def enumerate_sets(protocol: Protocol, observation: Observation,
                   chosen: int) -> list[EnumeratedSet]:
    """Every feasible set containing ``chosen``, with exact probabilities.

    Probabilities over the returned list sum to one (law of total
    probability for the draw conditional on the chosen alternative).
    """
    J = observation.n_alts
    protocol.check_for(J)
    if not 0 <= chosen < J:
        raise InvalidInputError(f"chosen id {chosen} outside 0..{J - 1}")
    others = [j for j in range(J) if j != chosen]

    if protocol.kind == "uniform_wor":
        count = math.comb(J - 1, protocol.m - 1)
        _check_cap(count, protocol)
        log_pi = -math.log(count)
        sets = []
        for combo in combinations(others, protocol.m - 1):
            members = np.sort(np.array((chosen,) + combo, dtype=int))
            sets.append(EnumeratedSet(members, log_pi,
                                      np.full(members.size, log_pi)))
        return sets

    count = 2 ** (J - 1)
    _check_cap(count, protocol)
    p = protocol.inclusion_probs
    log_p = np.log(p)
    log_q = np.log1p(-p)
    sets = []
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            members = np.sort(np.array((chosen,) + combo, dtype=int))
            lcp = _importance_log_cond_probs(members, J, log_p, log_q)
            pos = int(np.nonzero(members == chosen)[0][0])
            sets.append(EnumeratedSet(members, float(lcp[pos]), lcp))
    return sets


def enumerate_feasible_sets(protocol: Protocol, J: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """All sets the protocol can produce for ANY chosen alternative.

    Returns (member_ids, log_cond_prob) pairs.  This is the summation domain
    of the set-first orderings of the divergence oracles: uniform_wor yields
    every size-m subset, importance_independent every non-empty subset.
    """
    protocol.check_for(J)
    if protocol.kind == "uniform_wor":
        count = math.comb(J, protocol.m)
        _check_cap(count, protocol)
        log_pi = -math.log(math.comb(J - 1, protocol.m - 1))
        return [(np.array(c, dtype=int), np.full(protocol.m, log_pi))
                for c in combinations(range(J), protocol.m)]

    count = 2 ** J - 1
    _check_cap(count, protocol)
    log_p = np.log(protocol.inclusion_probs)
    log_q = np.log1p(-protocol.inclusion_probs)
    out = []
    for size in range(1, J + 1):
        for combo in combinations(range(J), size):
            members = np.array(combo, dtype=int)
            out.append((members, _importance_log_cond_probs(members, J, log_p, log_q)))
    return out


def correction_vector(log_cond_prob: np.ndarray, mode: str) -> np.ndarray:
    """Additive utility corrections, row-wise over one set's log conditional
    probabilities or a SetTable's (-inf padding gets zeros): mcfadden returns
    them, none zeros, uniform_constant the one value each set's members must
    share (it cancels in the softmax; the divergence oracles consume it)."""
    if mode not in CORRECTION_MODES:
        raise InvalidInputError(f"unknown correction mode {mode!r}")
    lcp = np.asarray(log_cond_prob, dtype=float)
    pad = np.isneginf(lcp)
    if mode == "none":
        return np.zeros_like(lcp)
    if mode == "mcfadden":
        return np.where(pad, 0.0, lcp)
    spread = float(np.max(np.max(lcp, axis=-1)
                          - np.min(np.where(pad, np.inf, lcp), axis=-1)))
    if spread > _UNIFORM_ATOL:
        raise InvalidStateError(
            "uniform_constant correction requires identical log conditional "
            f"probabilities across members; spread is {spread:g}")
    return np.where(pad, 0.0, lcp[..., :1])


def derive_stream(master_seed: int, obs_id: int, replication: int = 0) -> np.random.Generator:
    """Independent stream for one (observation, replication) pair.

    Splitting by spawn key is counter-based: streams depend only on the
    identifiers, never on draw order, so parallel schedules reproduce.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(obs_id, replication))
    return np.random.default_rng(ss)


def _check_cap(count: int, protocol: Protocol) -> None:
    if count > protocol.enumeration_cap:
        raise CapacityError(
            f"enumeration would produce {count} sets, above the cap of "
            f"{protocol.enumeration_cap}")
