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
from itertools import chain, combinations

import numpy as np

from .errors import CapacityError, InvalidInputError, InvalidStateError
from .model_core import CORRECTION_MODES, SampledSet, SetTable

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


def enumerate_sets(protocol: Protocol, J: int, chosen: int) -> SetTable:
    """Every feasible set containing ``chosen``, one row each, with exact
    conditional probabilities; ln pi(D|chosen) sits in the chosen
    alternative's column, and those probabilities sum to one over the rows
    (law of total probability for the draw given the chosen alternative)."""
    if not 0 <= chosen < J:
        raise InvalidInputError(f"chosen id {chosen} outside 0..{J - 1}")
    return _enumerate(protocol, J, chosen)


def enumerate_feasible_sets(protocol: Protocol, J: int) -> SetTable:
    """All sets the protocol can produce for ANY chosen alternative.

    This is the summation domain of the set-first orderings of the
    divergence oracles: uniform_wor yields every size-m subset,
    importance_independent every non-empty subset.
    """
    return _enumerate(protocol, J, None)


def feasible_pair_count(protocol: Protocol, J: int) -> int:
    """How many (member, set) pairs :func:`enumerate_feasible_sets` yields,
    counted without enumerating; refuses what it refuses, as it does."""
    return sum(math.comb(J, k) * k for k in _free_sizes(protocol, J, None))


def _free_sizes(protocol: Protocol, J: int, chosen: int | None) -> list[int]:
    """The number of members besides ``chosen`` in each size of feasible
    set, after checking the protocol and the cap on the set count."""
    protocol.check_for(J)
    fixed = int(chosen is not None)
    sizes = ([protocol.m - fixed] if protocol.kind == "uniform_wor"
             else list(range(1 - fixed, J - fixed + 1)))
    _check_cap(sum(math.comb(J - fixed, k) for k in sizes), protocol)
    return sizes


def _enumerate(protocol: Protocol, J: int, chosen: int | None) -> SetTable:
    """Rows ordered by size, then lexicographically over the alternatives
    other than ``chosen`` (all of them when ``chosen`` is None); members
    ascend within a row."""
    sizes = _free_sizes(protocol, J, chosen)
    universe = [j for j in range(J) if j != chosen]
    blocks = []
    for k in sizes:
        n = math.comb(len(universe), k)
        combos = np.fromiter(chain.from_iterable(combinations(universe, k)),
                             dtype=int, count=n * k).reshape(n, k)
        block = np.zeros((n, J), dtype=bool)
        block[np.arange(n)[:, None], combos] = True
        blocks.append(block)
    inside = np.concatenate(blocks)
    if chosen is not None:
        inside[:, chosen] = True

    # Stable sorts put each row's members (then its non-members) first,
    # in ascending order.
    n_in = inside.sum(axis=1)
    members = np.argsort(~inside, axis=1, kind="stable")[:, :n_in.max()]
    pad = np.arange(members.shape[1]) >= n_in[:, None]
    members[pad] = 0
    if protocol.kind == "uniform_wor":
        log_pi = -math.log(math.comb(J - 1, protocol.m - 1))
        return SetTable(members, np.where(pad, -np.inf, log_pi), pad)

    # ln pi(D|j) = sum_{k in D, k != j} ln p_k + sum_{k not in D} ln(1 - p_k),
    # formed as for a drawn set (_importance_log_cond_probs), row by row.
    log_p = np.log(protocol.inclusion_probs)
    lp_in = np.where(pad, 0.0, log_p[members])
    outside = np.argsort(inside, axis=1, kind="stable")[:, :J - n_in.min()]
    log_out = np.where(np.arange(outside.shape[1]) >= (J - n_in)[:, None],
                       0.0, np.log1p(-protocol.inclusion_probs)[outside])
    lcp = (lp_in.sum(axis=1)[:, None] - lp_in) + log_out.sum(axis=1)[:, None]
    return SetTable(members, np.where(pad, -np.inf, np.minimum(lcp, 0.0)), pad)


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
