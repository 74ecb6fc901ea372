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

Random streams are counter-based.  Observation i draws from numpy's PCG64
seeded by the SeedSequence of entropy ``seed`` and spawn key (i, 0), and
the streams here equal those bit for bit; :func:`seeded_streams` runs the
SeedSequence hashing over many keys at once, on arrays of 32-bit words,
instead of building one SeedSequence per key.  :func:`draw_set_table` draws
every observation's set in one pass: one generator call per row, then
array work over the (N, J) table.

Drawn and enumerated sets share one table builder, from a (rows, J)
membership matrix to a padded SetTable, so a set's ln pi(D|j) has the same
bits whichever way it was produced.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Iterator
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


def draw_set_table(protocol: Protocol, chosen_ids, J: int, seed: int) -> SetTable:
    """One sampled set per observation, drawn for the chosen ids in order.

    Row i comes from observation i's stream, the one
    ``derive_stream(seed, i)`` gives, so the table equals the stack of
    :func:`draw_sampled_set` rows bit for bit.
    """
    chosen = np.asarray(chosen_ids, dtype=int)
    if chosen.ndim != 1 or np.any((chosen < 0) | (chosen >= J)):
        raise InvalidInputError(f"chosen ids must be a vector in 0..{J - 1}")
    keys = np.column_stack([np.arange(chosen.size),
                            np.zeros(chosen.size, dtype=int)])
    return _draw_rows(protocol, chosen, J, seeded_streams(seed, keys))


def draw_sampled_set(protocol: Protocol, chosen: int, J: int,
                     rng_stream: np.random.Generator) -> SampledSet:
    """Draw one sampled set for an observation with J alternatives whose
    chosen alternative is ``chosen``; the set always contains it.

    The caller supplies the seeded stream (see :func:`derive_stream`), so
    replications stay reproducible however they are scheduled.  This is the
    one-row case of the kernel behind :func:`draw_set_table`.
    """
    if not 0 <= chosen < J:
        raise InvalidInputError(f"chosen id {chosen} outside 0..{J - 1}")
    table = _draw_rows(protocol, np.array([chosen]), J, [rng_stream])
    # A one-row table is as wide as its set: no padding to drop.
    return SampledSet(table.member_ids[0], table.log_cond_prob[0])


def _draw_rows(protocol: Protocol, chosen: np.ndarray, J: int,
               streams: Iterable[np.random.Generator]) -> SetTable:
    """The row kernel.  Row i makes one call on its stream to draw the
    members besides chosen[i], among the J-1 others in ascending order:
    uniform_wor picks m-1 of them without replacement, and
    importance_independent draws one uniform each, to compare with its p_k.
    The (n, J) membership then goes to :func:`_table`."""
    protocol.check_for(J)
    n = chosen.size
    if protocol.kind == "uniform_wor":
        k = protocol.m - 1
        picked = np.array([rng.choice(J - 1, size=k, replace=False)
                           for rng in streams], dtype=int).reshape(n, k)
        picked += picked >= chosen[:, None]  # positions among others -> ids
        inside = np.zeros((n, J), dtype=bool)
        inside[np.arange(n)[:, None], picked] = True
        inside[np.arange(n), chosen] = True
        return _table(protocol, inside)
    draws = np.array([rng.random(J - 1) for rng in streams])
    u = np.zeros((n, J))  # chosen keeps 0 < p_chosen, so it is always in
    u[np.arange(J) != chosen[:, None]] = draws.ravel()
    return _table(protocol, u < protocol.inclusion_probs)


def _table(protocol: Protocol, inside: np.ndarray) -> SetTable:
    """The SetTable of the sets whose (rows, J) membership is ``inside``:
    members ascending within a row, then padding.  Drawn and enumerated
    sets both come from here, so a set's row has the same bits either way.

    ln pi(D|j) is the uniform constant, or for importance_independent
    sum_{k in D, k != j} ln p_k + sum_{k not in D} ln(1 - p_k), accumulated,
    never differenced, from non-positive terms.  Both sums run in ascending
    id order over exactly the row's terms, so a row's bits do not depend on
    the others: rows are summed a set size at a time, since numpy's
    pairwise summation groups terms by their count.
    """
    n, J = inside.shape
    n_in = inside.sum(axis=1)
    width = int(n_in.max(initial=0))
    pad = np.arange(width) >= n_in[:, None]
    # nonzero lists each row's members in ascending order, row after row:
    # the order in which a masked assignment fills the member slots.
    members = np.zeros((n, width), dtype=int)
    members[~pad] = np.nonzero(inside)[1]
    lcp = np.empty((n, width))
    lcp.fill(-np.inf)
    if protocol.kind == "uniform_wor":
        # 1/C(J-1, m-1), whichever member is the chosen one.
        lcp[~pad] = -math.log(math.comb(J - 1, protocol.m - 1))
        return SetTable(members, lcp, pad)
    sizes = set(n_in.tolist())
    for size in sizes:
        # A slice, not a mask, when every row has the same size.
        at = slice(None) if len(sizes) == 1 else n_in == size
        ids = members[at, :size]
        outside = np.nonzero(~inside[at])[1].reshape(len(ids), J - size)
        lp_in = np.log(protocol.inclusion_probs[ids])
        log_out = np.log1p(-protocol.inclusion_probs[outside])
        # Mathematically <= 0; the subtraction can leave ~1 ulp of dust.
        lcp[at, :size] = np.minimum((lp_in.sum(axis=1, keepdims=True) - lp_in)
                                    + log_out.sum(axis=1, keepdims=True), 0.0)
    return SetTable(members, lcp, pad)


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
    return _table(protocol, inside)


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


def centred_corrections(sets: SetTable, mode: str) -> np.ndarray:
    """The mode's corrections of each row of ``sets`` less the row's largest,
    0 on padding: no probability moves and shared constants vanish exactly."""
    c = correction_vector(sets.log_cond_prob, mode)
    c_max = np.max(np.where(sets.pad, -np.inf, c), axis=1, keepdims=True)
    return np.where(sets.pad, 0.0, c - c_max)


# numpy's SeedSequence: a pool of four 32-bit words and its hash constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of ``value`` (an int below 2**32, or a uint64
    array of such words) under hash constant ``const``; returns the hashed
    value and the next constant.  Products are masked to 32 bits, so ints
    and arrays give the same words with no overflow."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return r ^ r >> 16


def _absorb(pool: list, const: int, words) -> tuple[list, int]:
    """Mix entropy words beyond the pool size into every pool word."""
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool and the next hash constant once the seed's words are mixed
    in: the part of every (seed, spawn key) hash that the key leaves alone.
    With a spawn key, SeedSequence pads the seed's words to the pool size."""
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    pool, const = _absorb(pool, const, words[_POOL_SIZE:])
    return tuple(pool), const


def _spawn_state(seed: int, key_words: list) -> list:
    """What ``generate_state(4, np.uint64)`` gives for numpy's SeedSequence
    of entropy ``seed`` and spawn key ``key``: four 64-bit words, for one
    key (ints) or every key at once (uint64 arrays, one entry per key)."""
    pool, const = _seed_pool(seed)
    pool, _ = _absorb(list(pool), const, key_words)
    out, const = [], _INIT_B
    for i in range(8):
        hashed, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        out.append(hashed)
    # Little-endian pairs of 32-bit words make the 64-bit words.
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _SpawnedState:
    """A stand-in for the SeedSequence of one (seed, spawn key), holding
    the words it would generate for PCG64, so PCG64 seeds itself from them
    exactly as from that SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's 4 uint64 words are held")
        return self.words


@functools.cache
def _register_spawned_state() -> None:
    # Registered on first use, not at import: numpy loads numpy.random
    # lazily, and importing it adds ~40 ms and ~3 MB to every verb's start.
    np.random.bit_generator.ISeedSequence.register(_SpawnedState)


def _generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator seeded from one key's SeedSequence words."""
    _register_spawned_state()
    return np.random.Generator(np.random.PCG64(_SpawnedState(words)))


def _checked_seed(seed) -> int:
    """The seed as an int, refusing a negative or non-integer one (its split
    into 32-bit words would not end)."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise InvalidInputError(f"seed {seed!r} is not a non-negative integer")
    return int(seed)


def _check_key_range(low, high) -> None:
    # A larger entry would take several SeedSequence words.
    if low < 0 or high > _MASK32:
        raise InvalidInputError("spawn key entries must lie in 0..2**32-1")


def seeded_streams(seed: int, keys) -> Iterator[np.random.Generator]:
    """One generator per row of the (n, k) spawn keys, in row order.

    Each equals, bit for bit, ``np.random.default_rng`` of numpy's
    SeedSequence with entropy ``seed`` and spawn key ``tuple(row)``: the
    SeedSequence hashing runs over all the keys at once as arrays, and
    PCG64 seeds itself from the hashed words, so no SeedSequence is built.
    Key entries must lie in 0..2**32-1 (one hash word each).
    """
    seed = _checked_seed(seed)
    keys = np.asarray(keys)
    if (keys.ndim != 2 or keys.shape[1] == 0
            or not np.issubdtype(keys.dtype, np.integer)):
        raise InvalidInputError("spawn keys must be an (n, k) integer array, k >= 1")
    if keys.size:
        _check_key_range(keys.min(), keys.max())
    words = np.column_stack(_spawn_state(seed, list(keys.T.astype(np.uint64))))
    return (_generator(row) for row in words)


def derive_stream(master_seed: int, obs_id: int, replication: int = 0) -> np.random.Generator:
    """Independent stream for one (observation, replication) pair: the
    one-key case of :func:`seeded_streams`, key (obs_id, replication).

    Splitting by spawn key is counter-based: streams depend only on the
    identifiers, never on draw order, so parallel schedules reproduce.
    """
    key = [operator.index(obs_id), operator.index(replication)]
    _check_key_range(min(key), max(key))
    return _generator(np.array(_spawn_state(_checked_seed(master_seed), key),
                               dtype=np.uint64))


def _check_cap(count: int, protocol: Protocol) -> None:
    if count > protocol.enumeration_cap:
        raise CapacityError(
            f"enumeration would produce {count} sets, above the cap of "
            f"{protocol.enumeration_cap}")
