"""Reference per-observation set draws: one SeedSequence-built generator and
one SampledSet per observation, as the sampled-set path drew them before
the whole table was drawn in one array pass; and the SampledSet helpers
the tests use on them."""

import math

import numpy as np

from soa_lab import InvalidInputError, SampledSet, SetTable


def table_from_sets(sets) -> SetTable:
    """A list of SampledSet rows packed into one SetTable, in list order."""
    sizes = [s.size for s in sets]
    return SetTable.from_flat(np.repeat(np.arange(len(sets)), sizes),
                              np.concatenate([s.member_ids for s in sets]),
                              np.concatenate([s.log_cond_prob for s in sets]),
                              len(sets))


def position_of(sampled_set: SampledSet, alt_id: int) -> int:
    """Index of ``alt_id`` inside the set's ``member_ids`` (error if absent)."""
    hits = np.nonzero(sampled_set.member_ids == alt_id)[0]
    if hits.size != 1:
        raise InvalidInputError(f"alternative {alt_id} not in sampled set")
    return int(hits[0])


def derive_stream(master_seed, obs_id, replication=0):
    ss = np.random.SeedSequence(master_seed, spawn_key=(obs_id, replication))
    return np.random.default_rng(ss)


def _importance_log_cond_probs(members, J, log_p, log_q):
    out_mask = np.ones(J, dtype=bool)
    out_mask[members] = False
    log_out = float(np.sum(log_q[out_mask]))
    lp_members = log_p[members]
    total_in = float(np.sum(lp_members))
    out = (total_in - lp_members) + log_out
    return np.minimum(out, 0.0)


def draw_sampled_set(protocol, chosen, J, rng_stream):
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
    return SampledSet(members, _importance_log_cond_probs(
        members, J, np.log(p), np.log1p(-p)))


def draw_set_table(protocol, chosen_ids, J, seed):
    """The stack of per-observation draws, observation i on stream (i, 0)."""
    return table_from_sets([
        draw_sampled_set(protocol, chosen, J, derive_stream(seed, i))
        for i, chosen in enumerate(np.asarray(chosen_ids).tolist())])
