"""Loop enumerators of feasible sets, kept as a slow reference for the
table enumerator in ``soa_lab.protocols``.

Each returns a list of (member_ids, log_cond_prob) pairs, one per feasible
set, in the row order the table must reproduce.
"""

import math
from itertools import combinations

import numpy as np


def _importance_log_cond_probs(members, J, log_p, log_q):
    out_mask = np.ones(J, dtype=bool)
    out_mask[members] = False
    log_out = float(np.sum(log_q[out_mask]))
    lp_members = log_p[members]
    total_in = float(np.sum(lp_members))
    return np.minimum((total_in - lp_members) + log_out, 0.0)


def reference_sets(protocol, J, chosen=None):
    """Every feasible set containing ``chosen``, or every feasible set at
    all when ``chosen`` is None."""
    others = [j for j in range(J) if j != chosen]
    fixed = () if chosen is None else (chosen,)
    if protocol.kind == "uniform_wor":
        log_pi = -math.log(math.comb(J - 1, protocol.m - 1))
        return [(members, np.full(members.size, log_pi))
                for combo in combinations(others, protocol.m - len(fixed))
                for members in [np.sort(np.array(fixed + combo, dtype=int))]]

    log_p = np.log(protocol.inclusion_probs)
    log_q = np.log1p(-protocol.inclusion_probs)
    out = []
    for size in range(1 - len(fixed), len(others) + 1):
        for combo in combinations(others, size):
            members = np.sort(np.array(fixed + combo, dtype=int))
            out.append((members, _importance_log_cond_probs(members, J, log_p,
                                                            log_q)))
    return out
