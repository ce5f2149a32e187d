"""The greedy selection inner loop, over each record's support bitset
and mass in plain integers, so selection never depends on float rounding.
"""

from __future__ import annotations


def greedy_select(base, candidates, keys, max_size: int):
    """Greedy argmin-dispersion selection over candidate supports.

    base: (support, mass) of the selecting node's record, where support is
        an `int` bitset with bit p set when position p has a nonzero count
        and mass is the total count.
    candidates: one (support, mass) pair per candidate record.
    keys: one tie-break key per candidate, compared with `<`; smaller wins.
    max_size: cap on selections; selection stops earlier only when
        candidates run out.

    Returns (order, distinct, mass) lists: candidate indices in selection
    order and, per step, the distinct-position count and total mass of the
    merged record after that selection (dispersion = distinct / mass; an
    empty merge reports 1 / 1).

    Candidates are compared by (dispersion, key), where the dispersion of
    candidate c at a step is |merged | support_c| / (mass + mass_c) for the
    running merged record; comparisons cross-multiply to stay exact.
    """
    if len(keys) != len(candidates):
        raise ValueError("one key per candidate required")
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    merged, mass = base
    left = list(range(len(candidates)))
    order, dist_out, mass_out = [], [], []
    for _ in range(min(len(candidates), max_size)):
        best = -1
        best_num = best_den = 0
        for c in left:
            support, cand_mass = candidates[c]
            num = (merged | support).bit_count()
            den = mass + cand_mass
            if den == 0:
                num = den = 1
            lhs, rhs = num * best_den, best_num * den
            if best < 0 or lhs < rhs or (lhs == rhs and keys[c] < keys[best]):
                best, best_num, best_den = c, num, den
        left.remove(best)
        order.append(best)
        dist_out.append(best_num)
        mass_out.append(best_den)
        merged |= candidates[best][0]
        mass += candidates[best][1]
    return order, dist_out, mass_out
