"""Array kernels behind the metric and selection hot paths, in numpy.

Dispersion comparisons use exact integer arithmetic (cross-multiplied
ratios), so selection never depends on floating-point rounding.

Dispersion convention used throughout: for a merged count vector with
``distinct`` nonzero positions and total mass ``m``, the dispersion is
``distinct / m``; an empty vector (m == 0) scores as 1.0, i.e. worst.
"""

from __future__ import annotations

import math

import numpy as np

_CEIL_GUARD = 1e-9  # absorbs float noise in position/granularity divisions


def bin_span(start: float, end: float, granularity: float, horizon: int) -> tuple[int, int]:
    """Half-open bin index range [lo, hi) whose bin starts fall in [start, end)."""
    lo = int(math.ceil(start / granularity - _CEIL_GUARD))
    hi = int(math.ceil(end / granularity - _CEIL_GUARD))
    return max(lo, 0), min(max(hi, 0), horizon)


def coverage_counts(starts, ends, granularity: float, horizon: int) -> np.ndarray:
    """Count, per position bin, how many [start, end) intervals cover the bin start."""
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    ends = np.ascontiguousarray(ends, dtype=np.float64)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have equal length")
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    lo = np.ceil(starts / granularity - _CEIL_GUARD).astype(np.int64)
    hi = np.ceil(ends / granularity - _CEIL_GUARD).astype(np.int64)
    np.clip(lo, 0, horizon, out=lo)
    np.clip(hi, 0, horizon, out=hi)
    delta = np.zeros(horizon + 1, dtype=np.int64)
    covered = hi > lo
    np.add.at(delta, lo[covered], 1)
    np.add.at(delta, hi[covered], -1)
    return np.cumsum(delta[:horizon])


def greedy_select(base, cands, keys, max_size: int):
    """Greedy argmin-dispersion selection over candidate count vectors.

    base: int64[T] running record of the selecting node.
    cands: int64[C, T] candidate records, one row each.
    keys: int64[C, K] lexicographic tie-break keys, smaller wins.
    max_size: cap on selections; selection stops earlier only when
        candidates run out.

    Returns (order, distinct, mass): candidate row indices in selection
    order and, per step, the distinct-position count and total mass of the
    merged vector after that selection (dispersion = distinct / mass,
    taken as 1.0 when mass is 0).

    Candidates are compared by (dispersion, keys...), where the dispersion
    of candidate c at a step is (distinct + new_c) / (mass + mass_c) for
    the running merged vector; comparisons cross-multiply to stay exact.
    """
    base = np.ascontiguousarray(base, dtype=np.int64)
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if cands.ndim != 2 or cands.shape[1] != base.shape[0]:
        raise ValueError("candidate matrix must be C x T with T matching base")
    if keys.shape[0] != cands.shape[0]:
        raise ValueError("one key row per candidate required")
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    if cands.shape[0] == 0 or max_size == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none.copy(), none.copy()

    n_cands = cands.shape[0]
    steps = min(n_cands, max_size)
    selected = np.empty(steps, dtype=np.int64)
    dist_out = np.empty(steps, dtype=np.int64)
    mass_out = np.empty(steps, dtype=np.int64)

    merged = base.copy()
    has_pos = cands > 0
    cand_mass = cands.sum(axis=1)
    taken = np.zeros(n_cands, dtype=bool)
    key_rows = [tuple(int(k) for k in keys[c]) for c in range(n_cands)]

    for step in range(steps):
        empty = merged == 0
        new_pos = has_pos[:, empty].sum(axis=1)
        distinct = int(np.count_nonzero(~empty))
        mass = int(merged.sum())
        best = -1
        best_num = best_den = 0
        for c in range(n_cands):
            if taken[c]:
                continue
            num = distinct + int(new_pos[c])
            den = mass + int(cand_mass[c])
            if den == 0:
                num = den = 1
            if best < 0:
                better = True
            elif num * best_den != best_num * den:
                better = num * best_den < best_num * den
            else:
                better = key_rows[c] < key_rows[best]
            if better:
                best, best_num, best_den = c, num, den
        taken[best] = True
        selected[step] = best
        dist_out[step] = best_num
        mass_out[step] = best_den
        merged += cands[best]
    return selected, dist_out, mass_out
