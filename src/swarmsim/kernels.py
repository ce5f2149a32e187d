"""Array kernels behind the metric and selection hot paths.

Two interchangeable backends: numba-compiled loops (the default when
numba is importable) and pure numpy (the default otherwise). Set
``SWARMSIM_KERNELS=numpy`` to force the fallback, or
``SWARMSIM_KERNELS=numba`` to fail loudly when numba is unavailable.
Both backends use exact integer arithmetic for dispersion comparisons
(cross-multiplied ratios), so they select identical candidates.

Dispersion convention used throughout: for a merged count vector with
``distinct`` nonzero positions and total mass ``m``, the dispersion is
``distinct / m``; an empty vector (m == 0) scores as 1.0, i.e. worst.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - mirror without numba
    NUMBA_AVAILABLE = False

_CEIL_GUARD = 1e-9  # absorbs float noise in position/granularity divisions


def _backend_from_env() -> str:
    env = os.environ.get("SWARMSIM_KERNELS", "").strip().lower()
    if env in ("", "auto"):
        return "numba" if NUMBA_AVAILABLE else "numpy"
    if env == "numpy":
        return "numpy"
    if env == "numba":
        if not NUMBA_AVAILABLE:
            raise RuntimeError("SWARMSIM_KERNELS=numba but numba is not importable")
        return "numba"
    raise RuntimeError(f"unknown SWARMSIM_KERNELS value: {env!r}")


_backend = _backend_from_env()


def backend() -> str:
    """Name of the active backend: 'numba' or 'numpy'."""
    return _backend


def set_backend(name: str) -> None:
    """Switch backends at runtime (used by tests and the benchmark)."""
    global _backend
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not NUMBA_AVAILABLE:
        raise RuntimeError("numba backend requested but numba is not importable")
    _backend = name


def bin_span(start: float, end: float, granularity: float, horizon: int) -> tuple[int, int]:
    """Half-open bin index range [lo, hi) whose bin starts fall in [start, end)."""
    lo = int(math.ceil(start / granularity - _CEIL_GUARD))
    hi = int(math.ceil(end / granularity - _CEIL_GUARD))
    return max(lo, 0), min(max(hi, 0), horizon)


# ---------------------------------------------------------------------------
# coverage_counts: per-bin request counts


def _coverage_counts_numpy(starts, ends, granularity, horizon):
    lo = np.ceil(starts / granularity - _CEIL_GUARD).astype(np.int64)
    hi = np.ceil(ends / granularity - _CEIL_GUARD).astype(np.int64)
    np.clip(lo, 0, horizon, out=lo)
    np.clip(hi, 0, horizon, out=hi)
    delta = np.zeros(horizon + 1, dtype=np.int64)
    covered = hi > lo
    np.add.at(delta, lo[covered], 1)
    np.add.at(delta, hi[covered], -1)
    return np.cumsum(delta[:horizon])


def _coverage_counts_loop(starts, ends, granularity, horizon):
    delta = np.zeros(horizon + 1, dtype=np.int64)
    for i in range(starts.shape[0]):
        lo = int(math.ceil(starts[i] / granularity - _CEIL_GUARD))
        hi = int(math.ceil(ends[i] / granularity - _CEIL_GUARD))
        if lo < 0:
            lo = 0
        if hi > horizon:
            hi = horizon
        if hi > lo:
            delta[lo] += 1
            delta[hi] -= 1
    counts = np.empty(horizon, dtype=np.int64)
    acc = 0
    for p in range(horizon):
        acc += delta[p]
        counts[p] = acc
    return counts


if NUMBA_AVAILABLE:
    _coverage_counts_numba = njit(cache=True)(_coverage_counts_loop)


def coverage_counts(starts, ends, granularity: float, horizon: int) -> np.ndarray:
    """Count, per position bin, how many [start, end) intervals cover the bin start."""
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    ends = np.ascontiguousarray(ends, dtype=np.float64)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have equal length")
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    if _backend == "numba":
        return _coverage_counts_numba(starts, ends, granularity, horizon)
    return _coverage_counts_numpy(starts, ends, granularity, horizon)


# ---------------------------------------------------------------------------
# greedy_select: iterative dispersion-minimizing subset construction
#
# Candidates are compared by (dispersion, tie_keys...) where dispersion of
# candidate c at a step is (distinct + new_c) / (mass + mass_c) for the
# running merged vector. Comparisons cross-multiply to stay exact.


def _greedy_select_loop(base, cands, keys, max_size):
    n_cands, horizon = cands.shape
    steps = min(n_cands, max_size)
    selected = np.empty(steps, dtype=np.int64)
    dist_out = np.empty(steps, dtype=np.int64)
    mass_out = np.empty(steps, dtype=np.int64)

    merged = base.copy()
    distinct = 0
    mass = 0
    for p in range(horizon):
        v = merged[p]
        if v > 0:
            distinct += 1
            mass += v

    cand_mass = np.zeros(n_cands, dtype=np.int64)
    for c in range(n_cands):
        for p in range(horizon):
            cand_mass[c] += cands[c, p]

    taken = np.zeros(n_cands, dtype=np.bool_)
    n_keys = keys.shape[1]

    for step in range(steps):
        best = -1
        best_num = 0
        best_den = 0
        for c in range(n_cands):
            if taken[c]:
                continue
            new_pos = 0
            for p in range(horizon):
                if cands[c, p] > 0 and merged[p] == 0:
                    new_pos += 1
            num = distinct + new_pos
            den = mass + cand_mass[c]
            if den == 0:
                num = 1
                den = 1
            if best < 0:
                better = True
            else:
                lhs = num * best_den
                rhs = best_num * den
                if lhs != rhs:
                    better = lhs < rhs
                else:
                    better = False
                    for k in range(n_keys):
                        if keys[c, k] != keys[best, k]:
                            better = keys[c, k] < keys[best, k]
                            break
            if better:
                best = c
                best_num = num
                best_den = den
        taken[best] = True
        selected[step] = best
        dist_out[step] = best_num
        mass_out[step] = best_den
        for p in range(horizon):
            merged[p] += cands[best, p]
        distinct = 0
        mass = 0
        for p in range(horizon):
            v = merged[p]
            if v > 0:
                distinct += 1
                mass += v
    return selected, dist_out, mass_out


if NUMBA_AVAILABLE:
    _greedy_select_numba = njit(cache=True)(_greedy_select_loop)


def _greedy_select_numpy(base, cands, keys, max_size):
    n_cands, horizon = cands.shape
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
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if _backend == "numba":
        return _greedy_select_numba(base, cands, keys, max_size)
    return _greedy_select_numpy(base, cands, keys, max_size)
