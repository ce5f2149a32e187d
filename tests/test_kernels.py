import random

import numpy as np
import pytest

from swarmsim import kernels


class TestCoverageCounts:
    def test_half_open_interval_semantics(self):
        counts = kernels.coverage_counts(
            np.array([0.0, 5.0]), np.array([10.0, 15.0]), 5.0, 3
        )
        assert counts.tolist() == [1, 2, 1]

    def test_float_noise_near_bin_edges(self):
        # 0.1 * 3 is slightly above 0.3 in binary; the guard keeps bin 3 in.
        start = 0.1 * 3
        counts = kernels.coverage_counts(np.array([start]), np.array([0.5]), 0.1, 8)
        assert counts.tolist() == [0, 0, 0, 1, 1, 0, 0, 0]

    def test_clipping_outside_horizon(self):
        counts = kernels.coverage_counts(np.array([50.0]), np.array([90.0]), 1.0, 10)
        assert sum(counts) == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            kernels.coverage_counts(np.array([0.0]), np.array([]), 1.0, 4)
        with pytest.raises(ValueError):
            kernels.coverage_counts(np.array([0.0]), np.array([1.0]), 0.0, 4)

    def test_bin_span_matches_coverage(self):
        # Bin p is covered when start <= p * g < end, up to the guard; the
        # kernel takes plain sequences and numpy arrays alike.
        rng = random.Random(5)
        for _ in range(100):
            start = rng.uniform(0, 50)
            end = start + rng.uniform(0, 20)
            g = rng.choice([0.25, 1.0, 2.0])
            horizon = 64
            lo, hi = kernels.bin_span(start, end, g, horizon)
            guard = kernels._CEIL_GUARD
            expect = [int(start / g - guard <= p < end / g - guard) for p in range(horizon)]
            assert expect == [int(lo <= p < hi) for p in range(horizon)]
            for as_input in (list, np.array):
                counts = kernels.coverage_counts(as_input([start]), as_input([end]), g, horizon)
                assert counts.tolist() == expect


class TestGreedySelect:
    def test_empty_candidates(self):
        assert kernels.greedy_select((0, 0), [], [], 3) == ([], [], [])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kernels.greedy_select((0, 0), [(0b1, 1), (0b10, 1)], [(0,)], 1)
        with pytest.raises(ValueError):
            kernels.greedy_select((0, 0), [(0b1, 1)], [(0,)], -1)

    def test_overlap_then_key_order(self):
        # Base covers bin 0 once. Candidate 1 re-covers it (D = 1/2); then
        # 0 and 2 tie at D = 2/3, and the smaller key takes the tie.
        base = (0b1, 1)
        cands = [(0b10, 1), (0b1, 1), (1 << 200, 1)]
        order, distinct, mass = kernels.greedy_select(base, cands, [(1,), (0,), (0,)], 3)
        assert order == [1, 2, 0]
        assert distinct == [1, 2, 3]
        assert mass == [2, 3, 4]
