import pytest

from swarmsim import kernels


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
