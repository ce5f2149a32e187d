import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim import metrics
from swarmsim.errors import EmptyRecordError
from swarmsim.metrics import (
    DispersionCategory,
    PopularityRecord,
    categorize_dispersion,
    make_report,
    merge_records,
    popularity,
    sharing_potential,
    spatial_dispersion,
    temporal_dispersion,
)
from swarmsim.workload import Interaction, Request, Session, Workload


def record(pairs, horizon=16, granularity=1.0):
    return PopularityRecord.from_pairs(granularity, horizon, pairs)


def brute_force_dispersion(rec: PopularityRecord) -> float:
    """Independent pass: distinct requested positions over total mass."""
    distinct = 0
    mass = 0
    for q in rec.counts.tolist():
        if q > 0:
            distinct += 1
            mass += q
    return distinct / mass


def simple_workload(requests, object_length=120.0, window=None):
    reqs = tuple(Request(i * 0.5, s, e, Interaction.PLAY) for i, (s, e) in enumerate(requests))
    window = window or (max(r.arrival_time for r in reqs) + 1.0)
    return Workload(
        object_length=object_length,
        playback_rate=1000.0,
        sessions=(Session("c0", reqs),),
        observation_window=window,
    )


class TestSharingPotential:
    def test_single_hot_position(self):
        # One position requested 100 times.
        rec = record([(0, 100)])
        assert sharing_potential(rec) == 99
        assert rec.mass == 100

    def test_all_distinct(self):
        rec = record([(p, 1) for p in range(8)])
        assert sharing_potential(rec) == 0

    def test_mixed_counts_match_direct_sum(self):
        rec = record([(0, 3), (1, 2), (2, 1)])
        direct = sum(max(q - 1, 0) for q in rec.counts.tolist())
        assert sharing_potential(rec) == direct == 3


class TestSpatialDispersion:
    def test_single_hot_position(self):
        assert spatial_dispersion(record([(0, 100)])) == pytest.approx(0.01)

    def test_all_distinct(self):
        assert spatial_dispersion(record([(p, 1) for p in range(5)])) == 1.0

    def test_mixed(self):
        assert spatial_dispersion(record([(0, 3), (1, 2), (2, 1)])) == pytest.approx(0.5)

    def test_empty_record_rejected(self):
        with pytest.raises(EmptyRecordError):
            spatial_dispersion(record([]))

    def test_repeat_request_decreases_dispersion(self):
        base = record([(0, 2), (3, 1)])
        more = record([(0, 3), (3, 1)])
        assert spatial_dispersion(more) < spatial_dispersion(base)

    def test_fresh_position_increases_ratio(self):
        base = record([(0, 2), (3, 1)])
        fresh = record([(0, 2), (3, 1), (5, 1)])
        assert spatial_dispersion(fresh) >= spatial_dispersion(base)

    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 50)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_against_brute_force(self, pairs):
        rec = record(pairs, horizon=64)
        assert abs(spatial_dispersion(rec) - brute_force_dispersion(rec)) < 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(1, 20)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_potential_below_mass(self, pairs):
        rec = record(pairs, horizon=32)
        assert 0 <= sharing_potential(rec) < rec.mass


class TestCoverageCounts:
    def test_half_open_interval_semantics(self):
        counts = metrics.coverage_counts(
            np.array([0.0, 5.0]), np.array([10.0, 15.0]), 5.0, 3
        )
        assert counts.tolist() == [1, 2, 1]

    def test_float_noise_near_bin_edges(self):
        # 0.1 * 3 is slightly above 0.3 in binary; the guard keeps bin 3 in.
        start = 0.1 * 3
        counts = metrics.coverage_counts(np.array([start]), np.array([0.5]), 0.1, 8)
        assert counts.tolist() == [0, 0, 0, 1, 1, 0, 0, 0]

    def test_clipping_outside_horizon(self):
        counts = metrics.coverage_counts(np.array([50.0]), np.array([90.0]), 1.0, 10)
        assert sum(counts) == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            metrics.coverage_counts(np.array([0.0]), np.array([]), 1.0, 4)
        with pytest.raises(ValueError):
            metrics.coverage_counts(np.array([0.0]), np.array([1.0]), 0.0, 4)

    def test_bin_span_matches_coverage(self):
        # Bin p is covered when start <= p * g < end, up to the guard; the
        # count takes plain sequences and numpy arrays alike.
        rng = random.Random(5)
        for _ in range(100):
            start = rng.uniform(0, 50)
            end = start + rng.uniform(0, 20)
            g = rng.choice([0.25, 1.0, 2.0])
            horizon = 64
            lo, hi = metrics.bin_span(start, end, g, horizon)
            guard = metrics._CEIL_GUARD
            expect = [int(start / g - guard <= p < end / g - guard) for p in range(horizon)]
            assert expect == [int(lo <= p < hi) for p in range(horizon)]
            for as_input in (list, np.array):
                counts = metrics.coverage_counts(as_input([start]), as_input([end]), g, horizon)
                assert counts.tolist() == expect


class TestPopularity:
    def test_full_sequential_retrieval(self):
        w = simple_workload([(0.0, 120.0)])
        rec = popularity(w, 1.0)
        assert all(q == 1 for q in rec.counts)

    def test_empty_workload(self):
        w = Workload(120.0, 1000.0, (), 10.0)
        rec = popularity(w, 1.0)
        assert rec.mass == 0

    def test_overlapping_requests_bin_coverage(self):
        # [0, 10) and [5, 15) at granularity 5 cover bins 0,1 and 1,2.
        w = simple_workload([(0.0, 10.0), (5.0, 15.0)], object_length=15.0)
        rec = popularity(w, 5.0)
        assert rec.counts.tolist() == [1, 2, 1]

    def test_bad_granularity(self):
        w = simple_workload([(0.0, 10.0)])
        with pytest.raises(ValueError):
            popularity(w, 0.0)
        with pytest.raises(ValueError):
            popularity(w, 500.0)


class TestTemporalDispersion:
    def test_rate_normalized_by_object_duration(self):
        # 10 requests over a window chosen so N = 4.55.
        length = 1500.0
        window = 10 * length / 4.55
        w = simple_workload([(0.0, 10.0)] * 10, object_length=length, window=window)
        n, disp = temporal_dispersion(w)
        assert n == pytest.approx(4.55)
        assert disp == pytest.approx(0.2198, abs=1e-3)

    def test_single_request_over_one_duration(self):
        w = simple_workload([(0.0, 10.0)], object_length=100.0, window=100.0)
        n, disp = temporal_dispersion(w)
        assert n == 1.0
        assert disp == 1.0

    def test_double_rate(self):
        length = 1500.0
        window = 20 * length / 9.09
        w = simple_workload([(0.0, 10.0)] * 20, object_length=length, window=window)
        n, disp = temporal_dispersion(w)
        assert n == pytest.approx(9.09)
        assert disp == pytest.approx(0.110, abs=1e-3)

    def test_empty_workload_rejected(self):
        w = Workload(120.0, 1000.0, (), 10.0)
        with pytest.raises(EmptyRecordError):
            temporal_dispersion(w)


class TestCategorize:
    @pytest.mark.parametrize(
        "d,expected",
        [
            (0.01, DispersionCategory.LOW),
            (0.099, DispersionCategory.LOW),
            (0.1, DispersionCategory.INTERMEDIATE),
            (0.3, DispersionCategory.INTERMEDIATE),
            (0.5, DispersionCategory.INTERMEDIATE),
            (0.51, DispersionCategory.HIGH),
            (1.0, DispersionCategory.HIGH),
        ],
    )
    def test_boundaries(self, d, expected):
        assert categorize_dispersion(d) is expected

    @pytest.mark.parametrize("d", [0.0, -0.1, 1.0001, math.inf])
    def test_out_of_range(self, d):
        with pytest.raises(ValueError):
            categorize_dispersion(d)


class TestMerge:
    def test_merge_single_is_identity(self):
        rec = record([(0, 2), (5, 1)])
        assert merge_records([rec]) == rec

    def test_merge_empty_list(self):
        merged = merge_records([], granularity=2.0, horizon=4)
        assert merged.mass == 0
        assert merged.granularity == 2.0

    def test_pointwise_sum(self):
        a = record([(0, 2)])
        b = record([(0, 1), (1, 1)])
        merged = merge_records([a, b])
        assert dict(merged.items()) == {0: 3, 1: 1}
        assert merged.mass == 4

    def test_carried_support_and_mass_match_recount(self):
        # A merged record's support and mass agree with a recount of its
        # summed counts.
        rng = random.Random(12)
        for _ in range(50):
            recs = [
                record(
                    [(rng.randrange(80), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))],
                    horizon=80,
                )
                for _ in range(rng.randint(1, 4))
            ]
            rec = merge_records(recs)
            recount = PopularityRecord(rec.granularity, rec.counts)
            assert (rec.support, rec.mass) == (recount.support, recount.mass)
            assert rec.support == sum(1 << p for p, q in enumerate(rec.counts) if q)

    def test_merge_past_int64_rejected(self):
        # Counts are kept as signed 64-bit integers: a bin whose sum
        # reaches 2**63 cannot be stored.
        half = PopularityRecord(1.0, [0, 2**62])
        below = PopularityRecord(1.0, [0, 2**62 - 1])
        assert merge_records([half, below]).counts.tolist() == [0, 2**63 - 1]
        with pytest.raises(OverflowError):
            merge_records([half, half])

    def test_mismatched_shapes_rejected(self):
        a = record([(0, 1)], horizon=8)
        b = record([(0, 1)], horizon=16)
        with pytest.raises(ValueError):
            merge_records([a, b])
        c = record([(0, 1)], granularity=2.0)
        with pytest.raises(ValueError):
            merge_records([a, c])

    def test_associative_commutative(self):
        rng = random.Random(11)
        for _ in range(50):
            recs = [
                record([(rng.randrange(16), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))])
                for _ in range(3)
            ]
            a, b, c = recs
            left = merge_records([merge_records([a, b]), c])
            right = merge_records([a, merge_records([b, c])])
            swapped = merge_records([c, a, b])
            assert left == right == swapped


class TestReports:
    def test_report_fields(self):
        rec = record([(0, 100)])
        rep = make_report(rec.distinct_positions(), rec.mass, n=4.55)
        d = rep.to_dict()
        assert set(d) == {"n", "temporal_dispersion", "p", "m", "d", "category"}
        assert d["p"] == 99
        assert d["m"] == 100
        assert d["d"] == pytest.approx(0.01)
        assert d["category"] == "low"

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            PopularityRecord(1.0, np.array([1, -1]))
        with pytest.raises(ValueError):
            PopularityRecord(0.0, np.array([1]))

    @pytest.mark.parametrize("granularity", [math.nan, math.inf])
    def test_granularity_must_be_finite(self, granularity):
        with pytest.raises(ValueError, match="^granularity must be positive and finite"):
            PopularityRecord(granularity, [1])
        with pytest.raises(ValueError, match="^granularity must be positive and finite"):
            PopularityRecord.empty(granularity, 4)

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="^counts must be a one-dimensional sequence of int"):
            PopularityRecord(1.0, [1.7, 2.2])

    def test_from_pairs_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="^count at position 1 must be an integer, got 2.5$"):
            PopularityRecord.from_pairs(1.0, 4, [(1, 2.5)])

    def test_from_pairs_fractional_position_rejected(self):
        with pytest.raises(ValueError, match="^position must be an integer, got 1.5$"):
            PopularityRecord.from_pairs(1.0, 4, [(1.5, 2)])
