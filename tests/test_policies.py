import math
import random
from fractions import Fraction

import numpy as np
import pytest

from swarmsim.errors import ConfigError
from swarmsim.metrics import PopularityRecord
from swarmsim.policies import (
    CandidateInfo,
    HolderView,
    PolicyKind,
    PolicySpec,
    SelectionOutcome,
    baseline_request_target,
    capacity_check_and_reselect,
    evaluate_set_dispersion,
    optimistic_unchoke,
    select_neighbors_greedy,
    tit_for_tat_unchoke,
)
from swarmsim.workload import InteractivityProfile

HORIZON = 16


# The dense counts of each candidate `cand` built, for the oracles. Only
# a candidate equal in every field can replace an entry, and ids are
# unique within an instance.
CANDIDATE_COUNTS = {}


def rec(pairs, horizon=HORIZON):
    """(support, mass) of the record built from (position, count) pairs."""
    record = PopularityRecord.from_pairs(1.0, horizon, pairs)
    return record.support, record.mass


def cand(pid, pairs, *, rate=0.0, started=False, fwd=0.0, horizon=HORIZON):
    support, mass = rec(pairs, horizon)
    info = CandidateInfo(
        peer_id=pid,
        support=support,
        mass=mass,
        request_rate=rate,
        has_started=started,
        recent_forward_rate=fwd,
    )
    CANDIDATE_COUNTS[info] = pairs_to_counts(pairs)
    return info


# ---------------------------------------------------------------------------
# Independent oracle: per-step exhaustive argmin with exact rationals.


def pairs_to_counts(pairs):
    counts = {}
    for p, q in pairs:
        counts[p] = counts.get(p, 0) + q
    return counts


def oracle_dispersion(counts_list):
    merged = {}
    for counts in counts_list:
        for p, q in counts.items():
            merged[p] = merged.get(p, 0) + q
    mass = sum(merged.values())
    if mass == 0:
        return Fraction(1)
    return Fraction(len([p for p, q in merged.items() if q > 0]), mass)


def oracle_greedy(own_pairs, candidates, max_size, profile_hint=None, forward_first=False):
    """Exhaustive per-step argmin over (D, tie keys), exact arithmetic."""
    own = pairs_to_counts(own_pairs)
    chosen = []
    remaining = list(candidates)
    merged_inputs = [own]
    dispersions = []
    while remaining and len(chosen) < max_size:
        scored = []
        for c in remaining:
            counts = CANDIDATE_COUNTS[c]
            d = oracle_dispersion(merged_inputs + [counts])
            key = [d]
            if forward_first:
                key.append(-c.recent_forward_rate)
            key.append(-c.request_rate)
            if profile_hint is InteractivityProfile.LI:
                key.append(0 if c.has_started else 1)
            key.append(c.peer_id)
            scored.append((key, c))
        scored.sort(key=lambda kc: kc[0])
        best = scored[0][1]
        chosen.append(best.peer_id)
        dispersions.append(float(scored[0][0][0]))
        merged_inputs.append(CANDIDATE_COUNTS[best])
        remaining = [c for c in remaining if c.peer_id != best.peer_id]
    return chosen, dispersions


def random_instance(rng, n_candidates=None, horizon=None, allow_empty=True):
    horizon = horizon or rng.randint(4, 64)
    n_candidates = n_candidates or rng.randint(1, 8)
    own = [(rng.randrange(horizon), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))]
    cands = []
    for i in range(n_candidates):
        low = 0 if allow_empty else 1
        pairs = [
            (rng.randrange(horizon), rng.randint(1, 4)) for _ in range(rng.randint(low, 8))
        ]
        cands.append(
            cand(
                f"p{i:02d}",
                pairs,
                rate=float(rng.choice([0.0, 1.0, 2.0, 2.0])),
                started=rng.random() < 0.5,
                fwd=float(rng.choice([0.0, 5.0, 10.0])),
                horizon=horizon,
            )
        )
    return own, cands, horizon


class TestGreedy:
    def test_empty_candidates(self):
        out = select_neighbors_greedy(rec([(0, 1)]), [], 4)
        assert out.selected == ()
        assert out.per_step_dispersion == ()

    def test_single_candidate(self):
        own = rec([(0, 1)])
        out = select_neighbors_greedy(own, [cand("a", [(0, 1)])], 3)
        assert out.selected == ("a",)
        assert out.per_step_dispersion == (0.5,)

    def test_overlap_beats_fresh_positions(self):
        own = rec([(0, 1)])
        cands = [cand("a", [(0, 1)]), cand("b", [(1, 1)]), cand("c", [(2, 1)])]
        out = select_neighbors_greedy(own, cands, 2)
        assert out.selected[0] == "a"
        assert out.per_step_dispersion[0] == 0.5
        assert out.selected[1] == "b"  # dispersion tie, id order

    def test_dispersion_tie_prefers_higher_request_rate(self):
        own = rec([(0, 1)])
        cands = [cand("a", [(1, 1)], rate=1.0), cand("b", [(2, 1)], rate=5.0)]
        out = select_neighbors_greedy(own, cands, 1)
        assert out.selected == ("b",)

    def test_li_hint_prefers_started_peers(self):
        own = rec([(0, 1)])
        cands = [
            cand("a", [(1, 1)], rate=1.0, started=False),
            cand("b", [(2, 1)], rate=1.0, started=True),
        ]
        out = select_neighbors_greedy(own, cands, 1, InteractivityProfile.LI)
        assert out.selected == ("b",)
        # Without the LI hint the id decides.
        out = select_neighbors_greedy(own, cands, 1)
        assert out.selected == ("a",)

    def test_max_size_zero(self):
        assert select_neighbors_greedy(rec([(0, 1)]), [cand("a", [(0, 1)])], 0).selected == ()

    def test_selection_size(self):
        own = rec([(0, 1)])
        cands = [cand(f"p{i}", [(i, 1)]) for i in range(5)]
        assert len(select_neighbors_greedy(own, cands, 3).selected) == 3
        assert len(select_neighbors_greedy(own, cands, 9).selected) == 5

    def test_duplicate_candidate_ids_rejected(self):
        cands = [cand("a", [(0, 1)]), cand("a", [(1, 1)])]
        with pytest.raises(ValueError, match="unique"):
            select_neighbors_greedy(rec([(0, 1)]), cands, 1)

    @pytest.mark.parametrize("field", ["request_rate", "recent_forward_rate"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_candidate_rate_must_be_finite_and_non_negative(self, field, value):
        own = rec([(0, 1)])
        cands = [cand("a", [(1, 1)]), cand("b", [(0, 1)])._replace(**{field: value})]
        with pytest.raises(ValueError, match=field):
            select_neighbors_greedy(own, cands, 1)
        # The capacity check reaches the rates only when it reselects.
        outcome = SelectionOutcome(("a",), (1.0,))
        with pytest.raises(ValueError, match=field):
            capacity_check_and_reselect(outcome, own, cands, {}, demand=1.0, max_size=1)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda own, cands: select_neighbors_greedy(own, cands, 2),
            lambda own, cands: capacity_check_and_reselect(
                SelectionOutcome((), ()), own, cands, {}, demand=1.0, max_size=2
            ),
            evaluate_set_dispersion,
        ],
        ids=["select", "reselect", "evaluate"],
    )
    @pytest.mark.parametrize(
        "own, bad, match",
        [
            ((-1, 1), ("b", 1, 1), "^support of own record must be non-negative"),
            ((1, 1), ("b", -2, 1), "^support of b must be non-negative"),
            ((1, 1), ("b", 0b110, 1), "^mass of b is below its 2 positions$"),
            ((0b11, 1), ("b", 1, 1), "^mass of own record is below its 2 positions$"),
            ((1, 1), ("a", 1, 1), "^candidate peer ids must be unique$"),
        ],
        ids=["own-support", "support", "mass", "own-mass", "duplicate"],
    )
    def test_inputs_no_record_has_rejected(self, entry, own, bad, match):
        cands = [cand("a", [(0, 1)]), CandidateInfo(*bad)]
        with pytest.raises(ValueError, match=match) as info:
            entry(own, cands)
        assert "\n" not in str(info.value)

    def test_matches_oracle_on_random_instances(self):
        # Horizons past 64 bins make supports span several machine words.
        for lo, hi in ((4, 64), (65, 320)):
            rng = random.Random(1234)
            for trial in range(60):
                own_pairs, cands, horizon = random_instance(rng, horizon=rng.randint(lo, hi))
                hint = InteractivityProfile.LI if trial % 2 else None
                max_size = rng.randint(0, len(cands))
                got = select_neighbors_greedy(rec(own_pairs, horizon), cands, max_size, hint)
                want_ids, want_ds = oracle_greedy(own_pairs, cands, max_size, hint)
                assert list(got.selected) == want_ids
                np.testing.assert_allclose(
                    got.per_step_dispersion, want_ds, rtol=0, atol=1e-12
                )

    def test_greedy_step_never_beaten_by_alternative(self):
        rng = random.Random(99)
        for _ in range(30):
            own_pairs, cands, horizon = random_instance(rng, allow_empty=False)
            own = rec(own_pairs, horizon)
            out = select_neighbors_greedy(own, cands, len(cands))
            counts = {c.peer_id: CANDIDATE_COUNTS[c] for c in cands}
            taken = []
            for step, pid in enumerate(out.selected):
                d_star = oracle_dispersion(
                    [pairs_to_counts(own_pairs)]
                    + [counts[t] for t in taken]
                    + [counts[pid]]
                )
                for other in out.selected[step:]:
                    alt = oracle_dispersion(
                        [pairs_to_counts(own_pairs)]
                        + [counts[t] for t in taken]
                        + [counts[other]]
                    )
                    assert d_star <= alt
                taken.append(pid)

    def test_deterministic(self):
        rng = random.Random(5)
        own_pairs, cands, horizon = random_instance(rng)
        own = rec(own_pairs, horizon)
        a = select_neighbors_greedy(own, cands, 4)
        b = select_neighbors_greedy(own, cands, 4)
        assert a == b

    def test_pure_overlap_candidates_drive_dispersion_down(self):
        # Every candidate re-requests already-covered positions, so each
        # step strictly lowers the merged dispersion.
        own = rec([(0, 1), (1, 1)])
        cands = [cand(f"p{i}", [(0, 1), (1, 1)]) for i in range(4)]
        out = select_neighbors_greedy(own, cands, 4)
        ds = out.per_step_dispersion
        assert all(b < a for a, b in zip(ds, ds[1:]))
        assert ds[0] < 1.0


class TestEvaluateSetDispersion:
    def test_worked_example(self):
        own = rec([(0, 100)])
        assert evaluate_set_dispersion(own, []) == pytest.approx(0.01)

    def test_all_distinct_candidate(self):
        own = rec([])
        c = cand("a", [(p, 1) for p in range(6)])
        assert evaluate_set_dispersion(own, [c]) == 1.0

    def test_merged_by_hand(self):
        own = rec([(0, 2)])
        c = cand("a", [(0, 1), (1, 1)])
        assert evaluate_set_dispersion(own, [c]) == pytest.approx(0.5)

    def test_empty_merge_rejected(self):
        from swarmsim.errors import EmptyRecordError

        with pytest.raises(EmptyRecordError):
            evaluate_set_dispersion(rec([]), [cand("a", [])])


class TestCapacityReselect:
    def test_identity_when_capacity_sufficient(self):
        own = rec([(0, 1)])
        cands = [cand("a", [(0, 1)]), cand("b", [(1, 1)])]
        outcome = select_neighbors_greedy(own, cands, 2)
        kept = capacity_check_and_reselect(
            outcome, own, cands, {"a": 10.0, "b": 10.0}, demand=5.0, max_size=2
        )
        assert kept is outcome

    def test_identity_with_no_candidates(self):
        own = rec([(0, 1)])
        outcome = select_neighbors_greedy(own, [], 2)
        assert (
            capacity_check_and_reselect(outcome, own, [], {}, demand=5.0, max_size=2)
            is outcome
        )

    def test_reselect_prefers_fast_forwarder_on_tie(self):
        own = rec([(0, 1)])
        cands = [
            cand("a", [(1, 1)], fwd=10.0),
            cand("b", [(2, 1)], fwd=20.0),
        ]
        outcome = select_neighbors_greedy(own, cands, 1)
        assert outcome.selected == ("a",)  # id tiebreak
        redone = capacity_check_and_reselect(
            outcome, own, cands, {"a": 1.0, "b": 1.0}, demand=100.0, max_size=1
        )
        assert redone.selected == ("b",)

    def test_reselect_matches_oracle(self):
        rng = random.Random(77)
        for _ in range(30):
            own_pairs, cands, horizon = random_instance(rng)
            own = rec(own_pairs, horizon)
            outcome = select_neighbors_greedy(own, cands, len(cands))
            redone = capacity_check_and_reselect(
                outcome, own, cands, {c.peer_id: 0.0 for c in cands},
                demand=1.0, max_size=len(cands),
            )
            want_ids, _ = oracle_greedy(own_pairs, cands, len(cands), None, forward_first=True)
            assert list(redone.selected) == want_ids


class TestTitForTat:
    def test_zero_slots(self):
        assert tit_for_tat_unchoke({"a": 5.0}, 0) == []

    def test_top_k_by_rate(self):
        rates = {"a": 5.0, "b": 9.0, "c": 1.0}
        assert tit_for_tat_unchoke(rates, 2) == ["b", "a"]

    def test_all_when_slots_exceed_peers(self):
        rates = {"a": 5.0, "b": 9.0}
        assert tit_for_tat_unchoke(rates, 10) == ["b", "a"]

    def test_tie_breaks_by_lowest_id(self):
        rates = {"z": 3.0, "a": 3.0, "m": 3.0}
        assert tit_for_tat_unchoke(rates, 2) == ["a", "m"]

    def test_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            rates = {f"p{i}": rng.choice([0.0, 1.0, 2.5, 7.0]) for i in range(8)}
            base = tit_for_tat_unchoke(rates, 3)
            scaled = tit_for_tat_unchoke({k: v * 13.0 for k, v in rates.items()}, 3)
            assert base == scaled


class TestOptimistic:
    def test_empty(self):
        assert optimistic_unchoke([], random.Random(1)) is None

    def test_singleton(self):
        assert optimistic_unchoke(["only"], random.Random(1)) == "only"

    def test_roughly_uniform(self):
        rng = random.Random(42)
        peers = [f"p{i}" for i in range(10)]
        counts = {p: 0 for p in peers}
        for _ in range(10_000):
            counts[optimistic_unchoke(peers, rng)] += 1
        for p in peers:
            assert abs(counts[p] - 1000) <= 150


def holder(pid, pieces, *, join=0.0, queue=0, sent=0, total=8):
    buf = 0
    for k in pieces:
        assert 0 <= k < total
        buf |= 1 << k
    return HolderView(
        peer_id=pid,
        buffer_summary=buf,
        join_time=join,
        queue_length=queue,
        requests_sent_to=sent,
    )


class TestBaselines:
    def test_llp_shortest_queue(self):
        ns = [holder("a", [0], queue=4), holder("b", [0], queue=1), holder("c", [0], queue=7)]
        spec = PolicySpec(PolicyKind.LLP)
        assert baseline_request_target(spec, 0, ns, 0.0) == "b"

    def test_lrp_fewest_requests_lowest_id(self):
        ns = [holder("c", [0], sent=0), holder("a", [0], sent=0), holder("b", [0], sent=3)]
        spec = PolicySpec(PolicyKind.LRP)
        assert baseline_request_target(spec, 0, ns, 0.0) == "a"

    def test_tracker_closest_join_time(self):
        ns = [holder("a", [0], join=10.0), holder("b", [0], join=42.0), holder("c", [0], join=70.0)]
        spec = PolicySpec(PolicyKind.TRACKER_CLOSEST)
        assert baseline_request_target(spec, 0, ns, 40.0) == "b"

    def test_ynp_single_holder_regardless_of_age(self):
        ns = [holder("old", [0], join=1.0), holder("young", [1], join=99.0)]
        spec = PolicySpec(PolicyKind.YNP, n=2)
        assert baseline_request_target(spec, 0, ns, 0.0, random.Random(1)) == "old"

    def test_ynp_samples_youngest_pool(self):
        ns = [holder(f"p{i}", [0], join=float(i)) for i in range(5)]
        spec = PolicySpec(PolicyKind.YNP, n=2)
        rng = random.Random(0)
        picks = {baseline_request_target(spec, 0, ns, 0.0, rng) for _ in range(50)}
        assert picks == {"p3", "p4"}

    def test_cnp_samples_closest_ages(self):
        ns = [holder(f"p{i}", [0], join=float(10 * i)) for i in range(5)]
        spec = PolicySpec(PolicyKind.CNP, n=2)
        rng = random.Random(0)
        picks = {baseline_request_target(spec, 0, ns, 19.0, rng) for _ in range(50)}
        assert picks == {"p1", "p2"}

    def test_no_holder_rejected(self):
        ns = [holder("a", [1])]
        with pytest.raises(ValueError):
            baseline_request_target(PolicySpec(PolicyKind.LLP), 0, ns, 0.0)

    def test_only_holders_considered(self):
        ns = [holder("a", [1], queue=0), holder("b", [0], queue=9)]
        assert baseline_request_target(PolicySpec(PolicyKind.LLP), 0, ns, 0.0) == "b"


class TestPolicySpec:
    def test_unknown_name_lists_valid(self):
        with pytest.raises(ConfigError, match="dispersiongreedy"):
            PolicySpec.from_name("bogus")

    def test_ynp_requires_n(self):
        with pytest.raises(ConfigError):
            PolicySpec.from_name("ynp")
        with pytest.raises(ConfigError):
            PolicySpec.from_name("cnp", 1)
        assert PolicySpec.from_name("ynp", 2).n == 2

    def test_n_rejected_elsewhere(self):
        with pytest.raises(ConfigError):
            PolicySpec.from_name("random", 3)

    def test_case_insensitive(self):
        assert PolicySpec.from_name("DispersionGreedy").kind is PolicyKind.DISPERSION_GREEDY
