import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.errors import InvariantError
from swarmsim.sim import _RunPeer
from swarmsim.swarm import (
    ContentSpec,
    SwarmConfig,
    TrackerState,
    rarest_first,
    record_block,
    tracker_join,
    tracker_leave,
    tracker_refill,
)
from swarmsim.workload import Interaction, Request, Session

CONTENT = ContentSpec(total_size=10 * 65536, piece_size=65536, block_size=16384, playback_rate=65536.0)


def leecher(content=CONTENT):
    """The engine's record of a leecher that holds no piece yet."""
    session = Session("x", (Request(0.0, 0.0, content.duration, Interaction.PLAY),))
    return _RunPeer("x", session, 1.0, content)


def bits(pieces) -> int:
    """The bitset of a collection of piece indices."""
    out = 0
    for k in pieces:
        out |= 1 << k
    return out


def bool_map(bitset: int, num_pieces: int) -> np.ndarray:
    return np.array([bool(bitset >> k & 1) for k in range(num_pieces)])


def numpy_rarest_first(have, replicas, rng, among=None):
    """Rarest-first over numpy maps and a count vector, as the engine
    picked before its maps became bitsets: the oracle of `rarest_first`."""
    need = ~have if among is None else among
    candidates = (need & (replicas > 0)).nonzero()[0]
    if not candidates.size:
        return None
    counts = replicas[candidates]
    tied = candidates[counts == counts.min()]
    return int(tied[rng.randrange(len(tied))])


class TestContentSpec:
    def test_defaults(self):
        c = ContentSpec(total_size=2**20)
        assert c.piece_size == 262144
        assert c.block_size == 16384

    def test_block_must_divide_piece(self):
        with pytest.raises(ValueError):
            ContentSpec(total_size=100, piece_size=1000, block_size=300)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0])
    def test_rate_must_be_positive_and_finite(self, rate):
        # Checked before the size is computed: ceil(30 * inf) overflows.
        match = "^playback_rate must be a positive finite number"
        with pytest.raises(ValueError, match=match):
            ContentSpec.for_duration(30.0, rate)
        with pytest.raises(ValueError, match=match):
            ContentSpec(total_size=65536, playback_rate=rate)

    def test_size_beyond_a_float_rejected(self):
        with pytest.raises(ValueError, match="overflows the size$"):
            ContentSpec.for_duration(1e10, 1e300)

    @pytest.mark.parametrize("field", ["total_size", "piece_size"])
    def test_int_size_beyond_a_float_rejected(self, field):
        # A duration divides the size by the rate, which needs it as a float.
        sizes = dict(total_size=65536, piece_size=65536, block_size=1)
        sizes[field] = 10**400
        with pytest.raises(ValueError, match=f"^{field} is beyond the float range$"):
            ContentSpec(**sizes)

    def test_short_last_piece(self):
        c = ContentSpec(total_size=65536 + 20000, piece_size=65536, block_size=16384)
        assert c.num_pieces == 2
        assert c.piece_length(1) == 20000
        assert c.blocks_in_piece(1) == 2
        assert c.block_length(1, 1) == 20000 - 16384

    def test_pieces_for_interval(self):
        # piece duration is 1 s for this content
        assert list(CONTENT.pieces_for_interval(0.0, 3.0)) == [0, 1, 2]
        assert list(CONTENT.pieces_for_interval(2.5, 3.5)) == [2, 3]
        assert list(CONTENT.pieces_for_interval(5.0, 5.0)) == []
        assert list(CONTENT.pieces_for_interval(9.5, 10.0)) == [9]

    def test_read_piece_count_keeps_equality_hash_and_pickle(self):
        # The piece count is cached on the instance after its first read;
        # compare's pool pickles configs that hold a spec.
        read = ContentSpec(total_size=65536 + 20000, piece_size=65536, block_size=16384)
        fresh = ContentSpec(total_size=65536 + 20000, piece_size=65536, block_size=16384)
        assert read.num_pieces == 2
        assert read == fresh and hash(read) == hash(fresh)
        for spec in (read, fresh):
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == read and hash(copy) == hash(fresh)
            assert copy.num_pieces == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.total_size = 1


class TestTracker:
    def test_first_join_gets_empty_list(self):
        t = TrackerState()
        assert tracker_join(t, "a", random.Random(1)) == []
        assert "a" in t.registry

    def test_small_registry_returned_whole(self):
        t = TrackerState(list_size=40)
        rng = random.Random(1)
        for pid in ["a", "b", "c"]:
            tracker_join(t, pid, rng)
        got = tracker_join(t, "d", rng)
        assert sorted(got) == ["a", "b", "c"]

    def test_sample_reproducible_by_seed(self):
        def sample(seed):
            t = TrackerState(list_size=40)
            rng = random.Random(seed)
            for i in range(100):
                tracker_join(t, f"p{i:03d}", rng)
            return tracker_join(t, "newcomer", rng)

        first = sample(7)
        assert len(first) == 40
        assert sample(7) == first
        assert sample(8) != first

    def test_duplicate_join_rejected(self):
        t = TrackerState()
        rng = random.Random(1)
        tracker_join(t, "a", rng)
        with pytest.raises(ValueError):
            tracker_join(t, "a", rng)

    def test_refill_excludes_neighbours(self):
        t = TrackerState(list_size=40)
        rng = random.Random(3)
        for i in range(30):
            tracker_join(t, f"p{i:02d}", rng)
        exclude = {f"p{i:02d}" for i in range(20)}
        got = tracker_refill(t, "p00", exclude, rng)
        assert set(got) == {f"p{i:02d}" for i in range(20, 30)}

    def test_refill_unknown_peer(self):
        with pytest.raises(ValueError):
            tracker_refill(TrackerState(), "ghost", set(), random.Random(1))

    def test_refill_no_candidates(self):
        t = TrackerState()
        rng = random.Random(1)
        tracker_join(t, "a", rng)
        assert tracker_refill(t, "a", set(), rng) == []

    def test_leave_removes_entry(self):
        t = TrackerState()
        rng = random.Random(1)
        tracker_join(t, "a", rng)
        tracker_leave(t, "a")
        assert "a" not in t.registry


class TestRarestFirst:
    ALL = (1 << CONTENT.num_pieces) - 1

    def _missing(self, have_pieces=()):
        """The candidate bitset of a peer holding `have_pieces`."""
        return self.ALL & ~bits(have_pieces)

    def _have_map(self, pieces):
        return bits(pieces)

    def test_single_available_piece(self):
        maps = [self._have_map([0])]
        assert rarest_first(maps, self._missing(range(1, 10)), random.Random(1)) == 0

    def test_nothing_missing(self):
        maps = [self._have_map(range(10))]
        assert rarest_first(maps, self._missing(range(10)), random.Random(1)) is None

    def test_no_neighbour_has_anything(self):
        maps = [self._have_map([])]
        assert rarest_first(maps, self._missing(), random.Random(1)) is None

    def test_pieces_no_neighbour_holds_are_skipped(self):
        # Replica counts are 0 for every missing piece but 3 (two holders)
        # and 7 (one holder), so the zero counts must not win the minimum.
        maps = [self._have_map([3, 7]), self._have_map([3])]
        assert rarest_first(maps, self._missing(), random.Random(1)) == 7

    def test_minimum_replica_count_wins(self):
        # Replica counts for pieces 0..3 are [3, 1, 2, 1].
        maps = [
            self._have_map([0, 2]),
            self._have_map([0, 1, 2]),
            self._have_map([0, 3]),
        ]
        oracle: dict[int, int] = {}
        for m in maps:
            for k in range(4):
                oracle[k] = oracle.get(k, 0) + (m >> k & 1)
        best = min(oracle.values())
        tied = {k for k, v in oracle.items() if v == best}
        assert tied == {1, 3}
        among = self._missing(range(4, 10))
        seen = set()
        for seed in range(40):
            choice = rarest_first(maps, among, random.Random(seed))
            assert choice in tied
            seen.add(choice)
        assert seen == tied

    def test_among_mask_restricts(self):
        maps = [self._have_map(range(10))]
        assert rarest_first(maps, bits([5]), random.Random(1)) == 5

    def test_deterministic_given_seed(self):
        maps = [self._have_map(range(10))]
        picks = {rarest_first(maps, self._missing(), random.Random(9)) for _ in range(5)}
        assert len(picks) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_oracle(self, seed):
        # Same piece and same draws as the numpy pick, over random maps:
        # up to 300 pieces, 0-12 or 13-80 neighbours, sparse to dense
        # holdings, and every missing piece or a random subset of them as
        # candidates. With 64 or more holders of a candidate, the carries
        # reach a seventh plane. The maps are summed in either order.
        rng = random.Random(seed)
        most = 0
        for _ in range(150):
            n = rng.randint(1, 300)
            density = rng.random()
            neighbours = rng.randint(0, 12) if rng.random() < 0.5 else rng.randint(13, 80)
            maps = [bits(k for k in range(n) if rng.random() < density) for _ in range(neighbours)]
            have = bits(k for k in range(n) if rng.random() < 0.4)
            missing = ((1 << n) - 1) & ~have
            among = None
            if rng.random() < 0.5:
                among = bits(k for k in range(n) if rng.random() < 0.5) & missing
            counts = np.sum([bool_map(m, n) for m in maps], axis=0, dtype=np.int64)
            if not maps:
                counts = np.zeros(n, dtype=np.int64)
            candidates = bool_map(missing if among is None else among, n)
            most = max(most, int(counts[candidates].max(initial=0)))
            draw = rng.getrandbits(32)
            want_rng = random.Random(draw)
            want = numpy_rarest_first(
                bool_map(have, n),
                counts,
                want_rng,
                among=None if among is None else bool_map(among, n),
            )
            for order in (maps, maps[::-1]):
                got_rng = random.Random(draw)
                assert rarest_first(order, missing if among is None else among, got_rng) == want
                assert got_rng.getstate() == want_rng.getstate()
        assert most >= 64

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 70), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_covering_maps_change_nothing(self, width, seed, data):
        # A map holding every candidate adds one to each count. Once one is
        # summed, as the sender's always is in the engine, adding any
        # number more, anywhere among the maps, moves neither the pick nor
        # the generator's state, and the pick is the numpy oracle's.
        piece_map = st.integers(0, (1 << width) - 1)
        among = data.draw(piece_map)
        maps = data.draw(st.lists(piece_map, max_size=12))
        extras = data.draw(st.lists(piece_map, min_size=1, max_size=6))
        covering = [among | extra for extra in extras]
        maps.insert(data.draw(st.integers(0, len(maps))), covering[0])
        more = list(maps)
        for have in covering[1:]:
            more.insert(data.draw(st.integers(0, len(more))), have)
        want_rng = random.Random(seed)
        counts = np.sum([bool_map(m, width) for m in maps], axis=0, dtype=np.int64)
        want = numpy_rarest_first(None, counts, want_rng, among=bool_map(among, width))
        for order in (maps, more):
            got_rng = random.Random(seed)
            assert rarest_first(order, among, got_rng) == want
            assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("covering", [1, 3])
    def test_only_covering_maps_pick_uniformly(self, covering):
        # With every map holding every candidate, all counts tie: the pick
        # is the candidate at one uniform draw over `among` in ascending order.
        rng = random.Random(covering)
        for seed in range(60):
            among = rng.getrandbits(40)
            maps = [among | rng.getrandbits(40) for _ in range(covering)]
            pieces = [k for k in range(40) if among >> k & 1]
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            want = pieces[want_rng.randrange(len(pieces))] if pieces else None
            assert rarest_first(maps, among, got_rng) == want
            assert got_rng.getstate() == want_rng.getstate()


class TestRecordBlock:
    def test_piece_completion(self):
        p = leecher()
        n = CONTENT.blocks_in_piece(0)
        for b in range(n - 1):
            assert record_block(p, CONTENT, 0, b) is False
        assert record_block(p, CONTENT, 0, n - 1) is True
        assert p.have == 1
        assert 0 not in p.partial

    def test_first_block_does_not_complete(self):
        p = leecher()
        assert record_block(p, CONTENT, 3, 0) is False
        assert p.have == 0

    def test_duplicate_block_rejected(self):
        p = leecher()
        record_block(p, CONTENT, 0, 0)
        with pytest.raises(InvariantError):
            record_block(p, CONTENT, 0, 0)

    def test_block_for_complete_piece_rejected(self):
        p = leecher()
        for b in range(CONTENT.blocks_in_piece(0)):
            record_block(p, CONTENT, 0, b)
        with pytest.raises(InvariantError):
            record_block(p, CONTENT, 0, 0)

    @pytest.mark.parametrize("piece", [-1, CONTENT.num_pieces])
    def test_piece_out_of_range(self, piece):
        p = leecher()
        with pytest.raises(ValueError, match="piece"):
            record_block(p, CONTENT, piece, 0)
        assert not p.partial

    def test_block_past_short_last_piece(self):
        # 2.5 pieces: the last piece holds 2 of the 4 blocks a full piece has.
        content = ContentSpec(total_size=2 * 65536 + 32768, piece_size=65536, block_size=16384)
        p = leecher(content)
        last = content.num_pieces - 1
        assert content.blocks_in_piece(last) == 2
        for block in (2, -1):
            with pytest.raises(ValueError, match="block"):
                record_block(p, content, last, block)
        assert not p.partial  # a rejected block leaves no block map behind
        assert record_block(p, content, last, 0) is False
        for block in (2, -1):
            with pytest.raises(ValueError, match="block"):
                record_block(p, content, last, block)
        assert record_block(p, content, last, 1) is True


class TestSwarmConfig:
    def test_defaults(self):
        cfg = SwarmConfig()
        assert cfg.target == 60
        assert cfg.total_slots == 5

    def test_optimistic_must_align(self):
        with pytest.raises(ValueError):
            SwarmConfig(unchoke_interval=10.0, optimistic_interval=25.0)

    @pytest.mark.parametrize(
        "field", ["unchoke_interval", "optimistic_interval", "tracker_update_interval"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_intervals_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SwarmConfig(**{field: value})

    def test_one_optimistic_slot_at_most(self):
        # The engine keeps a single optimistic slot per peer.
        with pytest.raises(ValueError, match="optimistic_slot_count"):
            SwarmConfig(optimistic_slot_count=3)
        assert SwarmConfig(optimistic_slot_count=0).total_slots == 4

    def test_floor_below_range(self):
        with pytest.raises(ValueError):
            SwarmConfig(neighbourhood_range=(10, 20), neighbourhood_floor=15)

    @pytest.mark.parametrize("floor", [-1, -5])
    def test_negative_floor(self, floor):
        with pytest.raises(ValueError, match="neighbourhood_floor must be non-negative"):
            SwarmConfig(neighbourhood_floor=floor)
        assert SwarmConfig(neighbourhood_floor=0).neighbourhood_floor == 0

    def test_target_inside_range(self):
        with pytest.raises(ValueError, match="neighbourhood_target"):
            SwarmConfig(neighbourhood_range=(6, 10), neighbourhood_floor=3, neighbourhood_target=50)
        with pytest.raises(ValueError, match="neighbourhood_target"):
            SwarmConfig(neighbourhood_range=(6, 10), neighbourhood_floor=3, neighbourhood_target=5)
        cfg = SwarmConfig(neighbourhood_range=(6, 10), neighbourhood_floor=3, neighbourhood_target=10)
        assert cfg.target == 10
