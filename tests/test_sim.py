import bisect
import dataclasses
import gc
import heapq
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLAYBACK, digest, random_checked_config, sim_config, small_swarm
from swarmsim import sim
from swarmsim.errors import ConfigError, InvariantError
from swarmsim.metrics import (
    PopularityRecord,
    bin_count,
    bin_span,
    categorize_dispersion,
    merge_records,
)
from swarmsim.policies import PolicyKind, PolicySpec
from swarmsim.sim import (
    CapacityClass,
    EventKind,
    SimConfig,
    event_log_lines,
    fairness,
    playback_model,
    run,
)
from swarmsim.swarm import ContentSpec
from swarmsim.workload import Interaction, Request, Session, Workload


class TestFairness:
    def test_equal_rates(self):
        assert fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_active_peer(self):
        assert fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_single_peer(self):
        assert fairness([7.0]) == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fairness([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fairness([])


CONTENT_1S = ContentSpec(total_size=10 * 65536, piece_size=65536, block_size=16384, playback_rate=65536.0)


class TestPlaybackModel:
    def _req(self, arrival, start, end):
        return Request(arrival, start, end, Interaction.PLAY)

    def test_fully_buffered(self):
        arrivals = {k: 0.0 for k in range(10)}
        rep = playback_model([self._req(1.0, 0.0, 10.0)], arrivals, CONTENT_1S)
        assert rep.play_starts == (1.0,)
        assert rep.continuity_index == 1.0
        assert rep.interruption_count == 0
        assert rep.mean_time_to_return == 0.0

    def test_one_late_piece_single_stall(self):
        # Piece 5 arrives 2 s after its deadline.
        arrivals = {k: 0.0 for k in range(10)}
        arrivals[5] = 1.0 + 5.0 + 2.0
        rep = playback_model([self._req(1.0, 0.0, 10.0)], arrivals, CONTENT_1S)
        assert rep.interruption_count == 1
        assert rep.mean_time_to_return == pytest.approx(2.0)
        assert rep.continuity_index == pytest.approx(9 / 10)

    def test_jump_beyond_buffered_region_waits_for_target(self):
        # First request plays [0, 4); the jump targets [6, 10) whose first
        # piece arrives late, so the second playback starts at its arrival.
        arrivals = {k: 0.0 for k in range(4)}
        arrivals.update({k: 20.0 for k in range(6, 10)})
        reqs = [self._req(0.0, 0.0, 4.0), self._req(10.0, 6.0, 10.0)]
        rep = playback_model(reqs, arrivals, CONTENT_1S)
        assert rep.play_starts == (0.0, 20.0)
        assert rep.interruption_count == 0
        assert rep.continuity_index == 1.0

    def test_jump_cuts_previous_deadline_frontier(self):
        arrivals = {k: 0.0 for k in range(10)}
        reqs = [self._req(0.0, 0.0, 10.0), self._req(3.0, 0.0, 2.0)]
        rep = playback_model(reqs, arrivals, CONTENT_1S)
        # Only pieces due before the jump count for the first request.
        assert rep.pieces_due == 3 + 2

    def test_never_started_when_lead_piece_missing(self):
        rep = playback_model([self._req(0.0, 0.0, 10.0)], {}, CONTENT_1S, end_time=50.0)
        assert rep.play_starts == (None,)
        assert rep.pieces_due == 0

    def test_missing_piece_stall_truncated_at_window(self):
        arrivals = {0: 0.0, 1: 0.0}
        rep = playback_model(
            [self._req(0.0, 0.0, 4.0)], arrivals, CONTENT_1S, end_time=3.0
        )
        (stall,) = rep.stall_intervals
        assert stall == (2.0, 3.0)
        assert rep.continuity_index == pytest.approx(2 / 3)


def single_leecher_config(**kwargs):
    content = ContentSpec.for_duration(60.0, PLAYBACK, piece_size=65536, block_size=16384)
    session = Session("c0", (Request(5.0, 0.0, 60.0, Interaction.PLAY),))
    workload = Workload(
        object_length=60.0, playback_rate=PLAYBACK, sessions=(session,), observation_window=100.0
    )
    defaults = dict(
        content=content,
        swarm=small_swarm(),
        policy=PolicySpec.from_name("titfortat"),
        workload=workload,
        capacity_classes=(CapacityClass(PLAYBACK * 128, 1.0),),
        seed=3,
        horizon=200.0,
        check_invariants=True,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def slow_linger_config():
    """A checked run whose peers all linger and upload at the playback
    rate, so that many still want pieces, and are unchoked, when they
    begin to linger."""
    return sim_config(
        "titfortat",
        seed=3,
        sessions=15,
        linger_as_seed_fraction=1.0,
        capacity_classes=(CapacityClass(PLAYBACK, 1.0),),
        check_invariants=True,
    )


class TestEngineSetup:
    def test_seeds_hold_every_piece_leechers_none(self):
        cfg = sim_config("random", seed=1, sessions=12, initial_seeds=3)
        engine = sim._Engine(cfg)
        engine.setup()
        seeds = {"seed00", "seed01", "seed02"}
        sessions = {s.client_id: s for s in engine.workload.sessions}
        assert engine.peers.keys() == seeds | sessions.keys()
        for pid, peer in engine.peers.items():
            if pid in seeds:
                assert peer.session is None and peer.join_time == 0.0
                assert peer.have == (1 << cfg.content.num_pieces) - 1
            else:
                assert peer.session is sessions[pid]
                assert peer.join_time == peer.session.requests[0].arrival_time
                assert peer.have == 0


class TestRun:
    def test_unconstrained_seed_perfect_continuity(self):
        # The seed can ship the whole object faster than one piece plays,
        # so every deadline is met regardless of piece ordering.
        res = run(single_leecher_config())
        q = res.report.per_peer["c0"]
        assert q.continuity_index == 1.0
        assert q.interruption_count == 0
        assert q.downloaded_bytes == 60 * 65536

    def test_startup_at_least_bootstrap(self):
        res = run(single_leecher_config())
        q = res.report.per_peer["c0"]
        assert q.startup_delay >= q.bootstrap_time >= 0.0

    def test_no_leechers(self):
        workload = Workload(
            object_length=60.0, playback_rate=PLAYBACK, sessions=(), observation_window=10.0
        )
        res = run(single_leecher_config(workload=workload))
        assert res.report.per_peer == {}
        assert res.report.aggregate["uploaded_bytes"] == 0
        assert res.report.aggregate["fairness"] is None

    def test_deterministic_report_and_log(self):
        cfg = sim_config("dispersiongreedy", seed=11, sessions=20, record_events=True)
        a = run(cfg)
        b = run(cfg)
        assert a.report.to_json() == b.report.to_json()
        assert event_log_lines(a.events) == event_log_lines(b.events)

    def test_different_seeds_differ(self):
        a = run(sim_config("random", seed=1, sessions=20))
        b = run(sim_config("random", seed=2, sessions=20))
        assert a.report.to_json() != b.report.to_json()

    def test_conservation_every_policy(self):
        cases = [
            ("dispersiongreedy", None, 0.0),
            ("llp", None, 0.0),
            ("ynp", 3, 0.0),
            ("lrp", None, 0.3),
            # re-rolls slots at every played piece, choking links with a
            # block in service
            ("perpieceoptimistic", None, 0.3),
        ]
        for policy, n, linger in cases:
            cfg = sim_config(
                policy,
                seed=5,
                n=n,
                sessions=15,
                linger_as_seed_fraction=linger,
                check_invariants=True,
            )
            rep = run(cfg).report
            assert rep.aggregate["uploaded_bytes"] == rep.aggregate["downloaded_bytes"]

    def test_report_ranges(self):
        rep = run(sim_config("titfortat", seed=9, sessions=25, check_invariants=True)).report
        agg = rep.aggregate
        assert 0.0 <= agg["continuity_index"] <= 1.0
        assert 0.0 <= agg["link_utilization"] <= 1.0
        assert agg["fairness"] is None or 0.0 < agg["fairness"] <= 1.0
        for q in rep.per_peer.values():
            assert 0.0 <= q.continuity_index <= 1.0
            assert q.startup_delay >= 0.0
            assert q.bootstrap_time >= 0.0
            assert q.mean_time_to_return >= 0.0
            assert 0.0 <= q.link_utilization <= 1.0
            if q.formation is not None:
                assert 0.0 < q.formation["d"] <= 1.0

    def test_event_log_structure(self):
        cfg = sim_config("titfortat", seed=4, sessions=10, record_events=True)
        events = run(cfg).events
        assert events, "expected a non-empty event log"
        times = [e["time"] for e in events]
        assert times == sorted(times)
        kinds = {e["kind"] for e in events}
        assert "peer_arrival" in kinds
        assert "block_transfer_complete" in kinds
        for line in event_log_lines(events[:50]).splitlines():
            rec = json.loads(line)
            assert {"time", "kind", "actor"} <= set(rec)

    def test_playback_ticks_only_for_play_triggered_policy(self):
        base = dict(sessions=10, record_events=True)
        shah = run(sim_config("perpieceoptimistic", seed=6, **base)).events
        plain = run(sim_config("titfortat", seed=6, **base)).events
        assert any(e["kind"] == "playback_tick" for e in shah)
        assert not any(e["kind"] == "playback_tick" for e in plain)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_playback_after_departure(self, seed):
        # A lingering peer's session has ended: it plays nothing more.
        cfg = sim_config(
            "perpieceoptimistic",
            seed=seed,
            sessions=30,
            linger_as_seed_fraction=1.0,
            record_events=True,
        )
        ticks = []
        departed: set[str] = set()
        for e in run(cfg).events:
            if e["kind"] == "peer_departure":
                departed.add(e["actor"])
            elif e["kind"] == "playback_tick":
                ticks.append(e["actor"] in departed)
        assert ticks, "expected playback ticks"
        assert sum(ticks) == 0, "playback ticks logged after their peer departed"

    def test_formation_dispersion_reported(self):
        rep = run(sim_config("dispersiongreedy", seed=8, sessions=20)).report
        assert rep.aggregate["formation_dispersion"] is not None
        assert 0.0 < rep.aggregate["formation_dispersion"] <= 1.0

    def test_run_leaves_no_cyclic_garbage(self):
        # Every object of a run is freed by reference counting alone, also
        # in a checked run whose lingering peers keep their links to the end.
        configs = [
            sim_config(policy, seed=1, sessions=30)
            for policy in ("random", "givetoget", "dispersiongreedy", "llp")
        ]
        configs.append(
            sim_config(
                "titfortat", seed=0, sessions=30,
                linger_as_seed_fraction=0.3, check_invariants=True,
            )
        )
        gc.collect()
        gc.disable()
        try:
            for cfg in configs:
                run(cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_runs_without_numpy(self):
        # Importing the package and the CLI, a dispersion-greedy run and a
        # popularity count load no numpy, in a fresh interpreter.
        code = (
            "import sys\n"
            "import swarmsim, swarmsim.cli\n"
            "from conftest import hi_workload, sim_config\n"
            "from swarmsim import metrics, sim, workload\n"
            "sim.run(sim_config('dispersiongreedy', seed=1, sessions=10))\n"
            "metrics.popularity(workload.generate_workload(hi_workload(10)), 1.0)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
        )
        paths = [str(Path(sim.__file__).parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_lingering_uploaders_keep_invariants(self):
        cfg = sim_config(
            "titfortat",
            seed=13,
            sessions=15,
            linger_as_seed_fraction=1.0,
            check_invariants=True,
        )
        rep = run(cfg).report
        assert rep.aggregate["uploaded_bytes"] == rep.aggregate["downloaded_bytes"]

    def test_lingering_with_unchokers_keeps_invariants(self, monkeypatch):
        # Many peers are still unchoked when they linger, and
        # `_choke(cancel=True)` cancels their blocks in service; the
        # checked run must hold through each.
        cancel = sim._Engine._cancel_downloads
        seen = []

        def cancel_counting(self, peer):
            if peer.lingering:
                unchokers = self._unchokers(peer)
                busy = sum(1 for up in unchokers if peer.links[up.peer_id].serving)
                seen.append((len(unchokers), busy))
            cancel(self, peer)

        monkeypatch.setattr(sim._Engine, "_cancel_downloads", cancel_counting)
        run(slow_linger_config())
        unchoked = [busy for unchokers, busy in seen if unchokers]
        assert (len(seen), len(unchoked), sum(unchoked)) == (15, 8, 8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_shapes_keep_invariants(self, seed):
        # Small swarms of random shape, each checked after every event.
        rep = run(random_checked_config(random.Random(seed))).report
        assert rep.aggregate["uploaded_bytes"] == rep.aggregate["downloaded_bytes"]


def _single_heap_loop(engine):
    """The event loop with one heap: the workload events go back beside
    the events the run schedules, and every event is popped off it."""
    heap = engine.heap
    for entry in engine.workload_events:
        heapq.heappush(heap, entry)
    engine.workload_events.clear()
    end = engine.cfg.horizon + sim._EPS
    while heap:
        t, _, handler, payload = heapq.heappop(heap)
        if t > end:
            break
        engine.now = t
        handler(engine, *payload)
        if engine.cfg.check_invariants:
            engine._check_invariants()


class TestEventOrder:
    def test_simultaneous_events_run_in_scheduling_order(self):
        # `a` joins at 0 beside the seed, whose arrival was scheduled
        # first; `b` issues a request at 10 s, the first unchoke tick,
        # which was scheduled after every workload event.
        sessions = (
            Session("a", (Request(0.0, 0.0, 60.0, Interaction.PLAY),)),
            Session(
                "b",
                (Request(4.0, 0.0, 60.0, Interaction.PLAY), Request(10.0, 30.0, 60.0, Interaction.JUMP_FORWARD)),
            ),
        )
        workload = Workload(
            object_length=60.0, playback_rate=PLAYBACK, sessions=sessions, observation_window=100.0
        )
        events = run(single_leecher_config(workload=workload, record_events=True)).events
        at = [(e["time"], e["kind"], e["actor"]) for e in events]
        assert at[:2] == [(0.0, "peer_arrival", "seed00"), (0.0, "peer_arrival", "a")]
        request = at.index((10.0, "request_issued", "b"))
        assert at.index((10.0, "unchoke_tick", None)) == request + 1

    def test_merge_matches_a_single_heap(self, monkeypatch):
        # Taking each event from the heap or the workload events, whichever
        # comes first by (time, seq), runs as one heap of them all would.
        rng = random.Random(26)
        configs = [
            dataclasses.replace(random_checked_config(rng), check_invariants=False)
            for _ in range(12)
        ]
        own = [digest(cfg) for cfg in configs]
        monkeypatch.setattr(sim._Engine, "loop", _single_heap_loop)
        assert [digest(cfg) for cfg in configs] == own


class TestEngineState:
    def test_one_handler_per_event_kind(self):
        engine = sim._Engine(sim_config("random", seed=1, sessions=5))
        assert engine.handlers.keys() == set(EventKind)
        handlers = list(engine.handlers.values())
        assert len(set(handlers)) == len(handlers)
        for handler in handlers:
            assert vars(sim._Engine)[handler.__name__] is handler

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_forward_credit_kept_only_where_read(self, kind):
        # Give-to-get ranks by forward credit and greedy formation reads
        # it; under every other policy nothing records it. The run ends
        # between two optimistic ticks, while peers still forward blocks.
        n = 3 if kind in (PolicyKind.YNP, PolicyKind.CNP) else None
        cfg = sim_config(kind.value, seed=2, n=n, sessions=30, horizon=200.0, check_invariants=True)
        engine = sim._Engine(cfg)
        engine.setup()
        engine.loop()
        alive = [peer for peer in engine.peers.values() if peer.alive]
        read = kind in (PolicyKind.GIVE_TO_GET, PolicyKind.DISPERSION_GREEDY)
        for field in ("block_source", "forward_accum", "forward_snapshot"):
            assert any(getattr(peer, field) for peer in alive) == read, field

    def test_record_support_and_mass_match_requests(self):
        # Each peer's support and mass must agree with a recount over the
        # bin spans of the requests it issued, in order, from its first.
        engine = sim._Engine(sim_config("dispersiongreedy", seed=3, sessions=30))
        engine.setup()
        engine.loop()
        leechers = [peer for peer in engine.peers.values() if peer.session is not None]
        assert leechers and all(peer.current_req >= 0 for peer in leechers)
        granularity, horizon = _record_grid(engine.content)
        for peer in leechers:
            counts = [0] * horizon
            for req in peer.session.requests[: peer.current_req + 1]:
                lo, hi = bin_span(req.start_pos, req.end_pos, granularity, horizon)
                for p in range(lo, hi):
                    counts[p] += 1
            support = sum(1 << p for p, q in enumerate(counts) if q)
            assert (peer.support, peer.mass) == (support, sum(counts)), peer.peer_id

    @pytest.mark.parametrize("policy", ["dispersiongreedy", "random"])
    def test_formation_report_matches_dense_records(self, monkeypatch, policy):
        # At each formation, the report built from supports and masses
        # equals one built from the dense records of the peer and its
        # selected neighbours, rebuilt from the requests each has issued.
        formation_report = sim._Engine._formation_report
        merged_masses = []

        def dense_record(engine, peer):
            granularity, horizon = _record_grid(engine.content)
            requests = peer.session.requests[: peer.current_req + 1] if peer.session else ()
            pairs = []
            for req in requests:
                lo, hi = bin_span(req.start_pos, req.end_pos, granularity, horizon)
                pairs += [(p, 1) for p in range(lo, hi)]
            return PopularityRecord.from_pairs(granularity, horizon, pairs)

        def checked_formation_report(self, peer, selected):
            report = formation_report(self, peer, selected)
            merged = merge_records(
                [dense_record(self, peer)] + [dense_record(self, self.peers[s]) for s in selected]
            )
            distinct = sum(1 for q in merged.counts if q)
            mass = sum(merged.counts)
            merged_masses.append(mass)
            if mass == 0:
                assert report is None
            else:
                d = distinct / mass
                assert (report.p, report.m, report.d, report.category) == (
                    mass - distinct, mass, d, categorize_dispersion(d)
                ), peer.peer_id
            return report

        monkeypatch.setattr(sim._Engine, "_formation_report", checked_formation_report)
        run(sim_config(policy, seed=4, sessions=30))
        assert len(merged_masses) == 30
        assert sum(m > 0 for m in merged_masses) > 20


def _record_grid(content):
    """The popularity record grid of a run: piece-duration bins over the object."""
    return content.piece_duration, bin_count(content.duration, content.piece_duration)


def _finish_time(up, link):
    """When the block `up` serves on `link` finishes at `up`'s current share."""
    return up.t_last + link.remaining / up.share


def _two_seed_engine(pipeline_depth, **kwargs):
    """A hand-built swarm of two seeds and one leecher `c0`, linked to
    both, that wants only piece 7 (four blocks)."""
    cfg = single_leecher_config(
        initial_seeds=2,
        swarm=dataclasses.replace(small_swarm(), pipeline_depth=pipeline_depth),
        **kwargs,
    )
    engine = sim._Engine(cfg)
    engine.setup()
    for pid in ("seed00", "seed01", "c0"):
        engine._on_arrival(pid)
    s0, s1, c0 = (engine.peers[pid] for pid in ("seed00", "seed01", "c0"))
    assert c0.neighbourhood == ["seed00", "seed01"]
    c0.wanted = 1 << 7
    engine._check_invariants()
    return engine, s0, s1, c0


def _reentry_engine():
    """A hand-built swarm where a cancelled block's piece is owned on
    another link, a case no simulated run has reached.

    Two seeds and one leecher `c0` that wants only piece 7, with one
    block per pipeline so that blocks stay unrequested. `seed00` serves
    (7, 0) and chokes `c0`, so that piece 7 is no longer owned while the
    block is still in service; `seed01` then picks piece 7 and serves
    (7, 1), leaving (7, 2) and (7, 3) unrequested. Returns the engine just before
    `seed00` departs and cancels (7, 0).
    """
    engine, s0, s1, c0 = _two_seed_engine(pipeline_depth=1)
    s0.regular_slots.add("c0")
    engine._apply_slot_diff(s0, set(), {"c0"})
    assert c0.links["seed00"].serving == (7, 0)
    s0.regular_slots.discard("c0")
    engine._apply_slot_diff(s0, {"c0"}, set())
    assert c0.links["seed00"].serving == (7, 0) and not c0.owned >> 7 & 1
    s1.regular_slots.add("c0")
    engine._apply_slot_diff(s1, set(), {"c0"})
    assert c0.links["seed01"].serving == (7, 1)
    engine._check_invariants()
    return engine


def _idle_owner_engine():
    """A hand-built swarm where `c0` owns piece 7 on an idle link.

    `seed00` serves (7, 0)-(7, 2) and chokes `c0` while (7, 3) is in
    service. `seed01` then picks piece 7, finds no free block, and keeps
    it owned on a link it never queued a block on, so the link is not in
    its `in_service`. Returns the engine and the link from `seed00`.
    """
    engine, s0, s1, c0 = _two_seed_engine(pipeline_depth=4)
    s0.regular_slots.add("c0")
    engine._apply_slot_diff(s0, set(), {"c0"})
    link = c0.links["seed00"]
    assert link.serving == (7, 0) and list(link.queue) == [(7, 1), (7, 2), (7, 3)]
    for _ in range(3):
        engine.now = _finish_time(s0, link)
        engine._on_block_complete(*s0.pending)
        engine._check_invariants()
    assert link.serving == (7, 3)
    s0.regular_slots.discard("c0")
    engine._apply_slot_diff(s0, {"c0"}, set())
    s1.regular_slots.add("c0")
    engine._apply_slot_diff(s1, set(), {"c0"})
    idle = c0.links["seed01"]
    assert idle.owned == c0.owned == 1 << 7 and idle not in s1.in_service
    engine._check_invariants()
    return engine, link


def _served_in_turn(engine, up, dl):
    """Complete the block `up` serves to `dl` until none is left; return
    the blocks served after the current one, in order."""
    link = dl.links[up.peer_id]
    served = []
    while up.pending is not None:
        engine.now = _finish_time(up, link)
        engine._on_block_complete(*up.pending)
        engine._check_invariants()
        if link.serving is not None:
            served.append(link.serving)
    return served


class TestRequestOrder:
    def test_cancelled_block_requested_again_in_order(self):
        # The block `seed00` had in service when it choked `c0` is
        # cancelled when `seed00` departs. Piece 7 is owned on the link
        # from `seed01` by then, so `c0` requests the block again there,
        # ahead of the piece's later blocks.
        engine = _reentry_engine()
        s0, s1, c0 = (engine.peers[pid] for pid in ("seed00", "seed01", "c0"))
        engine._cancel_uploads(s0)
        engine._check_invariants()
        assert _served_in_turn(engine, s1, c0) == [(7, 0), (7, 2), (7, 3)]
        assert c0.have == 1 << 7


class TestDepartingSender:
    def test_frees_piece_owned_over_idle_link(self):
        # `seed01` departs while `c0` owns piece 7 on its idle link: the
        # departure must free the piece.
        engine, link = _idle_owner_engine()
        s0, c0 = engine.peers["seed00"], engine.peers["c0"]
        engine._on_departure("seed01")
        assert c0.owned == 0
        engine._check_invariants()
        engine.now = _finish_time(s0, link)
        engine._on_block_complete(*s0.pending)
        assert c0.have == 1 << 7
        engine._check_invariants()


class TestLingeringReceiver:
    def test_keeps_links_and_gets_choked_block(self):
        # `seed00` chokes `c0` with (7, 0) in service, and `c0` then
        # lingers. The block still finishes on the link `c0` keeps: it is
        # credited to both ends and keeps its claimed bit, now received.
        engine, s0, _, c0 = _two_seed_engine(pipeline_depth=4, linger_as_seed_fraction=1.0)
        s0.regular_slots.add("c0")
        engine._apply_slot_diff(s0, set(), {"c0"})
        s0.regular_slots.discard("c0")
        engine._apply_slot_diff(s0, {"c0"}, set())
        link = c0.links["seed00"]
        assert link.serving == (7, 0) and not link.queue and c0.claimed == {7: 1}
        engine._on_departure("c0")
        assert c0.lingering and c0.alive
        assert c0.links == {"seed00": link} and c0.claimed == {7: 1}
        engine._check_invariants()
        engine.now = _finish_time(s0, link)
        engine._on_block_complete(*s0.pending)
        block = engine.content.block_length(7, 0)
        assert (c0.downloaded, s0.uploaded) == (block, block)
        assert c0.claimed == {7: 1} and c0.partial == {7: 0b1110}
        assert c0.links == {"seed00": link} and link.serving is None
        engine._check_invariants()


class TestDepartedLeecher:
    @pytest.mark.parametrize("policy", ["dispersiongreedy", "givetoget"])
    def test_keeps_final_qos_and_only_links_in_service(self, monkeypatch, policy):
        # A leecher that departs without lingering holds the QoS computed
        # at its departure, the report's own, and keeps of its links only
        # those with a block in service. Computing the QoS again at the end
        # of the run, from the arrivals it had at departure, gives the same
        # value: nothing the QoS reads changed after the departure. A
        # lingering leecher keeps its arrivals.
        departure = sim._Engine._on_departure
        arrivals = {}

        def checked_departure(self, pid):
            peer = self.peers[pid]
            arrivals[pid] = dict(peer.piece_arrival)
            departure(self, pid)
            if not peer.alive:
                assert all(link.serving is not None for link in peer.links.values()), pid

        monkeypatch.setattr(sim._Engine, "_on_departure", checked_departure)
        cfg = sim_config(
            policy, seed=6, sessions=15, horizon=300.0,
            linger_as_seed_fraction=0.3, check_invariants=True,
        )
        engine = sim._Engine(cfg)
        engine.setup()
        engine.loop()
        report = engine.build_report()
        departed = [engine.peers[pid] for pid in arrivals if not engine.peers[pid].alive]
        lingering = [engine.peers[pid] for pid in arrivals if engine.peers[pid].lingering]
        assert departed and lingering
        assert any(arrivals[peer.peer_id] for peer in departed)
        for peer in departed:
            pid = peer.peer_id
            assert report.per_peer[pid] is peer.qos, pid
            for field in (
                "piece_arrival", "partial", "claimed",
                "block_source", "forward_accum", "forward_snapshot",
            ):
                assert getattr(peer, field) == {}, (pid, field)
            peer.piece_arrival = arrivals[pid]
            assert engine._peer_qos(peer) == peer.qos, pid
        for peer in lingering:
            assert peer.piece_arrival and peer.qos is None, peer.peer_id
            assert peer.have == sum(1 << k for k in peer.piece_arrival), peer.peer_id

    @pytest.mark.parametrize("sender_departs", [False, True])
    def test_keeps_choked_link_until_its_block_ends(self, sender_departs):
        # `seed00` chokes `c0` with (7, 0) in service, `seed01` unchokes
        # it, and `c0` then departs without lingering: it keeps the link
        # to `seed00` alone. That block then finishes, credited to neither
        # end, or is cancelled when `seed00` departs, which reads the link.
        engine, s0, s1, c0 = _two_seed_engine(pipeline_depth=4)
        s0.regular_slots.add("c0")
        engine._apply_slot_diff(s0, set(), {"c0"})
        s0.regular_slots.discard("c0")
        engine._apply_slot_diff(s0, {"c0"}, set())
        s1.regular_slots.add("c0")
        engine._apply_slot_diff(s1, set(), {"c0"})
        link = c0.links["seed00"]
        assert link.serving == (7, 0) and c0.links["seed01"].serving is not None
        engine._on_departure("c0")
        assert not c0.alive and c0.links == {"seed00": link} and c0.claimed == {}
        assert c0.qos is not None and not s1.in_service
        if sender_departs:
            engine._on_departure("seed00")
        else:
            engine.now = _finish_time(s0, link)
            engine._on_block_complete(*s0.pending)
        assert link.serving is None and not s0.in_service and s0.pending is None
        assert (c0.downloaded, s0.uploaded) == (0, 0)
        engine._check_invariants()


class TestInvariantMutations:
    """Each test breaks one piece of link, neighbourhood, piece or byte
    bookkeeping in the engine and expects the invariant check of a
    checked run to catch it."""

    @staticmethod
    def run_checked(match, seed=0):
        cfg = sim_config(
            "titfortat", seed=seed, sessions=30, linger_as_seed_fraction=0.3, check_invariants=True
        )
        with pytest.raises(InvariantError, match=match):
            run(cfg)

    def test_owners_kept_on_choke(self, monkeypatch):
        choke = sim._Engine._choke

        def choke_keeping_owners(self, up, dl, cancel):
            link = dl.links.get(up.peer_id)
            owned = link.owned if link is not None else 0
            cancelled = choke(self, up, dl, cancel)
            if link is not None:
                link.owned = owned
                dl.owned |= owned
            return cancelled

        monkeypatch.setattr(sim._Engine, "_choke", choke_keeping_owners)
        self.run_checked("not unchoked")

    def test_departure_skips_idle_links(self, monkeypatch):
        def cancel_busy_links(self, peer):
            # A departing sender that ends only the links with a block
            # queued or in service: a piece its receiver owns over an
            # idle link stays owned there.
            for rid in sorted(k.receiver for k in peer.in_service):
                self._choke(peer, self.peers[rid], cancel=True)
            peer.pending = None
            peer.regular_slots.clear()
            peer.optimistic_slot = None

        # No simulated run has been seen to leave a piece owned on an idle
        # link when its sender departs, so the swarm is hand-built.
        engine, _ = _idle_owner_engine()
        monkeypatch.setattr(sim._Engine, "_cancel_uploads", cancel_busy_links)
        engine._on_departure("seed01")
        with pytest.raises(InvariantError, match="owns pieces on a link that is not unchoked"):
            engine._check_invariants()

    def test_requested_block_not_in_flight(self, monkeypatch):
        request = sim._Engine._request_blocks

        def request_one_short(self, dl, up, link):
            # The last block a refill queues loses its claimed bit.
            added = request(self, dl, up, link)
            if added:
                piece, block = link.queue[-1]
                dl.claimed[piece] &= ~(1 << block)
            return added

        monkeypatch.setattr(sim._Engine, "_request_blocks", request_one_short)
        self.run_checked("not in flight")

    def test_latest_pending_completion(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_latest(self, up, *args):
            # Record the block that finishes last as the pending completion
            # instead of the one that finishes first.
            reshare(self, up, *args)
            if up.pending is not None:
                last = max(up.in_service, key=lambda k: (_finish_time(up, k), k.receiver))
                up.pending = (last, last.version)

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_latest)
        self.run_checked("finishes first")

    def test_idle_sender_keeps_pending(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_busy_only(self, up, idle=None, listed=False):
            # A sender left with nothing in service keeps the payload of
            # its last completion: the reshare is skipped when no block is
            # in service and none can start. A completion's link with no
            # block queued still leaves the list.
            if listed and not idle.queue:
                up.in_service.remove(idle)
                listed = False
            if up.in_service or (idle is not None and idle.queue):
                reshare(self, up, idle, listed)

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_busy_only)
        self.run_checked("serves nothing but keeps a pending completion")

    def test_pending_not_recorded(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_unrecorded(self, up, *args):
            # The completion event is pushed, but its payload is not kept.
            reshare(self, up, *args)
            up.pending = None

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_unrecorded)
        self.run_checked("serves blocks with no pending completion")

    def test_pending_from_before_reshare(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_keeping_old(self, up, *args):
            # A busy sender keeps the payload it had before the reshare,
            # whose version the reshare made stale.
            old = up.pending
            reshare(self, up, *args)
            if old is not None and up.pending is not None:
                up.pending = old

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_keeping_old)
        self.run_checked("has no live completion event")

    def test_cancelled_link_left_in_service(self, monkeypatch):
        choke = sim._Engine._choke

        def choke_keeping_in_service(self, up, dl, cancel):
            link = dl.links[up.peer_id]
            cancelled = choke(self, up, dl, cancel)
            if cancelled:
                up.in_service.append(link)
            return cancelled

        monkeypatch.setattr(sim._Engine, "_choke", choke_keeping_in_service)
        # The run_checked config cancels a block in service on an alive
        # sender at most twice per run; this one does so eight times.
        with pytest.raises(InvariantError, match="lists links in service other than"):
            run(slow_linger_config())

    def test_serving_link_dropped_from_list(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_dropping_one(self, up, *args):
            # A sender with two blocks in service drops from its list the
            # link of one that does not finish first.
            reshare(self, up, *args)
            if len(up.in_service) > 1:
                up.in_service.remove(next(k for k in up.in_service if k is not up.pending[0]))

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_dropping_one)
        self.run_checked("blocks queued or in service, but its links hold")

    def test_leecher_serves_piece_it_lacks(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_losing_piece(self, up, idle=None, listed=False):
            # A leecher loses the piece of each block it starts to serve.
            reshare(self, up, idle, listed)
            if up.session is not None and idle is not None and idle.serving is not None:
                up.have &= ~(1 << idle.serving[0])

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_losing_piece)
        self.run_checked("queues or serves a piece it lacks")

    def test_served_piece_lost(self):
        # `seed00` queues all of piece 7 to `c0` and then loses the piece:
        # the next block to start is one it cannot serve.
        engine, s0, _, c0 = _two_seed_engine(pipeline_depth=4)
        s0.regular_slots.add("c0")
        engine._apply_slot_diff(s0, set(), {"c0"})
        link = c0.links["seed00"]
        assert link.serving == (7, 0) and list(link.queue) == [(7, 1), (7, 2), (7, 3)]
        s0.have &= ~(1 << 7)
        engine.now = _finish_time(s0, link)
        with pytest.raises(InvariantError, match="seed00 asked to serve incomplete piece 7"):
            engine._on_block_complete(*s0.pending)

    def test_cancelled_upload_left_in_flight(self, monkeypatch):
        cancel = sim._Engine._cancel_uploads

        def cancel_keeping_inflight(self, peer):
            served = [(self.peers[link.receiver], link.serving) for link in peer.in_service]
            cancel(self, peer)
            for dl, (piece, block) in served:
                dl.claimed[piece] = dl.claimed.get(piece, 0) | 1 << block

        monkeypatch.setattr(sim._Engine, "_cancel_uploads", cancel_keeping_inflight)
        self.run_checked("exactly one link")

    def test_block_in_service_not_in_flight(self, monkeypatch):
        reshare = sim._Engine._reshare_sender

        def reshare_unrequesting(self, up, idle=None, listed=False):
            # Each block that starts loses its claimed bit.
            reshare(self, up, idle, listed)
            if idle is not None and idle.serving is not None:
                piece, block = idle.serving
                self.peers[idle.receiver].claimed[piece] &= ~(1 << block)

        monkeypatch.setattr(sim._Engine, "_reshare_sender", reshare_unrequesting)
        self.run_checked("not in flight")

    def test_piece_owned_on_two_links(self, monkeypatch):
        pick = sim._Engine._pick_new_piece

        def pick_ignoring_owned(self, dl, up, avail):
            # A pick that does not pass over the pieces owned on other links.
            return pick(self, dl, up, dl.wanted & up.have)

        monkeypatch.setattr(sim._Engine, "_pick_new_piece", pick_ignoring_owned)
        self.run_checked("owns a piece on two links")

    def test_receiver_owned_kept_on_choke(self, monkeypatch):
        choke = sim._Engine._choke

        def choke_keeping_receiver_owned(self, up, dl, cancel):
            # The link releases its pieces, but the receiver still counts
            # them as owned.
            owned = dl.owned
            cancelled = choke(self, up, dl, cancel)
            dl.owned = owned
            return cancelled

        monkeypatch.setattr(sim._Engine, "_choke", choke_keeping_receiver_owned)
        self.run_checked("owns pieces that no link owns")

    def test_completed_piece_left_owned(self, monkeypatch):
        on_block_complete = sim._Engine._on_block_complete

        def complete_keeping_owner(self, link, version):
            # The link that delivers a piece's last block keeps owning it.
            owned = link.owned
            on_block_complete(self, link, version)
            kept = owned & ~link.owned
            link.owned |= kept
            self.peers[link.receiver].owned |= kept

        monkeypatch.setattr(sim._Engine, "_on_block_complete", complete_keeping_owner)
        self.run_checked("owns a piece it holds")

    def test_completed_piece_left_claimed(self, monkeypatch):
        on_block_complete = sim._Engine._on_block_complete

        def complete_keeping_claimed(self, link, version):
            # The last block of a piece leaves the piece's claimed entry.
            dl = self.peers[link.receiver]
            claimed = dict(dl.claimed)
            on_block_complete(self, link, version)
            for piece in claimed.keys() - dl.claimed.keys():
                dl.claimed[piece] = claimed[piece]

        monkeypatch.setattr(sim._Engine, "_on_block_complete", complete_keeping_claimed)
        self.run_checked("keeps claimed blocks of complete piece")

    def test_received_block_unclaimed_on_choke(self, monkeypatch):
        choke = sim._Engine._choke

        def choke_unclaiming_received(self, up, dl, cancel):
            # The choke also clears the claimed bit of the lowest block
            # received of each begun piece, so a refill could request it
            # again.
            cancelled = choke(self, up, dl, cancel)
            for piece, missing in dl.partial.items():
                received = self._all_blocks[piece] & ~missing
                dl.claimed[piece] &= ~(received & -received)
            return cancelled

        monkeypatch.setattr(sim._Engine, "_choke", choke_unclaiming_received)
        self.run_checked("received a block of piece .* it has not claimed")

    def test_requested_kept_on_choke(self, monkeypatch):
        choke = sim._Engine._choke

        def choke_keeping_requested(self, up, dl, cancel):
            # The dropped blocks keep their claimed bits, so no link
            # will ever request them again.
            claimed = dict(dl.claimed)
            cancelled = choke(self, up, dl, cancel)
            dl.claimed.update(claimed)
            return cancelled

        monkeypatch.setattr(sim._Engine, "_choke", choke_keeping_requested)
        self.run_checked("not on exactly one link")

    def test_have_bit_cleared(self, monkeypatch):
        on_piece_complete = sim._Engine._on_piece_complete

        def complete_losing_first(self, dl, piece):
            # At its second completion a peer loses the first piece it completed.
            on_piece_complete(self, dl, piece)
            if len(dl.piece_arrival) == 2:
                dl.have &= ~(1 << next(iter(dl.piece_arrival)))

        monkeypatch.setattr(sim._Engine, "_on_piece_complete", complete_losing_first)
        self.run_checked("holds pieces other than those it completed")

    def test_delivered_block_still_queued(self, monkeypatch):
        on_block_complete = sim._Engine._on_block_complete

        def complete_keeping_count(self, link, version):
            live = version == link.version
            on_block_complete(self, link, version)
            if live:
                self.peers[link.sender].queue_length += 1

        monkeypatch.setattr(sim._Engine, "_on_block_complete", complete_keeping_count)
        self.run_checked("blocks queued or in service")

    def test_uncredited_block(self, monkeypatch):
        on_block_complete = sim._Engine._on_block_complete
        uncredited = []

        def complete_uncredited(self, link, version):
            # The first block delivered in a run is taken off its
            # receiver's tally, and only there.
            dl = self.peers[link.receiver]
            before = dl.downloaded
            on_block_complete(self, link, version)
            if dl.downloaded > before and not uncredited:
                uncredited.append(dl.downloaded - before)
                dl.downloaded = before

        monkeypatch.setattr(sim._Engine, "_on_block_complete", complete_uncredited)
        self.run_checked("byte conservation broken")
        uncredited.clear()
        agg = run(sim_config("titfortat", seed=0, sessions=30)).report.aggregate
        assert agg["uploaded_bytes"] - agg["downloaded_bytes"] == uncredited[0] > 0

    def test_cancelled_block_left_requested(self):
        # (7, 0) keeps its claimed bit after `seed00` cancels it, so
        # `seed01`, which owns piece 7, never requests it.
        engine = _reentry_engine()
        engine._cancel_uploads(engine.peers["seed00"])
        engine.peers["c0"].claimed[7] |= 1
        with pytest.raises(InvariantError, match="not on exactly one link"):
            engine._check_invariants()

    def test_one_sided_connect(self, monkeypatch):
        def connect_one_sided(self, a, b):
            bisect.insort(a.neighbourhood, b.peer_id)
            self._maps_changed = True

        monkeypatch.setattr(sim._Engine, "_connect", connect_one_sided)
        self.run_checked("is one-way")

    def test_connect_appends(self, monkeypatch):
        def connect_appending(self, a, b):
            # Both sides link, but the new neighbour goes last, not in id
            # order.
            a.neighbourhood.append(b.peer_id)
            b.neighbourhood.append(a.peer_id)
            self._maps_changed = True

        monkeypatch.setattr(sim._Engine, "_connect", connect_appending)
        self.run_checked("out of id order")

    def test_departed_peer_kept_as_neighbour(self, monkeypatch):
        on_departure = sim._Engine._on_departure

        def departure_kept_by_one(self, pid):
            peer = self.peers[pid]
            neighbours = list(peer.neighbourhood)
            on_departure(self, pid)
            if not peer.alive and neighbours:
                bisect.insort(self.peers[neighbours[0]].neighbourhood, pid)

        monkeypatch.setattr(sim._Engine, "_on_departure", departure_kept_by_one)
        self.run_checked("keeps departed peer")

    def test_completed_piece_left_wanted(self, monkeypatch):
        on_piece_complete = sim._Engine._on_piece_complete

        def complete_keeping_wanted(self, dl, piece):
            on_piece_complete(self, dl, piece)
            dl.wanted |= 1 << piece

        monkeypatch.setattr(sim._Engine, "_on_piece_complete", complete_keeping_wanted)
        self.run_checked("wants a piece it holds")

    def test_block_map_left_after_completion(self, monkeypatch):
        record_block = sim.record_block

        def record_keeping_map(peer, content, piece, block):
            completed = record_block(peer, content, piece, block)
            if completed:
                peer.partial[piece] = 0
            return completed

        monkeypatch.setattr(sim, "record_block", record_keeping_map)
        self.run_checked("keeps a block map for complete piece")

    def test_regular_slot_past_cap(self, monkeypatch):
        tit_for_tat_unchoke = sim.tit_for_tat_unchoke
        monkeypatch.setattr(
            sim, "tit_for_tat_unchoke", lambda rates, slots: tit_for_tat_unchoke(rates, slots + 1)
        )
        self.run_checked("exceeds regular slot cap")

    def test_optimistic_slot_in_regular_slots(self, monkeypatch):
        reoptimistic = sim._Engine._reoptimistic

        def reoptimistic_regular(self, peer):
            # The optimistic pick falls on a peer already in a regular slot.
            reoptimistic(self, peer)
            if peer.regular_slots:
                old = peer.unchoked_set()
                peer.optimistic_slot = min(peer.regular_slots)
                self._apply_slot_diff(peer, old, peer.unchoked_set())

        monkeypatch.setattr(sim._Engine, "_reoptimistic", reoptimistic_regular)
        self.run_checked("optimistic slot duplicates a regular slot")

    def test_optimistic_slot_past_total_cap(self, monkeypatch):
        def reoptimistic_uncapped(self, peer):
            # A swarm with no optimistic slot fills one all the same.
            choked = [n for n in self._interested(peer) if n not in peer.regular_slots]
            old = peer.unchoked_set()
            peer.optimistic_slot = sim.optimistic_unchoke(choked, self.rng)
            self._apply_slot_diff(peer, old, peer.unchoked_set())

        monkeypatch.setattr(sim._Engine, "_reoptimistic", reoptimistic_uncapped)
        cfg = sim_config(
            "titfortat",
            seed=0,
            sessions=30,
            swarm=dataclasses.replace(small_swarm(), optimistic_slot_count=0),
            check_invariants=True,
        )
        with pytest.raises(InvariantError, match="exceeds total slot cap"):
            run(cfg)

    def test_departed_peer_kept_in_slots(self, monkeypatch):
        on_departure = sim._Engine._on_departure

        def departure_kept_in_slots(self, pid):
            # One neighbour that unchokes the departing peer keeps it in a
            # regular slot.
            peer = self.peers[pid]
            unchokers = [n for n in peer.neighbourhood if pid in self.peers[n].regular_slots]
            on_departure(self, pid)
            if not peer.alive and unchokers:
                self.peers[unchokers[0]].regular_slots.add(pid)

        monkeypatch.setattr(sim._Engine, "_on_departure", departure_kept_in_slots)
        self.run_checked("unchokes .*, which is not its neighbour")

    def test_seed_unchoked(self, monkeypatch):
        # Interest that ignores what a neighbour wants lets a peer unchoke
        # a seed, which then opens a link to it.
        monkeypatch.setattr(
            sim._Engine, "_interested", lambda self, peer: list(peer.neighbourhood)
        )
        self.run_checked("seed seed.* has outstanding requests")

    def test_seed_lost_piece(self, monkeypatch):
        on_departure = sim._Engine._on_departure

        def departure_taking_pieces(self, pid):
            # The pieces of a departing peer leave the have-maps of its
            # seed neighbours too.
            peer = self.peers[pid]
            seeds = [self.peers[n] for n in peer.neighbourhood if self.peers[n].session is None]
            on_departure(self, pid)
            if not peer.alive:
                for seed in seeds:
                    seed.have &= ~peer.have

        monkeypatch.setattr(sim._Engine, "_on_departure", departure_taking_pieces)
        self.run_checked("seed seed.* lost pieces")


class TestConfigValidation:
    def test_capacity_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="fractions"):
            sim_config(
                "random",
                seed=1,
                capacity_classes=(CapacityClass(1000.0, 0.5), CapacityClass(500.0, 0.2)),
            )

    def test_horizon_positive(self):
        with pytest.raises(ConfigError):
            sim_config("random", seed=1, horizon=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_horizon_finite(self, value):
        with pytest.raises(ConfigError, match="horizon"):
            sim_config("random", seed=1, horizon=value)

    @pytest.mark.parametrize(
        "rate, fraction",
        [(float("nan"), 1.0), (float("inf"), 1.0), (4 * PLAYBACK, float("nan"))],
    )
    def test_capacity_class_finite(self, rate, fraction):
        with pytest.raises(ConfigError, match="capacity class"):
            sim_config("random", seed=1, capacity_classes=(CapacityClass(rate, fraction),))

    @pytest.mark.parametrize(
        "intervals",
        [{"unchoke_interval": 1.0, "optimistic_interval": 1.0}, {"tracker_update_interval": 1.0}],
    )
    def test_horizon_at_tick_bound(self, intervals):
        # The periodic ticks reschedule themselves up to the horizon, and
        # at a tiny interval `now + interval == now`: such a run never ends.
        swarm = dataclasses.replace(small_swarm(), **intervals)
        sim_config("random", seed=1, horizon=float(sim._MAX_TICKS), swarm=swarm)
        with pytest.raises(ConfigError, match="horizon .* ticks"):
            sim_config("random", seed=1, horizon=float(sim._MAX_TICKS) + 1, swarm=swarm)

    def test_pieces_at_bound(self):
        # Setup builds tables with one entry per piece: at a rate of
        # 1e300 B/s they would not fit in memory, so the config refuses
        # such content first.
        def content(pieces):
            return ContentSpec(pieces * 65536, 65536, 16384, PLAYBACK)

        sim_config("random", seed=1, content=content(sim.MAX_PIECES))
        with pytest.raises(ConfigError, match="more than 1000000 pieces of 65536 bytes$"):
            sim_config("random", seed=1, content=content(sim.MAX_PIECES + 1))

    def test_needs_one_seed(self):
        with pytest.raises(ConfigError):
            sim_config("random", seed=1, initial_seeds=0)

    def test_workload_must_fit_content(self):
        content = ContentSpec.for_duration(30.0, PLAYBACK, piece_size=65536, block_size=16384)
        with pytest.raises(ConfigError, match="object_length"):
            sim_config("random", seed=1, content=content)
