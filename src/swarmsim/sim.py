"""Deterministic discrete-event engine binding workloads, swarm state, and policies.

One run simulates a swarm serving a single object to interactive
clients. Each workload session becomes a leecher that joins at its first
request, downloads the pieces its requests cover, and departs when its
session ends; an initial seed is a peer with no session that holds every
piece. Each peer has one record, `_RunPeer`, which holds both what the
protocol and the policies read of it (have-map, block maps,
neighbourhood, slots, popularity record's support and mass, upload
capacity, join time) and the engine's runtime state. Transfers share
each sender's upload capacity equally across its busy slots. Each sender
keeps one list of its links with a block in service, the only record of
what it serves, and one clock: the share they all move at and when they
were last charged. Whenever the share changes, every listed transfer is
charged at the old share and moves to the new one, and only the one that
finishes first (ties broken by receiver id) holds a completion event: a
busy sender has exactly one pending completion. All state of one
direction of a peer pair (queued blocks, the block in service and its
bytes left, requests, bytes in the current unchoke window) lives in one
link record that both peers share, with the bitset of the pieces the
receiver owns on it. A sender's slots alone record whom it unchokes.
The receiver keeps two block bitsets per begun piece, the blocks still
missing and the blocks claimed (requested or received), so a link's free
blocks are derived, never stored: a refill takes the lowest unclaimed
blocks of the link's owned pieces in ascending piece order, and picks a
new piece only when room is left. A link's requests end only in
`_Engine._choke`, which clears their claimed bits and releases the
link's pieces. A completion refills its own link, which starts its next
queued block in place or leaves the sender's list. Playback
starts by one rule, `_play_start`, for the report and the
play-triggered variant alike. The peer table and every neighbourhood
are kept in id order, so no walk over peers sorts. A leecher that
departs without lingering has its QoS computed then, which is final:
nothing it holds changes afterwards. It then drops its arrivals, block
maps and forward credit, and every link but those with a block in
service, which alone a later event reads; a lingering leecher keeps
everything until the report, since its uploads still count.
Forward credit (who sent each block, and the bytes forwarded for each
origin) is kept only under give-to-get and dispersion-greedy, which read
it. Events come from two sources. The sessions' arrivals, requests and
departures are all known at setup and sit in one list, sorted once; the
heap holds what the run schedules: completions, ticks, playback ticks
and the initial seeds' arrivals. Each event carries its handler, a plain
function of the engine's class, and the loop calls it with the engine
and the event's payload; handlers return nothing. The loop takes the
next event from whichever source comes first by (time, sequence number),
and stops at the first event past the horizon, so a periodic tick always
schedules its next one, and a checked run checks the invariants after
every event it handles, stale ones included. All randomness flows from
one seeded generator, and events tie on time through monotonically
assigned sequence numbers across both sources, so a (config, seed) pair
reproduces the run byte for byte.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import heapq
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, InvariantError, TraceError
from .metrics import DispersionReport, bin_count, bin_span, make_report
from .policies import (
    CandidateInfo,
    HolderView,
    PolicyKind,
    PolicySpec,
    baseline_request_target,
    capacity_check_and_reselect,
    optimistic_unchoke,
    select_neighbors_greedy,
    tit_for_tat_unchoke,
)
from .swarm import (
    ContentSpec,
    SwarmConfig,
    TrackerState,
    rarest_first,
    record_block,
    tracker_join,
    tracker_leave,
    tracker_refill,
)
from .workload import (
    GeneratorConfig,
    Request,
    Session,
    Workload,
    classify_session,
    generate_workload,
)

_EPS = 1e-9
_MAX_TICKS = 10**6  # unchoke or tracker ticks that one run may schedule
MAX_PIECES = 10**6  # pieces of the content that one run may track

_YANG_KINDS = (
    PolicyKind.LLP,
    PolicyKind.LRP,
    PolicyKind.TRACKER_CLOSEST,
    PolicyKind.YNP,
    PolicyKind.CNP,
)
# give-to-get ranks by forward credit and greedy formation reads it
_FORWARD_CREDIT_KINDS = (PolicyKind.GIVE_TO_GET, PolicyKind.DISPERSION_GREEDY)


class EventKind(enum.Enum):
    PEER_ARRIVAL = "peer_arrival"
    REQUEST_ISSUED = "request_issued"
    BLOCK_TRANSFER_COMPLETE = "block_transfer_complete"
    UNCHOKE_TICK = "unchoke_tick"
    OPTIMISTIC_TICK = "optimistic_tick"
    PLAYBACK_TICK = "playback_tick"
    TRACKER_UPDATE = "tracker_update"
    PEER_DEPARTURE = "peer_departure"


@dataclass(frozen=True)
class CapacityClass:
    rate: float
    fraction: float


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs.

    The run seed governs all randomness. When the workload is a
    GeneratorConfig, its seed field is replaced by a value derived from
    the run seed, so distinct seeds see distinct workloads while runs
    with equal seeds (e.g. two policies under comparison) share one.
    """

    content: ContentSpec
    swarm: SwarmConfig
    policy: PolicySpec
    workload: Workload | GeneratorConfig
    capacity_classes: tuple[CapacityClass, ...]
    seed: int
    horizon: float
    initial_seeds: int = 1
    startup_pieces: int = 1
    linger_as_seed_fraction: float = 0.0
    record_events: bool = False
    check_invariants: bool = False

    def __post_init__(self):
        finite = [("horizon", self.horizon)]
        for cc in self.capacity_classes:
            finite += [("capacity class rate", cc.rate), ("capacity class fraction", cc.fraction)]
        for name, value in finite:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number; got {value}")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        # The periodic ticks run up to the horizon. The optimistic interval
        # is a multiple of the unchoke interval and needs no term of its own.
        tick = min(self.swarm.unchoke_interval, self.swarm.tracker_update_interval)
        if self.horizon / tick > _MAX_TICKS:
            raise ConfigError(
                f"horizon {self.horizon} spans more than {_MAX_TICKS} ticks of {tick} s"
            )
        if self.content.num_pieces > MAX_PIECES:
            raise ConfigError(
                f"content spans more than {MAX_PIECES} pieces of {self.content.piece_size} bytes"
            )
        if self.initial_seeds < 1:
            raise ConfigError("at least one initial seed is required")
        if self.startup_pieces < 1:
            raise ConfigError("startup_pieces must be >= 1")
        if not 0.0 <= self.linger_as_seed_fraction <= 1.0:
            raise ConfigError("linger_as_seed_fraction must lie in [0, 1]")
        if not self.capacity_classes:
            raise ConfigError("at least one capacity class is required")
        total = 0.0
        for cc in self.capacity_classes:
            if cc.rate <= 0:
                raise ConfigError("capacity class rates must be positive")
            if cc.fraction < 0:
                raise ConfigError("capacity class fractions must be non-negative")
            total += cc.fraction
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"capacity fractions must sum to 1, got {total}")
        if self.workload.object_length > self.content.duration + _EPS:
            raise ConfigError(
                "workload object_length exceeds the content duration implied by the content spec"
            )


# ---------------------------------------------------------------------------
# QoS primitives


def fairness(rates: Sequence[float]) -> float:
    """Jain index of the per-peer rates: (sum x)^2 / (n * sum x^2)."""
    if not rates:
        raise ValueError("fairness needs at least one peer")
    if all(r == 0 for r in rates):
        raise ValueError("fairness undefined when every rate is zero")
    total = sum(rates)
    squares = sum(r * r for r in rates)
    return (total * total) / (len(rates) * squares)


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end + _EPS:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class PlaybackReport:
    """Deadline bookkeeping for one session against recorded piece arrivals."""

    play_starts: tuple[float | None, ...]
    pieces_due: int
    pieces_on_time: int
    stall_intervals: tuple[tuple[float, float], ...]

    @property
    def continuity_index(self) -> float:
        if self.pieces_due == 0:
            return 1.0
        return self.pieces_on_time / self.pieces_due

    @property
    def interruption_count(self) -> int:
        return len(self.stall_intervals)

    @property
    def mean_time_to_return(self) -> float:
        if not self.stall_intervals:
            return 0.0
        return sum(e - s for s, e in self.stall_intervals) / len(self.stall_intervals)


def _play_start(
    req: Request, region: range, piece_arrivals: Mapping[int, float], startup_pieces: int
) -> float | None:
    """When playback of `req` starts: once it is issued and the region's
    first `startup_pieces` pieces have arrived; None while one is missing."""
    start = req.arrival_time
    for k in region[:startup_pieces]:
        arr = piece_arrivals.get(k)
        if arr is None:
            return None
        start = max(start, arr)
    return start


def _deadlines(
    start: float, region: range, window_end: float, piece_duration: float
) -> Iterable[tuple[int, float]]:
    """(piece, deadline) of each piece of `region` due before the window
    closes, one piece duration apart from `start` on."""
    for j, k in enumerate(region):
        due = start + j * piece_duration
        if due >= window_end - _EPS:
            return
        yield k, due


def playback_model(
    requests: Sequence[Request],
    piece_arrivals: Mapping[int, float],
    content: ContentSpec,
    *,
    startup_pieces: int = 1,
    end_time: float = math.inf,
) -> PlaybackReport:
    """Walk a session's playback against recorded piece arrival times.

    Each request opens a playback window that closes at the next request
    (a jump resets the deadline frontier) or at end_time. Playback of a
    request starts once its region's first startup_pieces pieces are all
    present; piece k of the region is then due a fixed piece duration
    after its predecessor. A piece missing at its deadline opens a stall
    that closes when the piece arrives, at the window edge at the latest.
    """
    pd = content.piece_duration
    play_starts: list[float | None] = []
    due_total = 0
    due_on_time = 0
    stalls: list[tuple[float, float]] = []

    for idx, req in enumerate(requests):
        window_end = end_time
        if idx + 1 < len(requests):
            window_end = min(window_end, requests[idx + 1].arrival_time)
        region = content.pieces_for_interval(req.start_pos, req.end_pos)
        if len(region) == 0:
            play_starts.append(req.arrival_time if req.arrival_time < window_end else None)
            continue
        start = _play_start(req, region, piece_arrivals, startup_pieces)
        if start is None or start >= window_end - _EPS:
            play_starts.append(None)
            continue
        play_starts.append(start)
        request_stalls: list[tuple[float, float]] = []
        for k, due in _deadlines(start, region, window_end, pd):
            due_total += 1
            arr = piece_arrivals.get(k)
            if arr is not None and arr <= due + _EPS:
                due_on_time += 1
            else:
                stall_end = window_end if arr is None else min(arr, window_end)
                if stall_end > due:
                    request_stalls.append((due, stall_end))
        stalls.extend(_merge_intervals(request_stalls))

    return PlaybackReport(
        play_starts=tuple(play_starts),
        pieces_due=due_total,
        pieces_on_time=due_on_time,
        stall_intervals=tuple(stalls),
    )


# ---------------------------------------------------------------------------
# Engine internals


class _Link:
    """One direction of a peer pair: what `receiver` gets from `sender`.

    Both ends hold the same record. The receiver keeps it in `links`
    while it is in the swarm, lingering included, and lrp reads its
    `requests_sent`; at a departure without lingering it keeps it only
    if a block is in service. The sender keeps it in its `in_service`
    list while a block is in service.
    The block in service had `remaining` bytes left at the sender's
    `t_last` and moves at the sender's `share`. A reshare that replaces
    the sender's pending completion, and every cancel, bump `version`,
    so a completion event whose version is not the link's current one is
    stale.

    The pipeline holds the queued blocks plus the block in service, and
    a link with a queued block always has a block in service. The queue
    is a list: it holds at most `pipeline_depth` blocks, and a receiver
    keeps a link to every sender it ever asked while it stays, where an
    empty deque takes 760 bytes (64-bit CPython 3.11).
    `owned` is the bitset of the pieces the receiver fetches over this
    link: a pick sets the piece's bit, and the piece's completion or the
    link's choke clears it. Each owned piece is owned on one link.
    `_Engine._choke` is the one place where a link's requests end: it
    clears the queue and releases the link's pieces. A choke lets the
    block in service finish; a departure or a linger cancels it. A block
    left to finish was requested before the choke, so `pre_choke` keeps
    it out of the pipeline count if the link is unchoked again; the next
    block to start clears the flag. A cancelled block only loses its
    claimed bit, so the next refill of its piece's owner requests it
    again in block order.
    """

    __slots__ = (
        "sender",
        "receiver",
        "queue",
        "owned",
        "serving",
        "remaining",
        "version",
        "pre_choke",
        "window",
        "requests_sent",
    )

    def __init__(self, sender: str, receiver: str):
        self.sender = sender
        self.receiver = receiver
        self.queue: list[tuple[int, int]] = []
        self.owned = 0
        # (piece, block) in service
        self.serving: tuple[int, int] | None = None
        self.remaining = 0.0
        self.version = 0
        self.pre_choke = False
        # bytes delivered since the last unchoke tick
        self.window = 0
        self.requests_sent = 0


class _RunPeer:
    """One peer of a run, and the only record of it.

    The protocol side is what piece picking, block receipt and the
    policies read: the have-map, the block maps of partly received
    pieces, the neighbourhood (a list of ids, kept in id order), the
    upload slots (the only record of whom it unchokes), the popularity
    record on the content's piece grid (`support`, the `int` bitset of
    the bins its requests cover, and `mass`, the sum of their widths),
    the upload capacity and the join time. The rest is the engine's
    runtime state.
    A seed is a peer with no session: it joins at time 0 holding every
    piece. A leecher joins at its session's first request holding none.
    When it departs without lingering, `qos` takes its QoS, final then,
    and `_Engine._on_departure` empties its arrivals, block maps and
    forward credit and keeps only its links with a block in service. A
    lingering leecher keeps all of it.

    The have-map `have` and the wanted set `wanted` are `int` bitsets, bit
    k standing for piece k. How many neighbours hold each piece is not
    kept: `swarm.rarest_first` sums the neighbours' have-maps at each pick.

    Each begun piece has two block bitsets, bit b standing for block b.
    `partial[p]` holds the blocks still missing: it is set at the piece's
    first block and dropped at its completion. `claimed[p]` holds the
    blocks received, queued or in service on a link toward this peer: it
    is set at the piece's first request, a choke clears the bits of the
    blocks it drops, a zero entry is deleted, and so is the entry at the
    piece's completion. The blocks in flight are `claimed[p] &
    partial.get(p, all blocks)`. `owned` is the OR of the links' `owned`
    bitsets.
    `in_service` lists the links on which this peer has a block in
    service, in no set order, and is the only record of what it serves:
    a block starting in `_Engine._reshare_sender` appends its link, a
    completion's reshare drops its link unless the next block starts in
    place, and a block cancelled in `_Engine._choke` removes it. Every
    listed link moves at `share` since
    `t_last`, the sender's last reshare. `queue_length` counts the blocks
    queued or in service on those links, which llp reads. While the list
    is not empty, `pending` holds the payload of its one pending completion.

    Slots keep each record small: from 30 attributes on, CPython gives
    an instance its own dict, about five times the memory of the slots.
    """

    __slots__ = (
        "peer_id", "session", "upload_capacity", "join_time", "have", "partial",
        "neighbourhood", "regular_slots", "optimistic_slot", "support", "mass",
        "joined", "alive", "lingering", "qos_cutoff", "in_service", "share", "t_last",
        "queue_length", "pending", "forward_accum", "forward_snapshot",
        "links", "claimed", "owned", "block_source", "wanted",
        "current_req",
        "uploaded", "downloaded", "piece_arrival", "formation", "qos",
    )

    def __init__(
        self, peer_id: str, session: Session | None, upload_capacity: float, content: ContentSpec
    ):
        self.peer_id = peer_id
        self.session = session
        self.upload_capacity = upload_capacity
        self.join_time = 0.0 if session is None else session.requests[0].arrival_time
        self.have = (1 << content.num_pieces) - 1 if session is None else 0
        # piece -> bitset of missing blocks, for pieces begun but not complete
        self.partial: dict[int, int] = {}
        self.neighbourhood: list[str] = []
        self.regular_slots: set[str] = set()
        self.optimistic_slot: str | None = None
        self.support = 0
        self.mass = 0
        self.joined = False
        self.alive = False
        self.lingering = False
        self.qos_cutoff: float | None = None
        # upload side: the links with a block in service, their share and
        # last charge time, and the payload of the one pending completion
        # event while any transfer is in service
        self.in_service: list[_Link] = []
        self.share = 0.0
        self.t_last = 0.0
        self.queue_length = 0
        self.pending: tuple[_Link, int] | None = None
        self.forward_accum: dict[str, int] = {}
        self.forward_snapshot: dict[str, int] = {}
        # download side: links by sender, kept until a departure that
        # does not linger
        self.links: dict[str, _Link] = {}
        self.claimed: dict[int, int] = {}
        self.owned = 0
        # piece -> sender of each block, credited in the forwarder's
        # `forward_accum`; kept only under give-to-get and dispersion-greedy
        self.block_source: dict[int, list[str | None]] = {}
        self.wanted = 0
        # session progress: the index of the last request made
        self.current_req = -1
        # accounting
        self.uploaded = 0
        self.downloaded = 0
        self.piece_arrival: dict[int, float] = {}
        self.formation: DispersionReport | None = None
        # a leecher's QoS, set when it departs without lingering
        self.qos: PeerQoS | None = None

    def unchoked_set(self) -> set[str]:
        out = set(self.regular_slots)
        if self.optimistic_slot is not None:
            out.add(self.optimistic_slot)
        return out


@dataclass(frozen=True)
class PeerQoS:
    continuity_index: float
    startup_delay: float
    bootstrap_time: float
    mean_time_to_return: float
    interruption_count: int
    total_download_time: float
    link_utilization: float
    downloaded_bytes: int
    uploaded_bytes: int
    download_rate: float
    formation: dict | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class QoSReport:
    seed: int
    policy: str
    horizon: float
    peer_count: int
    leecher_count: int
    aggregate: dict
    per_peer: dict[str, PeerQoS]

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["per_peer"] = dict(sorted(out["per_peer"].items()))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class RunResult:
    report: QoSReport
    events: list[dict] | None


def event_log_lines(events: Iterable[dict]) -> str:
    """Newline-delimited JSON records of the event log."""
    return "".join(json.dumps(e) + "\n" for e in events)


def _block_length_table(content: ContentSpec) -> list[tuple[int, ...]]:
    """The block lengths of every piece; all pieces but the last share one tuple."""

    def lengths(piece: int) -> tuple[int, ...]:
        return tuple(
            content.block_length(piece, b) for b in range(content.blocks_in_piece(piece))
        )

    last = content.num_pieces - 1
    return [lengths(0)] * last + [lengths(last)]


class _Engine:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.content = cfg.content
        self.swarm = cfg.swarm
        root = random.Random(cfg.seed)
        generator_seed = root.getrandbits(63)
        self.rng = random.Random(root.getrandbits(63))
        self.now = 0.0
        self.seq = 0
        # the events the run schedules: completions, ticks, seed arrivals
        self.heap: list = []
        # the sessions' arrivals, requests and departures, all known at
        # setup: sorted by (time, seq), latest first, so the next is last
        self.workload_events: list = []
        self._pipeline_depth = cfg.swarm.pipeline_depth
        self.peers: dict[str, _RunPeer] = {}
        self.tracker = TrackerState(list_size=cfg.swarm.tracker_list_size)
        self.events: list[dict] | None = [] if cfg.record_events else None
        # Set by every change to links, have-maps or wanted sets; read by
        # the invariant check to decide whether to recount.
        self._maps_changed = True
        # 1 << k for each piece k, built by the first check that needs it.
        self._piece_bits: list[int] | None = None
        # Links whose window holds bytes since the last unchoke tick.
        self._windowed: list[_Link] = []
        self._yang = cfg.policy.kind in _YANG_KINDS
        self._forward_credit = cfg.policy.kind in _FORWARD_CREDIT_KINDS
        # kind -> handler: plain functions of this engine's class, so that a
        # patched method is the one called and no event refers to the engine
        cls = type(self)
        self.handlers = {
            EventKind.PEER_ARRIVAL: cls._on_arrival,
            EventKind.REQUEST_ISSUED: cls._on_request,
            EventKind.BLOCK_TRANSFER_COMPLETE: cls._on_block_complete,
            EventKind.UNCHOKE_TICK: cls._on_unchoke_tick,
            EventKind.OPTIMISTIC_TICK: cls._on_optimistic_tick,
            EventKind.PLAYBACK_TICK: cls._on_playback_tick,
            EventKind.TRACKER_UPDATE: cls._on_tracker_update,
            EventKind.PEER_DEPARTURE: cls._on_departure,
        }
        self._completion_handler = cls._on_block_complete
        self._block_lengths = _block_length_table(self.content)
        # piece -> bitset of all its blocks
        self._all_blocks = [(1 << len(lengths)) - 1 for lengths in self._block_lengths]
        # popularity record bins: one per piece duration of the object
        self._bins = bin_count(self.content.duration, self.content.piece_duration)

        wl = cfg.workload
        if isinstance(wl, GeneratorConfig):
            wl = generate_workload(dataclasses.replace(wl, seed=generator_seed))
        self.workload: Workload = wl

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, t: float, handler, payload: tuple) -> None:
        """Push an event that `loop` handles as `handler(engine, *payload)`."""
        heapq.heappush(self.heap, (t, self.seq, handler, payload))
        self.seq += 1

    def _log(self, kind: EventKind, actor: str | None, **detail) -> None:
        if self.events is not None:
            self.events.append(
                {"time": self.now, "kind": kind.value, "actor": actor, **detail}
            )

    def _repeat(self, kind: EventKind, interval: float) -> None:
        """Log a periodic tick and schedule the next one, `interval` on; the
        loop stops at the first tick past the horizon."""
        self._log(kind, None)
        self._schedule(self.now + interval, self.handlers[kind], ())

    def setup(self) -> None:
        cfg = self.cfg
        on = self.handlers
        cap_rng = random.Random(self.rng.getrandbits(63))
        num_seeds = cfg.initial_seeds
        width = max(2, len(str(num_seeds)))
        for i in range(num_seeds):
            pid = f"seed{i:0{width}d}"
            self.peers[pid] = _RunPeer(pid, None, self._draw_capacity(cap_rng), self.content)
            self._schedule(0.0, on[EventKind.PEER_ARRIVAL], (pid,))

        later = self.workload_events

        def plan(t: float, kind: EventKind, payload: tuple) -> None:
            later.append((t, self.seq, on[kind], payload))
            self.seq += 1

        for session in self.workload.sessions:
            pid = session.client_id
            if pid in self.peers:
                raise TraceError(f"client id {pid} clashes with an initial seed")
            peer = _RunPeer(pid, session, self._draw_capacity(cap_rng), self.content)
            self.peers[pid] = peer
            plan(peer.join_time, EventKind.PEER_ARRIVAL, (pid,))
            for idx, req in enumerate(session.requests):
                plan(req.arrival_time, EventKind.REQUEST_ISSUED, (pid, idx))
            last = session.requests[-1]
            plan(last.arrival_time + last.duration, EventKind.PEER_DEPARTURE, (pid,))
        # seqs are unique, so the sort never compares two handlers
        later.sort(reverse=True)
        # capacities were drawn in creation order; every walk from here on is in id order
        self.peers = dict(sorted(self.peers.items()))

        self._schedule(self.swarm.unchoke_interval, on[EventKind.UNCHOKE_TICK], ())
        self._schedule(self.swarm.optimistic_interval, on[EventKind.OPTIMISTIC_TICK], ())
        self._schedule(self.swarm.tracker_update_interval, on[EventKind.TRACKER_UPDATE], ())

    def _draw_capacity(self, rng: random.Random) -> float:
        u = rng.random()
        acc = 0.0
        for cc in self.cfg.capacity_classes:
            acc += cc.fraction
            if u <= acc + _EPS:
                return cc.rate
        return self.cfg.capacity_classes[-1].rate

    def loop(self) -> None:
        """Handle events in (time, seq) order until the first one past the
        horizon.

        The next event is the heap's top or the next workload event,
        whichever comes first by (time, seq). Only what the run schedules
        sits in the heap, so its size, and any high-water mark of it,
        counts those events alone.
        """
        end = self.cfg.horizon + _EPS
        check = self.cfg.check_invariants
        heap = self.heap
        heappop = heapq.heappop
        later = self.workload_events
        # stands in for the workload events once they run out
        drained = (math.inf, -1, None, ())
        upcoming = later.pop() if later else drained
        while True:
            if heap and heap[0] < upcoming:
                t, _, handler, payload = heappop(heap)
            else:
                t, _, handler, payload = upcoming
                upcoming = later.pop() if later else drained
            if t > end:
                break
            self.now = t
            handler(self, *payload)
            if check:
                self._check_invariants()
        if check:
            uploaded, downloaded = self._byte_totals()
            if uploaded != downloaded:
                raise InvariantError(f"byte conservation broken: up={uploaded} down={downloaded}")

    def _byte_totals(self) -> tuple[int, int]:
        """Bytes uploaded and bytes downloaded, each summed over every peer."""
        peers = self.peers.values()
        return sum(p.uploaded for p in peers), sum(p.downloaded for p in peers)

    # -- peer lifecycle -----------------------------------------------------

    def _alive_peers(self) -> list[_RunPeer]:
        return [p for p in self.peers.values() if p.alive]

    def _on_arrival(self, pid: str) -> None:
        peer = self.peers[pid]
        peer.joined = True
        peer.alive = True
        candidates = tracker_join(self.tracker, pid, self.rng)
        if peer.session is not None:
            first = peer.session.requests[0]
            self._record_request_coverage(peer, first)
            # request 0 runs next: same time, the next sequence number
            peer.current_req = 0
        selected = self._form_neighbourhood(peer, candidates)
        for other in selected:
            self._connect(peer, self.peers[other])
        self._log(EventKind.PEER_ARRIVAL, pid, neighbours=list(peer.neighbourhood))

    def _request_rate(self, peer: _RunPeer) -> float:
        """Requests per object duration, floored at one elapsed duration."""
        elapsed = max(self.now - peer.join_time, 0.0)
        spans = max(elapsed / self.content.duration, 1.0)
        return (peer.current_req + 1) / spans

    def _candidate_info(self, peer: _RunPeer) -> CandidateInfo:
        """What greedy formation reads of a candidate."""
        return CandidateInfo(
            peer_id=peer.peer_id,
            support=peer.support,
            mass=peer.mass,
            request_rate=self._request_rate(peer),
            has_started=peer.have != 0,
            recent_forward_rate=(
                sum(peer.forward_snapshot.values()) / self.swarm.optimistic_interval
            ),
        )

    def _holder_view(self, holder: _RunPeer, requester: _RunPeer) -> HolderView:
        """A request-target baseline's view of a holder."""
        return HolderView(
            peer_id=holder.peer_id,
            buffer_summary=holder.have,
            join_time=holder.join_time,
            queue_length=holder.queue_length,
            requests_sent_to=requester.links[holder.peer_id].requests_sent,
        )

    def _form_neighbourhood(self, peer: _RunPeer, candidates: list[str]) -> list[str]:
        target = self.swarm.target
        if (
            self.cfg.policy.kind is PolicyKind.DISPERSION_GREEDY
            and peer.session is not None
        ):
            infos = [self._candidate_info(self.peers[c]) for c in candidates]
            own = (peer.support, peer.mass)
            hint = classify_session(peer.session, self.workload.object_length)
            outcome = select_neighbors_greedy(own, infos, target, hint)
            expected = {
                c: self.peers[c].upload_capacity
                / max(1, self.swarm.regular_slot_count)
                for c in candidates
            }
            outcome = capacity_check_and_reselect(
                outcome,
                own,
                infos,
                expected,
                self.content.playback_rate,
                target,
                hint,
            )
            selected = list(outcome.selected)
        else:
            selected = self.rng.sample(candidates, min(target, len(candidates)))
        if peer.session is not None:
            peer.formation = self._formation_report(peer, selected)
        return selected

    def _formation_report(self, peer: _RunPeer, selected: list[str]) -> DispersionReport | None:
        support, mass = peer.support, peer.mass
        for other in map(self.peers.__getitem__, selected):
            support |= other.support
            mass += other.mass
        if mass == 0:
            return None
        return make_report(support.bit_count(), mass, self._request_rate(peer))

    def _connect(self, a: _RunPeer, b: _RunPeer) -> None:
        bisect.insort(a.neighbourhood, b.peer_id)
        bisect.insort(b.neighbourhood, a.peer_id)
        self._maps_changed = True

    def _refill_neighbourhood(self, peer: _RunPeer) -> None:
        """Top `peer`'s neighbourhood up toward the target with fresh tracker
        candidates once it holds fewer than `neighbourhood_floor` peers."""
        if len(peer.neighbourhood) >= self.swarm.neighbourhood_floor:
            return
        fresh = tracker_refill(self.tracker, peer.peer_id, peer.neighbourhood, self.rng)
        needed = self.swarm.target - len(peer.neighbourhood)
        for other in fresh[:needed]:
            self._connect(peer, self.peers[other])

    def _on_departure(self, pid: str) -> None:
        peer = self.peers[pid]
        peer.qos_cutoff = self.now
        if (
            self.cfg.linger_as_seed_fraction > 0
            and self.rng.random() < self.cfg.linger_as_seed_fraction
        ):
            # Stays as an uploader of what it holds; stops requesting.
            peer.lingering = True
            peer.wanted = 0
            self._cancel_downloads(peer)
            self._log(EventKind.PEER_DEPARTURE, pid, lingering=True)
            return
        peer.alive = False
        self._maps_changed = True
        tracker_leave(self.tracker, pid)
        self._cancel_downloads(peer)
        self._cancel_uploads(peer)
        for nid in peer.neighbourhood:
            other = self.peers[nid]
            other.neighbourhood.remove(pid)
            other.regular_slots.discard(pid)
            if other.optimistic_slot == pid:
                other.optimistic_slot = None
            self._refill_neighbourhood(other)
        peer.neighbourhood.clear()
        # Its arrivals, bytes and formation no longer change, so its QoS is
        # final. Of what it holds, only a link with a block in service is
        # read again: by the block's completion, or by the sender's `_choke`
        # when the sender departs.
        if peer.session is not None:
            peer.qos = self._peer_qos(peer)
        peer.piece_arrival = {}
        peer.partial = {}
        peer.claimed = {}
        peer.block_source = {}
        peer.forward_accum = {}
        peer.forward_snapshot = {}
        peer.links = {s: k for s, k in peer.links.items() if k.serving is not None}
        self._log(EventKind.PEER_DEPARTURE, pid, lingering=False)

    def _cancel_downloads(self, peer: _RunPeer) -> None:
        """Drop this peer's requests and in-flight inbound blocks.

        Only the links of its unchokers are cancelled: a block in service
        on a link that has been choked still finishes, and a lingering
        peer gets it. The peer wants nothing more.
        """
        for up in self._unchokers(peer):
            if self._choke(up, peer, cancel=True):
                self._reshare_sender(up)

    def _cancel_uploads(self, peer: _RunPeer) -> None:
        """Cancel every link of a departing peer to a peer it serves or unchokes."""
        for rid in sorted({k.receiver for k in peer.in_service} | peer.unchoked_set()):
            self._choke(peer, self.peers[rid], cancel=True)
        peer.pending = None
        peer.regular_slots.clear()
        peer.optimistic_slot = None

    def _choke(self, up: _RunPeer, dl: _RunPeer, cancel: bool) -> bool:
        """End `dl`'s requests to `up`: drop the queued blocks and their
        claimed bits, and release the pieces `dl` owns on the link. The
        block in service finishes unless `cancel` is set; returns whether
        it was cancelled, so that `up` needs a reshare. A dropped block's
        piece owner requests it again at its next refill.
        """
        link = dl.links[up.peer_id]
        dropped = list(link.queue)
        link.queue.clear()
        link.pre_choke = True
        dl.owned &= ~link.owned
        link.owned = 0
        cancelled = cancel and link.serving is not None
        if cancelled:
            dropped.append(link.serving)
            link.serving = None
            link.version += 1
            up.in_service.remove(link)
        up.queue_length -= len(dropped)
        claimed = dl.claimed
        for piece, block in dropped:
            left = claimed.get(piece, 0) & ~(1 << block)
            if left:
                claimed[piece] = left
            else:
                claimed.pop(piece, None)
        return cancelled

    # -- requests and playback ----------------------------------------------

    def _record_request_coverage(self, peer: _RunPeer, req: Request) -> None:
        pd = self.content.piece_duration
        lo, hi = bin_span(req.start_pos, req.end_pos, pd, self._bins)
        if hi > lo:
            peer.support |= (1 << hi) - (1 << lo)
            peer.mass += hi - lo

    def _on_request(self, pid: str, idx: int) -> None:
        peer = self.peers[pid]
        req = peer.session.requests[idx]
        if idx > 0:
            self._record_request_coverage(peer, req)
        peer.current_req = idx
        region = self.content.pieces_for_interval(req.start_pos, req.end_pos)
        peer.wanted = 0
        self._maps_changed = True
        if len(region) > 0:
            peer.wanted = ((1 << region.stop) - (1 << region.start)) & ~peer.have
        if self.cfg.policy.kind is PolicyKind.PER_PIECE_OPTIMISTIC:
            self._per_piece_optimistic(peer)
        for up in self._unchokers(peer):
            self._fill_pipeline(peer, up)
        self._log(
            EventKind.REQUEST_ISSUED,
            pid,
            index=idx,
            start=req.start_pos,
            end=req.end_pos,
        )

    def _per_piece_optimistic(self, peer: _RunPeer, piece: int | None = None) -> None:
        """The play-triggered variant's hook at a request (`piece` None)
        and at each completed piece.

        When the playback start becomes defined, at the request or when a
        lead piece completes, a tick is pushed for each deadline of the
        request's window; it carries the request's index, so the next
        request leaves it stale. A piece completing at or after its deadline is
        consumed on arrival and re-rolls the optimistic slot.
        """
        idx = peer.current_req
        requests = peer.session.requests
        req = requests[idx]
        region = self.content.pieces_for_interval(req.start_pos, req.end_pos)
        startup = self.cfg.startup_pieces
        start = _play_start(req, region, peer.piece_arrival, startup)
        if start is None:
            return
        pd = self.content.piece_duration
        if piece is None or piece in region[:startup]:
            window_end = self.cfg.horizon
            if idx + 1 < len(requests):
                window_end = min(window_end, requests[idx + 1].arrival_time)
            on_tick = self.handlers[EventKind.PLAYBACK_TICK]
            for k, due in _deadlines(start, region, window_end, pd):
                self._schedule(due, on_tick, (peer.peer_id, idx, k, due))
        if piece is not None and piece in region:
            if start + (piece - region.start) * pd <= self.now + _EPS:
                self._reoptimistic(peer)

    def _on_playback_tick(self, pid: str, idx: int, piece: int, due: float) -> None:
        peer = self.peers[pid]
        if not peer.alive or peer.lingering or idx != peer.current_req:
            return
        if peer.have >> piece & 1:
            # Piece consumed on time: the play-triggered variant re-rolls
            # this peer's optimistic slot at every played piece.
            self._reoptimistic(peer)
            self._log(EventKind.PLAYBACK_TICK, pid, piece=piece, due=due)

    # -- neighbour interest and unchoking ------------------------------------

    def _interested(self, peer: _RunPeer) -> list[str]:
        """Neighbours that want a piece `peer` holds, in the neighbourhood's
        id order. Every neighbour is alive, and a lingering one wants nothing."""
        have = peer.have
        peers = self.peers
        return [n for n in peer.neighbourhood if peers[n].wanted & have]

    def _unchokers(self, peer: _RunPeer) -> list[_RunPeer]:
        """The neighbours whose slots hold `peer`, in the neighbourhood's id order."""
        pid = peer.peer_id
        peers = map(self.peers.__getitem__, peer.neighbourhood)
        return [up for up in peers if pid in up.regular_slots or up.optimistic_slot == pid]

    def _rank_rates(self, peer: _RunPeer, interested: list[str]) -> dict[str, float]:
        delta = self.swarm.unchoke_interval
        if peer.session is None or peer.lingering:
            # bytes this peer sent to each neighbour
            links = [self.peers[n].links.get(peer.peer_id) for n in interested]
        elif self.cfg.policy.kind is PolicyKind.GIVE_TO_GET:
            window = self.swarm.optimistic_interval
            return {
                n: self.peers[n].forward_snapshot.get(peer.peer_id, 0) / window
                for n in interested
            }
        else:
            # bytes each neighbour sent to this peer
            links = [peer.links.get(n) for n in interested]
        return {
            n: (link.window if link is not None else 0) / delta
            for n, link in zip(interested, links)
        }

    def _on_unchoke_tick(self) -> None:
        for peer in self._alive_peers():
            rates = self._rank_rates(peer, self._interested(peer))
            regular = tit_for_tat_unchoke(rates, self.swarm.regular_slot_count)
            old = peer.unchoked_set()
            peer.regular_slots = set(regular)
            if peer.optimistic_slot in peer.regular_slots:
                peer.optimistic_slot = None
            self._apply_slot_diff(peer, old, peer.unchoked_set())
        for link in self._windowed:
            link.window = 0
        self._windowed.clear()
        self._repeat(EventKind.UNCHOKE_TICK, self.swarm.unchoke_interval)

    def _reoptimistic(self, peer: _RunPeer) -> None:
        if self.swarm.optimistic_slot_count == 0:
            return
        choked = [n for n in self._interested(peer) if n not in peer.regular_slots]
        pick = optimistic_unchoke(choked, self.rng)
        old = peer.unchoked_set()
        peer.optimistic_slot = pick
        self._apply_slot_diff(peer, old, peer.unchoked_set())

    def _on_optimistic_tick(self) -> None:
        alive = self._alive_peers()
        for peer in alive:
            self._reoptimistic(peer)
        if self._forward_credit:
            # only alive peers are candidates or neighbours, so only their credit is read
            for p in alive:
                p.forward_snapshot = dict(p.forward_accum)
                p.forward_accum.clear()
        self._repeat(EventKind.OPTIMISTIC_TICK, self.swarm.optimistic_interval)

    def _apply_slot_diff(self, peer: _RunPeer, old: set[str], new: set[str]) -> None:
        if old == new:
            return
        for rid in sorted(old - new):
            self._choke(peer, self.peers[rid], cancel=False)
        for rid in sorted(new - old):
            self._fill_pipeline(self.peers[rid], peer)

    def _on_tracker_update(self) -> None:
        for peer in self._alive_peers():
            self._refill_neighbourhood(peer)
        self._repeat(EventKind.TRACKER_UPDATE, self.swarm.tracker_update_interval)

    # -- block transfer machinery ---------------------------------------------

    def _pick_new_piece(self, dl: _RunPeer, up: _RunPeer, avail: int) -> int | None:
        """The piece `dl` fetches next from `up`, of `avail`: the wanted
        pieces `up` holds that `dl` neither holds nor owns, at least one.
        None when a request-target baseline sends the request elsewhere."""
        # `up` is a neighbour holding all of `avail`, so the pick succeeds
        peers = self.peers
        piece = rarest_first([peers[n].have for n in dl.neighbourhood], avail, self.rng)
        if self._yang:
            # `up` unchokes `dl` and holds the piece, so it is a holder
            pid = dl.peer_id
            holders = [
                self._holder_view(holder, dl)
                for holder in map(peers.__getitem__, dl.neighbourhood)
                if holder.have >> piece & 1
                and (pid in holder.regular_slots or holder.optimistic_slot == pid)
            ]
            target = baseline_request_target(
                self.cfg.policy, piece, holders, dl.join_time, self.rng
            )
            if target != up.peer_id:
                return None
        return piece

    def _fill_pipeline(self, dl: _RunPeer, up: _RunPeer) -> None:
        """Request blocks from `up` until the link's pipeline is full, and
        start the first if the link is idle.

        The one guard turns `dl` away unless `up` unchokes it; a lingering
        `dl` may keep its slot until the next tick, but owns and wants
        nothing, so it requests nothing. A completion refills its own link
        behind the same guard.
        """
        pid = dl.peer_id
        if pid not in up.regular_slots and up.optimistic_slot != pid:
            return
        link = dl.links.get(up.peer_id)
        if link is None:
            link = dl.links[up.peer_id] = _Link(up.peer_id, dl.peer_id)
        if self._request_blocks(dl, up, link) and link.serving is None:
            self._reshare_sender(up, link)

    def _request_blocks(self, dl: _RunPeer, up: _RunPeer, link: _Link) -> int:
        """Queue blocks on `link` until its pipeline is full; return how many.

        A piece's free blocks are those `dl.claimed` lacks. The pieces `dl`
        owns on the link come first, in ascending piece order, each giving
        its lowest free blocks. While room is left, new pieces are then
        picked one at a time, after the owned ones whatever their number,
        until none is left to pick, the pick fails or the picked piece has
        no free block (it stays owned all the same).
        """
        in_pipeline = len(link.queue) + (link.serving is not None and not link.pre_choke)
        room = self._pipeline_depth - in_pipeline
        if room <= 0:
            return 0
        claimed = dl.claimed
        all_blocks = self._all_blocks
        queue = link.queue
        added = room
        owned = link.owned
        while room:
            if owned:
                low = owned & -owned
                owned ^= low
                piece = low.bit_length() - 1
                blocks = all_blocks[piece]
                free = blocks & ~claimed.get(piece, 0)
                if not free:
                    continue
            else:
                avail = dl.wanted & up.have & ~dl.owned
                if not avail:
                    break
                piece = self._pick_new_piece(dl, up, avail)
                if piece is None:
                    break
                low = 1 << piece
                link.owned |= low
                dl.owned |= low
                blocks = all_blocks[piece]
                free = blocks & ~claimed.get(piece, 0)
                if not free:
                    break
            while free and room:
                low = free & -free
                free ^= low
                queue.append((piece, low.bit_length() - 1))
                room -= 1
            claimed[piece] = blocks & ~free
        added -= room
        up.queue_length += added
        link.requests_sent += added
        return added

    def _reshare_sender(
        self, up: _RunPeer, idle: _Link | None = None, listed: bool = False
    ) -> None:
        """Start the idle link's next queued block, if any, and split
        `up`'s capacity equally over its active transfers.

        The links of `up.in_service` are charged what each sent at
        `up.share` since `up.t_last`. Then `idle`, a link of `up` with no
        block in service, starts its next queued block, if it has one,
        and joins them. A `listed` idle link, whose block has just
        finished, is in the list already: it starts in place, or leaves.
        When it is the only one listed, nothing is charged. `up.share`
        becomes the new split. The first block is chosen by (finish time,
        receiver id), whatever the list's order. Only it gets a completion
        event, whose payload `up.pending` keeps: a busy sender has exactly
        one pending completion, and bumping the version of the payload it
        replaces makes that event stale. Each live completion reshares its
        sender, so the next block's event is pushed then.
        """
        now = self.now
        active = up.in_service
        n = len(active)
        elapsed = now - up.t_last
        if elapsed > 0 and (n > 1 or not listed):
            sent = up.share * elapsed
            for link in active:
                left = link.remaining - sent
                link.remaining = left if left >= 0.0 else 0.0
        up.t_last = now
        if idle is not None:
            if idle.queue:
                idle.serving = piece, block = idle.queue.pop(0)
                if not up.have >> piece & 1:
                    raise InvariantError(f"{up.peer_id} asked to serve incomplete piece {piece}")
                idle.remaining = self._block_lengths[piece][block]
                idle.pre_choke = False
                if not listed:
                    active.append(idle)
                    n += 1
            elif listed:
                active.remove(idle)
                n -= 1
        if up.pending is not None:
            up.pending[0].version += 1
        if not n:
            up.pending = None
            return
        up.share = share = up.upload_capacity / n
        first = active[0]
        first_eta = now + first.remaining / share
        if n > 1:
            for link in active:
                eta = now + link.remaining / share
                if eta < first_eta or (eta == first_eta and link.receiver < first.receiver):
                    first, first_eta = link, eta
        up.pending = payload = (first, first.version)
        heapq.heappush(self.heap, (first_eta, self.seq, self._completion_handler, payload))
        self.seq += 1

    def _on_block_complete(self, link: _Link, version: int) -> None:
        if version != link.version:
            return
        up = self.peers[link.sender]
        dl = self.peers[link.receiver]
        piece, block = link.serving
        # the link stays in `up.in_service` until the reshare below
        link.serving = None
        up.queue_length -= 1
        if dl.alive:
            nbytes = self._block_lengths[piece][block]
            up.uploaded += nbytes
            dl.downloaded += nbytes
            if not link.window:
                self._windowed.append(link)
            link.window += nbytes
            if self._forward_credit:
                sources = up.block_source.get(piece)
                if sources is not None:
                    origin = sources[block]
                    if origin is not None and origin != link.receiver:
                        up.forward_accum[origin] = up.forward_accum.get(origin, 0) + nbytes
                sources = dl.block_source.get(piece)
                if sources is None:
                    sources = dl.block_source[piece] = [None] * len(self._block_lengths[piece])
                sources[block] = link.sender
            completed = record_block(dl, self.content, piece, block)
            if self.events is not None:
                self._log(
                    EventKind.BLOCK_TRANSFER_COMPLETE,
                    link.receiver,
                    sender=link.sender,
                    piece=piece,
                    block=block,
                    completed=completed,
                )
            if completed:
                del dl.claimed[piece]
                bit = 1 << piece
                if dl.owned & bit:
                    dl.owned ^= bit
                    # another link owns it if a block served after a choke finished it
                    owner = link if link.owned & bit else next(
                        k for k in dl.links.values() if k.owned & bit
                    )
                    owner.owned ^= bit
                self._maps_changed = True
                self._on_piece_complete(dl, piece)
            # `_fill_pipeline`'s guard, on the link at hand
            pid = link.receiver
            if pid in up.regular_slots or up.optimistic_slot == pid:
                self._request_blocks(dl, up, link)
        # the link starts its next queued block in place, or leaves the list
        self._reshare_sender(up, link, True)

    def _on_piece_complete(self, dl: _RunPeer, piece: int) -> None:
        dl.piece_arrival[piece] = self.now
        dl.wanted &= ~(1 << piece)
        if self.cfg.policy.kind is PolicyKind.PER_PIECE_OPTIMISTIC and not dl.lingering:
            self._per_piece_optimistic(dl, piece)

    # -- invariants -----------------------------------------------------------

    def _check_invariants(self) -> None:
        regular_cap = self.swarm.regular_slot_count
        total_cap = self.swarm.total_slots
        all_pieces = (1 << self.content.num_pieces) - 1
        alive = {pid: peer for pid, peer in self.peers.items() if peer.alive}
        for pid, peer in alive.items():
            if len(peer.regular_slots) > regular_cap:
                raise InvariantError(f"{pid} exceeds regular slot cap")
            extra = 1 if peer.optimistic_slot is not None else 0
            if peer.optimistic_slot in peer.regular_slots:
                raise InvariantError(f"{pid} optimistic slot duplicates a regular slot")
            if len(peer.regular_slots) + extra > total_cap:
                raise InvariantError(f"{pid} exceeds total slot cap")
            # a receiver's unchokers are read off its neighbours' slots
            stray = peer.unchoked_set().difference(peer.neighbourhood)
            if stray:
                raise InvariantError(f"{pid} unchokes {min(stray)}, which is not its neighbour")
            # a link with a queued block has one in service, so is listed
            queued = served = 0
            for link in peer.in_service:
                if link.serving is not None:
                    queued += 1
                    served |= 1 << link.serving[0]
                queued += len(link.queue)
                for piece, _ in link.queue:
                    served |= 1 << piece
            if queued != peer.queue_length:
                raise InvariantError(
                    f"{pid} counts {peer.queue_length} blocks queued or in service, "
                    f"but its links hold {queued}"
                )
            if peer.session is None:
                if peer.claimed or peer.links:
                    raise InvariantError(f"seed {pid} has outstanding requests")
                if peer.have != all_pieces:
                    raise InvariantError(f"seed {pid} lost pieces")
            elif served & ~peer.have:
                raise InvariantError(f"{pid} queues or serves a piece it lacks")
            if peer.links or peer.claimed or peer.owned:
                self._check_inbound(pid, peer)
            if peer.in_service or peer.pending is not None:
                self._check_pending(pid, peer)
        if self._maps_changed and alive:
            self._maps_changed = False
            self._check_links_and_pieces(alive)

    def _check_inbound(self, pid: str, peer: _RunPeer) -> None:
        """Claimed blocks and owned pieces agree with the block maps and
        with the links toward `peer`.

        Each received block of a begun piece is claimed, and no held piece
        keeps claimed blocks. Each block queued or in service on those
        links is in flight, claimed and missing, and there are as many
        such blocks as blocks in flight, so each block in flight is on
        exactly one link. Each owned piece is missing and owned on one
        link, from a sender that unchokes `peer`, and `peer.owned` is the
        OR of the links' owned pieces. An idle link, owning nothing with
        nothing queued or in service, costs one test.
        """
        all_blocks = self._all_blocks
        claimed = peer.claimed
        partial = peer.partial
        have = peer.have
        for piece, missing in partial.items():
            # a held piece's block map is `_check_held_pieces`' fault
            if all_blocks[piece] & ~missing & ~claimed.get(piece, 0) and not have >> piece & 1:
                raise InvariantError(f"{pid} received a block of piece {piece} it has not claimed")
        in_flight = {}
        for piece, bits in claimed.items():
            if have >> piece & 1:
                raise InvariantError(f"{pid} keeps claimed blocks of complete piece {piece}")
            in_flight[piece] = bits & partial.get(piece, all_blocks[piece])
        owned = on_links = 0
        for link in peer.links.values():
            if not (link.owned or link.queue or link.serving):
                continue
            if link.owned:
                if link.owned & owned:
                    raise InvariantError(f"{pid} owns a piece on two links")
                owned |= link.owned
                up = self.peers[link.sender]
                if pid not in up.regular_slots and up.optimistic_slot != pid:
                    raise InvariantError(f"{pid} owns pieces on a link that is not unchoked")
            blk = link.serving
            if blk is not None and not in_flight.get(blk[0], 0) >> blk[1] & 1:
                raise InvariantError(f"{pid} has a block on a link that is not in flight")
            for piece, block in link.queue:
                if not in_flight.get(piece, 0) >> block & 1:
                    raise InvariantError(f"{pid} has a block on a link that is not in flight")
            on_links += len(link.queue) + (blk is not None)
        if on_links != sum(map(int.bit_count, in_flight.values())):
            raise InvariantError(f"{pid} has an in-flight block not on exactly one link")
        if owned != peer.owned:
            raise InvariantError(f"{pid} owns pieces that no link owns, or the reverse")
        if owned & peer.have:
            raise InvariantError(f"{pid} owns a piece it holds")

    @staticmethod
    def _check_pending(pid: str, peer: _RunPeer) -> None:
        """Each link of a sender's in-service list has a block in service
        and is listed once, and a busy sender's one live completion event
        is for the block in service that finishes first, ties broken by
        receiver id.

        That the list misses no link with a block in service is the queue
        count's check in `_check_invariants`. Each reshare bumps the
        version of the link whose payload it replaces and records the
        payload it pushes, so a payload whose version is current is the
        only live completion event of the sender.
        """
        active = peer.in_service
        if any(link.serving is None for link in active) or len(set(active)) != len(active):
            raise InvariantError(f"{pid} lists links in service other than those it serves on")
        # called only for a sender that lists a link or keeps a completion
        if not active:
            raise InvariantError(f"{pid} serves nothing but keeps a pending completion")
        if peer.pending is None:
            raise InvariantError(f"{pid} serves blocks with no pending completion")
        link, version = peer.pending
        if link.version != version or link not in active:
            raise InvariantError(f"{pid} has no live completion event")
        first = min(active, key=lambda k: (peer.t_last + k.remaining / peer.share, k.receiver))
        if first is not link:
            raise InvariantError(
                f"{pid} has a pending completion for {link.receiver}, "
                f"but the block to {first.receiver} finishes first"
            )

    @staticmethod
    def _check_held_pieces(pid: str, peer: _RunPeer, piece_bits: list[int]) -> None:
        """A leecher holds exactly the pieces it completed, and keeps block
        maps only for pieces it is still receiving.

        `piece_bits[k]` is `1 << k`.
        """
        have = peer.have
        # piece_arrival's keys are distinct, so the sum of their bits is their OR
        if have != sum(map(piece_bits.__getitem__, peer.piece_arrival)):
            raise InvariantError(f"{pid} holds pieces other than those it completed")
        for piece, missing in peer.partial.items():
            if have >> piece & 1 or not missing:
                raise InvariantError(f"{pid} keeps a block map for complete piece {piece}")

    def _check_links_and_pieces(self, alive: dict[str, _RunPeer]) -> None:
        """Links join alive peers both ways, no leecher lost a piece, and no
        peer wants a piece it holds.

        Runs after each event that links, unlinks, completes or requests a
        piece; no other event changes what it checks.
        """
        one_way = []
        for pid, peer in alive.items():
            hood = peer.neighbourhood
            if any(a >= b for a, b in zip(hood, hood[1:])):
                raise InvariantError(f"{pid}'s neighbourhood is out of id order or repeats a peer")
            for nid in hood:
                other = alive.get(nid)
                if other is None:
                    raise InvariantError(f"a neighbourhood keeps departed peer {nid}")
                if pid not in other.neighbourhood:
                    one_way.append((min(pid, nid), max(pid, nid)))
        if one_way:
            a, b = min(one_way)
            raise InvariantError(f"link between {a} and {b} is one-way")
        if self._piece_bits is None:
            self._piece_bits = [1 << k for k in range(self.content.num_pieces)]
        for pid, peer in alive.items():
            if peer.session is not None:
                self._check_held_pieces(pid, peer, self._piece_bits)
        for pid, peer in alive.items():
            if peer.wanted & peer.have:
                raise InvariantError(f"{pid} wants a piece it holds")

    # -- reporting -------------------------------------------------------------

    def _peer_qos(self, peer: _RunPeer) -> PeerQoS:
        """A leecher's QoS up to its departure, or to the horizon if sooner."""
        horizon = self.cfg.horizon
        cutoff = min(peer.qos_cutoff if peer.qos_cutoff is not None else horizon, horizon)
        join = peer.join_time
        session = peer.session
        # through the module global, so that a patched `playback_model` is the one called
        playback = playback_model(
            session.requests,
            peer.piece_arrival,
            self.content,
            startup_pieces=self.cfg.startup_pieces,
            end_time=cutoff,
        )
        first_start = playback.play_starts[0] if playback.play_starts else None
        startup = (
            first_start - session.requests[0].arrival_time
            if first_start is not None
            else max(cutoff - session.requests[0].arrival_time, 0.0)
        )
        first_piece = min(peer.piece_arrival.values(), default=None)
        bootstrap = first_piece - join if first_piece is not None else max(cutoff - join, 0.0)
        wanted_union: set[int] = set()
        for req in session.requests:
            wanted_union.update(self.content.pieces_for_interval(req.start_pos, req.end_pos))
        if wanted_union and all(k in peer.piece_arrival for k in wanted_union):
            download_time = max(peer.piece_arrival[k] for k in wanted_union) - join
        else:
            download_time = max(cutoff - join, 0.0)
        residence = max(cutoff - join, 0.0)
        rate = peer.downloaded / residence if residence > 0 else 0.0
        util = peer.uploaded / (peer.upload_capacity * residence) if residence > 0 else 0.0
        return PeerQoS(
            continuity_index=playback.continuity_index,
            startup_delay=startup,
            bootstrap_time=bootstrap,
            mean_time_to_return=playback.mean_time_to_return,
            interruption_count=playback.interruption_count,
            total_download_time=download_time,
            link_utilization=min(util, 1.0),
            downloaded_bytes=peer.downloaded,
            uploaded_bytes=peer.uploaded,
            download_rate=rate,
            formation=peer.formation.to_dict() if peer.formation else None,
        )

    def build_report(self) -> QoSReport:
        """The run's QoS report. A leecher that departed without lingering
        has its QoS from its departure; the rest are computed now."""
        horizon = self.cfg.horizon
        per_peer: dict[str, PeerQoS] = {}
        for peer in self.peers.values():
            if peer.session is not None and peer.joined:
                per_peer[peer.peer_id] = peer.qos or self._peer_qos(peer)

        def _mean(values: list[float]) -> float | None:
            return sum(values) / len(values) if values else None

        qs = list(per_peer.values())
        rates = [q.download_rate for q in qs]
        formation_ds = [q.formation["d"] for q in qs if q.formation is not None]
        uploaded, downloaded = self._byte_totals()
        seed_peers = [p for p in self.peers.values() if p.session is None and p.joined]
        seed_util = []
        for p in seed_peers:
            span = horizon - p.join_time
            if span > 0:
                seed_util.append(min(p.uploaded / (p.upload_capacity * span), 1.0))
        aggregate = {
            "continuity_index": _mean([q.continuity_index for q in qs]),
            "startup_delay": _mean([q.startup_delay for q in qs]),
            "bootstrap_time": _mean([q.bootstrap_time for q in qs]),
            "mean_time_to_return": _mean([q.mean_time_to_return for q in qs]),
            "interruption_count": _mean([float(q.interruption_count) for q in qs]),
            "total_download_time": _mean([q.total_download_time for q in qs]),
            "link_utilization": _mean([q.link_utilization for q in qs] + seed_util),
            "fairness": (
                fairness(rates) if rates and any(r > 0 for r in rates) else None
            ),
            "formation_dispersion": _mean(formation_ds),
            "uploaded_bytes": uploaded,
            "downloaded_bytes": downloaded,
        }
        return QoSReport(
            seed=self.cfg.seed,
            policy=self.cfg.policy.kind.value,
            horizon=horizon,
            peer_count=len([p for p in self.peers.values() if p.joined]),
            leecher_count=len(qs),
            aggregate=aggregate,
            per_peer=per_peer,
        )


def run(cfg: SimConfig) -> RunResult:
    """Execute one simulation run; deterministic for a (config, seed) pair."""
    engine = _Engine(cfg)
    engine.setup()
    engine.loop()
    return RunResult(report=engine.build_report(), events=engine.events)
