"""Interactive streaming workloads: records, traces, classification, generation.

A workload is a set of client sessions against one object; each session
is an ordered list of interactive requests for content segments. Traces
are the CSV format documented in ``serialize_trace``.
"""

from __future__ import annotations

import enum
import io
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import ConfigError, TraceError
from .swarm import DEFAULT_PLAYBACK_RATE

TRACE_HEADER = "client_id,arrival_time,start_pos,end_pos,interaction"

# Start-position grid used by the generator: geometric decay over bins of
# 5% of the object, starts aligned to bin starts so the very beginning of
# the object stays the most requested region.
START_BINS = 20


class Interaction(enum.Enum):
    PLAY = "play"
    PAUSE = "pause"
    JUMP_FORWARD = "jumpf"
    JUMP_BACKWARD = "jumpb"
    STOP = "stop"

    @classmethod
    def from_token(cls, token: str) -> "Interaction":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(i.value for i in cls)
            raise ValueError(f"unknown interaction {token!r} (expected one of {valid})")


class InteractivityProfile(enum.Enum):
    HI = "hi"
    MI = "mi"
    LI = "li"

    @classmethod
    def from_token(cls, token: str) -> "InteractivityProfile":
        try:
            return cls(token.lower())
        except ValueError:
            raise ConfigError(f"unknown profile {token!r} (expected hi, mi, or li)")


@dataclass(frozen=True)
class Request:
    """One interactive request for the segment [start_pos, end_pos)."""

    arrival_time: float
    start_pos: float
    end_pos: float
    interaction: Interaction

    def __post_init__(self):
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if not 0 <= self.start_pos <= self.end_pos:
            raise ValueError("require 0 <= start_pos <= end_pos")

    @property
    def duration(self) -> float:
        """Amount of content covered, in seconds of playback."""
        return self.end_pos - self.start_pos


@dataclass(frozen=True)
class Session:
    """All requests of one client, ordered by arrival time."""

    client_id: str
    requests: tuple[Request, ...]

    def __post_init__(self):
        if not self.requests:
            raise ValueError("session must contain at least one request")
        object.__setattr__(self, "requests", tuple(self.requests))
        arrivals = [r.arrival_time for r in self.requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("request arrivals must be non-decreasing")

    @property
    def request_count(self) -> int:
        return len(self.requests)

    @property
    def duration(self) -> float:
        """Span from first arrival to the end of the last request."""
        last = self.requests[-1]
        return last.arrival_time + last.duration - self.requests[0].arrival_time


@dataclass(frozen=True)
class Workload:
    """Sessions against a single object observed over a fixed window."""

    object_length: float
    playback_rate: float
    sessions: tuple[Session, ...]
    observation_window: float

    def __post_init__(self):
        if self.object_length <= 0:
            raise ValueError("object_length must be positive")
        if self.playback_rate <= 0:
            raise ValueError("playback_rate must be positive")
        if self.observation_window <= 0:
            raise ValueError("observation_window must be positive")
        object.__setattr__(self, "sessions", tuple(self.sessions))
        ids: set[str] = set()
        for s in self.sessions:
            if s.client_id in ids:
                raise ValueError(f"client id {s.client_id} names more than one session")
            ids.add(s.client_id)
            for r in s.requests:
                if r.end_pos > self.object_length + 1e-9:
                    raise ValueError(
                        f"request end {r.end_pos} exceeds object length in session {s.client_id}"
                    )
                if r.arrival_time >= self.observation_window:
                    raise ValueError(
                        f"arrival {r.arrival_time} beyond observation window in session {s.client_id}"
                    )

    def iter_requests(self) -> Iterator[Request]:
        for s in self.sessions:
            yield from s.requests

    def total_requests(self) -> int:
        return sum(s.request_count for s in self.sessions)


@dataclass(frozen=True)
class SessionStats:
    request_count: int
    duration: float
    mean_request_duration: float
    mean_inactivity_gap: float | None
    jump_distances: tuple[float, ...]


def session_stats(session: Session) -> SessionStats:
    """Per-session summary: counts, durations, inactivity gaps, jump distances.

    The inactivity gap after request i is the idle time between finishing
    playback of request i (arrival + duration) and issuing request i+1.
    The jump distance is start(i+1) - end(i), negative for backward jumps.
    """
    reqs = session.requests
    gaps = []
    jumps = []
    for cur, nxt in zip(reqs, reqs[1:]):
        gaps.append(nxt.arrival_time - (cur.arrival_time + cur.duration))
        jumps.append(nxt.start_pos - cur.end_pos)
    return SessionStats(
        request_count=session.request_count,
        duration=session.duration,
        mean_request_duration=sum(r.duration for r in reqs) / len(reqs),
        mean_inactivity_gap=sum(gaps) / len(gaps) if gaps else None,
        jump_distances=tuple(jumps),
    )


def classify_session(session: Session, object_length: float) -> InteractivityProfile:
    """Assign the interactivity profile of one session.

    Short sessions (mean request duration under 20% of the object) are HI
    with three or more requests, MI otherwise. Long sessions are LI with a
    single request, MI otherwise.
    """
    mean_duration = sum(r.duration for r in session.requests) / session.request_count
    if mean_duration < 0.2 * object_length:
        return InteractivityProfile.HI if session.request_count >= 3 else InteractivityProfile.MI
    return InteractivityProfile.LI if session.request_count <= 1 else InteractivityProfile.MI


def profile_counts(workload: Workload) -> dict[str, int]:
    counts = {p.value: 0 for p in InteractivityProfile}
    for s in workload.sessions:
        counts[classify_session(s, workload.object_length).value] += 1
    return counts


# ---------------------------------------------------------------------------
# Trace parsing and serialization


def _parse_float(token: str, name: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise TraceError(f"{name} is not a number: {token!r}", line_no)
    if not math.isfinite(value) or value < 0:
        raise TraceError(f"{name} must be a non-negative finite number", line_no)
    return value


def parse_trace(
    text: str,
    *,
    object_length: float | None = None,
    observation_window: float | None = None,
    playback_rate: float | None = None,
) -> Workload:
    """Parse a trace into a Workload.

    Keyword arguments override values from the optional leading comment
    line. object_length must come from one of the two. A missing window
    defaults to just past the last request activity.
    """
    meta: dict[str, float] = {}
    header_seen = False
    rows: list[tuple[int, str, float, float, float, Interaction]] = []

    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header_seen:
                continue
            for part in line[1:].split():
                if "=" in part:
                    key, _, val = part.partition("=")
                    meta[key.strip()] = _parse_float(val.strip(), key.strip(), line_no)
            continue
        if not header_seen:
            if line != TRACE_HEADER:
                raise TraceError(f"expected header {TRACE_HEADER!r}", line_no)
            header_seen = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise TraceError(f"expected 5 comma-separated fields, got {len(fields)}", line_no)
        client_id = fields[0]
        if not client_id:
            raise TraceError("empty client_id", line_no)
        arrival = _parse_float(fields[1], "arrival_time", line_no)
        start = _parse_float(fields[2], "start_pos", line_no)
        end = _parse_float(fields[3], "end_pos", line_no)
        if end < start:
            raise TraceError(f"end_pos {end} precedes start_pos {start}", line_no)
        try:
            interaction = Interaction.from_token(fields[4])
        except ValueError as exc:
            raise TraceError(str(exc), line_no)
        rows.append((line_no, client_id, arrival, start, end, interaction))

    if not header_seen:
        raise TraceError("missing trace header")
    if not rows:
        raise TraceError("no sessions in trace")

    if object_length is None:
        object_length = meta.get("object_length")
    if object_length is None:
        raise TraceError("object_length missing: supply a flag or a '# object_length=...' comment")
    if observation_window is None:
        observation_window = meta.get("window")
    if playback_rate is None:
        playback_rate = meta.get("playback_rate", DEFAULT_PLAYBACK_RATE)

    for line_no, _, arrival, start, end, _ in rows:
        if end > object_length + 1e-9:
            raise TraceError(f"end_pos {end} exceeds object length {object_length}", line_no)
        if observation_window is not None and arrival >= observation_window:
            raise TraceError(
                f"arrival {arrival} beyond observation window {observation_window}", line_no
            )

    if observation_window is None:
        observation_window = max(arrival + (end - start) for _, _, arrival, start, end, _ in rows) + 1.0

    by_client: dict[str, list[Request]] = {}
    for _, client_id, arrival, start, end, interaction in rows:
        by_client.setdefault(client_id, []).append(Request(arrival, start, end, interaction))

    sessions = []
    for client_id in sorted(by_client):
        reqs = sorted(by_client[client_id], key=lambda r: r.arrival_time)
        sessions.append(Session(client_id, tuple(reqs)))

    try:
        return Workload(
            object_length=object_length,
            playback_rate=playback_rate,
            sessions=tuple(sessions),
            observation_window=observation_window,
        )
    except ValueError as exc:
        raise TraceError(str(exc))


def serialize_trace(workload: Workload) -> str:
    """Render a Workload in the trace format parsed by parse_trace.

    Sessions are emitted in client_id order, requests in arrival order, so
    parse(serialize(w)) == w.
    """
    out = [
        f"# object_length={workload.object_length!r} window={workload.observation_window!r}"
        f" playback_rate={workload.playback_rate!r}",
        TRACE_HEADER,
    ]
    for s in sorted(workload.sessions, key=lambda s: s.client_id):
        for r in s.requests:
            out.append(
                f"{s.client_id},{r.arrival_time!r},{r.start_pos!r},{r.end_pos!r},{r.interaction.value}"
            )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for synthetic workload generation.

    start_skew is the geometric decay rate across the START_BINS
    start-position bins; the 0.85 default places roughly half of all
    request starts in the first 20% of the object. mean gaps default to
    object_length / 2 between sessions (sparse arrivals) and
    object_length / 20 within a session.
    """

    profile: InteractivityProfile
    session_count: int
    object_length: float
    mean_session_gap: float | None = None
    mean_intra_gap: float | None = None
    start_skew: float = 0.85
    playback_rate: float = DEFAULT_PLAYBACK_RATE
    seed: int = 0

    def __post_init__(self):
        if self.session_count <= 0:
            raise ConfigError("session_count must be positive")
        if not 0 < self.start_skew < 1:
            raise ConfigError("start_skew must lie strictly between 0 and 1")
        for name in ("object_length", "playback_rate", "mean_session_gap", "mean_intra_gap"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a positive finite number; got {value}")
        if not (self.session_gap > 0 and self.intra_gap > 0):
            raise ConfigError(f"object_length {self.object_length} gives a zero default mean gap")

    @property
    def session_gap(self) -> float:
        return self.mean_session_gap if self.mean_session_gap is not None else self.object_length / 2

    @property
    def intra_gap(self) -> float:
        return self.mean_intra_gap if self.mean_intra_gap is not None else self.object_length / 20


def _draw_start(rng: random.Random, object_length: float, skew: float, max_bin: int) -> float:
    """Geometric-decay draw over start-position bins, aligned to bin starts."""
    weights = [skew**k for k in range(max_bin + 1)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            return k * (object_length / START_BINS)
    return max_bin * (object_length / START_BINS)


def _generate_session(
    rng: random.Random, cfg: GeneratorConfig, client_id: str, first_arrival: float
) -> Session:
    L = cfg.object_length
    if cfg.profile is InteractivityProfile.LI:
        request_counts = 1
    elif cfg.profile is InteractivityProfile.MI:
        request_counts = rng.randint(1, 2)
    else:
        request_counts = rng.randint(3, 8)

    requests = []
    arrival = first_arrival
    prev_end = None
    for i in range(request_counts):
        if cfg.profile is InteractivityProfile.LI:
            # Long request: at least 20% of the object, biased toward the
            # minimum so late positions stay less popular than early ones.
            start = _draw_start(rng, L, cfg.start_skew, max_bin=START_BINS - 4)
            span = L - start - 0.2 * L
            duration = 0.2 * L + span * rng.random() ** 3
        else:
            start = _draw_start(rng, L, cfg.start_skew, max_bin=START_BINS - 1)
            duration = L * (0.02 + 0.13 * rng.random())
        end = min(L, start + duration)
        if i == 0:
            interaction = Interaction.PLAY
        else:
            interaction = (
                Interaction.JUMP_FORWARD if start >= prev_end else Interaction.JUMP_BACKWARD
            )
        requests.append(Request(arrival, start, end, interaction))
        prev_end = end
        arrival += (end - start) + rng.expovariate(1.0 / cfg.intra_gap)
    return Session(client_id, tuple(requests))


def generate_workload(cfg: GeneratorConfig) -> Workload:
    """Generate a synthetic workload matching the configured profile.

    Deterministic for a fixed config: one seeded generator drives session
    arrivals, request counts, start positions, and durations. Sessions
    arrive with exponential gaps; every generated session classifies to
    cfg.profile by construction.
    """
    rng = random.Random(cfg.seed)
    sessions = []
    arrival = rng.expovariate(1.0 / cfg.session_gap)
    width = len(str(cfg.session_count - 1)) if cfg.session_count > 1 else 1
    for i in range(cfg.session_count):
        client_id = f"c{i:0{width}d}"
        sessions.append(_generate_session(rng, cfg, client_id, arrival))
        arrival += rng.expovariate(1.0 / cfg.session_gap)

    window = max(s.requests[-1].arrival_time + s.requests[-1].duration for s in sessions) + 1.0
    if math.isinf(window):
        raise ConfigError(
            f"mean gaps of {cfg.session_gap} s and {cfg.intra_gap} s put an arrival "
            "beyond the float range"
        )
    return Workload(
        object_length=cfg.object_length,
        playback_rate=cfg.playback_rate,
        sessions=tuple(sessions),
        observation_window=window,
    )
