"""Peer and neighbour selection strategies.

The central strategy builds a neighbour set greedily: at every step it
admits the candidate whose popularity record, merged with the records of
the node itself and the already-selected set, yields the lowest spatial
dispersion; a record enters as its support bitset and mass. Dispersion
ties fall to the highest request rate, then (for low-interactivity
workloads) to candidates that already hold data, then to the lowest peer
id. The remaining strategies implement classic
unchoking (rate-ranked and randomized slots) and request-target schemes
used as baselines.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from . import kernels
from .errors import ConfigError
from .metrics import dispersion
from .workload import InteractivityProfile


class PolicyKind(enum.Enum):
    DISPERSION_GREEDY = "dispersiongreedy"
    TIT_FOR_TAT = "titfortat"
    RANDOM = "random"
    LLP = "llp"
    LRP = "lrp"
    TRACKER_CLOSEST = "trackerclosest"
    YNP = "ynp"
    CNP = "cnp"
    GIVE_TO_GET = "givetoget"
    PER_PIECE_OPTIMISTIC = "perpieceoptimistic"


@dataclass(frozen=True)
class PolicySpec:
    """A policy kind plus its parameters (n for the youngest/closest-n schemes)."""

    kind: PolicyKind
    n: int | None = None

    def __post_init__(self):
        if self.kind in (PolicyKind.YNP, PolicyKind.CNP):
            if self.n is None or self.n < 2:
                raise ConfigError(f"{self.kind.value} requires n >= 2")
        elif self.n is not None:
            raise ConfigError(f"policy {self.kind.value} takes no n parameter")

    @classmethod
    def from_name(cls, name: str, n: int | None = None) -> "PolicySpec":
        try:
            kind = PolicyKind(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in PolicyKind)
            raise ConfigError(f"unknown policy {name!r}; valid kinds: {valid}")
        return cls(kind, n)


class CandidateInfo(NamedTuple):
    """What a node learns about a possible neighbour before selecting it;
    `support` and `mass` are its popularity record's."""

    peer_id: str
    support: int
    mass: int
    request_rate: float = 0.0
    has_started: bool = False
    recent_forward_rate: float = 0.0


class HolderView(NamedTuple):
    """What a request-target baseline reads of a neighbour at one pick.

    `buffer_summary` is the neighbour's have-map, an `int` bitset with bit
    k set when it holds piece k.
    """

    peer_id: str
    buffer_summary: int
    join_time: float
    queue_length: int
    requests_sent_to: int


@dataclass(frozen=True)
class SelectionOutcome:
    """Neighbour ids in greedy order with the merged dispersion after each step."""

    selected: tuple[str, ...]
    per_step_dispersion: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "selected", tuple(self.selected))
        object.__setattr__(self, "per_step_dispersion", tuple(self.per_step_dispersion))
        if len(self.selected) != len(self.per_step_dispersion):
            raise ValueError("one dispersion value per selection step required")
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selection contains duplicate peers")


def _check_records(own: tuple[int, int], candidates: Sequence[CandidateInfo]) -> None:
    """Reject ids that repeat and (support, mass) pairs no record has."""
    if len({c.peer_id for c in candidates}) != len(candidates):
        raise ValueError("candidate peer ids must be unique")
    pairs = [("own record", *own)] + [(c.peer_id, c.support, c.mass) for c in candidates]
    for who, support, mass in pairs:
        if support < 0:
            raise ValueError(f"support of {who} must be non-negative; got {support}")
        if mass < support.bit_count():
            raise ValueError(f"mass of {who} is below its {support.bit_count()} positions")


def _tie_keys(
    candidates: Sequence[CandidateInfo],
    profile_hint: InteractivityProfile | None,
    forward_first: bool,
) -> list[tuple]:
    for c in candidates:
        for name in ("request_rate", "recent_forward_rate"):
            value = getattr(c, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative; got {value}")
    li = profile_hint is InteractivityProfile.LI
    return [
        ((-c.recent_forward_rate,) if forward_first else ())
        + (-c.request_rate,)
        + ((not c.has_started,) if li else ())
        + (c.peer_id,)
        for c in candidates
    ]


def _run_greedy(
    own: tuple[int, int],
    candidates: Sequence[CandidateInfo],
    max_size: int,
    profile_hint: InteractivityProfile | None,
    forward_first: bool,
) -> SelectionOutcome:
    keys = _tie_keys(candidates, profile_hint, forward_first)
    supports = [(c.support, c.mass) for c in candidates]
    order, distinct, mass = kernels.greedy_select(own, supports, keys, max_size)
    return SelectionOutcome(
        tuple(candidates[i].peer_id for i in order),
        tuple(n / m for n, m in zip(distinct, mass)),
    )


def select_neighbors_greedy(
    own: tuple[int, int],
    candidates: Sequence[CandidateInfo],
    max_size: int,
    profile_hint: InteractivityProfile | None = None,
) -> SelectionOutcome:
    """Build a neighbour set of up to max_size peers minimizing dispersion.

    Starting from the node's own record, `own` = (support, mass), each
    step merges every remaining candidate's record into the running set
    and admits the one producing the lowest spatial dispersion. Ties
    prefer the highest request rate, then (when profile_hint is LI) peers
    that have already started receiving data, then the lowest peer id.
    """
    _check_records(own, candidates)
    return _run_greedy(own, candidates, max_size, profile_hint, forward_first=False)


def evaluate_set_dispersion(own: tuple[int, int], chosen: Sequence[CandidateInfo]) -> float:
    """Spatial dispersion of the node's record merged with a candidate set."""
    _check_records(own, chosen)
    support, mass = own
    for c in chosen:
        support |= c.support
        mass += c.mass
    return dispersion(support.bit_count(), mass)


def capacity_check_and_reselect(
    outcome: SelectionOutcome,
    own: tuple[int, int],
    candidates: Sequence[CandidateInfo],
    expected_rates: Mapping[str, float],
    demand: float,
    max_size: int,
    profile_hint: InteractivityProfile | None = None,
) -> SelectionOutcome:
    """Keep the outcome when its aggregate capacity meets demand, else reselect.

    expected_rates estimates the upload each candidate could dedicate to
    this node (capacity divided by its upload slots). When the selected
    set cannot jointly sustain `demand`, the greedy loop reruns with the
    step score extended to prefer, among dispersion-minimizing candidates,
    those that recently forwarded data to third parties the fastest.
    Records and rates are checked only on that path, the one that reads
    them, so candidates that `select_neighbors_greedy` saw are not rechecked.
    """
    aggregate = sum(expected_rates.get(pid, 0.0) for pid in outcome.selected)
    if aggregate >= demand or not candidates:
        return outcome
    _check_records(own, candidates)
    return _run_greedy(own, candidates, max_size, profile_hint, forward_first=True)


def tit_for_tat_unchoke(rates: Mapping[str, float], slots: int) -> list[str]:
    """The `slots` peers with the highest recent rates, ties to the lowest id."""
    if slots < 0:
        raise ValueError("slots must be >= 0")
    ranked = sorted(rates.items(), key=lambda kv: (-kv[1], kv[0]))
    return [pid for pid, _ in ranked[:slots]]


def optimistic_unchoke(candidates: Sequence[str], rng: random.Random) -> str | None:
    """Uniform choice among choked, interested neighbours; None when empty."""
    if not candidates:
        return None
    ordered = sorted(candidates)
    return ordered[rng.randrange(len(ordered))]


def baseline_request_target(
    spec: PolicySpec,
    piece: int,
    neighbours: Sequence[HolderView],
    self_join_time: float,
    rng: random.Random | None = None,
) -> str:
    """Pick the neighbour to ask for `piece` under a baseline scheme.

    Only neighbours whose buffer summary holds the piece are considered.

    llp: shortest request queue. lrp: fewest requests sent so far.
    trackerclosest: nearest join time to our own. ynp: uniform among the
    n youngest holders. cnp: uniform among the n holders closest in age.
    """
    holders = [c for c in neighbours if c.buffer_summary >> piece & 1]
    if not holders:
        raise ValueError(f"no neighbour holds piece {piece}")
    kind = spec.kind
    if kind is PolicyKind.LLP:
        return min(holders, key=lambda c: (c.queue_length, c.peer_id)).peer_id
    if kind is PolicyKind.LRP:
        return min(holders, key=lambda c: (c.requests_sent_to, c.peer_id)).peer_id
    if kind is PolicyKind.TRACKER_CLOSEST:
        return min(holders, key=lambda c: (abs(c.join_time - self_join_time), c.peer_id)).peer_id
    if kind is PolicyKind.YNP:
        if rng is None:
            raise ValueError("ynp needs a random generator")
        pool = sorted(holders, key=lambda c: (-c.join_time, c.peer_id))[: spec.n]
        return pool[rng.randrange(len(pool))].peer_id
    if kind is PolicyKind.CNP:
        if rng is None:
            raise ValueError("cnp needs a random generator")
        pool = sorted(holders, key=lambda c: (abs(c.join_time - self_join_time), c.peer_id))[: spec.n]
        return pool[rng.randrange(len(pool))].peer_id
    raise ConfigError(f"{kind.value} is not a request-target scheme")
