"""Swarm protocol rules: content grid, block receipt, piece picking, tracker.

Content is split into pieces (the accounting unit; only complete pieces
can be served) and pieces into blocks (the transmission unit). A peer,
the engine's one record of it, holds its have-map as a Python `int`
bitset (bit k set when piece k is complete) and, per partially received
piece, an `int` bitset of the blocks still missing; the functions here
read and update those.

Replica counts, how many neighbours hold each piece, are summed at each
pick from the neighbours' have-maps, bit-sliced: plane j is the bitset of
pieces whose count has bit j set, lowest bit first. Adding a have-map is
a ripple carry over the few planes, and rarest-first reads the minimum
off them with a fixed number of integer operations per plane, whatever
the number of candidates; a have-map holding every candidate, such as
the sender's, is skipped. Block receipt and picking run once per
delivered block or pick, where a numpy call costs more than the work it
does.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Container, Iterable

from .errors import InvariantError

if TYPE_CHECKING:
    from .sim import _RunPeer

DEFAULT_PIECE_SIZE = 262144
DEFAULT_BLOCK_SIZE = 16384
DEFAULT_PLAYBACK_RATE = float(DEFAULT_PIECE_SIZE)  # bytes/second; one piece per second


class RateError(ValueError):
    """A playback rate that gives the content no finite size or duration."""


def _check_rate(playback_rate: float) -> None:
    if not (playback_rate > 0 and math.isfinite(playback_rate)):
        raise RateError(f"playback_rate must be a positive finite number; got {playback_rate}")


@dataclass(frozen=True)
class ContentSpec:
    """Geometry of the shared object."""

    total_size: int
    piece_size: int = DEFAULT_PIECE_SIZE
    block_size: int = DEFAULT_BLOCK_SIZE
    playback_rate: float = DEFAULT_PLAYBACK_RATE

    def __post_init__(self):
        if self.total_size <= 0 or self.piece_size <= 0 or self.block_size <= 0:
            raise ValueError("sizes must be positive")
        if self.piece_size % self.block_size != 0:
            raise ValueError("block_size must divide piece_size")
        # block_size divides piece_size, so it is no larger
        for name in ("total_size", "piece_size"):
            if getattr(self, name) > sys.float_info.max:
                raise ValueError(f"{name} is beyond the float range")
        _check_rate(self.playback_rate)
        if not (math.isfinite(self.duration) and math.isfinite(self.piece_duration)):
            raise RateError(
                f"playback_rate {self.playback_rate} gives the content no finite duration"
            )

    @classmethod
    def for_duration(
        cls,
        duration: float,
        playback_rate: float,
        piece_size: int = DEFAULT_PIECE_SIZE,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "ContentSpec":
        _check_rate(playback_rate)
        total = duration * playback_rate
        if math.isinf(total):
            raise RateError(f"{duration} s at playback_rate {playback_rate} overflows the size")
        return cls(int(math.ceil(total)), piece_size, block_size, playback_rate)

    @functools.cached_property
    def num_pieces(self) -> int:
        # read several times per piece start; the instance dict keeps it
        return (self.total_size + self.piece_size - 1) // self.piece_size

    @property
    def duration(self) -> float:
        return self.total_size / self.playback_rate

    @property
    def piece_duration(self) -> float:
        return self.piece_size / self.playback_rate

    def piece_length(self, piece: int) -> int:
        if piece == self.num_pieces - 1:
            rem = self.total_size - piece * self.piece_size
            return rem
        return self.piece_size

    def blocks_in_piece(self, piece: int) -> int:
        return (self.piece_length(piece) + self.block_size - 1) // self.block_size

    def block_length(self, piece: int, block: int) -> int:
        length = self.piece_length(piece)
        last = self.blocks_in_piece(piece) - 1
        if block == last:
            return length - last * self.block_size
        return self.block_size

    def pieces_for_interval(self, start: float, end: float) -> range:
        """Pieces whose playback span intersects the content interval [start, end)."""
        if end <= start:
            return range(0, 0)
        pd = self.piece_duration
        lo = int(math.floor(start / pd + 1e-9))
        hi = int(math.ceil(end / pd - 1e-9))
        return range(max(lo, 0), min(hi, self.num_pieces))


def record_block(peer: _RunPeer, content: ContentSpec, piece: int, block: int) -> bool:
    """Mark a received block; True when it completes the piece.

    Reads `peer.peer_id` and updates `peer.have` and `peer.partial`, the
    bitset of each begun piece's missing blocks: set at the piece's first
    block, dropped at its last. Duplicate blocks signal a scheduler bug
    and raise InvariantError.
    """
    missing = peer.partial.get(piece)
    if missing is None:
        if not 0 <= piece < content.num_pieces:
            raise ValueError(f"piece {piece} out of range")
        if peer.have >> piece & 1:
            raise InvariantError(f"{peer.peer_id} received block for already complete piece {piece}")
        n = content.blocks_in_piece(piece)
        if not 0 <= block < n:
            raise ValueError(f"block {block} out of range for piece {piece}")
        missing = (1 << n) - 1
    elif block < 0 or not missing >> block & 1:
        if not 0 <= block < content.blocks_in_piece(piece):
            raise ValueError(f"block {block} out of range for piece {piece}")
        raise InvariantError(f"{peer.peer_id} received duplicate block ({piece}, {block})")
    missing ^= 1 << block
    if missing:
        peer.partial[piece] = missing
        return False
    peer.have |= 1 << piece
    peer.partial.pop(piece, None)
    return True


def rarest_first(have_maps: Iterable[int], among: int, rng: random.Random) -> int | None:
    """Pick the piece of `among` held by the fewest of the neighbours.

    `have_maps` are the neighbours' have-maps, in any order. `among` is
    the candidate bitset, e.g. the wanted pieces the peer neither holds
    nor fetches. Pieces that no neighbour holds are not candidates. Ties
    break uniformly at random with the run's generator, over the tied
    pieces in ascending order. Returns None, drawing nothing, when no
    neighbour holds a candidate.
    """
    # Sum the candidate bits of the maps into bit planes (see the module
    # docstring). The top plane is never zero, so the planes depend on the
    # counts alone, not on the order of the maps. A map holding every
    # candidate adds one to each count, so it only makes every candidate held.
    planes: list[int] = []
    tied = 0
    for have in have_maps:
        carry = have & among
        if carry == among:
            tied = among
            continue
        if not carry:
            continue
        j = 0
        for plane in planes:
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
            j += 1
        else:
            planes.append(carry)
    # a candidate some neighbour holds is in `tied` already or in a plane
    for plane in planes:
        tied |= plane
    if not tied:
        return None
    # From the top plane down, keep the candidates whose count has a 0
    # there whenever there are any: what is left has the least count.
    for plane in reversed(planes):
        low = tied & ~plane
        if low:
            tied = low
    for _ in range(rng.randrange(tied.bit_count())):
        tied &= tied - 1
    return (tied & -tied).bit_length() - 1


@dataclass(frozen=True)
class SwarmConfig:
    """Protocol timing and sizing knobs."""

    unchoke_interval: float = 10.0
    optimistic_interval: float = 30.0
    neighbourhood_range: tuple[int, int] = (40, 80)
    neighbourhood_target: int | None = None
    neighbourhood_floor: int = 20
    pipeline_depth: int = 5
    regular_slot_count: int = 4
    optimistic_slot_count: int = 1
    tracker_list_size: int = 40
    tracker_update_interval: float = 1800.0

    def __post_init__(self):
        for name in ("unchoke_interval", "optimistic_interval", "tracker_update_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number; got {value}")
        ratio = self.optimistic_interval / self.unchoke_interval
        if math.isinf(ratio) or abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError("optimistic_interval must be a multiple of the unchoke interval")
        lo, hi = self.neighbourhood_range
        if not 0 < lo <= hi:
            raise ValueError("invalid neighbourhood range")
        if not 0 <= self.neighbourhood_floor < lo:
            raise ValueError("neighbourhood_floor must be non-negative and below the target range")
        if self.neighbourhood_target is not None and not lo <= self.neighbourhood_target <= hi:
            raise ValueError("neighbourhood_target must lie in the neighbourhood range")
        if self.pipeline_depth <= 0:
            raise ValueError("pipeline_depth must be positive")
        if self.regular_slot_count < 0:
            raise ValueError("regular_slot_count must be non-negative")
        if self.optimistic_slot_count not in (0, 1):
            raise ValueError("optimistic_slot_count must be 0 or 1: a peer has one optimistic slot")
        if self.tracker_list_size <= 0:
            raise ValueError("tracker_list_size must be positive")

    @property
    def target(self) -> int:
        if self.neighbourhood_target is not None:
            return self.neighbourhood_target
        lo, hi = self.neighbourhood_range
        return (lo + hi) // 2

    @property
    def total_slots(self) -> int:
        return self.regular_slot_count + self.optimistic_slot_count


@dataclass
class TrackerState:
    """Central registry of swarm members, in join order.

    The registry is a dict for its insertion order, which fixes the order
    that `rng.sample` draws from; its values are unused.
    """

    list_size: int = 40
    registry: dict[str, None] = field(default_factory=dict)


def tracker_join(tracker: TrackerState, peer_id: str, rng: random.Random) -> list[str]:
    """Register a peer and hand back a random list of other members."""
    if peer_id in tracker.registry:
        raise ValueError(f"{peer_id} already registered")
    others = list(tracker.registry)
    sample = rng.sample(others, min(len(others), tracker.list_size))
    tracker.registry[peer_id] = None
    return sample


def tracker_refill(
    tracker: TrackerState, peer_id: str, exclude: Container[str], rng: random.Random
) -> list[str]:
    """Fresh random candidates not in `exclude`, the peer's neighbours."""
    if peer_id not in tracker.registry:
        raise ValueError(f"{peer_id} is not registered")
    others = [p for p in tracker.registry if p != peer_id and p not in exclude]
    return rng.sample(others, min(len(others), tracker.list_size))


def tracker_leave(tracker: TrackerState, peer_id: str) -> None:
    tracker.registry.pop(peer_id, None)
