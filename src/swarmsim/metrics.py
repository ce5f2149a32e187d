"""Position popularity, sharing potential, and dispersion metrics.

A position is a time bin of the object. The popularity of a bin is the
number of requests whose [start, end) interval covers the bin's start
instant. From the counts follow the potential for content sharing
(total re-requested mass), the spatial dispersion (how little requests
overlap), and its categorical label. Temporal dispersion is the inverse
of the request rate normalized by object duration.
"""

from __future__ import annotations

import enum
import math
import operator
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, compress
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptyRecordError
from .workload import Workload

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_CEIL_GUARD = 1e-9  # absorbs float noise in position/granularity divisions


class DispersionCategory(enum.Enum):
    LOW = "low"
    INTERMEDIATE = "intermediate"
    HIGH = "high"


def _check_granularity(granularity: float) -> None:
    if not (granularity > 0 and math.isfinite(granularity)):
        raise ValueError(f"granularity must be positive and finite, got {granularity}")


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(eq=False, frozen=True)
class PopularityRecord:
    """Per-position request counts over a fixed grid of position bins.

    granularity: seconds of content per position bin.
    counts: `array('q')` of length T (the horizon); counts[p] is the
        number of requests covering bin p. Treat it as read-only.
    support: `int` bitset with bit p set when counts[p] > 0.
    mass: total count M.

    The constructor derives support and mass from the counts.
    """

    granularity: float
    counts: array
    support: int = field(init=False, repr=False)
    mass: int = field(init=False, repr=False)

    def __post_init__(self):
        _check_granularity(self.granularity)
        try:
            counts = array("q", self.counts)
        except TypeError:
            raise ValueError("counts must be a one-dimensional sequence of integers") from None
        if counts and min(counts) < 0:
            raise ValueError("counts must be non-negative")
        # The binary numeral of the support: one digit per bin, last bin first.
        nonzero = bytes(map(bool, counts))[::-1].translate(_BIT_DIGITS)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "support", int(nonzero, 2) if nonzero else 0)
        object.__setattr__(self, "mass", sum(counts))

    @property
    def horizon(self) -> int:
        return len(self.counts)

    def distinct_positions(self) -> int:
        return self.support.bit_count()

    def items(self) -> Iterator[tuple[int, int]]:
        """Sparse (position, count) pairs in position order."""
        return compress(enumerate(self.counts), self.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopularityRecord):
            return NotImplemented
        return self.granularity == other.granularity and self.counts == other.counts

    @classmethod
    def empty(cls, granularity: float, horizon: int) -> "PopularityRecord":
        return cls(granularity, array("q", bytes(8 * horizon)))

    @classmethod
    def from_pairs(
        cls, granularity: float, horizon: int, pairs: Iterable[tuple[int, int]]
    ) -> "PopularityRecord":
        counts = array("q", bytes(8 * horizon))
        for p, q in pairs:
            p = _integer(p, "position")
            if not 0 <= p < horizon:
                raise ValueError(f"position {p} outside [0, {horizon})")
            counts[p] += _integer(q, f"count at position {p}")
        return cls(granularity, counts)


@dataclass(frozen=True)
class DispersionReport:
    """Workload-level dispersion summary: rates, sharing potential, label."""

    n: float
    temporal_dispersion: float
    p: int
    m: int
    d: float
    category: DispersionCategory

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "temporal_dispersion": self.temporal_dispersion,
            "p": self.p,
            "m": self.m,
            "d": self.d,
            "category": self.category.value,
        }


class RateSummary(NamedTuple):
    n: float
    temporal_dispersion: float


def bin_count(length: float, granularity: float) -> int:
    """Number of bins of `granularity` seconds whose starts fall in [0, length)."""
    return int(math.ceil(length / granularity - _CEIL_GUARD))


def bin_span(start: float, end: float, granularity: float, horizon: int) -> tuple[int, int]:
    """Half-open bin index range [lo, hi) whose bin starts fall in [start, end)."""
    lo = int(math.ceil(start / granularity - _CEIL_GUARD))
    hi = int(math.ceil(end / granularity - _CEIL_GUARD))
    return max(lo, 0), min(max(hi, 0), horizon)


def coverage_counts(starts, ends, granularity: float, horizon: int) -> array:
    """Count, per position bin, how many [start, end) intervals cover the bin start."""
    if len(starts) != len(ends):
        raise ValueError("starts and ends must have equal length")
    if not granularity > 0:
        raise ValueError("granularity must be positive")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    delta = [0] * (horizon + 1)
    for start, end in zip(starts, ends):
        lo, hi = bin_span(start, end, granularity, horizon)
        if hi > lo:
            delta[lo] += 1
            delta[hi] -= 1
    delta.pop()
    return array("q", accumulate(delta))


def popularity(workload: Workload, granularity: float) -> PopularityRecord:
    """Count how many requests cover each position bin of the object.

    A request [start, end) covers bin p when start <= p * granularity < end.
    """
    _check_granularity(granularity)
    if granularity > workload.object_length:
        raise ValueError("granularity exceeds object length")
    horizon = bin_count(workload.object_length, granularity)
    reqs = list(workload.iter_requests())
    counts = coverage_counts(
        [r.start_pos for r in reqs], [r.end_pos for r in reqs], granularity, horizon
    )
    return PopularityRecord(granularity, counts)


def sharing_potential(record: PopularityRecord) -> int:
    """Mass that could be served from an earlier retrieval: sum of max(Q_p - 1, 0)."""
    return record.mass - record.distinct_positions()


def spatial_dispersion(record: PopularityRecord) -> float:
    """1 - P/M, equivalently distinct positions over total mass; in (0, 1]."""
    return dispersion(record.distinct_positions(), record.mass)


def dispersion(distinct: int, mass: int) -> float:
    """Spatial dispersion of a record with `distinct` nonzero bins and mass M."""
    if mass == 0:
        raise EmptyRecordError("spatial dispersion undefined for an empty record")
    return distinct / mass


def temporal_dispersion(workload: Workload) -> RateSummary:
    """Request rate N normalized by object duration, and its inverse."""
    total = workload.total_requests()
    if total == 0:
        raise EmptyRecordError("temporal dispersion undefined for an empty workload")
    n = total / (workload.observation_window / workload.object_length)
    return RateSummary(n=n, temporal_dispersion=1.0 / n)


def categorize_dispersion(d: float) -> DispersionCategory:
    """Label a spatial dispersion value: <0.1 low, [0.1, 0.5] intermediate, >0.5 high."""
    if not 0.0 < d <= 1.0:
        raise ValueError(f"spatial dispersion must lie in (0, 1], got {d}")
    if d < 0.1:
        return DispersionCategory.LOW
    if d <= 0.5:
        return DispersionCategory.INTERMEDIATE
    return DispersionCategory.HIGH


def merge_records(
    records: Sequence[PopularityRecord],
    *,
    granularity: float = 1.0,
    horizon: int = 0,
) -> PopularityRecord:
    """Pointwise sum of records sharing one grid.

    The keyword defaults only shape the result for an empty input list.
    """
    if not records:
        return PopularityRecord.empty(granularity, horizon)
    first = records[0]
    for r in records[1:]:
        if r.granularity != first.granularity or r.horizon != first.horizon:
            raise ValueError("records disagree on granularity or horizon")
    return PopularityRecord(first.granularity, map(sum, zip(*(r.counts for r in records))))


def make_report(distinct: int, mass: int, n: float) -> DispersionReport:
    """A DispersionReport from a record's distinct positions and mass M and a rate."""
    d = dispersion(distinct, mass)
    return DispersionReport(
        n=n,
        temporal_dispersion=1.0 / n if n > 0 else math.inf,
        p=mass - distinct,
        m=mass,
        d=d,
        category=categorize_dispersion(d),
    )


def workload_report(workload: Workload, granularity: float = 1.0) -> DispersionReport:
    """Full dispersion report for one workload at the given bin size."""
    rate = temporal_dispersion(workload)
    record = popularity(workload, granularity)
    return make_report(record.distinct_positions(), record.mass, rate.n)
