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
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import EmptyRecordError
from .workload import Workload


class DispersionCategory(enum.Enum):
    LOW = "low"
    INTERMEDIATE = "intermediate"
    HIGH = "high"


@dataclass(eq=False, frozen=True)
class PopularityRecord:
    """Per-position request counts over a fixed grid of position bins.

    granularity: seconds of content per position bin.
    counts: int64 vector of length T (the horizon); counts[p] is the
        number of requests covering bin p.
    """

    granularity: float
    counts: np.ndarray

    def __post_init__(self):
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be a one-dimensional vector")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def horizon(self) -> int:
        return int(self.counts.shape[0])

    @property
    def mass(self) -> int:
        """Total retrieved amount M."""
        return int(self.counts.sum())

    def distinct_positions(self) -> int:
        return int(np.count_nonzero(self.counts))

    def support_mass(self) -> tuple[int, int]:
        """(support, M): an `int` bitset with bit p set when counts[p] > 0,
        and the total mass. Greedy selection reads only these two."""
        bits = np.packbits(self.counts > 0, bitorder="little")
        return int.from_bytes(bits.tobytes(), "little"), self.mass

    def items(self) -> Iterator[tuple[int, int]]:
        """Sparse (position, count) pairs in position order."""
        for p in np.flatnonzero(self.counts):
            yield int(p), int(self.counts[p])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopularityRecord):
            return NotImplemented
        return self.granularity == other.granularity and np.array_equal(
            self.counts, other.counts
        )

    @classmethod
    def empty(cls, granularity: float, horizon: int) -> "PopularityRecord":
        return cls(granularity, np.zeros(horizon, dtype=np.int64))

    @classmethod
    def from_pairs(
        cls, granularity: float, horizon: int, pairs: Iterable[tuple[int, int]]
    ) -> "PopularityRecord":
        counts = np.zeros(horizon, dtype=np.int64)
        for p, q in pairs:
            if not 0 <= p < horizon:
                raise ValueError(f"position {p} outside [0, {horizon})")
            counts[p] += q
        return cls(granularity, counts)

    def to_dict(self) -> dict:
        return {
            "granularity": self.granularity,
            "t": self.horizon,
            "counts": [[p, q] for p, q in self.items()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PopularityRecord":
        return cls.from_pairs(d["granularity"], d["t"], d["counts"])


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


def popularity(workload: Workload, granularity: float) -> PopularityRecord:
    """Count how many requests cover each position bin of the object.

    A request [start, end) covers bin p when start <= p * granularity < end.
    """
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    if granularity > workload.object_length:
        raise ValueError("granularity exceeds object length")
    horizon = int(math.ceil(workload.object_length / granularity - kernels._CEIL_GUARD))
    reqs = list(workload.iter_requests())
    starts = np.array([r.start_pos for r in reqs], dtype=np.float64)
    ends = np.array([r.end_pos for r in reqs], dtype=np.float64)
    counts = kernels.coverage_counts(starts, ends, granularity, horizon)
    return PopularityRecord(granularity, counts)


def sharing_potential(record: PopularityRecord) -> int:
    """Mass that could be served from an earlier retrieval: sum of max(Q_p - 1, 0)."""
    return record.mass - record.distinct_positions()


def spatial_dispersion(record: PopularityRecord) -> float:
    """1 - P/M, equivalently distinct positions over total mass; in (0, 1]."""
    m = record.mass
    if m == 0:
        raise EmptyRecordError("spatial dispersion undefined for an empty record")
    return record.distinct_positions() / m


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
    counts = np.zeros(first.horizon, dtype=np.int64)
    for r in records:
        counts += r.counts
    return PopularityRecord(first.granularity, counts)


def make_report(record: PopularityRecord, n: float) -> DispersionReport:
    """Assemble a DispersionReport from a popularity record and a request rate."""
    d = spatial_dispersion(record)
    return DispersionReport(
        n=n,
        temporal_dispersion=1.0 / n if n > 0 else math.inf,
        p=sharing_potential(record),
        m=record.mass,
        d=d,
        category=categorize_dispersion(d),
    )


def workload_report(workload: Workload, granularity: float = 1.0) -> DispersionReport:
    """Full dispersion report for one workload at the given bin size."""
    rate = temporal_dispersion(workload)
    return make_report(popularity(workload, granularity), rate.n)
