"""Correctness checks applied to every measured simulation run.

A run passes when its QoS report conserves bytes exactly, every QoS
value lies in range, it is byte-identical to the first run of the same
config in this process (and, for a traced run, to the untraced run),
and, on seeds that have recorded reference values, its aggregate QoS
equals the reference within REL_TOL.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Tolerance for reference aggregates: a rewrite that moves event times by
# an ulp may shift QoS in the last digits, never by more than this.
REL_TOL = 1e-9

_UNIT_INTERVAL = ("continuity_index", "link_utilization")
_NON_NEGATIVE = (
    "startup_delay",
    "bootstrap_time",
    "mean_time_to_return",
    "interruption_count",
    "total_download_time",
    "downloaded_bytes",
    "uploaded_bytes",
    "download_rate",
)


def load_reference() -> dict:
    """{workload: {seed (str): [aggregate per config]}}; empty if not recorded."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def _range_problems(where: str, values: dict) -> list[str]:
    out = []
    for key in _UNIT_INTERVAL:
        v = values.get(key)
        if v is not None and not (math.isfinite(v) and 0.0 <= v <= 1.0):
            out.append(f"{where} {key}={v!r} outside [0, 1]")
    for key in _NON_NEGATIVE:
        v = values.get(key)
        if v is not None and not (math.isfinite(v) and v >= 0):
            out.append(f"{where} {key}={v!r} negative or not finite")
    return out


def report_problems(report) -> list[str]:
    """Conservation and range violations in one QoS report."""
    agg = report.aggregate
    out = []
    if agg["uploaded_bytes"] != agg["downloaded_bytes"]:
        out.append(
            f"uploaded_bytes {agg['uploaded_bytes']} != downloaded_bytes {agg['downloaded_bytes']}"
        )
    if report.leecher_count == 0 or not report.per_peer:
        out.append("report has no leechers")
    out += _range_problems("aggregate", agg)
    fair = agg.get("fairness")
    if fair is not None and not (math.isfinite(fair) and 0.0 < fair <= 1.0):
        out.append(f"aggregate fairness={fair!r} outside (0, 1]")
    for pid, q in report.per_peer.items():
        out += _range_problems(pid, q.to_dict())
    return out


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def reference_problems(aggregate: dict, expected: dict) -> list[str]:
    """Aggregate fields that differ from the reference by more than REL_TOL."""
    out = []
    for key in sorted(set(expected) | set(aggregate)):
        if key not in aggregate or key not in expected:
            out.append(f"aggregate field {key} missing on one side")
        elif not _same(aggregate[key], expected[key]):
            out.append(f"aggregate {key}={aggregate[key]!r}, reference {expected[key]!r}")
    return out
