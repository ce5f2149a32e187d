"""Per-layer spans and counts, recorded from outside the program.

Each hook replaces a public swarmsim function at the name its caller
looks up: ``swarmsim.sim.rarest_first`` rather than
``swarmsim.swarm.rarest_first``, because ``sim`` imports it by name,
while the greedy kernel is looked up as ``kernels.greedy_select``. A
"span" hook records name, start, end, parent span and run id for every
call; a "count" hook, for frequent cheap calls, only counts them. A
hook whose target is missing is reported absent and the run goes on.

Spans stay in memory while the runs execute. A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans of one run add up to the run's root span.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

# (layer metric prefix, module, attribute, kind, derived counters).
# A derived counter is (suffix, parameter name or None, f(argument, result)).
HOOKS = (
    ("sim.run", "swarmsim.sim", "run", "span", ()),
    (
        "swarm.pipeline_requests",
        "swarmsim.sim",
        "pipeline_requests",
        "span",
        (("empty", None, lambda _arg, result: not result),),
    ),
    (
        "swarm.rarest_first",
        "swarmsim.sim",
        "rarest_first",
        "span",
        (
            ("none", None, lambda _arg, result: result is None),
            ("maps_summed", "neighbour_have_maps", lambda maps, _result: len(maps)),
        ),
    ),
    ("swarm.record_block", "swarmsim.sim", "record_block", "count", ()),
    ("swarm.tracker_join", "swarmsim.sim", "tracker_join", "count", ()),
    ("swarm.tracker_refill", "swarmsim.sim", "tracker_refill", "count", ()),
    ("policies.select_neighbors_greedy", "swarmsim.sim", "select_neighbors_greedy", "span", ()),
    (
        "policies.capacity_check_and_reselect",
        "swarmsim.sim",
        "capacity_check_and_reselect",
        "span",
        (("reselect", "outcome", lambda outcome, result: result is not outcome),),
    ),
    (
        "kernels.greedy_select",
        "swarmsim.kernels",
        "greedy_select",
        "span",
        (("cand_bins", "cands", lambda cands, _result: cands.shape[0] * cands.shape[1]),),
    ),
    ("policies.CandidateInfo", "swarmsim.sim", "CandidateInfo", "span", ()),
    ("policies.baseline_request_target", "swarmsim.sim", "baseline_request_target", "span", ()),
    ("policies.tit_for_tat_unchoke", "swarmsim.sim", "tit_for_tat_unchoke", "span", ()),
    ("policies.optimistic_unchoke", "swarmsim.sim", "optimistic_unchoke", "count", ()),
    ("metrics.merge_records", "swarmsim.sim", "merge_records", "span", ()),
    ("metrics.make_report", "swarmsim.sim", "make_report", "span", ()),
    ("sim.playback_model", "swarmsim.sim", "playback_model", "span", ()),
)

ROOT_SPAN = "sim.run"


def _param_getter(target, param: str):
    """A function pulling `param` out of a call's (args, kwargs), or None."""
    try:
        names = list(inspect.signature(target).parameters)
    except (TypeError, ValueError):
        return None
    if param not in names:
        return None
    pos = names.index(param)
    return lambda args, kwargs: args[pos] if pos < len(args) else kwargs[param]


class Tracer:
    """Installs the hooks and keeps every span and count in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack = [-1]
        self.installed: dict[str, str] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for prefix, modname, attr, kind, derived in HOOKS:
            module = importlib.import_module(modname)
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(prefix)
                continue
            self.installed[prefix] = f"{modname}.{attr}"
            observers = []
            for suffix, param, fn in derived:
                getter = _param_getter(target, param) if param else (lambda a, k: None)
                if getter is None:
                    self.absent.append(f"{prefix}.{suffix}")
                else:
                    observers.append((f"{prefix}.{suffix}", getter, fn))
            if kind == "count":
                wrapper = self._count_wrapper(prefix, target)
            else:
                wrapper = self._span_wrapper(prefix, target, observers)
            self._patches.append((module, attr, target, wrapper))

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn, observers):
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, stack, counts = self.parents, self.runs, self._stack, self.counts
        perf_counter = time.perf_counter
        is_root = name == ROOT_SPAN

        def spanned(*args, **kwargs):
            if is_root:
                self.run_id += 1
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            for key, getter, observe in observers:
                counts[key] += observe(getter(args, kwargs), result)
            return result

        return spanned

    @contextlib.contextmanager
    def active(self):
        """Hooks in place for the duration of the block, originals after."""
        for module, attr, _target, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, target, _wrapper in self._patches:
                setattr(module, attr, target)

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        import numpy as np

        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        return durations, durations - child

    def layer_totals(self) -> tuple[dict[str, float], float, float]:
        """({metric: value} of calls, self_s and derived counts),
        seconds in root spans, and the sum of all self times."""
        durations, self_s = self.self_times()
        out: dict[str, float] = dict(self.counts)
        root_s = 0.0
        for name, dur, own in zip(self.names, durations.tolist(), self_s.tolist()):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            if name == ROOT_SPAN:
                root_s += dur
        return out, root_s, float(self_s.sum())

    def write(self, path: Path, header: dict) -> None:
        """Save every span (compressed numpy arrays) with a JSON header."""
        import json

        import numpy as np

        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                header=np.array(json.dumps({**header, "span_names": table})),
                name=np.array([code[n] for n in self.names], dtype=np.int32),
                start=np.asarray(self.starts),
                end=np.asarray(self.ends),
                parent=np.asarray(self.parents, dtype=np.int64),
                run=np.asarray(self.runs, dtype=np.int32),
            )
