"""swarmsim benchmark: run one workload's matrix, check every report, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload hi400_greedy --seed 1 --seconds 36 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of several set-ups, each in a fresh interpreter but the first),
then the workload's run matrix in sequence, config after config and
round again, for --seconds; wall_s sums each config's median run time.
Both times are host seconds rescaled to a reference host speed (see
hostspeed.py); the unscaled host seconds are printed before the result.
--trace 1 runs each config of the matrix once untraced and once traced,
and reports the per-layer metrics of that one pass (about as long as
--seconds for every workload); the spans are written to .perfbench_out/
when the runs end.

Each simulation run is one operation. A run fails when it raises or
fails a check in checks.py. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
no swarmsim source in the checkout the benchmark exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import tracing
import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
GENERATE_SAMPLES = 5
PROBE_TIMEOUT_S = 60
PROBLEMS_SHOWN = 5
EVENT_KINDS = (
    "peer_arrival",
    "request_issued",
    "block_transfer_complete",
    "unchoke_tick",
    "optimistic_tick",
    "playback_tick",
    "tracker_update",
    "peer_departure",
)


def environment(loadavg: tuple[float, float, float]) -> dict:
    """What the numbers depend on beyond the code: backend, versions, host."""
    import numpy
    from swarmsim import kernels

    backend = getattr(kernels, "backend", None)
    return {
        "kernels_backend": backend() if callable(backend) else "absent",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
    }


class Runs:
    """Runs configs through swarmsim.sim.run, checking and counting each run.

    While `speed` holds an active HostSpeed, run times are also rescaled
    to the reference host speed.
    """

    def __init__(self, configs: list, reference: list | None):
        self.configs = configs
        self.reference = reference
        self.speed: HostSpeed | None = None
        self.first_json: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, idx: int, cfg=None):
        """(host s, scaled s, RunResult) of one run of config idx; Nones if it raised."""
        import swarmsim.sim

        self.attempted += 1
        t0 = self.speed.start() if self.speed else time.perf_counter()
        try:
            result = swarmsim.sim.run(cfg or self.configs[idx])
        except Exception as exc:  # a run that raises is a failed operation
            self._fail(idx, [f"raised {type(exc).__name__}: {exc}"])
            return None, None, None
        if self.speed:
            host, scaled = self.speed.interval(t0)
        else:
            host = scaled = time.perf_counter() - t0
        problems = self._check(idx, result.report)
        if problems:
            self._fail(idx, problems)
        return host, scaled, result

    def _check(self, idx: int, report) -> list[str]:
        problems = checks.report_problems(report)
        # The first run of a config is the yardstick for every later one,
        # traced runs included: the hooks must not change behaviour.
        text = report.to_json()
        if text != self.first_json.setdefault(idx, text):
            problems.append("report differs from the first run of this config")
        if self.reference is not None:
            if idx < len(self.reference):
                problems += checks.reference_problems(report.aggregate, self.reference[idx])
            else:
                problems.append("reference.json has no entry for this config")
        return problems

    def _fail(self, idx: int, problems: list[str]) -> None:
        self.failed += 1
        policy = self.configs[idx].policy.kind.value
        self.problems += [f"config {idx} ({policy}): {p}" for p in problems]


def _cycle(seconds: float, count: int, run_one) -> int:
    """Call run_one(idx) for idx = 0, 1, ..., count - 1, 0, 1, ... until each
    config has run once and the next run, as long as its last one, would end
    after `seconds`. Returns the number of runs made."""
    start = time.perf_counter()
    last = [0.0] * count
    made = 0
    while True:
        idx = made % count
        t0 = time.perf_counter()
        run_one(idx)
        last[idx] = time.perf_counter() - t0
        made += 1
        if made >= count and time.perf_counter() - start + last[made % count] > seconds:
            return made


def setup_samples(name: str, seed: int) -> list[tuple[float, float]]:
    """(host s, scaled s) of SETUP_SAMPLES - 1 set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        probe = json.loads(out.stdout.splitlines()[-1])
        samples.append((probe["host_s"], probe["scaled_s"]))
    return samples


def _show(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def end_to_end(setup, runs: Runs, seconds: float, first_setup: tuple[float, float]) -> dict:
    host: list[list[float]] = [[] for _ in setup.configs]
    scaled: list[list[float]] = [[] for _ in setup.configs]

    def one_run(idx: int):
        h, s, _ = runs.run(idx)
        if h is not None:
            host[idx].append(h)
            scaled[idx].append(s)

    setups = [first_setup] + setup_samples(setup.name, setup.seed)
    with HostSpeed() as speed:
        runs.speed = speed
        made = _cycle(seconds, len(setup.configs), one_run)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for idx, cfg in enumerate(setup.configs):
        print(
            f"run {idx} {cfg.policy.kind.value}: host {_show(host[idx])} s, "
            f"scaled {_show(scaled[idx])} s"
        )
    print(
        f"setup: host {_show(h for h, _ in setups)} s, scaled {_show(s for _, s in setups)} s; "
        f"runs: {made}; host wall_s {sum(statistics.median(t) for t in host if t):.4f}"
    )
    return {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": sum(statistics.median(t) for t in scaled if t),
        "peak_rss_mib": peak_rss_mib,
    }


def per_layer(setup, runs: Runs, header: dict) -> tuple[dict, list[str]]:
    spec = workloads.WORKLOADS[setup.name]
    generate_s = []
    for _ in range(GENERATE_SAMPLES):
        t0 = time.perf_counter()
        for run_seed in workloads.run_seeds(spec, setup.seed):
            workloads.generate(spec, run_seed)
        generate_s.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    events: Counter = Counter()
    untraced_s = traced_s = 0.0
    for idx, cfg in enumerate(setup.configs):
        untraced, _, _ = runs.run(idx)
        with tracer.active():
            traced, _, result = runs.run(idx, dataclasses.replace(cfg, record_events=True))
        if result is not None:
            events.update(e["kind"] for e in result.events)
        untraced_s += untraced or 0.0
        traced_s += traced or 0.0
    totals, root_s, self_sum = tracer.layer_totals()

    def count(key: str) -> float:
        return totals.get(key, 0)

    def share(part: str, whole: str) -> float:
        return count(part) / count(whole) if count(whole) else 0.0

    metrics = {}
    for prefix, *_ in tracing.HOOKS:
        metrics[f"{prefix}.calls"] = count(f"{prefix}.calls")
        metrics[f"{prefix}.self_s"] = count(f"{prefix}.self_s")
    handled = sum(events.values())
    metrics.update(
        {
            "sim.run.self_frac": count("sim.run.self_s") / root_s if root_s else 0.0,
            "sim.events.handled": handled,
            "sim.us_per_handled_event": untraced_s / handled * 1e6 if handled else 0.0,
            "swarm.pipeline_requests.empty_ratio": share(
                "swarm.pipeline_requests.empty", "swarm.pipeline_requests.calls"
            ),
            "swarm.rarest_first.none_ratio": share(
                "swarm.rarest_first.none", "swarm.rarest_first.calls"
            ),
            "swarm.rarest_first.maps_summed": count("swarm.rarest_first.maps_summed"),
            "policies.capacity_check_and_reselect.reselect_ratio": share(
                "policies.capacity_check_and_reselect.reselect",
                "policies.capacity_check_and_reselect.calls",
            ),
            "kernels.greedy_select.cand_bins": count("kernels.greedy_select.cand_bins"),
            "workload.generate_workload.s": statistics.median(generate_s),
            "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
            "trace.accounted_frac": self_sum / traced_s if traced_s else 0.0,
        }
    )
    for kind in EVENT_KINDS:
        metrics[f"sim.events.{kind}"] = events[kind]

    problems = []
    if abs(metrics["trace.accounted_frac"] - 1.0) > 0.02:
        problems.append(
            f"span self times add up to {metrics['trace.accounted_frac']:.4f} of the traced run time"
        )
    hooks = {"installed": tracer.installed, "absent": tracer.absent}
    print("hooks " + json.dumps(hooks))
    path = TRACE_DIR / f"trace-{setup.name}-seed{setup.seed}.npz"
    tracer.write(path, {**header, "hooks": hooks})
    print(f"spans: {len(tracer.names)}, written to {path.relative_to(ROOT)}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="swarmsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()

    try:
        spec = json.loads(BENCHMARK.read_text())
        workloads.use_checkout_source()
        setup, host_s, scaled_s = workloads.timed_setup(args.workload, args.seed)
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    env = environment(loadavg)
    print("env " + json.dumps(env))
    reference = checks.load_reference().get(args.workload, {}).get(str(args.seed))
    print(
        f"workload {args.workload} seed {args.seed}: {len(setup.configs)} config(s), "
        + ("checked against reference" if reference else "no reference recorded for this seed")
    )
    runs = Runs(setup.configs, reference)
    problems: list[str] = []
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed, "env": env}
        values, problems = per_layer(setup, runs, header)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setup, runs, args.seconds, (host_s, scaled_s))
        wanted = spec["end_to_end"]

    for line in (runs.problems + problems)[:PROBLEMS_SHOWN]:
        print(f"problem: {line}")
    result = {
        "correct": runs.failed == 0 and not problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
