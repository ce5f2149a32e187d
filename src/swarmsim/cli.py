"""Command-line front door: generate, analyze, simulate, compare.

Configuration files are flat INI (key = value under sections); flags
override file values. All randomness derives from --seed / base_seed, so
reruns with the same inputs produce byte-identical outputs. Exit codes:
0 success, also when standard output closes before all is written, 1
usage or config error, 2 input data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import heapq
import json
import math
import multiprocessing
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from . import metrics
from .errors import ConfigError, EmptyRecordError, InvariantError, SwarmsimError, TraceError
from .policies import PolicySpec
from .sim import CapacityClass, PeerQoS, QoSReport, SimConfig, event_log_lines, run
from .swarm import ContentSpec, SwarmConfig
from .workload import (
    DEFAULT_PLAYBACK_RATE,
    GeneratorConfig,
    InteractivityProfile,
    Workload,
    generate_workload,
    parse_trace,
    profile_counts,
    serialize_trace,
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default
        raise ConfigError(message)


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}")
    if parser.defaults():
        raise ConfigError(f"config {path}: [DEFAULT] would add its keys to every section")
    return {name: dict(parser[name]) for name in parser.sections()}


def _get(sections, section, key, cast, default):
    raw = sections.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}")


def _parse_capacity_classes(raw: str) -> tuple[CapacityClass, ...]:
    classes = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        rate, _, frac = part.partition(":")
        try:
            classes.append(CapacityClass(rate=float(rate), fraction=float(frac)))
        except ValueError:
            raise ConfigError(f"bad capacity class {part!r}; expected rate:fraction")
    if not classes:
        raise ConfigError("capacity_classes is empty")
    return tuple(classes)


# The keys build_sim_config reads, by section. Any other is rejected: a
# typo would leave a default in place without a word.
_SIM_KEYS = {
    "content": ("playback_rate", "piece_size", "block_size"),
    "workload": ("trace", "profile", "sessions", "object_length", "mean_session_gap",
                 "mean_intra_gap", "start_skew"),
    "swarm": ("unchoke_interval", "optimistic_interval", "neighbourhood_min",
              "neighbourhood_max", "neighbourhood_target", "neighbourhood_floor",
              "pipeline_depth", "regular_slots", "optimistic_slots", "tracker_list_size",
              "tracker_update_interval"),
    "policy": ("kind", "n"),
    "run": ("seed", "horizon", "capacity_classes", "check_invariants", "initial_seeds",
            "startup_pieces", "linger_fraction"),
}


def _check_known(kind: str, name: str, known) -> None:
    if name not in known:
        raise ConfigError(f"unknown {kind} {name!r}; expected one of {', '.join(known)}")


def build_sim_config(sections: dict[str, dict[str, str]], **overrides) -> SimConfig:
    """Assemble a SimConfig from INI sections plus flag overrides."""
    for section, entries in sections.items():
        _check_known("config section", section, _SIM_KEYS)
        for key in entries:
            _check_known(f"[{section}] key", key, _SIM_KEYS[section])
    playback_rate = _get(sections, "content", "playback_rate", float, DEFAULT_PLAYBACK_RATE)
    piece_size = _get(sections, "content", "piece_size", int, 262144)
    block_size = _get(sections, "content", "block_size", int, 16384)

    trace_path = sections.get("workload", {}).get("trace")
    if trace_path:
        try:
            with open(trace_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise TraceError(f"cannot read {trace_path}: {exc.strerror}")
        workload: Workload | GeneratorConfig = parse_trace(text, playback_rate=playback_rate)
        object_length = workload.object_length
    else:
        profile_raw = sections.get("workload", {}).get("profile")
        if profile_raw is None:
            raise ConfigError("[workload] needs either trace= or profile=")
        object_length = _get(sections, "workload", "object_length", float, None)
        if object_length is None:
            raise ConfigError("[workload] object_length is required with a generator profile")
        workload = GeneratorConfig(
            profile=InteractivityProfile.from_token(profile_raw),
            session_count=_get(sections, "workload", "sessions", int, 50),
            object_length=object_length,
            mean_session_gap=_get(sections, "workload", "mean_session_gap", float, None),
            mean_intra_gap=_get(sections, "workload", "mean_intra_gap", float, None),
            start_skew=_get(sections, "workload", "start_skew", float, 0.85),
            playback_rate=playback_rate,
            seed=0,
        )

    try:
        content = ContentSpec.for_duration(object_length, playback_rate, piece_size, block_size)
    except ValueError as exc:
        raise ConfigError(f"[content] {exc}")

    try:
        swarm = SwarmConfig(
            unchoke_interval=_get(sections, "swarm", "unchoke_interval", float, 10.0),
            optimistic_interval=_get(sections, "swarm", "optimistic_interval", float, 30.0),
            neighbourhood_range=(
                _get(sections, "swarm", "neighbourhood_min", int, 40),
                _get(sections, "swarm", "neighbourhood_max", int, 80),
            ),
            neighbourhood_target=_get(sections, "swarm", "neighbourhood_target", int, None),
            neighbourhood_floor=_get(sections, "swarm", "neighbourhood_floor", int, 20),
            pipeline_depth=_get(sections, "swarm", "pipeline_depth", int, 5),
            regular_slot_count=_get(sections, "swarm", "regular_slots", int, 4),
            optimistic_slot_count=_get(sections, "swarm", "optimistic_slots", int, 1),
            tracker_list_size=_get(sections, "swarm", "tracker_list_size", int, 40),
            tracker_update_interval=_get(
                sections, "swarm", "tracker_update_interval", float, 1800.0
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"[swarm] {exc}")

    policy_name = overrides.get("policy") or _get(sections, "policy", "kind", str, None)
    if policy_name is None:
        raise ConfigError("missing policy: set [policy] kind or --policy")
    policy_n = overrides.get("policy_n")
    if policy_n is None:
        policy_n = _get(sections, "policy", "n", int, None)
    policy = PolicySpec.from_name(policy_name, policy_n)

    seed = overrides.get("seed")
    if seed is None:
        seed = _get(sections, "run", "seed", int, 0)
    horizon = overrides.get("horizon")
    if horizon is None:
        horizon = _get(sections, "run", "horizon", float, None)
    if horizon is None:
        raise ConfigError("missing horizon: set [run] horizon or --horizon")

    capacity_raw = _get(
        sections, "run", "capacity_classes", str, f"{playback_rate * 4}:1.0"
    )
    check = overrides.get("check_invariants")
    if check is None:
        check = _get(sections, "run", "check_invariants", bool, False)

    try:
        return SimConfig(
            content=content,
            swarm=swarm,
            policy=policy,
            workload=workload,
            capacity_classes=_parse_capacity_classes(capacity_raw),
            seed=seed,
            horizon=horizon,
            initial_seeds=_get(sections, "run", "initial_seeds", int, 1),
            startup_pieces=_get(sections, "run", "startup_pieces", int, 1),
            linger_as_seed_fraction=_get(sections, "run", "linger_fraction", float, 0.0),
            record_events=bool(overrides.get("record_events", False)),
            check_invariants=check,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# Subcommands


def _write_or_print(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise TraceError(f"cannot write {out}: {exc}")


_MAX_BINS = 10**7  # position bins one record may span


def _check_granularity(granularity: float, object_length: float) -> None:
    if not 0 < granularity <= object_length:
        raise ConfigError(
            f"--granularity must lie in (0, {object_length}], the object length; "
            f"got {granularity}"
        )
    if object_length / granularity > _MAX_BINS:
        raise ConfigError(
            f"--granularity {granularity} gives more than {_MAX_BINS} position bins "
            f"over the object length {object_length}"
        )


def _check_positive(flag: str, value: float | None) -> None:
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be a positive finite number; got {value}")


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        profile=InteractivityProfile.from_token(args.profile),
        session_count=args.sessions,
        object_length=args.object_len,
        mean_session_gap=args.mean_gap,
        mean_intra_gap=args.intra_gap,
        start_skew=args.skew,
        playback_rate=args.playback_rate,
        seed=args.seed,
    )
    _check_granularity(args.granularity, cfg.object_length)
    workload = generate_workload(cfg)
    _write_or_print(serialize_trace(workload), args.out)
    report = metrics.workload_report(workload, args.granularity)
    summary = {"sessions": len(workload.sessions), "requests": workload.total_requests()}
    summary.update(report.to_dict())
    print(json.dumps(summary, indent=2))
    return 0


def _analyze_report(workload: Workload, granularity: float, top: int) -> dict:
    record = metrics.popularity(workload, granularity)
    report = metrics.make_report(
        record.distinct_positions(), record.mass, metrics.temporal_dispersion(workload).n
    )
    pairs = heapq.nsmallest(top, record.items(), key=lambda pq: (-pq[1], pq[0]))
    out = {
        "sessions": len(workload.sessions),
        "requests": workload.total_requests(),
        "object_length": workload.object_length,
        "observation_window": workload.observation_window,
        "granularity": granularity,
    }
    out.update(report.to_dict())
    out["profiles"] = profile_counts(workload)
    out["top_positions"] = [[p, q] for p, q in pairs]
    return out


def _analyze_csv(report: dict) -> str:
    flat = dict(report)
    for name, count in flat.pop("profiles").items():
        flat[f"profiles_{name}"] = count
    flat["top_positions"] = " ".join(f"{p}:{q}" for p, q in flat["top_positions"])
    header = ",".join(flat)
    row = ",".join(str(v) for v in flat.values())
    return f"{header}\n{row}\n"


def cmd_analyze(args) -> int:
    _check_positive("--object-len", args.object_len)
    _check_positive("--window", args.window)
    _check_positive("--playback-rate", args.playback_rate)
    if args.top < 0:
        raise ConfigError(f"--top must be at least 0; got {args.top}")
    try:
        with open(args.trace) as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceError(f"cannot read {args.trace}: {exc}")
    workload = parse_trace(
        text,
        object_length=args.object_len,
        observation_window=args.window,
        playback_rate=args.playback_rate,
    )
    _check_granularity(args.granularity, workload.object_length)
    report = _analyze_report(workload, args.granularity, args.top)
    if args.format == "csv":
        _write_or_print(_analyze_csv(report), args.out)
    else:
        _write_or_print(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    sections = _read_ini(args.config) if args.config else {}
    cfg = build_sim_config(
        sections,
        policy=args.policy,
        policy_n=args.policy_n,
        seed=args.seed,
        horizon=args.horizon,
        check_invariants=True if args.check_invariants else None,
        record_events=args.event_log is not None,
    )
    result = run(cfg)
    if args.format == "csv":
        _write_or_print(_qos_csv(result.report), args.out)
    else:
        _write_or_print(result.report.to_json(), args.out)
    if args.event_log is not None:
        _write_or_print(event_log_lines(result.events or []), args.event_log)
    return 0


def _qos_csv(report: QoSReport) -> str:
    """Per-peer QoS table, one column per PeerQoS field; the formation
    column holds only its dispersion `d`. The aggregate stays in the JSON
    format."""
    fields = [f.name for f in dataclasses.fields(PeerQoS)]
    header = ["formation_d" if name == "formation" else name for name in fields]
    lines = [",".join(["peer_id"] + header)]
    for pid, q in sorted(report.per_peer.items()):
        d = q.to_dict()
        d["formation"] = "" if q.formation is None else q.formation["d"]
        lines.append(",".join([pid] + [str(d[f]) for f in fields]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentSpec:
    """Labelled simulation configs to run side by side."""

    labels: tuple[str, ...]
    configs: dict[str, dict[str, dict[str, str]]]
    repetitions: int
    base_seed: int

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("experiment labels must be unique")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")


def load_experiment_spec(path: str) -> ExperimentSpec:
    sections = _read_ini(path)
    if "experiment" not in sections:
        raise ConfigError("experiment spec needs an [experiment] section")
    for name in sections:
        if not name.startswith("label:"):
            _check_known("experiment spec section", name, ("experiment", "defaults", "label:..."))
    for key in sections["experiment"]:
        _check_known("[experiment] key", key, ("base_seed", "repetitions"))
    base_seed = _get(sections, "experiment", "base_seed", int, 0)
    repetitions = _get(sections, "experiment", "repetitions", int, 1)
    defaults = sections.get("defaults", {})
    labels = []
    configs = {}
    for name in sections:
        if not name.startswith("label:"):
            continue
        label = name.split(":", 1)[1]
        labels.append(label)
        merged: dict[str, dict[str, str]] = {}
        for key, value in {**defaults, **sections[name]}.items():
            section, _, field = key.partition(".")
            if not field:
                raise ConfigError(f"expected section.key in experiment entry, got {key!r}")
            merged.setdefault(section, {})[field] = value
        configs[label] = merged
    if not labels:
        raise ConfigError("experiment spec defines no [label:...] sections")
    return ExperimentSpec(
        labels=tuple(labels), configs=configs, repetitions=repetitions, base_seed=base_seed
    )


def _compare_worker(job: tuple[str, int, SimConfig]) -> tuple[str, int, dict]:
    label, rep, cfg = job
    return label, rep, run(cfg).report.to_json_dict()


def _aggregate_labels(
    spec: ExperimentSpec, results: dict[tuple[str, int], dict]
) -> dict[str, dict]:
    # Every report writes the same aggregate keys, in the same order.
    names = list(results[(spec.labels[0], 0)]["aggregate"])
    out = {}
    for label in spec.labels:
        fields = {}
        for name in names:
            values = []
            for rep in range(spec.repetitions):
                v = results[(label, rep)]["aggregate"].get(name)
                if v is not None:
                    values.append(float(v))
            if values:
                fields[name] = {
                    "mean": statistics.fmean(values),
                    "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
                    "count": len(values),
                }
            else:
                fields[name] = {"mean": None, "stdev": None, "count": 0}
        out[label] = fields
    return out


def _comparison_csv(spec: ExperimentSpec, table: dict[str, dict]) -> str:
    header = ["label", "repetitions"]
    for name in table[spec.labels[0]]:
        header += [f"{name}_mean", f"{name}_stdev"]
    lines = [",".join(header)]
    for label in spec.labels:
        row = [label, str(spec.repetitions)]
        for cell in table[label].values():
            row.append("" if cell["mean"] is None else repr(cell["mean"]))
            row.append("" if cell["stdev"] is None else repr(cell["stdev"]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1; got {args.jobs}")
    spec = load_experiment_spec(args.spec)
    jobs = []
    for label in spec.labels:
        for rep in range(spec.repetitions):
            # Seed depends on the repetition only, so every label sees the
            # same workload at a given repetition and rows compare paired.
            seed = spec.base_seed + rep
            cfg = build_sim_config(spec.configs[label], seed=seed)
            jobs.append((label, rep, cfg))
    workers = min(args.jobs or os.cpu_count() or 1, len(jobs))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_compare_worker, jobs)
    else:
        rows = [_compare_worker(job) for job in jobs]
    results = {(label, rep): report for label, rep, report in rows}
    table = _aggregate_labels(spec, results)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise TraceError(f"cannot create {out_dir}: {exc}")
    doc = {
        "base_seed": spec.base_seed,
        "repetitions": spec.repetitions,
        "labels": {label: table[label] for label in spec.labels},
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", str(out_dir / "comparison.json"))
    _write_or_print(_comparison_csv(spec, table), str(out_dir / "comparison.csv"))
    print(f"wrote {out_dir / 'comparison.json'} and {out_dir / 'comparison.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="swarmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="generate a synthetic trace")
    g.add_argument("--profile", required=True, help="hi, mi, or li")
    g.add_argument("--sessions", type=int, required=True)
    g.add_argument("--object-len", type=float, required=True, help="object length in seconds")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mean-gap", type=float, default=None, help="mean gap between sessions")
    g.add_argument("--intra-gap", type=float, default=None, help="mean gap within a session")
    g.add_argument("--skew", type=float, default=0.85, help="start-position decay rate")
    g.add_argument("--playback-rate", type=float, default=DEFAULT_PLAYBACK_RATE)
    g.add_argument("--granularity", type=float, default=1.0)
    g.add_argument("--out", default=None, help="trace path (default stdout)")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="dispersion report for a trace")
    a.add_argument("--trace", required=True)
    a.add_argument("--object-len", type=float, default=None)
    a.add_argument("--window", type=float, default=None)
    a.add_argument("--playback-rate", type=float, default=None)
    a.add_argument("--granularity", type=float, default=1.0)
    a.add_argument("--top", type=int, default=10, help="number of top positions to report")
    a.add_argument("--format", choices=("json", "csv"), default="json")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("simulate", help="run one simulation")
    s.add_argument("--config", required=True, help="INI simulation config")
    s.add_argument("--policy", default=None, help="override [policy] kind")
    s.add_argument("--policy-n", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--horizon", type=float, default=None)
    s.add_argument("--check-invariants", action="store_true")
    s.add_argument("--event-log", default=None, help="write newline-delimited event records")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="run an experiment spec and tabulate results")
    c.add_argument("--spec", required=True, help="INI experiment spec")
    c.add_argument("--out", required=True, help="output directory")
    c.add_argument("--jobs", type=int, default=None, help="worker pool size")
    c.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output went away, as `| head -1` does. The
        # rest of the output is dropped: stdout now points at devnull, so
        # the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TraceError, EmptyRecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except SwarmsimError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
