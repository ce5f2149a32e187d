"""Command-line front door: generate, analyze, simulate, compare.

Configuration files are flat INI (key = value under sections); flags
override file values. Each key sets one config field; a key left unset
keeps the default that its config class declares. A horizon of more than
a million unchoke or tracker intervals is a config error, and so is
content of more than a million pieces. All randomness derives from
--seed / base_seed, so reruns with the same inputs produce byte-identical
outputs. Exit codes: 0 success, also when standard output closes before
all is written, 1 usage or config error, 2 input data error, 3 internal
invariant violation.
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
from .errors import ConfigError, EmptyRecordError, InvariantError, TraceError
from .policies import PolicySpec
from .sim import MAX_PIECES, CapacityClass, PeerQoS, QoSReport, SimConfig, event_log_lines, run
from .swarm import ContentSpec, RateError, SwarmConfig
from .workload import (
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


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


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


# Each INI key, by section, with the parser of its value. A key sets the
# keyword of its own name, or the one paired with its parser. The keywords
# are those of ContentSpec.for_duration, GeneratorConfig, SwarmConfig,
# PolicySpec.from_name and SimConfig, and a (field, i) keyword sets end i
# of that range; `trace` instead names a trace file, which replaces the
# generator. A key that the file leaves out is not passed, so it keeps the
# default that its class declares. Any other section or key is rejected:
# a typo would leave a default in place without a word.
_SIM_KEYS = {
    "content": {"playback_rate": float, "piece_size": int, "block_size": int},
    "workload": {
        "trace": str, "profile": InteractivityProfile.from_token,
        "sessions": ("session_count", int), "object_length": float,
        "mean_session_gap": float, "mean_intra_gap": float, "start_skew": float,
    },
    "swarm": {
        "unchoke_interval": float, "optimistic_interval": float,
        "neighbourhood_min": (("neighbourhood_range", 0), int),
        "neighbourhood_max": (("neighbourhood_range", 1), int),
        "neighbourhood_target": int, "neighbourhood_floor": int, "pipeline_depth": int,
        "regular_slots": ("regular_slot_count", int),
        "optimistic_slots": ("optimistic_slot_count", int),
        "tracker_list_size": int, "tracker_update_interval": float,
    },
    "policy": {"kind": ("name", str), "n": int},
    "run": {
        "seed": int, "horizon": float, "capacity_classes": _parse_capacity_classes,
        "check_invariants": _parse_bool, "initial_seeds": int, "startup_pieces": int,
        "linger_fraction": ("linger_as_seed_fraction", float),
    },
}
_EXPERIMENT_KEYS = {"base_seed": int, "repetitions": int}


def _check_known(kind: str, name: str, known) -> None:
    if name not in known:
        raise ConfigError(f"unknown {kind} {name!r}; expected one of {', '.join(known)}")


def _entry(table, key: str) -> tuple:
    """The keyword that `key` sets and the parser of its value."""
    entry = table[key]
    return entry if isinstance(entry, tuple) else (key, entry)


def _parse_section(section: str, entries: dict[str, str], table, flags: dict) -> dict:
    """The keywords that one section's entries set, each parsed by its
    `table` entry. A key in `flags` takes the flag's value instead, and
    the file's value of it is not parsed."""
    kwargs = {_entry(table, key)[0]: value for key, value in flags.items() if key in table}
    for key, raw in entries.items():
        if key in flags:
            continue
        field, parse = _entry(table, key)
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}")
        if isinstance(field, tuple):  # the other end keeps its value or default
            field, end = field
            ends = list(kwargs.get(field, getattr(SwarmConfig, field)))
            ends[end] = value
            value = tuple(ends)
        kwargs[field] = value
    return kwargs


def _rate_alone_fails(workload: Workload) -> bool:
    """Whether the workload's playback rate gives its content no finite size
    or duration at the default piece size."""
    try:
        ContentSpec.for_duration(workload.object_length, workload.playback_rate)
    except RateError:
        return True
    return False


def build_sim_config(sections: dict[str, dict[str, str]], **flags) -> SimConfig:
    """Assemble a SimConfig from INI sections plus flag overrides.

    Each flag is named by the key that it replaces. A flag that is None
    or empty is unset; any other replaces its key's value, which is then
    not parsed. Generator keys beside a trace are not parsed either. An
    unset [content] playback_rate is the trace header's or generator's. A
    header rate is bad trace data when it gives content no finite size or
    duration even at the default piece size, or sizes content beyond what
    a run can track while [content] leaves the piece size unset.
    """
    for section, entries in sections.items():
        _check_known("config section", section, _SIM_KEYS)
        for key in entries:
            _check_known(f"[{section}] key", key, _SIM_KEYS[section])
    flags = {key: value for key, value in flags.items() if value is not None and value != ""}

    def parsed(section: str) -> dict:
        return _parse_section(section, sections.get(section, {}), _SIM_KEYS[section], flags)

    content_kw = parsed("content")
    trace_path = sections.get("workload", {}).get("trace")
    if trace_path:
        try:
            with open(trace_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise TraceError(f"cannot read {trace_path}: {exc.strerror}")
        try:
            workload: Workload | GeneratorConfig = parse_trace(text)
        except TraceError as exc:
            raise TraceError(f"{trace_path}: {exc}") from None
    else:
        generator_kw = parsed("workload")
        generator_kw.pop("trace", None)
        if "profile" not in generator_kw:
            raise ConfigError("[workload] needs either trace= or profile=")
        if "object_length" not in generator_kw:
            raise ConfigError("[workload] object_length is required with a generator profile")
        if "playback_rate" in content_kw:
            generator_kw["playback_rate"] = content_kw["playback_rate"]
        workload = GeneratorConfig(**{"session_count": 50, **generator_kw})

    rate_from_trace = bool(trace_path) and "playback_rate" not in content_kw
    content_kw.setdefault("playback_rate", workload.playback_rate)
    try:
        content = ContentSpec.for_duration(workload.object_length, **content_kw)
    except ValueError as exc:
        if rate_from_trace and isinstance(exc, RateError) and _rate_alone_fails(workload):
            raise TraceError(f"{trace_path}: {exc}") from None
        raise ConfigError(f"[content] {exc}")
    if content.num_pieces > MAX_PIECES:
        beyond = (
            f"playback_rate {content.playback_rate} sizes content beyond "
            f"{MAX_PIECES} pieces of {content.piece_size} bytes"
        )
        if rate_from_trace and "piece_size" not in content_kw:
            raise TraceError(f"{trace_path}: {beyond}")
        raise ConfigError(f"[content] {beyond}")
    try:
        swarm = SwarmConfig(**parsed("swarm"))
    except ValueError as exc:
        raise ConfigError(f"[swarm] {exc}")
    policy_kw = parsed("policy")
    if "name" not in policy_kw:
        raise ConfigError("missing policy: set [policy] kind or --policy")
    run_kw = {
        "seed": 0,
        "capacity_classes": (CapacityClass(rate=content.playback_rate * 4, fraction=1.0),),
        **parsed("run"),
    }
    if "horizon" not in run_kw:
        raise ConfigError("missing horizon: set [run] horizon or --horizon")
    return SimConfig(
        content=content,
        swarm=swarm,
        policy=PolicySpec.from_name(**policy_kw),
        workload=workload,
        **run_kw,
    )


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
    # A ratio that overflows to inf has no bin count, and is over the bound.
    if math.isinf(object_length / granularity) or (
        metrics.bin_count(object_length, granularity) > _MAX_BINS
    ):
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
        kind=args.policy,
        n=args.policy_n,
        seed=args.seed,
        horizon=args.horizon,
        check_invariants=True if args.check_invariants else None,
    )
    if args.event_log is not None:
        cfg = dataclasses.replace(cfg, record_events=True)
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
    repetitions: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("experiment labels must be unique")
        for label in self.labels:
            # a label is one field of a comparison.csv row
            if not label or any(c in label for c in ',"\r\n'):
                raise ConfigError(f"experiment label {label!r} is empty or breaks a CSV field")
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
        _check_known("[experiment] key", key, _EXPERIMENT_KEYS)
    settings = _parse_section("experiment", sections["experiment"], _EXPERIMENT_KEYS, {})
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
    return ExperimentSpec(labels=tuple(labels), configs=configs, **settings)


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
    g.add_argument("--seed", type=int, default=GeneratorConfig.seed)
    g.add_argument("--mean-gap", type=float, default=None, help="mean gap between sessions")
    g.add_argument("--intra-gap", type=float, default=None, help="mean gap within a session")
    g.add_argument(
        "--skew", type=float, default=GeneratorConfig.start_skew, help="start-position decay rate"
    )
    g.add_argument("--playback-rate", type=float, default=GeneratorConfig.playback_rate)
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


if __name__ == "__main__":
    sys.exit(main())
