import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim import metrics
from swarmsim.cli import (
    _SIM_KEYS,
    ExperimentSpec,
    _entry,
    _read_ini,
    build_sim_config,
    load_experiment_spec,
    main,
)
from swarmsim.errors import ConfigError
from swarmsim.sim import CapacityClass
from swarmsim.workload import (
    GeneratorConfig,
    InteractivityProfile,
    generate_workload,
    parse_trace,
    serialize_trace,
)

HEADER = "client_id,arrival_time,start_pos,end_pos,interaction"

SIM_INI = """
[content]
playback_rate = 65536
piece_size = 65536
block_size = 16384

[workload]
profile = hi
sessions = 12
object_length = 120
mean_session_gap = 5

[swarm]
neighbourhood_min = 6
neighbourhood_max = 10
neighbourhood_target = 8
neighbourhood_floor = 3

[policy]
kind = dispersiongreedy

[run]
seed = 3
horizon = 600
capacity_classes = 262144:1.0
"""

EXPERIMENT_INI = """
[experiment]
base_seed = 2
repetitions = 3

[defaults]
content.playback_rate = 65536
content.piece_size = 65536
workload.profile = hi
workload.sessions = 10
workload.object_length = 120
workload.mean_session_gap = 5
swarm.neighbourhood_min = 6
swarm.neighbourhood_max = 10
swarm.neighbourhood_target = 8
swarm.neighbourhood_floor = 3
run.horizon = 600
run.capacity_classes = 262144:1.0

[label:greedy]
policy.kind = dispersiongreedy

[label:random]
policy.kind = random
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def assert_one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestGenerate:
    def test_generate_then_analyze(self, tmp_path, capsys):
        trace = tmp_path / "li.csv"
        rc = main(
            [
                "generate", "--profile", "li", "--sessions", "100",
                "--object-len", "300", "--seed", "7", "--out", str(trace),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sessions"] == 100
        assert 0.0 < summary["d"] <= 1.0

        out = tmp_path / "report.json"
        rc = main(["analyze", "--trace", str(trace), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["profiles"]["li"] >= 95
        assert report["requests"] == 100

    def test_identical_flags_identical_trace(self, tmp_path, capsys):
        args = [
            "generate", "--profile", "mi", "--sessions", "20",
            "--object-len", "120", "--seed", "5",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_zero_sessions_usage_error(self, tmp_path, capsys):
        rc = main(
            ["generate", "--profile", "li", "--sessions", "0", "--object-len", "300"]
        )
        assert rc == 1

    def test_unknown_profile(self, capsys):
        rc = main(
            ["generate", "--profile", "xx", "--sessions", "5", "--object-len", "300"]
        )
        assert rc == 1


class TestAnalyze:
    def test_hot_position_worked_example(self, tmp_path, capsys):
        # 100 one-second requests for the same position bin.
        rows = "\n".join(f"c{i},{float(i)!r},0.0,1.0,play" for i in range(100))
        trace = write(tmp_path, "hot.csv", f"{HEADER}\n{rows}\n")
        rc = main(["analyze", "--trace", trace, "--object-len", "120", "--window", "120"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p"] == 99
        assert report["m"] == 100
        assert report["d"] == pytest.approx(0.01)
        assert report["category"] == "low"
        assert report["top_positions"][0] == [0, 100]

    def test_all_distinct_high_dispersion(self, tmp_path, capsys):
        rows = "\n".join(f"c{i},{float(i)!r},{float(i)!r},{float(i + 1)!r},play" for i in range(20))
        trace = write(tmp_path, "distinct.csv", f"{HEADER}\n{rows}\n")
        rc = main(["analyze", "--trace", trace, "--object-len", "120", "--window", "120"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == 1.0
        assert report["category"] == "high"

    def test_empty_trace_is_input_error(self, tmp_path, capsys):
        trace = write(tmp_path, "empty.csv", HEADER + "\n")
        assert main(["analyze", "--trace", trace, "--object-len", "120"]) == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        trace = write(tmp_path, "bad.csv", f"{HEADER}\nc1,xx,0,1,play\n")
        assert main(["analyze", "--trace", trace, "--object-len", "120"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "--trace", "/nonexistent.csv"]) == 2

    def test_csv_format(self, tmp_path, capsys):
        rows = "\n".join(f"c{i},{float(i)!r},0.0,1.0,play" for i in range(10))
        trace = write(tmp_path, "hot.csv", f"{HEADER}\n{rows}\n")
        rc = main(
            ["analyze", "--trace", trace, "--object-len", "120", "--window", "120",
             "--format", "csv"]
        )
        assert rc == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["m"] == "10"
        assert cells["profiles_li"] == "0"

    @pytest.mark.parametrize("top", ["-1", "-2"])
    def test_negative_top_is_config_error(self, tmp_path, capsys, top):
        rows = "\n".join(f"c{i},{float(i)!r},{float(i)!r},{float(i + 1)!r},play" for i in range(5))
        trace = write(tmp_path, "five.csv", f"{HEADER}\n{rows}\n")
        args = ["analyze", "--trace", trace, "--object-len", "120", "--window", "120"]
        assert main(args + ["--top", top]) == 1
        assert "--top" in assert_one_line_error(capsys)
        assert main(args + ["--top", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["top_positions"] == []

    @pytest.mark.parametrize("top", [0, 1, 7, 10, 100])
    def test_tied_top_positions_match_full_sort(self, tmp_path, capsys, top):
        # Position p is requested 1 + p * 7 % 3 times, so every count is
        # shared by many positions and ties fall to the lower position.
        rows = [
            f"c{p}x{j},{float(j)!r},{float(p)!r},{float(p + 1)!r},play"
            for p in range(40)
            for j in range(1 + p * 7 % 3)
        ]
        text = "# object_length=120 window=120\n" + HEADER + "\n" + "\n".join(rows) + "\n"
        trace = write(tmp_path, "tied.csv", text)
        assert main(["analyze", "--trace", trace, "--top", str(top)]) == 0
        got = json.loads(capsys.readouterr().out)["top_positions"]
        record = metrics.popularity(parse_trace(text), 1.0)
        full = sorted(record.items(), key=lambda pq: (-pq[1], pq[0]))
        assert got == [[p, q] for p, q in full[:top]]


class TestSimulate:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.ini", SIM_INI)
        out = tmp_path / "qos.json"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["leecher_count"] == 12
        assert 0.0 <= report["aggregate"]["continuity_index"] <= 1.0

    def test_seeded_outputs_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.ini", SIM_INI)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        la, lb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(["simulate", "--config", cfg, "--seed", "9", "--out", str(a), "--event-log", str(la)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "9", "--out", str(b), "--event-log", str(lb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert la.read_bytes() == lb.read_bytes()

    def test_missing_policy_lists_valid_names(self, tmp_path, capsys):
        bad = SIM_INI.replace("[policy]\nkind = dispersiongreedy\n", "")
        cfg = write(tmp_path, "sim.ini", bad)
        rc = main(["simulate", "--config", cfg])
        assert rc == 1

    def test_unknown_policy_lists_valid_names(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.ini", SIM_INI)
        rc = main(["simulate", "--config", cfg, "--policy", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "dispersiongreedy" in err and "givetoget" in err

    def test_csv_format_per_peer_table(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.ini", SIM_INI)
        out = tmp_path / "qos.csv"
        rc = main(["simulate", "--config", cfg, "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("peer_id,continuity_index,")
        assert len(lines) == 1 + 12

    @staticmethod
    def trace_config(tmp_path, rows):
        """A config that simulates the trace `rows` under one fast seed."""
        trace = write(
            tmp_path, "one.csv", f"# object_length=60.0 window=100.0\n{HEADER}\n{rows}"
        )
        return write(
            tmp_path,
            "one.ini",
            "[content]\nplayback_rate = 65536\npiece_size = 65536\nblock_size = 16384\n"
            f"[workload]\ntrace = {trace}\n"
            "[swarm]\nneighbourhood_min = 6\nneighbourhood_max = 10\n"
            "neighbourhood_target = 8\nneighbourhood_floor = 3\n"
            "[policy]\nkind = titfortat\n"
            "[run]\nseed = 3\nhorizon = 200\ncapacity_classes = 8388608:1.0\n",
        )

    def test_minimal_single_leecher_perfect_continuity(self, tmp_path, capsys):
        # One seed far faster than the playback rate serves one client.
        cfg = self.trace_config(tmp_path, "c0,5.0,0.0,60.0,play\n")
        out = tmp_path / "qos.json"
        rc = main(["simulate", "--config", cfg, "--check-invariants", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["per_peer"]["c0"]["continuity_index"] == 1.0
        assert report["per_peer"]["c0"]["interruption_count"] == 0

    def test_invalid_swarm_value_is_config_error(self, tmp_path, capsys):
        bad = SIM_INI.replace("neighbourhood_floor = 3", "neighbourhood_floor = 12")
        cfg = write(tmp_path, "sim.ini", bad)
        assert main(["simulate", "--config", cfg]) == 1
        assert_one_line_error(capsys)

    def test_negative_floor_is_config_error(self, tmp_path, capsys):
        bad = SIM_INI.replace("neighbourhood_floor = 3", "neighbourhood_floor = -1")
        cfg = write(tmp_path, "sim.ini", bad)
        assert main(["simulate", "--config", cfg]) == 1
        assert "[swarm] neighbourhood_floor" in assert_one_line_error(capsys)

    def test_optimistic_slots_above_one_is_config_error(self, tmp_path, capsys):
        ini = SIM_INI.replace("[swarm]\n", "[swarm]\noptimistic_slots = 3\n")
        cfg = write(tmp_path, "sim.ini", ini)
        assert main(["simulate", "--config", cfg]) == 1
        assert "optimistic_slot" in assert_one_line_error(capsys)

    def test_block_size_must_divide_piece_size(self, tmp_path, capsys):
        bad = SIM_INI.replace("block_size = 16384", "block_size = 10000")
        cfg = write(tmp_path, "sim.ini", bad)
        assert main(["simulate", "--config", cfg]) == 1
        assert_one_line_error(capsys)

    def test_missing_trace_file_is_input_error(self, tmp_path, capsys):
        bad = SIM_INI.replace("profile = hi", f"trace = {tmp_path / 'absent.csv'}")
        cfg = write(tmp_path, "sim.ini", bad)
        assert main(["simulate", "--config", cfg]) == 2
        assert_one_line_error(capsys)

    def test_client_named_like_a_seed_is_input_error(self, tmp_path, capsys):
        # Two rows of one client, whose id is the initial seed's.
        cfg = self.trace_config(tmp_path, "seed00,5.0,0.0,30.0,play\nseed00,9.0,30.0,60.0,play\n")
        assert main(["simulate", "--config", cfg]) == 2
        err = assert_one_line_error(capsys)
        assert "seed00" in err and "initial seed" in err

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("[swarm]\n", "[swarm]\npipline_depth = 1\n", ("[swarm]", "pipline_depth")),
            ("[policy]\n", "[polcy]\nkind = random\n[policy]\n", ("polcy",)),
            ("[run]\n", "[run]\nlinger = 0.3\n", ("[run]", "linger")),
            ("[content]\n", "[DEFAULT]\nhorizon = 600\n[content]\n", ("[DEFAULT]",)),
        ],
    )
    def test_unknown_section_or_key_is_config_error(self, tmp_path, capsys, old, new, named):
        cfg = write(tmp_path, "sim.ini", SIM_INI.replace(old, new))
        out = tmp_path / "qos.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = assert_one_line_error(capsys)
        assert all(name in err for name in named)
        assert not out.exists()


# A minimal generator config, and for each INI key a valid value that is
# not its field's value in that config, with the field value that it
# should give. Float keys take a value that `int` cannot parse, and the
# check on types below catches `float` for an int key.
MINIMAL_INI = {
    "workload": {"profile": "hi", "object_length": "30"},
    "policy": {"kind": "random"},
    "run": {"horizon": "30"},
}
KEY_VALUES = {
    ("content", "playback_rate"): ("131072.5", 131072.5),
    ("content", "piece_size"): ("524288", 524288),
    ("content", "block_size"): ("65536", 65536),
    ("workload", "trace"): (None, None),  # the tiny trace, set in the test
    ("workload", "profile"): ("li", InteractivityProfile.LI),
    ("workload", "sessions"): ("7", 7),
    ("workload", "object_length"): ("20.5", 20.5),
    ("workload", "mean_session_gap"): ("3.5", 3.5),
    ("workload", "mean_intra_gap"): ("2.5", 2.5),
    ("workload", "start_skew"): ("0.5", 0.5),
    ("swarm", "unchoke_interval"): ("2.5", 2.5),
    ("swarm", "optimistic_interval"): ("40.0", 40.0),
    # each end outside the default range, so that swapped ends are invalid
    ("swarm", "neighbourhood_min"): ("30", 30),
    ("swarm", "neighbourhood_max"): ("90", 90),
    ("swarm", "neighbourhood_target"): ("50", 50),
    ("swarm", "neighbourhood_floor"): ("10", 10),
    ("swarm", "pipeline_depth"): ("3", 3),
    ("swarm", "regular_slots"): ("2", 2),
    ("swarm", "optimistic_slots"): ("0", 0),
    ("swarm", "tracker_list_size"): ("10", 10),
    ("swarm", "tracker_update_interval"): ("600.5", 600.5),
    ("policy", "kind"): ("TitForTat", "titfortat"),
    ("policy", "n"): ("3", 3),  # with kind = ynp, which needs it
    ("run", "seed"): ("4", 4),
    ("run", "horizon"): ("45.5", 45.5),
    ("run", "capacity_classes"): (
        "131072:0.5,524288:0.5",
        (CapacityClass(131072.0, 0.5), CapacityClass(524288.0, 0.5)),
    ),
    ("run", "check_invariants"): ("yes", True),
    ("run", "initial_seeds"): ("2", 2),
    ("run", "startup_pieces"): ("3", 3),
    ("run", "linger_fraction"): ("0.25", 0.25),
}


def config_value(cfg, section: str, field):
    """What the keyword `field` of [section] set in `cfg`."""
    owner = cfg if section == "run" else getattr(cfg, section)
    if field == "trace":  # the workload read from the named file
        return owner
    if field == "name":  # PolicySpec.from_name's name is its kind's value
        return owner.kind.value
    if isinstance(field, tuple):  # one end of a range
        return getattr(owner, field[0])[field[1]]
    return getattr(owner, field)


@pytest.mark.parametrize(
    "section, key", [(s, key) for s, table in _SIM_KEYS.items() for key in table]
)
def test_each_key_sets_its_field(tmp_path, section, key):
    raw, expected = KEY_VALUES[section, key]  # a new key needs a value here
    if key == "trace":
        raw = write(tmp_path, "t.csv", TINY_TRACE)
        expected = parse_trace(TINY_TRACE)
    sections = {name: dict(entries) for name, entries in MINIMAL_INI.items()}
    sections.setdefault(section, {})[key] = raw
    if key == "n":
        sections["policy"]["kind"] = "ynp"
    field = _entry(_SIM_KEYS[section], key)[0]
    got = config_value(build_sim_config(sections), section, field)
    assert got == expected and type(got) is type(expected)
    assert config_value(build_sim_config(MINIMAL_INI), section, field) != expected


@pytest.mark.parametrize(
    "section, key, flag", [("run", "seed", 5), ("run", "seed", 0), ("policy", "n", 3)]
)
def test_flagged_key_is_not_parsed(section, key, flag):
    sections = {name: dict(entries) for name, entries in MINIMAL_INI.items()}
    sections["policy"]["kind"] = "cnp"
    sections["policy"]["n"] = "2"
    sections[section][key] = "x"
    cfg = build_sim_config(sections, **{key: flag})
    assert config_value(cfg, section, key) == flag


def test_generator_keys_beside_trace_are_not_parsed(tmp_path):
    sections = {name: dict(entries) for name, entries in MINIMAL_INI.items()}
    trace = write(tmp_path, "t.csv", TINY_TRACE)
    sections["workload"].update(trace=trace, profile="bogus", sessions="x")
    assert build_sim_config(sections).workload == parse_trace(TINY_TRACE)


@pytest.mark.parametrize("rate, expected", [(None, 65536.0), ("131072.5", 131072.5)])
def test_trace_sets_the_rate_that_content_leaves_unset(tmp_path, rate, expected):
    # TINY_TRACE's header says playback_rate=65536.0.
    sections = {name: dict(entries) for name, entries in MINIMAL_INI.items()}
    sections["workload"] = {"trace": write(tmp_path, "t.csv", TINY_TRACE)}
    if rate is not None:
        sections["content"] = {"playback_rate": rate}
    cfg = build_sim_config(sections)
    assert cfg.content.playback_rate == expected
    assert cfg.capacity_classes == (CapacityClass(4 * expected, 1.0),)
    assert cfg.workload == parse_trace(TINY_TRACE)


@pytest.mark.parametrize(
    "rate, expected", [(None, GeneratorConfig.playback_rate), ("131072.5", 131072.5)]
)
def test_generator_and_content_share_one_rate(rate, expected):
    sections = {name: dict(entries) for name, entries in MINIMAL_INI.items()}
    if rate is not None:
        sections["content"] = {"playback_rate": rate}
    cfg = build_sim_config(sections)
    assert cfg.content.playback_rate == cfg.workload.playback_rate == expected
    assert cfg.capacity_classes == (CapacityClass(4 * expected, 1.0),)


@pytest.mark.parametrize("rate", ["inf", "1e300", "nan", "0", "-1", "-inf", "5e-324"])
@pytest.mark.parametrize("source", ["trace", "generator"])
def test_bad_content_rate_is_config_error(tmp_path, capsys, source, rate):
    if source == "trace":
        workload = f"trace = {write(tmp_path, 't.csv', TINY_TRACE)}"
    else:
        workload = "profile = hi\nobject_length = 30"
    ini = (
        f"[content]\nplayback_rate = {rate}\n[workload]\n{workload}\n"
        "[policy]\nkind = random\n[run]\nhorizon = 30\n"
    )
    cfg = write(tmp_path, "sim.ini", ini)
    out = tmp_path / "qos.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    # 1e300 B/s is a legal rate, but 30 s of it is too many pieces.
    assert ("pieces" if rate == "1e300" else "playback_rate") in assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("rate", ["0", "inf", "1e9", "1e300", "1e307", "5e-324", "1e-320"])
def test_bad_header_rate_is_input_error(tmp_path, capsys, rate):
    # [content] leaves the rate to the 300 s trace's header. 1e9 and 1e300
    # B/s are legal rates, but 300 s of them is more pieces than a run may
    # track; 300 s of 1e307 B/s overflows a float, and a piece at 5e-324
    # or 1e-320 B/s lasts longer than any float.
    trace = write(
        tmp_path, "t.csv", f"# object_length=300.0 playback_rate={rate}\n{HEADER}\nc0,0,0,30,play\n"
    )
    ini = f"[workload]\ntrace = {trace}\n[policy]\nkind = random\n[run]\nhorizon = 30\n"
    cfg = write(tmp_path, "sim.ini", ini)
    assert main(["simulate", "--config", cfg]) == 2
    assert trace in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "rate, content, code",
    [
        ("1e-300", "", 0),
        ("1e-300", "piece_size = 17179869184\nblock_size = 16384\n", 1),
        ("inf", "piece_size = 17179869184\nblock_size = 16384\n", 2),
        ("1e307", "piece_size = 16\nblock_size = 16\n", 2),
    ],
    ids=["header-alone", "config-piece", "header-inf", "header-overflow"],
)
def test_rate_error_blames_the_piece_size_that_causes_it(tmp_path, capsys, rate, content, code):
    # At 1e-300 B/s a default piece lasts a finite time, but a 16 GiB one
    # does not: the config's piece size is to blame. An infinite rate, or
    # 300 s of 1e307 B/s, gives no content whatever the piece size.
    trace = write(
        tmp_path, "t.csv", f"# object_length=300.0 playback_rate={rate}\n{HEADER}\nc0,0,0,30,play\n"
    )
    ini = (
        f"[content]\n{content}[workload]\ntrace = {trace}\n"
        "[policy]\nkind = random\n[run]\nhorizon = 30\n"
    )
    out = tmp_path / "qos.json"
    assert main(["simulate", "--config", write(tmp_path, "sim.ini", ini), "--out", str(out)]) == code
    if code == 0:
        assert out.exists()
        return
    err = assert_one_line_error(capsys)
    assert err.startswith("error: [content] " if code == 1 else f"error: {trace}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "content", ["", "playback_rate = 262144\n"], ids=["header-rate", "config-rate"]
)
def test_config_piece_size_beyond_bound_is_config_error(tmp_path, capsys, content):
    # The 300 s trace's header rate is a legal one; the config's 16-byte
    # pieces are what make too many of them, whoever sets the rate.
    trace = write(
        tmp_path, "t.csv", f"# object_length=300.0 playback_rate=262144.0\n{HEADER}\nc0,0,0,30,play\n"
    )
    ini = (
        f"[content]\n{content}piece_size = 16\nblock_size = 16\n[workload]\ntrace = {trace}\n"
        "[policy]\nkind = random\n[run]\nhorizon = 30\n"
    )
    assert main(["simulate", "--config", write(tmp_path, "sim.ini", ini)]) == 1
    err = assert_one_line_error(capsys)
    assert err.startswith("error: [content] ") and "pieces of 16 bytes" in err


def test_piece_size_beyond_a_float_is_config_error(tmp_path, capsys):
    ini = SIM_INI.replace("piece_size = 65536", "piece_size = 1" + "0" * 400).replace(
        "block_size = 16384", "block_size = 1"
    )
    out = tmp_path / "qos.json"
    assert main(["simulate", "--config", write(tmp_path, "sim.ini", ini), "--out", str(out)]) == 1
    assert "[content] piece_size" in assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "horizon, swarm",
    [
        ("1e300", ""),
        ("30", "unchoke_interval = 1e-300\noptimistic_interval = 1e-300\n"),
        ("30", "tracker_update_interval = 1e-300\n"),
    ],
)
def test_horizon_beyond_tick_bound_is_config_error(tmp_path, capsys, horizon, swarm):
    trace = write(tmp_path, "t.csv", TINY_TRACE)
    ini = (
        f"[workload]\ntrace = {trace}\n[swarm]\n{swarm}"
        f"[policy]\nkind = random\n[run]\nhorizon = {horizon}\n"
    )
    cfg = write(tmp_path, "sim.ini", ini)
    out = tmp_path / "qos.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "ticks" in assert_one_line_error(capsys)
    assert not out.exists()


class TestCompare:
    def test_two_labels_three_reps(self, tmp_path, capsys):
        spec = write(tmp_path, "exp.ini", EXPERIMENT_INI)
        out = tmp_path / "cmp"
        rc = main(["compare", "--spec", spec, "--out", str(out), "--jobs", "1"])
        assert rc == 0
        table = json.loads((out / "comparison.json").read_text())
        assert set(table["labels"]) == {"greedy", "random"}
        csv_lines = (out / "comparison.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + one row per label
        assert csv_lines[1].startswith("greedy,3,")

    def test_pool_size_invariance(self, tmp_path, capsys):
        spec = write(tmp_path, "exp.ini", EXPERIMENT_INI)
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["compare", "--spec", spec, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["compare", "--spec", spec, "--out", str(out2), "--jobs", "4"]) == 0
        assert (out1 / "comparison.json").read_bytes() == (out2 / "comparison.json").read_bytes()
        assert (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()

    @pytest.mark.parametrize("jobs, sizes", [("64", [6]), ("2", [2]), (None, [6]), ("1", [])])
    def test_pool_sized_to_jobs(self, tmp_path, capsys, monkeypatch, jobs, sizes):
        # Six jobs (two labels, three repetitions); the fake pool runs them
        # in this process and records the size it was asked for.
        made = []

        class FakePool:
            def __init__(self, processes):
                made.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(item) for item in items]

        monkeypatch.setattr("swarmsim.cli.multiprocessing.Pool", FakePool)
        monkeypatch.setattr("swarmsim.cli.os.cpu_count", lambda: 64)
        spec = write(tmp_path, "exp.ini", EXPERIMENT_INI)
        args = ["compare", "--spec", spec, "--out", str(tmp_path / "cmp")]
        assert main(args + (["--jobs", jobs] if jobs else [])) == 0
        assert made == sizes

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        spec = write(tmp_path, "exp.ini", EXPERIMENT_INI)
        out = tmp_path / "x"
        assert main(["compare", "--spec", spec, "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        one_rep = EXPERIMENT_INI.replace("repetitions = 3", "repetitions = 1")
        spec = write(tmp_path, "exp.ini", one_rep)
        out = tmp_path / "cmp"
        (out / "comparison.json").mkdir(parents=True)
        assert main(["compare", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 2
        assert "comparison.json" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("label", ["", "greedy,fast", 'greedy"fast'])
    def test_label_that_breaks_the_csv_is_config_error(self, tmp_path, capsys, label):
        spec = write(
            tmp_path, "exp.ini", EXPERIMENT_INI.replace("[label:greedy]", f"[label:{label}]")
        )
        assert main(["compare", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        assert "label" in assert_one_line_error(capsys)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("label", ["greedy\rfast", "greedy\nfast"])
    def test_label_with_a_line_break_is_config_error(self, label):
        # An INI file read as text cannot name such a section, so the spec
        # is built directly.
        with pytest.raises(ConfigError, match="label"):
            ExperimentSpec(labels=(label,), configs={label: {}})

    def test_empty_spec_is_usage_error(self, tmp_path, capsys):
        spec = write(tmp_path, "exp.ini", "[experiment]\nbase_seed = 1\nrepetitions = 1\n")
        assert main(["compare", "--spec", spec, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("repetitions = 3\n", "repetition = 3\n", ("[experiment]", "repetition")),
            ("[label:random]\n", "[lable:random]\n", ("lable:random",)),
            ("policy.kind = random\n", "policy.kind = random\npolcy.n = 3\n", ("polcy",)),
            (
                "run.horizon = 600\n",
                "run.horizon = 600\nswarm.pipline_depth = 1\n",
                ("[swarm]", "pipline_depth"),
            ),
        ],
    )
    def test_unknown_section_or_key_is_config_error(self, tmp_path, capsys, old, new, named):
        spec = write(tmp_path, "exp.ini", EXPERIMENT_INI.replace(old, new))
        assert main(["compare", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        err = assert_one_line_error(capsys)
        assert all(name in err for name in named)
        assert not (tmp_path / "x").exists()

    def test_missing_spec_is_config_error(self, tmp_path, capsys):
        spec = str(tmp_path / "absent.ini")
        assert main(["compare", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "x").exists()


def test_readme_ini_examples_parse(tmp_path):
    # The README's simulate config and experiment spec, in that order.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```ini\n")[1:]]
    assert len(blocks) == 2
    sim_cfg = build_sim_config(_read_ini(write(tmp_path, "sim.ini", blocks[0])))
    assert sim_cfg.policy.kind.value == "dispersiongreedy"
    spec = load_experiment_spec(write(tmp_path, "exp.ini", blocks[1]))
    assert spec.labels == ("greedy", "random")
    for label in spec.labels:
        build_sim_config(spec.configs[label], seed=spec.base_seed)


@pytest.mark.parametrize("command", ["generate", "analyze"])
@pytest.mark.parametrize("granularity", ["50", "0", "-1", "nan", "1e-300", "1e-320"])
def test_bad_granularity_is_config_error(tmp_path, capsys, command, granularity):
    trace = tmp_path / "t.csv"
    args = ["generate", "--profile", "hi", "--sessions", "3", "--object-len", "10"]
    if command == "analyze":
        assert main(args + ["--out", str(trace)]) == 0
        capsys.readouterr()
        args = ["analyze", "--trace", str(trace), "--object-len", "10"]
    out = tmp_path / "out"
    assert main(args + ["--granularity", granularity, "--out", str(out)]) == 1
    assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--object-len", "object_length"),
        ("--playback-rate", "playback_rate"),
        ("--mean-gap", "mean_session_gap"),
        ("--intra-gap", "mean_intra_gap"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_generator_input_is_config_error(tmp_path, capsys, flag, field, value):
    args = ["generate", "--profile", "hi", "--sessions", "3", "--object-len", "10"]
    out = tmp_path / "out"
    assert main(args + [f"{flag}={value}", "--out", str(out)]) == 1
    err = assert_one_line_error(capsys)
    assert field in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", ["--object-len=inf", "--object-len=0", "--window=nan", "--playback-rate=-1"]
)
def test_bad_analyze_flag_is_config_error(tmp_path, capsys, flag):
    trace = write(tmp_path, "t.csv", f"# object_length=100\n{HEADER}\nc1,0,0,10,play\n")
    assert main(["analyze", "--trace", trace, flag]) == 1
    assert flag.split("=")[0] in assert_one_line_error(capsys)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_horizon_is_config_error(tmp_path, capsys, value):
    cfg = write(tmp_path, "sim.ini", SIM_INI)
    out = tmp_path / "qos.json"
    assert main(["simulate", "--config", cfg, f"--horizon={value}", "--out", str(out)]) == 1
    assert "horizon" in assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("unchoke_interval", "nan"),
        ("unchoke_interval", "inf"),
        ("optimistic_interval", "inf"),
        ("tracker_update_interval", "nan"),
    ],
)
def test_non_finite_swarm_interval_is_config_error(tmp_path, capsys, key, value):
    ini = SIM_INI.replace("[swarm]\n", f"[swarm]\n{key} = {value}\n")
    cfg = write(tmp_path, "sim.ini", ini)
    assert main(["simulate", "--config", cfg]) == 1
    assert key in assert_one_line_error(capsys)


# Values that pass their own field's check but break one derived from
# them: an interval ratio that overflows, a default mean gap that
# underflows to 0, and mean gaps that drive an arrival to inf.
@pytest.mark.parametrize(
    "command, setting, named",
    [
        ("simulate", "[swarm] unchoke_interval = 5e-324", "multiple of the unchoke interval"),
        ("simulate", "[swarm] unchoke_interval = 1e-307", "multiple of the unchoke interval"),
        ("simulate", "[workload] object_length = 5e-324", "zero default mean gap"),
        ("generate", "--object-len=5e-324 --granularity=5e-324", "zero default mean gap"),
        ("simulate", "[workload] mean_intra_gap = 1e308", "beyond the float range"),
        ("generate", "--intra-gap=1e308", "beyond the float range"),
        ("simulate", "[workload] mean_session_gap = 1e308", "beyond the float range"),
        ("generate", "--mean-gap=1e308", "beyond the float range"),
    ],
    ids=[
        "simulate-unchoke_interval-5e-324",
        "simulate-unchoke_interval-1e-307",
        "simulate-object_length",
        "generate-object-len",
        "simulate-mean_intra_gap",
        "generate-intra-gap",
        "simulate-mean_session_gap",
        "generate-mean-gap",
    ],
)
def test_derived_value_out_of_range_is_config_error(tmp_path, capsys, command, setting, named):
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--profile", "hi", "--sessions", "3", "--object-len", "30"]
        argv += setting.split()
    else:
        section, _, entry = setting.partition(" ")
        key = entry.partition(" = ")[0]
        lines = [line for line in SIM_INI.splitlines() if not line.startswith(f"{key} = ")]
        ini = "\n".join(lines).replace(section, f"{section}\n{entry}")
        argv = ["simulate", "--config", write(tmp_path, "sim.ini", ini)]
    assert main(argv + ["--out", str(out)]) == 1
    assert named in assert_one_line_error(capsys)
    assert not out.exists()


def test_zero_object_length_comment_is_trace_error(tmp_path, capsys):
    trace = write(tmp_path, "t.csv", f"# object_length=0\n{HEADER}\nc1,0,0,0,play\n")
    assert main(["analyze", "--trace", trace]) == 2
    assert "object_length" in assert_one_line_error(capsys)


def _run_cli(argv: list[str]) -> int:
    """`main(argv)` with its output captured; fails on any exception."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# Numbers as they may appear on a command line or in a trace: small,
# special, zero, negative, and not a number at all.
NUMBER_TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf", "1e-3", "abc", ""]),
    st.floats(min_value=0.5, max_value=500.0).map(repr),
)


# One small HI session set over a 30 s object, for simulate examples.
TINY_TRACE = serialize_trace(
    generate_workload(
        GeneratorConfig(
            profile=InteractivityProfile.HI,
            session_count=3,
            object_length=30.0,
            mean_session_gap=5.0,
            playback_rate=65536.0,
            seed=0,
        )
    )
)
# Half plausible values, half special, zero, negative or not a number.
INI_TOKENS = st.one_of(
    st.sampled_from(["1", "2", "5", "10", "30"]),
    st.sampled_from(
        ["nan", "inf", "-inf", "0", "-1", "-0.5", "1e-300", "5e-324", "1e308", "abc", ""]
    ),
)
SWARM_KEYS = list(_SIM_KEYS["swarm"])
# horizon and capacity_classes are drawn on their own
RUN_KEYS = [key for key in _SIM_KEYS["run"] if key not in ("horizon", "capacity_classes")]
CAPACITY_TOKENS = st.one_of(
    st.sampled_from(["262144:1.0", "131072:0.5,262144:0.5"]),
    st.sampled_from(["nan:1.0", "inf:1.0", "262144:nan", "0:1", "abc"]),
)


class TestErrorContract:
    """Arbitrary input exits 0, 1 or 2 and never raises out of `main`."""

    @given(
        sessions=st.integers(min_value=-2, max_value=20),
        object_len=NUMBER_TOKENS,
        extra=st.lists(
            st.tuples(
                st.sampled_from(
                    ["--mean-gap", "--intra-gap", "--skew", "--playback-rate", "--granularity"]
                ),
                st.one_of(NUMBER_TOKENS, st.floats(min_value=0.01, max_value=0.99).map(repr)),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_generate_numeric_flags(self, sessions, object_len, extra):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["generate", "--profile", "hi", "--sessions", str(sessions)]
            argv += [f"--object-len={object_len}", "--out", str(Path(tmp) / "t.csv")]
            argv += [f"{flag}={value}" for flag, value in extra]
            assert _run_cli(argv) in (0, 1, 2)

    @given(
        meta=st.one_of(
            st.just("# object_length=100\n"),
            st.builds("# object_length={}\n".format, NUMBER_TOKENS),
            st.text(max_size=20).map(lambda t: "#" + t.replace("\n", " ") + "\n"),
            st.just(""),
        ),
        header=st.sampled_from([HEADER, "client_id,arrival_time", ""]),
        rows=st.lists(
            st.builds(
                lambda client, arrival, start, length, kind: (
                    f"{client},{arrival!r},{start!r},{start + length!r},{kind}"
                ),
                st.sampled_from(["c1", "c2", "c3"]),
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=50.0),
                st.floats(min_value=0.0, max_value=50.0),
                st.sampled_from(["play", "pause", "jumpf", "jumpb", "stop"]),
            ),
            max_size=5,
        ),
        bad_rows=st.lists(
            st.one_of(
                st.builds(
                    "{},{},{},{},{}".format,
                    st.sampled_from(["c1", ""]),
                    NUMBER_TOKENS,
                    NUMBER_TOKENS,
                    NUMBER_TOKENS,
                    st.sampled_from(["play", "skip"]),
                ),
                st.text(max_size=20).map(lambda t: t.replace("\n", " ")),
            ),
            max_size=1,
        ),
        object_len=st.one_of(st.none(), st.just("100"), NUMBER_TOKENS),
        top=st.one_of(st.none(), st.integers(min_value=-3, max_value=5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_analyze_trace_lines(self, meta, header, rows, bad_rows, object_len, top):
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "t.csv"
            trace.write_text(meta + header + "\n" + "\n".join(rows + bad_rows) + "\n")
            argv = ["analyze", "--trace", str(trace)]
            if object_len is not None:
                argv.append(f"--object-len={object_len}")
            if top is not None:
                argv.append(f"--top={top}")
            assert _run_cli(argv) in (0, 1, 2)

    @given(
        horizon=st.one_of(
            st.just("30"), st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e300", "abc"])
        ),
        # Large finite rates such as 1e9 are legal runs of millions of
        # block events, so the finite rates drawn here stay small.
        rate=st.sampled_from(
            [
                "65536", "131072.5", "0", "-1", "nan", "inf", "-inf",
                "1e300", "5e-324", "1e308", "abc",
            ]
        ),
        swarm=st.dictionaries(st.sampled_from(SWARM_KEYS), INI_TOKENS, max_size=2),
        run=st.dictionaries(st.sampled_from(RUN_KEYS), INI_TOKENS, max_size=2),
        capacity=CAPACITY_TOKENS,
    )
    @settings(max_examples=40, deadline=None)
    def test_simulate_ini_values(self, horizon, rate, swarm, run, capacity):
        base = {
            "neighbourhood_min": "6",
            "neighbourhood_max": "10",
            "neighbourhood_target": "8",
            "neighbourhood_floor": "3",
        }
        base.update(swarm)
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "t.csv"
            trace.write_text(TINY_TRACE)
            lines = [
                "[content]",
                f"playback_rate = {rate}",
                "piece_size = 65536",
                "block_size = 16384",
                "[workload]",
                f"trace = {trace}",
                "[swarm]",
                *(f"{k} = {v}" for k, v in base.items()),
                "[policy]",
                "kind = dispersiongreedy",
                "[run]",
                f"horizon = {horizon}",
                f"capacity_classes = {capacity}",
                *(f"{k} = {v}" for k, v in run.items()),
            ]
            ini = Path(tmp) / "sim.ini"
            ini.write_text("\n".join(lines) + "\n")
            argv = ["simulate", "--config", str(ini), "--out", str(Path(tmp) / "qos.json")]
            assert _run_cli(argv) in (0, 1, 2)


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_gone_after_first_line(self, unbuffered):
        # The trace, about 600 kB, fills the pipe long before the last
        # write, which then meets a closed pipe whatever the buffering.
        argv = ["generate", "--profile", "hi", "--sessions", "2000", "--object-len", "300"]
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(metrics.__file__).parents[1]),
            "PYTHONUNBUFFERED": unbuffered,
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "swarmsim.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().startswith(b"# object_length=300.0")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["analyze", "--nope"]) == 1
