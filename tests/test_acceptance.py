"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the line-per-
criterion summary.
"""

import random
from contextlib import contextmanager

import numpy as np

from conftest import sim_config
from swarmsim.cli import main
from swarmsim.metrics import (
    PopularityRecord,
    popularity,
    sharing_potential,
    spatial_dispersion,
    temporal_dispersion,
)
from swarmsim.policies import PolicyKind, PolicySpec, baseline_request_target
from swarmsim.sim import event_log_lines, run
from swarmsim.workload import (
    GeneratorConfig,
    InteractivityProfile,
    classify_session,
    generate_workload,
    parse_trace,
)
from test_policies import holder, oracle_greedy, random_instance, rec
from swarmsim.policies import select_neighbors_greedy

HEADER = "client_id,arrival_time,start_pos,end_pos,interaction"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_worked_example():
    with criterion(1, "single position requested 100 times gives P=99, M=100, D=0.01"):
        record = PopularityRecord.from_pairs(1.0, 64, [(7, 100)])
        assert sharing_potential(record) == 99
        assert record.mass == 100
        assert spatial_dispersion(record) == 0.01


def test_criterion_2_dispersion_identity():
    with criterion(2, "spatial dispersion equals distinct/M on 10^4 random records"):
        rng = random.Random(20240901)
        for _ in range(10_000):
            horizon = rng.randint(1, 64)
            pairs = [
                (rng.randrange(horizon), rng.randint(1, 40))
                for _ in range(rng.randint(1, 24))
            ]
            record = PopularityRecord.from_pairs(1.0, horizon, pairs)
            # Independent brute-force pass over a plain dict.
            seen: dict[int, int] = {}
            for p, q in pairs:
                seen[p] = seen.get(p, 0) + q
            expected = len(seen) / sum(seen.values())
            assert abs(spatial_dispersion(record) - expected) < 1e-12


def test_criterion_3_greedy_matches_exhaustive_oracle():
    with criterion(3, "greedy selection matches per-step exhaustive argmin on 100 instances"):
        rng = random.Random(7321)
        for trial in range(100):
            own_pairs, cands, horizon = random_instance(rng)
            hint = (None, InteractivityProfile.LI, InteractivityProfile.HI)[trial % 3]
            max_size = rng.randint(0, len(cands))
            got = select_neighbors_greedy(rec(own_pairs, horizon), cands, max_size, hint)
            want_ids, want_ds = oracle_greedy(own_pairs, cands, max_size, hint)
            assert list(got.selected) == want_ids
            assert np.allclose(got.per_step_dispersion, want_ds, rtol=0, atol=1e-12)


def test_criterion_4_profile_round_trip():
    with criterion(4, "generated workloads classify to their profile (>=95%), LI all single-request"):
        for profile in InteractivityProfile:
            for seed in range(10):
                cfg = GeneratorConfig(
                    profile=profile, session_count=100, object_length=300.0, seed=seed
                )
                workload = generate_workload(cfg)
                matched = sum(
                    1
                    for s in workload.sessions
                    if classify_session(s, 300.0) is profile
                )
                assert matched >= 95, (profile, seed, matched)
                if profile is InteractivityProfile.LI:
                    assert all(s.request_count == 1 for s in workload.sessions)


def test_criterion_5_popularity_skew():
    with criterion(5, "mean popularity over first 10% of positions exceeds last 10%"):
        for profile in InteractivityProfile:
            for seed in range(10):
                cfg = GeneratorConfig(
                    profile=profile, session_count=100, object_length=300.0, seed=seed
                )
                record = popularity(generate_workload(cfg), 1.0)
                tenth = record.horizon // 10
                first = sum(record.counts[:tenth]) / tenth
                last = sum(record.counts[-tenth:]) / tenth
                assert first > last, (profile, seed, first, last)


def test_criterion_6_protocol_invariants():
    with criterion(6, "50-peer 5-minute-object runs keep every protocol invariant at every event"):
        policies = [
            ("dispersiongreedy", None),
            ("titfortat", None),
            ("llp", None),
            ("givetoget", None),
            ("ynp", 3),
        ]
        for seed, (policy, n) in enumerate(policies):
            cfg = sim_config(
                policy, seed=seed, n=n, sessions=50, duration=300.0, check_invariants=True
            )
            report = run(cfg).report
            agg = report.aggregate
            assert agg["uploaded_bytes"] == agg["downloaded_bytes"]
            assert agg["uploaded_bytes"] > 0
            for q in report.per_peer.values():
                assert 0.0 <= q.continuity_index <= 1.0


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "identical (config, seed) gives byte-identical outputs; compare is pool-size invariant"):
        cfg = sim_config("dispersiongreedy", seed=17, sessions=30, record_events=True)
        first = run(cfg)
        second = run(cfg)
        assert first.report.to_json() == second.report.to_json()
        assert event_log_lines(first.events) == event_log_lines(second.events)

        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\nbase_seed = 3\nrepetitions = 2\n"
            "[defaults]\n"
            "content.playback_rate = 65536\ncontent.piece_size = 65536\n"
            "workload.profile = hi\nworkload.sessions = 10\n"
            "workload.object_length = 120\nworkload.mean_session_gap = 5\n"
            "swarm.neighbourhood_min = 6\nswarm.neighbourhood_max = 10\n"
            "swarm.neighbourhood_target = 8\nswarm.neighbourhood_floor = 3\n"
            "run.horizon = 600\nrun.capacity_classes = 262144:1.0\n"
            "[label:greedy]\npolicy.kind = dispersiongreedy\n"
            "[label:random]\npolicy.kind = random\n"
        )
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["compare", "--spec", str(spec), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["compare", "--spec", str(spec), "--out", str(out2), "--jobs", "3"]) == 0
        assert (out1 / "comparison.json").read_bytes() == (out2 / "comparison.json").read_bytes()
        assert (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()


def test_criterion_8_policy_sensitivity():
    with criterion(8, "dispersion-minimizing selection beats random formation on HI workloads"):
        seeds = range(30)
        greedy_means = []
        random_means = []
        wins = 0
        for seed in seeds:
            g = run(sim_config("dispersiongreedy", seed=seed)).report
            r = run(sim_config("random", seed=seed)).report
            gd = g.aggregate["formation_dispersion"]
            rd = r.aggregate["formation_dispersion"]
            assert gd is not None and rd is not None
            greedy_means.append(gd)
            random_means.append(rd)
            if gd < rd:
                wins += 1
        g_mean = sum(greedy_means) / len(greedy_means)
        r_mean = sum(random_means) / len(random_means)
        print(
            f"  formation dispersion: greedy={g_mean:.4f} random={r_mean:.4f} "
            f"wins={wins}/30"
        )
        assert g_mean < r_mean
        assert wins >= 24


def test_criterion_9_temporal_dispersion_figures():
    with criterion(9, "request rates 4.55 and 9.09 give temporal dispersions 0.2198 and 0.110"):
        length = 1500.0

        def trace_for(count, rate):
            window = count * length / rate
            rows = "\n".join(
                f"c{i},{float(i)!r},0.0,10.0,play" for i in range(count)
            )
            text = f"{HEADER}\n{rows}\n"
            return parse_trace(
                text, object_length=length, observation_window=window
            )

        n1, d1 = temporal_dispersion(trace_for(10, 4.55))
        assert abs(n1 - 4.55) < 1e-9
        assert abs(d1 - 0.2198) < 1e-3
        n2, d2 = temporal_dispersion(trace_for(20, 9.09))
        assert abs(n2 - 9.09) < 1e-9
        assert abs(d2 - 0.110) < 1e-3


def test_criterion_10_baseline_conformance():
    with criterion(10, "baseline request targets match independent argmin/argsort oracles"):
        rng = random.Random(4242)
        for trial in range(100):
            total = 16
            n_peers = rng.randint(1, 8)
            piece = rng.randrange(total)
            neighbours = []
            for i in range(n_peers):
                pieces = {rng.randrange(total) for _ in range(rng.randint(0, 10))}
                if i == 0:
                    pieces.add(piece)  # at least one holder
                neighbours.append(
                    holder(
                        f"p{i:02d}",
                        sorted(pieces),
                        join=float(rng.randint(0, 100)),
                        queue=rng.randint(0, 9),
                        sent=rng.randint(0, 9),
                        total=total,
                    )
                )
            self_join = float(rng.randint(0, 100))
            holders = [n for n in neighbours if n.buffer_summary >> piece & 1]

            got = baseline_request_target(
                PolicySpec(PolicyKind.LLP), piece, neighbours, self_join
            )
            assert got == min(holders, key=lambda c: (c.queue_length, c.peer_id)).peer_id

            got = baseline_request_target(
                PolicySpec(PolicyKind.LRP), piece, neighbours, self_join
            )
            assert got == min(holders, key=lambda c: (c.requests_sent_to, c.peer_id)).peer_id

            got = baseline_request_target(
                PolicySpec(PolicyKind.TRACKER_CLOSEST), piece, neighbours, self_join
            )
            assert (
                got
                == min(holders, key=lambda c: (abs(c.join_time - self_join), c.peer_id)).peer_id
            )

            n_param = rng.randint(2, 4)
            pool = sorted(holders, key=lambda c: (-c.join_time, c.peer_id))[:n_param]
            got = baseline_request_target(
                PolicySpec(PolicyKind.YNP, n_param), piece, neighbours, self_join,
                random.Random(trial),
            )
            assert got in {c.peer_id for c in pool}

            pool = sorted(
                holders, key=lambda c: (abs(c.join_time - self_join), c.peer_id)
            )[:n_param]
            got = baseline_request_target(
                PolicySpec(PolicyKind.CNP, n_param), piece, neighbours, self_join,
                random.Random(trial),
            )
            assert got in {c.peer_id for c in pool}
