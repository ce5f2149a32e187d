
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.errors import ConfigError, TraceError
from swarmsim.metrics import popularity
from swarmsim.workload import (
    GeneratorConfig,
    Interaction,
    InteractivityProfile,
    Request,
    Session,
    Workload,
    classify_session,
    generate_workload,
    parse_trace,
    serialize_trace,
    session_stats,
)

HEADER = "client_id,arrival_time,start_pos,end_pos,interaction"


def make_session(specs, client="c0"):
    """specs: list of (arrival, start, end)."""
    reqs = tuple(Request(a, s, e, Interaction.PLAY) for a, s, e in specs)
    return Session(client, reqs)


class TestParse:
    def test_single_record(self):
        text = f"{HEADER}\nc1,0.0,10.0,60.0,play\n"
        w = parse_trace(text, object_length=120.0)
        assert len(w.sessions) == 1
        (req,) = w.sessions[0].requests
        assert req.duration == 50.0

    def test_header_only_is_an_error(self):
        with pytest.raises(TraceError, match="no sessions"):
            parse_trace(HEADER + "\n", object_length=120.0)

    def test_out_of_order_arrivals_are_sorted(self):
        text = f"{HEADER}\nc1,5.0,0.0,10.0,play\nc1,2.0,20.0,30.0,jumpf\n"
        w = parse_trace(text, object_length=120.0)
        arrivals = [r.arrival_time for r in w.sessions[0].requests]
        assert arrivals == sorted([5.0, 2.0])

    def test_malformed_line_reports_line_number(self):
        text = f"{HEADER}\nc1,0.0,10.0\n"
        with pytest.raises(TraceError, match="line 2"):
            parse_trace(text, object_length=120.0)

    def test_end_before_start_rejected(self):
        text = f"{HEADER}\nc1,0.0,50.0,10.0,play\n"
        with pytest.raises(TraceError, match="precedes"):
            parse_trace(text, object_length=120.0)

    def test_arrival_beyond_window_rejected(self):
        text = f"{HEADER}\nc1,99.0,0.0,10.0,play\n"
        with pytest.raises(TraceError, match="beyond"):
            parse_trace(text, object_length=120.0, observation_window=50.0)

    def test_unknown_interaction_rejected(self):
        text = f"{HEADER}\nc1,0.0,0.0,10.0,rewind\n"
        with pytest.raises(TraceError, match="line 2.*rewind"):
            parse_trace(text, object_length=120.0)

    def test_metadata_comment_supplies_lengths(self):
        text = f"# object_length=200.0 window=400.0\n{HEADER}\nc1,0.0,0.0,150.0,play\n"
        w = parse_trace(text)
        assert w.object_length == 200.0
        assert w.observation_window == 400.0

    def test_missing_object_length_rejected(self):
        with pytest.raises(TraceError, match="object_length"):
            parse_trace(f"{HEADER}\nc1,0.0,0.0,10.0,play\n")

    def test_end_beyond_object_rejected(self):
        text = f"{HEADER}\nc1,0.0,0.0,150.0,play\n"
        with pytest.raises(TraceError, match="exceeds"):
            parse_trace(text, object_length=120.0)

    def test_sessions_grouped_by_client(self):
        text = f"{HEADER}\nc2,1.0,0.0,5.0,play\nc1,0.0,0.0,5.0,play\nc2,9.0,5.0,9.0,jumpf\n"
        w = parse_trace(text, object_length=20.0)
        assert [s.client_id for s in w.sessions] == ["c1", "c2"]
        assert w.sessions[1].request_count == 2


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.HI, session_count=12, object_length=90.0, seed=3
        )
        w = generate_workload(cfg)
        assert parse_trace(serialize_trace(w)) == w

    def test_serialize_is_stable(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.MI, session_count=5, object_length=60.0, seed=1
        )
        assert serialize_trace(generate_workload(cfg)) == serialize_trace(generate_workload(cfg))


class TestClassify:
    def test_many_short_requests_high_interactivity(self):
        s = make_session([(i * 10.0, 0.0, 5.0) for i in range(4)])
        assert classify_session(s, 100.0) is InteractivityProfile.HI

    def test_single_full_request_low_interactivity(self):
        s = make_session([(0.0, 0.0, 100.0)])
        assert classify_session(s, 100.0) is InteractivityProfile.LI

    def test_two_short_requests_medium(self):
        s = make_session([(0.0, 0.0, 10.0), (20.0, 10.0, 20.0)])
        assert classify_session(s, 100.0) is InteractivityProfile.MI

    def test_rule_gap_long_multi_request_routes_to_mi(self):
        # Two long requests match none of the three stated rules.
        s = make_session([(0.0, 0.0, 50.0), (60.0, 0.0, 50.0)])
        assert classify_session(s, 100.0) is InteractivityProfile.MI

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1000, allow_nan=False),
                st.floats(0, 99, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_total_and_deterministic(self, triples):
        specs = sorted(
            (a, min(s, e_raw if e_raw >= s else s), max(s, e_raw))
            for a, s, e_raw in triples
        )
        specs = [(a, s, min(e, 100.0)) for a, s, e in specs]
        session = make_session(specs)
        first = classify_session(session, 100.0)
        assert first in InteractivityProfile
        assert classify_session(session, 100.0) is first


class TestSessionStats:
    def test_single_request(self):
        stats = session_stats(make_session([(0.0, 0.0, 10.0)]))
        assert stats.request_count == 1
        assert stats.mean_inactivity_gap is None
        assert stats.jump_distances == ()

    def test_forward_jump_and_gap(self):
        stats = session_stats(make_session([(0.0, 0.0, 10.0), (20.0, 30.0, 40.0)]))
        assert stats.jump_distances == (20.0,)
        assert stats.mean_inactivity_gap == 10.0

    def test_backward_jump(self):
        stats = session_stats(make_session([(0.0, 0.0, 10.0), (12.0, 2.0, 8.0)]))
        assert stats.jump_distances == (-8.0,)

    def test_session_duration(self):
        s = make_session([(2.0, 0.0, 10.0), (20.0, 10.0, 25.0)])
        assert session_stats(s).duration == (20.0 + 15.0) - 2.0


class TestGenerator:
    @pytest.mark.parametrize("profile", list(InteractivityProfile))
    def test_sessions_classify_to_target(self, profile):
        cfg = GeneratorConfig(
            profile=profile, session_count=100, object_length=300.0, seed=7
        )
        w = generate_workload(cfg)
        matches = sum(
            1 for s in w.sessions if classify_session(s, 300.0) is profile
        )
        assert matches >= 95

    def test_li_sessions_are_single_request(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.LI, session_count=100, object_length=300.0, seed=9
        )
        w = generate_workload(cfg)
        assert all(s.request_count == 1 for s in w.sessions)

    def test_single_li_session(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.LI, session_count=1, object_length=300.0, seed=2
        )
        w = generate_workload(cfg)
        assert len(w.sessions) == 1
        assert w.sessions[0].request_count == 1

    def test_deterministic_for_equal_config(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.HI, session_count=30, object_length=120.0, seed=42
        )
        assert serialize_trace(generate_workload(cfg)) == serialize_trace(generate_workload(cfg))

    def test_zero_sessions_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(
                profile=InteractivityProfile.LI, session_count=0, object_length=120.0
            )

    @pytest.mark.parametrize("profile", list(InteractivityProfile))
    def test_beginning_skew(self, profile):
        cfg = GeneratorConfig(
            profile=profile, session_count=100, object_length=300.0, seed=4
        )
        rec = popularity(generate_workload(cfg), 1.0)
        tenth = rec.horizon // 10
        assert sum(rec.counts[:tenth]) / tenth > sum(rec.counts[-tenth:]) / tenth

    def test_half_of_starts_in_first_fifth(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.HI, session_count=200, object_length=100.0, seed=6
        )
        w = generate_workload(cfg)
        starts = [r.start_pos for r in w.iter_requests()]
        frac = sum(1 for s in starts if s < 20.0) / len(starts)
        assert 0.4 < frac < 0.62

    def test_jump_interactions_match_sign(self):
        cfg = GeneratorConfig(
            profile=InteractivityProfile.HI, session_count=40, object_length=100.0, seed=5
        )
        for session in generate_workload(cfg).sessions:
            reqs = session.requests
            assert reqs[0].interaction is Interaction.PLAY
            for prev, cur in zip(reqs, reqs[1:]):
                jd = cur.start_pos - prev.end_pos
                expected = Interaction.JUMP_FORWARD if jd >= 0 else Interaction.JUMP_BACKWARD
                assert cur.interaction is expected


class TestValidation:
    def test_request_ordering_enforced(self):
        with pytest.raises(ValueError):
            make_session([(5.0, 0.0, 1.0), (1.0, 0.0, 1.0)])

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            Session("c0", ())

    def test_request_bounds(self):
        with pytest.raises(ValueError):
            Request(0.0, 5.0, 1.0, Interaction.PLAY)
        with pytest.raises(ValueError):
            Request(-1.0, 0.0, 1.0, Interaction.PLAY)

    def test_workload_window_positive(self):
        with pytest.raises(ValueError):
            Workload(10.0, 100.0, (), 0.0)

    def test_shared_client_id_rejected(self):
        # A trace keys sessions by client id, so two sessions named alike
        # would come back from a serialize/parse round trip as one.
        sessions = (make_session([(0.0, 0.0, 1.0)]), make_session([(2.0, 3.0, 4.0)]))
        with pytest.raises(ValueError, match="client id c0"):
            Workload(10.0, 100.0, sessions, 50.0)
        Workload(10.0, 100.0, (sessions[0], make_session([(2.0, 3.0, 4.0)], "c1")), 50.0)
