import dataclasses
import hashlib
import random

from swarmsim.policies import PolicyKind, PolicySpec
from swarmsim.sim import CapacityClass, SimConfig, event_log_lines, run
from swarmsim.swarm import ContentSpec, SwarmConfig
from swarmsim.workload import GeneratorConfig, InteractivityProfile

PLAYBACK = 65536.0


def small_content(duration: float = 300.0) -> ContentSpec:
    return ContentSpec.for_duration(duration, PLAYBACK, piece_size=65536, block_size=16384)


def small_swarm(target: int = 8) -> SwarmConfig:
    return SwarmConfig(
        neighbourhood_range=(6, 10),
        neighbourhood_target=target,
        neighbourhood_floor=3,
        tracker_list_size=40,
    )


def hi_workload(sessions: int = 50, duration: float = 300.0) -> GeneratorConfig:
    return GeneratorConfig(
        profile=InteractivityProfile.HI,
        session_count=sessions,
        object_length=duration,
        mean_session_gap=5.0,
        playback_rate=PLAYBACK,
        seed=0,
    )


def sim_config(policy: str, seed: int, *, n: int | None = None, **kwargs) -> SimConfig:
    duration = kwargs.pop("duration", 300.0)
    defaults = dict(
        content=small_content(duration),
        swarm=small_swarm(kwargs.pop("target", 8)),
        policy=PolicySpec.from_name(policy, n),
        workload=hi_workload(kwargs.pop("sessions", 50), duration),
        capacity_classes=(CapacityClass(4 * PLAYBACK, 1.0),),
        seed=seed,
        horizon=2000.0,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def digest(cfg: SimConfig) -> str:
    """The sha256 of a run's QoS report JSON followed by its event log."""
    result = run(dataclasses.replace(cfg, record_events=True))
    text = result.report.to_json() + event_log_lines(result.events)
    return hashlib.sha256(text.encode()).hexdigest()


def random_checked_config(rng: random.Random) -> SimConfig:
    """A small checked run of random shape, drawn from `rng`.

    It draws the policy kind, the neighbourhood range, target and
    floor, 1-2 initial seeds, the linger fraction, the tracker list
    size, the pipeline depth, the slot counts, one or two capacity
    classes, 3-20 sessions, the horizon and the run seed.
    """
    kind = rng.choice(list(PolicyKind))
    n = rng.randint(2, 4) if kind in (PolicyKind.YNP, PolicyKind.CNP) else None
    lo = rng.randint(1, 6)
    hi = rng.randint(lo, 10)
    swarm = SwarmConfig(
        neighbourhood_range=(lo, hi),
        neighbourhood_target=rng.randint(lo, hi),
        neighbourhood_floor=rng.randint(0, lo - 1),
        tracker_list_size=rng.randint(1, 20),
        pipeline_depth=rng.randint(1, 5),
        regular_slot_count=rng.randint(0, 4),
        optimistic_slot_count=rng.randint(0, 1),
    )
    rates = [PLAYBACK * rng.choice((0.5, 1, 2, 4, 8)) for _ in range(rng.randint(1, 2))]
    if len(rates) == 1:
        classes = (CapacityClass(rates[0], 1.0),)
    else:
        share = rng.choice((0.25, 0.5, 0.75))
        classes = (CapacityClass(rates[0], share), CapacityClass(rates[1], 1.0 - share))
    return sim_config(
        kind.value,
        seed=rng.getrandbits(32),
        n=n,
        sessions=rng.randint(3, 20),
        swarm=swarm,
        initial_seeds=rng.randint(1, 2),
        linger_as_seed_fraction=rng.choice((0.0, 0.3, 1.0)),
        capacity_classes=classes,
        horizon=rng.choice((100.0, 300.0, 600.0)),
        check_invariants=True,
    )
