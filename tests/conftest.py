import pytest

from swarmsim.policies import PolicySpec
from swarmsim.sim import CapacityClass, SimConfig
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

