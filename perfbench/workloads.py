"""The benchmark's workloads and their set-up.

Content, swarm and capacity match the simulation fixture of the test
suite (``tests/conftest.py::sim_config``): a 300 s object at 64 KiB/s,
64 KiB pieces, 16 KiB blocks, neighbourhoods of 6-10 peers, a 2000 s
horizon and one capacity class at four times the playback rate.

Why these three workloads:

- ``hi400_greedy``: the paper's dispersion-greedy policy at the large
  size. The only workload where the greedy kernel and the capacity
  reselect do real work.
- ``hi50_policies``: every policy kind once at 50 HI sessions, the
  policies of a ``compare`` experiment. The request-target baselines
  build a CandidateInfo per holder per pick here.
- ``li200_linger``: long requests and lingering uploaders under random
  formation. No greedy or baseline calls, so transfer and piece picking
  are nearly the whole run: the control for greedy and baseline changes.

Every run of a matrix gets its own sessions and engine seed, derived
from the benchmark seed. The work in one 50- to 400-session workload
varies by 5-7% (quartile spread of bytes delivered) from seed to seed;
summing over independent workloads keeps that variation out of the
spread of wall_s across seeds. So ``hi400_greedy`` runs two workloads,
``li200_linger`` three, and each policy of ``hi50_policies`` its own.

Nothing in this module imports swarmsim at import time, so ``setup``
can time the package import itself.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed

SRC = Path(__file__).resolve().parent.parent / "src"

PLAYBACK = 65536.0
OBJECT_LENGTH = 300.0
HORIZON = 2000.0
MEAN_SESSION_GAP = 5.0
# Sessions in the warm-up run of the first config: enough to load every
# module and take its main paths, few enough that set-up stays well
# under a second.
WARMUP_SESSIONS = 10

ALL_POLICIES = (
    ("dispersiongreedy", None),
    ("titfortat", None),
    ("random", None),
    ("llp", None),
    ("lrp", None),
    ("trackerclosest", None),
    ("ynp", 3),
    ("cnp", 3),
    ("givetoget", None),
    ("perpieceoptimistic", None),
)


def use_checkout_source() -> None:
    """Import swarmsim from this checkout's src/, never from elsewhere.

    Raises FileNotFoundError when the checkout holds no swarmsim source.
    """
    init = SRC / "swarmsim" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no swarmsim source at {init}")
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class WorkloadSpec:
    profile: str
    sessions: int
    policies: tuple[tuple[str, int | None], ...]
    linger: float = 0.0


WORKLOADS = {
    "hi400_greedy": WorkloadSpec("hi", 400, (("dispersiongreedy", None),) * 2),
    "hi50_policies": WorkloadSpec("hi", 50, ALL_POLICIES),
    "li200_linger": WorkloadSpec("li", 200, (("random", None),) * 3, linger=0.3),
}


@dataclass
class Setup:
    """A workload's run matrix: one SimConfig per run."""

    name: str
    seed: int
    configs: list


def generate(spec: WorkloadSpec, seed: int):
    """The workload's sessions for one seed; the same seed gives the same sessions."""
    from swarmsim.workload import GeneratorConfig, InteractivityProfile, generate_workload

    return generate_workload(
        GeneratorConfig(
            profile=InteractivityProfile.from_token(spec.profile),
            session_count=spec.sessions,
            object_length=OBJECT_LENGTH,
            mean_session_gap=MEAN_SESSION_GAP,
            playback_rate=PLAYBACK,
            seed=seed,
        )
    )


def run_seeds(spec: WorkloadSpec, seed: int) -> list[int]:
    """The seed of each run of the matrix: its sessions and its engine stream."""
    runs = len(spec.policies)
    return [seed * runs + i for i in range(runs)]


def build_configs(spec: WorkloadSpec, seed: int) -> list:
    """One SimConfig per entry of spec.policies, each on its own generated sessions."""
    from swarmsim.policies import PolicySpec
    from swarmsim.sim import CapacityClass, SimConfig
    from swarmsim.swarm import ContentSpec, SwarmConfig

    content = ContentSpec.for_duration(
        OBJECT_LENGTH, PLAYBACK, piece_size=65536, block_size=16384
    )
    swarm = SwarmConfig(
        neighbourhood_range=(6, 10),
        neighbourhood_target=8,
        neighbourhood_floor=3,
        tracker_list_size=40,
    )
    return [
        SimConfig(
            content=content,
            swarm=swarm,
            policy=PolicySpec.from_name(policy, n),
            workload=generate(spec, run_seed),
            capacity_classes=(CapacityClass(4 * PLAYBACK, 1.0),),
            seed=run_seed,
            horizon=HORIZON,
            linger_as_seed_fraction=spec.linger,
        )
        for (policy, n), run_seed in zip(spec.policies, run_seeds(spec, seed))
    ]


def setup(name: str, seed: int) -> Setup:
    """Import swarmsim, generate the sessions, build the configs, warm up.

    The warm-up runs the first config on the first WARMUP_SESSIONS
    sessions, so lazy imports and first-call costs land here and not in
    the measured runs.
    """
    spec = WORKLOADS[name]
    import swarmsim.sim
    from swarmsim.workload import Workload

    if Path(swarmsim.__file__).resolve().parent != SRC / "swarmsim":
        raise ImportError(f"swarmsim imported from {swarmsim.__file__}, not {SRC}")
    configs = build_configs(spec, seed)
    workload = configs[0].workload
    prefix = Workload(
        object_length=workload.object_length,
        playback_rate=workload.playback_rate,
        sessions=workload.sessions[:WARMUP_SESSIONS],
        observation_window=workload.observation_window,
    )
    swarmsim.sim.run(dataclasses.replace(configs[0], workload=prefix))
    return Setup(name, seed, configs)


def timed_setup(name: str, seed: int) -> tuple[Setup, float, float]:
    """setup() under host-speed sampling: (Setup, host seconds, scaled seconds)."""
    with HostSpeed() as speed:
        t0 = speed.start()
        done = setup(name, seed)
        host, scaled = speed.interval(t0)
    return done, host, scaled
