"""Print the function calls per delivered block of one profiled run.

Usage, from the repository root:

    python tests/callprobe.py --policy random --sessions 200 --profile li --linger 0.3 --seed 41

The run is one `conftest.sim_config` run of the given policy, session
count, interactivity profile, linger fraction and seed. The line printed
gives the function calls that cProfile counted over `sim.run`, workload
generation and report included, the blocks delivered (the calls of
`record_block`) and the calls per block. Unlike a time, the count
depends only on the code and the run, so it repeats exactly, and running
the script in two checkouts compares the Python work they do per block.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import hi_workload, sim_config  # noqa: E402
from swarmsim.sim import run  # noqa: E402
from swarmsim.workload import InteractivityProfile  # noqa: E402


def calls_and_blocks(cfg) -> tuple[int, int]:
    """cProfile's call count over one run, and the blocks it delivered."""
    profiler = cProfile.Profile()
    profiler.runcall(run, cfg)
    stats = pstats.Stats(profiler)
    blocks = sum(
        entry[1] for (_, _, name), entry in stats.stats.items() if name == "record_block"
    )
    return stats.total_calls, blocks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policy", default="random")
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--profile", choices=("hi", "li"), default="li")
    parser.add_argument("--linger", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args()
    workload = dataclasses.replace(
        hi_workload(args.sessions), profile=InteractivityProfile.from_token(args.profile)
    )
    cfg = sim_config(
        args.policy, args.seed, workload=workload, linger_as_seed_fraction=args.linger
    )
    calls, blocks = calls_and_blocks(cfg)
    print(f"calls={calls} blocks={blocks} calls_per_block={calls / blocks:.2f}")


if __name__ == "__main__":
    main()
