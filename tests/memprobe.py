"""Print the traced memory peak of one run per session count.

Usage, from the repository root:

    python tests/memprobe.py --policy dispersiongreedy --sessions 100 200 400

Each line is one `conftest.sim_config(policy, 5, sessions=n)` run, of
dispersion-greedy unless `--policy` names another kind (give-to-get,
say, which keeps forward credit per origin): the session count and the
peak of the Python heap, in MiB, that `tracemalloc` saw over one
`sim.run`, workload generation and report included. Unlike a process's
peak RSS, it counts only what the engine allocates, so it repeats
exactly for a (checkout, Python) pair, and running the script in two
checkouts compares their memory use.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import sim_config  # noqa: E402
from swarmsim.sim import run  # noqa: E402

SEED = 5


def traced_peak_mib(policy: str, sessions: int) -> float:
    """The tracemalloc peak of one run, in MiB; the config is built untraced."""
    cfg = sim_config(policy, SEED, sessions=sessions)
    tracemalloc.start()
    try:
        run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policy", default="dispersiongreedy")
    parser.add_argument("--sessions", type=int, nargs="+", default=[100, 200, 400])
    args = parser.parse_args()
    for n in args.sessions:
        print(f"sessions={n} peak_mib={traced_peak_mib(args.policy, n):.2f}", flush=True)


if __name__ == "__main__":
    main()
