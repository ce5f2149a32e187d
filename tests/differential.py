"""Digest random checked runs, to compare two checkouts of the engine.

Usage, from the repository root:

    python tests/differential.py --seed 0 --count 150 > digests.txt

Each line is one config drawn by `conftest.random_checked_config`:
its index and the sha256 of its report plus its event log. The configs
depend only on --seed, so running the script in two checkouts and
diffing the outputs shows every config whose run the change altered.
A run that fails an invariant check raises, and the script stops.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import digest, random_checked_config  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=150)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    for i in range(args.count):
        print(i, digest(random_checked_config(rng)), flush=True)


if __name__ == "__main__":
    main()
