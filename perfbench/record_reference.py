"""Record the reference aggregate QoS that the benchmark checks runs against.

Run from the repository root:

    python3 perfbench/record_reference.py --seeds 0-20 [--workload NAME ...]

Each config of each named workload (default: all) runs once per seed,
untraced, and its report's aggregate is stored in reference.json,
keeping entries for other workloads and seeds. Re-record only when a
change is meant to alter simulated behaviour, and say so where the
change is described.
"""

from __future__ import annotations

import argparse
import json

import checks
import workloads


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-20")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    workloads.use_checkout_source()
    from swarmsim.sim import run

    reference = checks.load_reference()
    for name in args.workload or sorted(workloads.WORKLOADS):
        spec = workloads.WORKLOADS[name]
        for seed in args.seeds:
            aggregates = []
            for cfg in workloads.build_configs(spec, seed):
                report = run(cfg).report
                problems = checks.report_problems(report)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems[0]}")
                aggregates.append(report.aggregate)
            reference.setdefault(name, {})[str(seed)] = aggregates
            print(f"{name} seed {seed}: {len(aggregates)} configs", flush=True)
            checks.REFERENCE_PATH.write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n"
            )


if __name__ == "__main__":
    main()
