"""One set-up in a fresh interpreter: prints its host and scaled seconds as JSON.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts this several times so that set-up time, which includes
importing swarmsim, is measured more than once per run.
"""

import json
import sys

import workloads

if __name__ == "__main__":
    workloads.use_checkout_source()
    _, host, scaled = workloads.timed_setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"host_s": host, "scaled_s": scaled}))
