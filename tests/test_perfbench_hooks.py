"""The benchmark's per-layer hooks still find the names they patch."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"

# Targets that are gone; their metrics read 0 until the benchmark retires
# them. The engine no longer merges popularity records, so `sim` has no
# `merge_records` to patch.
KNOWN_ABSENT = {
    "swarm.pipeline_requests",
    "swarm.rarest_first.maps_summed",
    "kernels.greedy_select.cand_bins",
    "metrics.merge_records",
}


def test_hook_targets_and_parameters_resolve():
    # `Tracer()` resolves every hook target and every derived counter's
    # parameter, listing what it cannot find; it patches nothing until
    # `active()`.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert set(tracer.absent) == KNOWN_ABSENT
    assert len(tracer.installed) == len(tracing.HOOKS) - 2
