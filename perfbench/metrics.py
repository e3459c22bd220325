"""The metric catalogue the benchmark emits, and the statistics behind it.

``BENCHMARK.json`` at the repository root is the contract; the
self-tests assert that these names and units match it.  Nothing here
imports the simulator, so the launcher can use it too.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("compile", "characterize", "serve")

#: End-to-end metrics: (name, unit).  Every workload reports every one.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: A percentile is reported only with at least this many samples, which
#: leaves ten or more beyond p90.
MIN_CALLS_FOR_P90 = 100

#: Op kinds timed under ``runtime.ops.<kind>.ms``.
OP_KINDS = (
    "conv2d",
    "depthwise_conv2d",
    "fully_connected",
    "pooling",
    "activation_elementwise",
    "concat",
    "softmax",
    "detection",
)

# Per-layer metrics: (name, unit).  Times are self time, and every
# count is normalised per pass over the workload's fixed input set, so
# runs of different length compare directly.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("import.repro_s", "s"),
    ("models.build_model.ms", "ms/pass"),
    ("engine.pass.dead_layer.ms", "ms/pass"),
    ("engine.pass.vertical_fusion.ms", "ms/pass"),
    ("engine.pass.horizontal_merge.ms", "ms/pass"),
    ("lint.invariants.ms", "ms/pass"),
    ("graph.toposort.calls", "calls/pass"),
    ("graph.toposort.ms", "ms/pass"),
    ("graph.infer_shapes.calls", "calls/pass"),
    ("graph.infer_shapes.ms", "ms/pass"),
    ("engine.quantization.ms", "ms/pass"),
    ("engine.tactics.choose.ms", "ms/pass"),
    ("engine.tactics.auctions", "calls/pass"),
    ("engine.tactics.measured_frac", "fraction"),
    ("graph.partition.ms", "ms/pass"),
    ("lint.flow.ms", "ms/pass"),
    ("engine.plan.save.ms", "ms/pass"),
    ("engine.plan.bytes", "bytes/pass"),
    ("engine.store.miss", "count/pass"),
    ("hardware.cost.hit_frac", "fraction"),
    ("engine.plan.load.ms", "ms/pass"),
    ("engine.store.hit", "count/pass"),
    ("hardware.simulate_inference.calls", "calls/pass"),
    ("hardware.simulate_inference.ms", "ms/pass"),
    ("hardware.timeline.skeleton_hit_frac", "fraction"),
    ("hardware.scheduler.sweep.ms", "ms/pass"),
    ("profiling.nvprof.record.ms", "ms/pass"),
    ("engine.inspector.ms", "ms/pass"),
    ("runtime.executor.run.ms", "ms/pass"),
) + tuple((f"runtime.ops.{kind}.ms", "ms/pass") for kind in OP_KINDS) + (
    ("runtime.ops.index_cache.hit_frac", "fraction"),
    ("serving.fleet.traffic.generate.ms", "ms/pass"),
    ("serving.fleet.router.route.calls", "calls/pass"),
    ("serving.fleet.router.route.ms", "ms/pass"),
    ("serving.fleet.device.ms", "ms/pass"),
    ("serving.fleet.dispatches", "count/pass"),
    ("serving.fleet.hedges", "count/pass"),
    ("serving.fleet.failovers", "count/pass"),
    ("analysis.interference.matrix.ms", "ms/pass"),
    ("serving.colocation.run.ms", "ms/pass"),
    ("serving.supervisor.serve.ms", "ms/pass"),
    ("faults.injector.ms", "ms/pass"),
    ("trace.bus_events", "events/pass"),
    ("trace.overhead_frac", "fraction"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)


#: Host speed drifts by +-15% over minutes on a shared machine, and
#: every workload slows with it.  A fixed pure-Python loop timed next
#: to each call measures the drift; times are reported scaled to the
#: speed at which one loop takes REF_NOMINAL_S ("reference seconds"),
#: which cut the pass-to-pass spread from about 14% to 4% in probes.
REF_NOMINAL_S = 0.010
REF_ITERATIONS = 100_000
#: Reference samples on each side of a call that set its speed factor.
REF_WINDOW = 2


def reference_seconds() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(
    seconds: Sequence[float], refs: Sequence[float]
) -> List[float]:
    """Scale each time by the median of the reference samples around it
    (``refs[i]`` was taken just before ``seconds[i]``)."""
    out = []
    for i, value in enumerate(seconds):
        window = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(value * REF_NOMINAL_S / statistics.median(window))
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def call_metrics(call_seconds: Sequence[float]) -> Dict[str, float]:
    """``call_p50_ms`` always, ``call_p90_ms`` only when enough calls
    were made for it to have ten samples beyond it."""
    out = {"call_p50_ms": percentile(call_seconds, 50) * 1e3}
    if len(call_seconds) >= MIN_CALLS_FOR_P90:
        out["call_p90_ms"] = percentile(call_seconds, 90) * 1e3
    return out


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def as_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``{"name": {"value": v, "unit": u}}`` in catalogue order."""
    return {
        name: {"value": values[name], "unit": UNITS[name]}
        for name in UNITS
        if name in values
    }


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no calls attempted")
    return failed / attempted

