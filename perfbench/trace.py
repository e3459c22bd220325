"""Per-layer tracing from outside the simulator.

The traced run wraps public functions of the simulator's modules (and
reads the memo caches' ``cache_info``) from here; nothing under
``src/`` is edited.  Each wrapped call records one span (layer, start,
end, parent) in memory; self time is the span's duration minus the
time its child spans cover.  A counting sink on the existing
``TelemetryBus`` supplies the counts the simulator already publishes
(store hits and misses, fleet dispatches, hedges and failovers).

A hook whose target no longer exists raises :class:`HookMissing`
naming the hook: a renamed function must never read as zero time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.metrics import OP_KINDS


class HookMissing(RuntimeError):
    """A traced function or memo cache no longer exists."""


def _observe_choose(state, args, kwargs, result, snapshot) -> None:
    state["tactics.measured"] += result.candidates_measured
    state["tactics.timed"] += result.candidates_timed


def _observe_save_plan(state, args, kwargs, result, snapshot) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    state["plan.bytes"] += os.path.getsize(path)


def _before_simulate(args, kwargs):
    cache = kwargs.get("skeleton_cache")
    return None if cache is None else (cache, len(cache))


def _observe_simulate(state, args, kwargs, result, snapshot) -> None:
    # The skeleton memo is the context-owned dict passed in: it grows
    # exactly when the call had to build a skeleton.
    if snapshot is not None and len(snapshot[0]) == snapshot[1]:
        state["skeleton.hits"] += 1


_OPS = "repro.runtime.ops"
_OP_TARGETS = {
    "conv2d": ("conv2d", "deconv2d"),
    "depthwise_conv2d": ("depthwise_conv2d",),
    "fully_connected": ("fully_connected",),
    "pooling": ("max_pool", "avg_pool", "global_avg_pool", "global_max_pool"),
    "activation_elementwise": (
        "activation", "elementwise", "batchnorm", "channel_scale", "lrn",
        "upsample_nearest",
    ),
    "concat": ("concat",),
    "softmax": ("softmax",),
    "detection": ("detection_output", "region_head", "nms", "box_iou"),
}
assert tuple(_OP_TARGETS) == OP_KINDS

_INJECTOR = "repro.faults.injector:FaultInjector"

#: (layer, "module:qualname", observer) — the observer, when given,
#: sees every call's arguments, its result, and the snapshot its
#: ``_BEFORE`` entry took before the call.
HOOKS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("models.build_model", "repro.models.registry:build_model", None),
    ("engine.pass.dead_layer",
     "repro.engine.passes.dead_layer:remove_dead_layers", None),
    ("engine.pass.vertical_fusion",
     "repro.engine.passes.vertical_fusion:fuse_vertically", None),
    ("engine.pass.horizontal_merge",
     "repro.engine.passes.horizontal_merge:merge_horizontally", None),
    ("lint.invariants", "repro.lint.invariants:PassInvariantGuard.run", None),
    ("graph.toposort", "repro.graph.ir:Graph.toposort", None),
    ("graph.infer_shapes", "repro.graph.shapes:infer_shapes", None),
    ("engine.quantization",
     "repro.engine.passes.quantization:plan_quantization", None),
    ("engine.quantization",
     "repro.engine.passes.quantization:calibrate_int8", None),
    ("engine.tactics.choose", "repro.engine.tactics:TacticSelector.choose",
     _observe_choose),
    ("graph.partition", "repro.graph.partition:build_partitioned_engine",
     None),
    ("lint.flow", "repro.lint.flow:lint_flow", None),
    ("engine.plan.save", "repro.engine.plan:save_plan", _observe_save_plan),
    ("engine.plan.load", "repro.engine.plan:load_plan", None),
    ("hardware.simulate_inference", "repro.hardware.gpu:simulate_inference",
     _observe_simulate),
    ("hardware.scheduler.sweep",
     "repro.hardware.scheduler:StreamScheduler.sweep", None),
    ("profiling.nvprof.record", "repro.profiling.nvprof:Nvprof.record", None),
    ("engine.inspector", "repro.engine.inspector:inspect_engine", None),
    ("runtime.executor.run", "repro.runtime.executor:GraphExecutor.run",
     None),
) + tuple(
    (f"runtime.ops.{kind}", f"{_OPS}:{fn}", None)
    for kind, fns in _OP_TARGETS.items()
    for fn in fns
) + (
    ("serving.fleet.traffic.generate",
     "repro.serving.fleet.traffic:TrafficModel.generate", None),
    ("serving.fleet.router.route",
     "repro.serving.fleet.router:FleetRouter.route", None),
    ("serving.fleet.device",
     "repro.serving.fleet.device:FleetDevice.execute", None),
    ("serving.fleet.device",
     "repro.serving.fleet.device:FleetDevice.service_ms", None),
    ("serving.fleet.device",
     "repro.serving.fleet.device:FleetDevice.status", None),
    ("serving.fleet.device",
     "repro.serving.fleet.device:FleetDevice.probe", None),
    ("analysis.interference.matrix",
     "repro.analysis.interference:interference_matrix", None),
    ("serving.colocation.run",
     "repro.serving.colocation:ColocationScheduler.run", None),
    ("serving.supervisor.serve",
     "repro.serving.supervisor:InferenceSupervisor.serve", None),
) + tuple(
    ("faults.injector", f"{_INJECTOR}.{method}", None)
    for method in (
        "set_time", "advance", "memcpy_factor", "kernel_factor",
        "apply_thermal", "ram_stolen_mb", "bandwidth_scale", "emit",
    )
)

#: Memo caches read through ``cache_info``: metric -> "module:name"s.
CACHE_PROBES: Dict[str, Tuple[str, ...]] = {
    "hardware.cost.hit_frac": ("repro.hardware.cost:_kernel_cost_cached",),
    "runtime.ops.index_cache.hit_frac": tuple(
        f"{_OPS}:{name}"
        for name in (
            "_chunk_bounds", "_im2col_index", "_channel_window_index",
            "_avg_pool_divisors", "_deconv_scatter_index",
            "_detection_cell_centers",
        )
    ),
}

_BEFORE = {_observe_simulate: _before_simulate}

#: Packages whose by-name imports of a hooked function are rebound.
_PATCHED_PACKAGES = ("repro", "perfbench.workloads")


def _in_patched_package(module: Any) -> bool:
    name = getattr(module, "__name__", "")
    return any(
        name == pkg or name.startswith(pkg + ".") for pkg in _PATCHED_PACKAGES
    )


def _resolve(layer: str, target: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, current value) of a hook target."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookMissing(f"hook {layer!r}: module {module_name} "
                          f"cannot be imported ({exc})") from None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookMissing(f"hook {layer!r}: {target} not found")
    value = owner.__dict__.get(attr)
    if value is None or not callable(value):
        raise HookMissing(f"hook {layer!r}: {target} not found")
    return owner, attr, value


class CountingSink:
    """Telemetry sink that only counts what the bus publishes."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer
        self.counts: Dict[str, int] = defaultdict(int)

    def on_event(self, event) -> None:
        if not self.tracer.enabled:
            return
        counts = self.counts
        counts["events"] += 1
        kind = event.kind.value
        if kind == "build.store":
            counts["store." + str(event.attrs.get("event"))] += 1
        elif kind == "serve.fleet.dispatch":
            counts["fleet.dispatches"] += 1
            if event.attrs.get("hedged"):
                counts["fleet.hedges"] += 1
        elif kind == "serve.fleet.failover":
            counts["fleet.failovers"] += 1


class Tracer:
    """Installs the hooks and folds spans into per-layer self time."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.enabled = False
        # Compact span store: one entry per wrapped call.
        self.span_layer = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[List[float]] = []  # [span index, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.state: Dict[str, float] = defaultdict(float)
        self.sink = CountingSink(self)
        self._patched: List[Tuple[Any, str, Any]] = []
        self._cache_fns: Dict[str, List[Any]] = {}
        self.cache_totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])

    # ------------------------------------------------------------------
    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def install(self) -> None:
        """Wrap every hook target; raises HookMissing before patching
        anything if one target is gone."""
        resolved = [
            (layer, observer, *_resolve(layer, target))
            for layer, target, observer in HOOKS
        ]
        for metric, targets in CACHE_PROBES.items():
            fns = []
            for target in targets:
                _, _, fn = _resolve(metric, target)
                if not hasattr(fn, "cache_info"):
                    raise HookMissing(
                        f"hook {metric!r}: {target} is not a memo cache"
                    )
                fns.append(fn)
            self._cache_fns[metric] = fns
        for layer, observer, owner, attr, original in resolved:
            wrapper = self._wrap(layer, original, observer)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # Module function: rebind it in every simulator or
                # workload module that imported it by name.
                for module in list(sys.modules.values()):
                    if (
                        _in_patched_package(module)
                        and getattr(module, "__dict__", {}).get(attr)
                        is original
                    ):
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn: Callable, observer: Optional[Callable]):
        lid = self.layer_id(layer)
        before = _BEFORE.get(observer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            snapshot = before(args, kwargs) if before is not None else None
            idx = tracer.open_span(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx, layer)
            if observer is not None:
                observer(tracer.state, args, kwargs, result, snapshot)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # ------------------------------------------------------------------
    def open_span(self, lid: int) -> int:
        idx = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int, layer: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        _, child_s = self._stack.pop()
        duration = end - self.span_start[idx]
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def call(self, layer: str) -> Iterator[None]:
        """Trace one top-level call: hooks and the bus sink record only
        inside it, under a root span named ``layer``, and the memo
        caches' lookups made during it count toward the hit fractions."""
        before = self._cache_counts()
        self.enabled = True
        idx = self.open_span(self.layer_id(layer))
        try:
            yield
        finally:
            self.close_span(idx, layer)
            self.enabled = False
            for metric, (hits, misses) in self._cache_counts().items():
                total = self.cache_totals[metric]
                total[0] += hits - before[metric][0]
                total[1] += misses - before[metric][1]

    def _cache_counts(self) -> Dict[str, Tuple[int, int]]:
        out = {}
        for metric, fns in self._cache_fns.items():
            infos = [fn.cache_info() for fn in fns]
            out[metric] = (
                sum(i.hits for i in infos), sum(i.misses for i in infos)
            )
        return out

    # ------------------------------------------------------------------
    def per_layer(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics normalised per pass (see metrics.PER_LAYER)."""

        def ms(layer: str) -> float:
            return self.self_s.get(layer, 0.0) * 1e3 / passes

        def per_pass(value: float) -> float:
            return value / passes

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        counts = self.sink.counts
        out: Dict[str, float] = {
            f"{layer}.ms": ms(layer)
            for layer in dict.fromkeys(layer for layer, _, _ in HOOKS)
        }
        for layer in (
            "graph.toposort", "graph.infer_shapes",
            "hardware.simulate_inference", "serving.fleet.router.route",
        ):
            out[f"{layer}.calls"] = per_pass(self.calls.get(layer, 0))
        out["engine.tactics.auctions"] = per_pass(
            self.calls.get("engine.tactics.choose", 0)
        )
        out["engine.tactics.measured_frac"] = frac(
            self.state["tactics.measured"], self.state["tactics.timed"]
        )
        out["engine.plan.bytes"] = per_pass(self.state["plan.bytes"])
        out["engine.store.miss"] = per_pass(counts["store.miss"])
        out["engine.store.hit"] = per_pass(counts["store.hit"])
        out["hardware.timeline.skeleton_hit_frac"] = frac(
            self.state["skeleton.hits"],
            self.calls.get("hardware.simulate_inference", 0),
        )
        for metric in CACHE_PROBES:
            hits, misses = self.cache_totals[metric]
            out[metric] = frac(hits, hits + misses)
        out["serving.fleet.dispatches"] = per_pass(counts["fleet.dispatches"])
        out["serving.fleet.hedges"] = per_pass(counts["fleet.hedges"])
        out["serving.fleet.failovers"] = per_pass(counts["fleet.failovers"])
        out["trace.bus_events"] = per_pass(counts["events"])
        return out

    def write(self, path: str) -> None:
        """Dump every span: ``<path>.json`` names the layers and the
        four parallel arrays stored in ``<path>.bin`` (native order)."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_layer, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "layers": self.layers,
            "spans": len(self.span_start),
            "arrays": [
                ["layer", self.span_layer.typecode],
                ["parent", self.span_parent.typecode],
                ["start_s", self.span_start.typecode],
                ["end_s", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
