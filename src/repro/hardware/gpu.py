"""Single-stream inference timeline simulation.

Given an engine's kernel bindings, produce the timeline a profiler
would record: the engine-upload and input HtoD memcpys followed by each
kernel invocation.  Run-to-run jitter (DVFS, DRAM refresh, background
interrupts) is modeled as multiplicative noise per kernel, which is why
repeated timings of the *same* engine show the standard deviations the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.caching import caching_enabled
from repro.hardware.cost import CostModel, invocation_us
from repro.hardware.memory import MemcpyModel
from repro.hardware.specs import DeviceSpec
from repro.telemetry.bus import BUS, SpanKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.engine import LayerBinding
    from repro.profiling.nvprof import Nvprof


@dataclass(frozen=True)
class KernelEvent:
    """One kernel invocation on the timeline."""

    kernel_name: str
    layer_name: str
    start_us: float
    duration_us: float


@dataclass(frozen=True)
class MemcpyEvent:
    """One HtoD transfer on the timeline."""

    label: str
    bytes: int
    calls: int
    start_us: float
    duration_us: float


@dataclass
class InferenceTiming:
    """Complete timeline of one inference (of ``batch_size`` samples)."""

    device_name: str
    clock_mhz: float
    batch_size: int = 1
    kernel_events: List[KernelEvent] = field(default_factory=list)
    memcpy_events: List[MemcpyEvent] = field(default_factory=list)

    @property
    def kernel_us(self) -> float:
        return sum(e.duration_us for e in self.kernel_events)

    @property
    def memcpy_us(self) -> float:
        return sum(e.duration_us for e in self.memcpy_events)

    @property
    def total_us(self) -> float:
        return self.kernel_us + self.memcpy_us

    @property
    def total_ms(self) -> float:
        return self.total_us / 1e3

    @property
    def per_sample_us(self) -> float:
        """Amortized per-sample latency of a batched inference."""
        return self.total_us / self.batch_size

    def without_memcpy_us(self) -> float:
        """Latency with CUDA memcpy excluded (paper Table X)."""
        return self.kernel_us


#: Deterministic timeline skeleton: (upload (bytes, calls, us) or None,
#: input (bytes, us) or None, per-event (name, layer_name, base_us,
#: transfer_bytes), the base durations again as a read-only float64
#: vector).  ``transfer_bytes`` is 0 for kernel invocations and the
#: copied byte count for cross-provider transfer entries, which are
#: billed as DtoD memcpys rather than kernels.
TimelineSkeleton = Tuple[
    Optional[Tuple[int, int, float]],
    Optional[Tuple[int, float]],
    Tuple[Tuple[str, str, float, int], ...],
    np.ndarray,
]


def _timeline_skeleton(
    bindings: Sequence["LayerBinding"],
    device: DeviceSpec,
    clock_mhz: float,
    weight_chunks: Sequence[int],
    input_bytes: int,
    include_engine_upload: bool,
    sm_fraction: float,
    batch_size: int,
    mem_contention: float = 1.0,
) -> TimelineSkeleton:
    """The noise-free portion of the timeline.

    Everything here is a pure function of (engine, device, clock,
    sm_fraction, batch, contention): memcpy transfer times and
    per-kernel base durations.  Jitter, profiler overhead, and
    fault-hook factors are applied per call on top, so caching the
    skeleton cannot change any simulated byte.

    ``mem_contention`` models cross-tenant DRAM interference under
    co-location: every bandwidth-bound term (memcpy transfers and each
    kernel's Eq. 1 ``bandwidth_us``) stretches by the factor while
    compute stays untouched — which is exactly why compute-bound
    neighbors absorb co-location better than bandwidth-bound ones.
    ``1.0`` (the default, an exact float multiply by one) is
    bit-identical to the isolated timeline.
    """
    if mem_contention < 1.0:
        raise ValueError(
            f"mem_contention must be >= 1.0, got {mem_contention}"
        )
    from repro.runtime.providers import provider_cost_params

    cost_model = CostModel(device)
    memcpy = MemcpyModel(device)
    upload: Optional[Tuple[int, int, float]] = None
    if include_engine_upload and weight_chunks:
        up = memcpy.transfer(list(weight_chunks))
        upload = (up.bytes, up.calls, up.total_us * mem_contention)
    inp: Optional[Tuple[int, float]] = None
    if input_bytes:
        single = memcpy.single(
            input_bytes if batch_size == 1 else input_bytes * batch_size
        )
        inp = (single.bytes, single.total_us * mem_contention)
    kernels: List[Tuple[str, str, float, int]] = []
    for binding in bindings:
        workload = binding.workload.for_batch(batch_size)
        spec = getattr(binding, "transfer", None)
        if spec is not None:
            # Cross-provider transfer node (partitioned engines): the
            # tensor crosses a provider boundary as a DtoD memcpy,
            # billed against the Eq. 1 bandwidth model like any other
            # transfer; activation bytes scale with the micro-batch.
            xfer = memcpy.single(workload.bytes_out)
            kernels.append(
                (
                    f"[CUDA memcpy DtoD] {binding.layer_name}",
                    binding.layer_name,
                    xfer.total_us * mem_contention,
                    xfer.bytes,
                )
            )
            continue
        n_kernels = len(binding.kernels)
        params = provider_cost_params(getattr(binding, "provider", "trt"))
        for kernel in binding.kernels:
            cost = cost_model.kernel_cost(
                kernel,
                workload,
                clock_mhz,
                sm_fraction=sm_fraction,
            )
            base = invocation_us(cost, n_kernels, params, mem_contention)
            kernels.append((kernel.name, binding.layer_name, base, 0))
    bases = np.array([k[2] for k in kernels], dtype=np.float64)
    bases.setflags(write=False)
    return upload, inp, tuple(kernels), bases


def simulate_inference(
    bindings: Sequence["LayerBinding"],
    device: DeviceSpec,
    clock_mhz: float,
    weight_chunks: Sequence[int],
    input_bytes: int,
    include_engine_upload: bool = True,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 0.05,
    sm_fraction: float = 1.0,
    profiler: Optional["Nvprof"] = None,
    hardware_hook: Optional[object] = None,
    batch_size: int = 1,
    skeleton_cache: Optional[Dict[object, TimelineSkeleton]] = None,
    mem_contention: float = 1.0,
) -> InferenceTiming:
    """Simulate one inference and return its timeline.

    ``batch_size`` runs the whole engine once over a micro-batch: every
    kernel sees its layer workload scaled via
    :meth:`~repro.hardware.workload.LayerWorkload.for_batch` (linear
    activation traffic and FLOPs, amortized weights and launches), and
    the input memcpy carries ``batch_size`` images.  ``batch_size=1``
    is bit-identical to the pre-batching timeline.

    ``profiler`` (an :class:`repro.profiling.nvprof.Nvprof`) both
    records the events and *perturbs* them — profiling is not free, and
    the paper's Tables VIII vs IX quantify exactly that overhead.

    ``hardware_hook`` injects hardware-level faults: it provides
    ``memcpy_factor(label, start_us) -> float`` and
    ``kernel_factor(layer_name, kernel_name, start_us) -> float``
    multipliers on event durations (DRAM-bandwidth degradation, memcpy
    stalls, kernel hangs).  :class:`repro.faults.FaultInjector`
    implements this protocol; a factor of exactly ``1.0`` leaves the
    timeline bit-identical to the hook-free run.

    ``mem_contention`` (>= 1.0) stretches every bandwidth-bound term —
    memcpys and each kernel's Eq. 1 ``bandwidth_us`` — modeling shared
    DRAM pressure from co-located tenants (see
    :mod:`repro.serving.colocation`); ``1.0`` is bit-identical to the
    isolated run.

    ``skeleton_cache`` (an engine-owned dict, see
    :class:`repro.engine.engine.ExecutionContext`) memoizes the
    deterministic timeline skeleton per (clock, sm_fraction, batch,
    upload, contention) key.  The caller must dedicate one dict per
    fixed (bindings, device, weight_chunks, input_bytes) tuple — the
    key does not re-derive those.  Jitter, profiler overhead, and
    fault hooks are applied per call in the original order, so cached
    and uncached timelines are bit-identical draw for draw.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    timing = InferenceTiming(
        device_name=device.name, clock_mhz=clock_mhz, batch_size=batch_size
    )
    cursor = 0.0

    skeleton: Optional[TimelineSkeleton] = None
    cache_key: Optional[Tuple[float, float, int, bool, float]] = None
    if skeleton_cache is not None and caching_enabled():
        cache_key = (
            float(clock_mhz),
            float(sm_fraction),
            batch_size,
            bool(include_engine_upload),
            float(mem_contention),
        )
        skeleton = skeleton_cache.get(cache_key)
    if skeleton is None:
        skeleton = _timeline_skeleton(
            bindings,
            device,
            clock_mhz,
            weight_chunks,
            input_bytes,
            include_engine_upload,
            sm_fraction,
            batch_size,
            mem_contention,
        )
        if cache_key is not None:
            skeleton_cache[cache_key] = skeleton
    upload, inp, kernel_bases, base_vec = skeleton

    def noisy(value: float) -> float:
        if rng is None or jitter <= 0:
            return value
        return float(value * max(0.5, 1.0 + jitter * rng.standard_normal()))

    overhead = profiler.kernel_overhead_factor if profiler is not None else 1.0
    memcpy_overhead = (
        profiler.memcpy_overhead_factor if profiler is not None else 1.0
    )

    if upload is not None:
        up_bytes, up_calls, up_us = upload
        dur = noisy(up_us) * memcpy_overhead
        if hardware_hook is not None:
            dur *= hardware_hook.memcpy_factor(
                "[CUDA memcpy HtoD] engine", cursor
            )
        timing.memcpy_events.append(
            MemcpyEvent(
                label="[CUDA memcpy HtoD] engine",
                bytes=up_bytes,
                calls=up_calls,
                start_us=cursor,
                duration_us=dur,
            )
        )
        cursor += dur

    if inp is not None:
        in_bytes, in_us = inp
        dur = noisy(in_us) * memcpy_overhead
        if hardware_hook is not None:
            dur *= hardware_hook.memcpy_factor(
                "[CUDA memcpy HtoD] input", cursor
            )
        timing.memcpy_events.append(
            MemcpyEvent(
                label="[CUDA memcpy HtoD] input",
                bytes=in_bytes,
                calls=1,
                start_us=cursor,
                duration_us=dur,
            )
        )
        cursor += dur

    # One vectorized draw replaces the per-kernel scalar draws.  A
    # Generator consumes the stream identically for ``standard_normal(n)``
    # and n scalar calls, and the arithmetic below matches ``noisy``
    # op for op, so the factors (and the rng state afterwards) are
    # bit-identical to the scalar loop.
    factors: Optional[np.ndarray] = None
    if rng is not None and jitter > 0 and kernel_bases:
        factors = np.maximum(
            0.5, 1.0 + jitter * rng.standard_normal(len(kernel_bases))
        )

    if hardware_hook is None:
        # Durations and start times vectorize.  Both the elementwise
        # ``(base * factor) * overhead`` and the sequential left-to-right
        # ``cumsum`` reproduce the scalar loop's float64 operations
        # exactly, so every event is bit-identical.  Transfer entries
        # (partitioned engines) take the memcpy overhead factor and are
        # recorded as memcpy events mid-stream.
        overheads: Union[float, np.ndarray] = overhead
        if any(entry[3] for entry in kernel_bases):
            overheads = np.array(
                [
                    memcpy_overhead if entry[3] else overhead
                    for entry in kernel_bases
                ],
                dtype=np.float64,
            )
        if factors is not None:
            durs = base_vec * factors * overheads
        else:
            durs = base_vec * overheads
        cum = np.concatenate(([cursor], durs)).cumsum()
        starts = cum[:-1].tolist()
        dur_list = durs.tolist()
        for (name, layer, _, nbytes), start, dur in zip(
            kernel_bases, starts, dur_list
        ):
            if nbytes:
                timing.memcpy_events.append(
                    MemcpyEvent(
                        label=name,
                        bytes=nbytes,
                        calls=1,
                        start_us=start,
                        duration_us=dur,
                    )
                )
            else:
                timing.kernel_events.append(
                    KernelEvent(name, layer, start, dur)
                )
        cursor = float(cum[-1]) if kernel_bases else cursor
    else:
        for i, (kernel_name, layer_name, base, nbytes) in enumerate(
            kernel_bases
        ):
            if nbytes:
                if factors is not None:
                    dur = float(base * factors[i]) * memcpy_overhead
                else:
                    dur = base * memcpy_overhead
                dur *= hardware_hook.memcpy_factor(kernel_name, cursor)
                timing.memcpy_events.append(
                    MemcpyEvent(
                        label=kernel_name,
                        bytes=nbytes,
                        calls=1,
                        start_us=cursor,
                        duration_us=dur,
                    )
                )
                cursor += dur
                continue
            if factors is not None:
                dur = float(base * factors[i]) * overhead
            else:
                dur = base * overhead
            dur *= hardware_hook.kernel_factor(
                layer_name, kernel_name, cursor
            )
            timing.kernel_events.append(
                KernelEvent(
                    kernel_name=kernel_name,
                    layer_name=layer_name,
                    start_us=cursor,
                    duration_us=dur,
                )
            )
            cursor += dur

    if profiler is not None:
        profiler.record(timing)
    if BUS.active:
        # Telemetry is emission-only: the timing above is already
        # complete and no randomness was drawn, so the disabled path is
        # bit-identical by construction.
        for mev in timing.memcpy_events:
            BUS.emit(
                SpanKind.MEMCPY,
                mev.label,
                start_us=mev.start_us,
                dur_us=mev.duration_us,
                bytes=mev.bytes,
                calls=mev.calls,
            )
        for kev in timing.kernel_events:
            BUS.emit(
                SpanKind.KERNEL,
                kev.kernel_name,
                start_us=kev.start_us,
                dur_us=kev.duration_us,
                layer=kev.layer_name,
            )
        BUS.emit(
            SpanKind.INFERENCE,
            device.name,
            dur_us=timing.total_us,
            clock_mhz=clock_mhz,
            batch_size=batch_size,
            kernel_us=timing.kernel_us,
            memcpy_us=timing.memcpy_us,
            _timing=timing,
        )
    return timing
