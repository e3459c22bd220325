"""Analytic kernel cost model for the Volta-class edge GPUs.

A kernel's execution time is modeled as::

    launch + max(compute, bandwidth) + latency_exposure

* ``compute`` uses wave quantization: the CTA grid is split into waves
  of (SMs x blocks_per_sm) concurrent blocks; a wave takes the time of
  one full CTA tile regardless of how many of its slots are used.
  Small layers on big-tile kernels therefore waste most of each wave —
  the reason the tactic selector prefers small tiles for small layers.
* ``bandwidth`` prices total DRAM traffic at the kernel's achieved
  fraction of peak bandwidth.
* ``latency_exposure`` models dependent-load chains: each wave walks
  the reduction axis in ``prefetch_depth`` strides, paying one DRAM
  latency per stride.  This term is why a device with *more* SMs but
  *higher* memory latency (AGX vs NX) can run small kernels slower —
  the mechanism behind the paper's Finding 5 / Table XI.

All times are in microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.caching import caching_enabled, register_cache
from repro.graph.ir import DataType
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.providers import ProviderCostParams


def _per_sm_flops_per_clock(device: DeviceSpec, kernel) -> float:
    """Peak FLOPs issued per SM per clock for the kernel's math path."""
    if kernel.uses_tensor_cores:
        per_tc = 256.0 if kernel.precision is DataType.INT8 else 128.0
        return device.tensor_cores_per_sm * per_tc
    # CUDA cores: FMA = 2 FLOP/clock; packed fp16x2 doubles it.
    scale = 2.0 if kernel.precision is DataType.FP16 else 1.0
    return device.cores_per_sm * 2.0 * scale


@dataclass(frozen=True)
class KernelCost:
    """Cost breakdown of one kernel invocation (microseconds)."""

    launch_us: float
    compute_us: float
    bandwidth_us: float
    latency_us: float

    @property
    def total_us(self) -> float:
        return (
            self.launch_us
            + max(self.compute_us, self.bandwidth_us)
            + self.latency_us
        )


def invocation_us(
    cost: KernelCost,
    n_kernels: int,
    params: "ProviderCostParams",
    mem_contention: float,
) -> float:
    """Base duration of one kernel invocation of a binding.

    The one pricing of an invocation: the timeline bills it and the
    inspector reports it.  ``mem_contention`` (>= 1.0) stretches the
    bandwidth term for co-located tenants sharing DRAM.  A provider's
    ``params`` shrink the effective FLOP rate and bandwidth (divide)
    and grow the launch and latency-exposure terms (multiply); TRT's
    identity params multiply and divide by exactly 1.0, so its costs
    are the calibrated model unchanged.  A multi-kernel binding
    (detection pipeline) splits the layer's *work* across its
    ``n_kernels`` kernels; each invocation still pays its own launch
    overhead and dependent-load latency chains (a sort pass's pointer
    chasing does not shrink because other passes exist).
    """
    work = max(
        cost.compute_us / params.compute_scale,
        cost.bandwidth_us * mem_contention / params.bandwidth_scale,
    )
    if n_kernels > 1:
        work /= n_kernels
    return (
        cost.launch_us * params.launch_scale
        + work
        + cost.latency_us * params.latency_scale
    )


class CostModel:
    """Prices kernel invocations and engine uploads on one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    # ------------------------------------------------------------------
    def kernel_cost(
        self,
        kernel,
        workload: LayerWorkload,
        clock_mhz: float,
        sm_fraction: float = 1.0,
    ) -> KernelCost:
        """Cost of running ``kernel`` over ``workload`` at ``clock_mhz``.

        ``sm_fraction`` (0 < f <= 1) models SM partitioning under
        concurrent streams: the kernel sees only a fraction of the SMs.

        The breakdown is pure arithmetic over hashable inputs, so it is
        memoized by (device, kernel, workload, clock, sm_fraction) —
        every repeated timing query (DVFS ladders, batch sweeps, fleet
        devices replaying the same engine) hits the cache.  Stochastic
        measurement noise is applied by *callers* on top of this
        deterministic cost, so memoization cannot leak jitter between
        queries.
        """
        if not 0.0 < sm_fraction <= 1.0:
            raise ValueError(f"sm_fraction must be in (0, 1], got {sm_fraction}")
        if caching_enabled():
            try:
                return _kernel_cost_cached(
                    self.device, kernel, workload, clock_mhz, sm_fraction
                )
            except TypeError:
                # Unhashable kernel stand-ins (test doubles): price
                # directly without caching.
                pass
        return _compute_kernel_cost(
            self.device, kernel, workload, clock_mhz, sm_fraction
        )

    def kernel_time_us(
        self,
        kernel,
        workload: LayerWorkload,
        clock_mhz: float,
        sm_fraction: float = 1.0,
    ) -> float:
        """Convenience wrapper for :meth:`kernel_cost`'s total."""
        return self.kernel_cost(kernel, workload, clock_mhz, sm_fraction).total_us


@lru_cache(maxsize=None)
def _kernel_cost_cached(
    device: DeviceSpec,
    kernel,
    workload: LayerWorkload,
    clock_mhz: float,
    sm_fraction: float,
) -> KernelCost:
    """Memoized cost: DeviceSpec/KernelSpec/LayerWorkload are all
    frozen dataclasses, so the argument tuple is a complete key."""
    return _compute_kernel_cost(device, kernel, workload, clock_mhz, sm_fraction)


register_cache(_kernel_cost_cached.cache_clear)


def _compute_kernel_cost(
    dev: DeviceSpec,
    kernel,
    workload: LayerWorkload,
    clock_mhz: float,
    sm_fraction: float,
) -> KernelCost:
    effective_sms = max(1.0, dev.sms * sm_fraction)
    clock_hz = clock_mhz * 1e6
    # Burst-granularity mismatch: a kernel consuming only a small
    # fraction of each DRAM burst pays proportionally more latency
    # trips on a wide memory controller.  Accesses of at least a
    # half burst still coalesce across the controller's channel
    # pair; below a quarter burst the trips serialize.  This is the
    # per-kernel mechanism behind the paper's Table XI (specific
    # kernel variants slower on the AGX's 256-bit memory system).
    granularity = getattr(kernel, "access_granularity_bytes", 64)
    ratio = dev.min_burst_bytes / granularity
    burst_penalty = ratio if ratio >= 4.0 else 1.0

    if workload.gemm_k > 0:
        # GEMM-shaped work: wave-quantized tile math.
        blocks = (
            math.ceil(workload.gemm_m / kernel.tile_m)
            * math.ceil(workload.gemm_n / kernel.tile_n)
            * kernel.split_k
        )
        concurrent = max(1, int(effective_sms) * kernel.blocks_per_sm)
        waves = math.ceil(blocks / concurrent)
        flops_per_block = (
            2.0 * kernel.tile_m * kernel.tile_n
            * workload.gemm_k / kernel.split_k
        )
        per_block_rate = (
            _per_sm_flops_per_clock(dev, kernel)
            * clock_hz / kernel.blocks_per_sm
        )
        compute_us = waves * flops_per_block / per_block_rate * 1e6
        strides = math.ceil(
            workload.gemm_k / kernel.split_k / kernel.prefetch_depth
        )
        latency_us = (
            waves * strides * dev.dram_latency_ns * burst_penalty / 1e3
        )
    else:
        # Pointwise-ish work: throughput-limited element math.
        rate = (
            _per_sm_flops_per_clock(dev, kernel)
            * effective_sms * clock_hz
        )
        compute_us = workload.flops / rate * 1e6
        latency_us = 4.0 * dev.dram_latency_ns * burst_penalty / 1e3

    bw_gbps = dev.mem_bandwidth_gbps * kernel.bw_eff * sm_fraction
    bandwidth_us = workload.total_bytes / (bw_gbps * 1e3)

    return KernelCost(
        launch_us=dev.kernel_launch_overhead_us,
        compute_us=compute_us,
        bandwidth_us=bandwidth_us,
        latency_us=latency_us,
    )
