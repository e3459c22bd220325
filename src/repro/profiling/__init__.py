"""Profiling tools mirroring the paper's measurement setup (Sec. II-C).

* :class:`~repro.profiling.nvprof.Nvprof` — CUDA activity profiler with
  summary and GPU-trace modes.  Attaching it perturbs timings (compare
  the paper's Table VIII, measured under nvprof, with Table IX,
  measured without).
* :class:`~repro.profiling.tegrastats.Tegrastats` — the Jetson
  board-level sampler for RAM usage and GPU utilization.
* :class:`~repro.telemetry.sinks.ChromeTrace` — the trace-event-format
  renderer (re-exported; it lives on the telemetry bus).

All three implement the :class:`repro.telemetry.Profiler` protocol:
attach any of them to a run with ``repro.telemetry.session(...)``, or
feed a :class:`ChromeTrace` directly with ``add_timing`` /
``add_fault_log`` and render it with ``to_document()`` or ``save()``.
"""

from repro.profiling.nvprof import KernelStats, Nvprof
from repro.profiling.tegrastats import Tegrastats, TegrastatsSample
from repro.telemetry.sinks import ChromeTrace

__all__ = [
    "ChromeTrace",
    "KernelStats",
    "Nvprof",
    "Tegrastats",
    "TegrastatsSample",
]
