"""Bus sinks: observers rendered from the unified event stream.

Every observability surface the repo grew by hand — chrome-trace
timelines, nvprof summaries, tegrastats logs, fault tracks — is now a
*sink* on the telemetry bus: it consumes the same ordered stream of
:class:`~repro.telemetry.bus.TelemetryEvent` spans, so the totals every
surface reports (kernel time, request counts, fault counts) agree by
construction.

This module holds the sinks that live on the bus itself:

* :class:`ChromeTrace` — the Trace Event Format renderer, now with
  request, batch, and fault tracks next to the kernel/memcpy rows;
* :class:`PrometheusSink` — text exposition of the bus's metrics
  registry;
* :class:`JsonlSink` — one JSON object per event, the raw export the
  CI pipeline archives.

:class:`~repro.profiling.nvprof.Nvprof` and
:class:`~repro.profiling.tegrastats.Tegrastats` implement the same
:class:`Profiler` protocol in their own modules.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from repro.telemetry.bus import SpanKind, TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.events import FaultEvent, FaultLog
    from repro.hardware.gpu import InferenceTiming
    from repro.telemetry.bus import TelemetryBus

try:  # Protocol is 3.8+; keep a plain-class fallback for safety.
    from typing import Protocol, runtime_checkable

    @runtime_checkable
    class Profiler(Protocol):
        """What :func:`repro.telemetry.session` attaches: any object
        consuming bus events.  ``attach(bus)``/``detach(bus)`` are
        optional lifecycle hooks."""

        def on_event(self, event: TelemetryEvent) -> None: ...

except ImportError:  # pragma: no cover - ancient interpreters only
    class Profiler:  # type: ignore[no-redef]
        def on_event(self, event):
            raise NotImplementedError


#: Trace Event Format process/thread ids for the activity tracks.
_PID = 1
_TID_MEMCPY = 1
_TID_KERNELS = 2
_TID_FAULTS = 3
_TID_REQUESTS = 4
_TID_BATCHES = 5


class ChromeTrace:
    """Chrome-trace sink: renders the event stream as a
    ``chrome://tracing`` / Perfetto document.

    Successive inference timelines are laid out back-to-back on the
    time axis; faults, requests, and micro-batches land on their own
    tracks so injected faults and queueing decisions line up visually
    with the kernels they perturbed.  Feed it from a telemetry session
    or directly with :meth:`add_timing` / :meth:`add_fault_log`.
    """

    def __init__(self) -> None:
        self._timings: List["InferenceTiming"] = []
        self._faults: List["FaultEvent"] = []
        self._requests: List[dict] = []
        self._batches: List[dict] = []

    # ------------------------------------------------------------------
    # direct feeding (the non-bus path)
    # ------------------------------------------------------------------
    def add_timing(self, timing: "InferenceTiming") -> None:
        self._timings.append(timing)

    def add_timings(self, timings: Iterable["InferenceTiming"]) -> None:
        for timing in timings:
            self.add_timing(timing)

    def add_fault(self, fault: "FaultEvent") -> None:
        self._faults.append(fault)

    def add_fault_log(self, fault_log: Optional["FaultLog"]) -> None:
        if fault_log is None:
            return
        for fault in fault_log:
            self.add_fault(fault)

    # ------------------------------------------------------------------
    # Profiler protocol
    # ------------------------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        if event.kind is SpanKind.INFERENCE:
            timing = event.attrs.get("_timing")
            if timing is not None:
                self.add_timing(timing)
        elif event.kind is SpanKind.FAULT:
            fault = event.attrs.get("_fault")
            if fault is not None:
                self.add_fault(fault)
        elif event.kind is SpanKind.REQUEST:
            self._requests.append(
                {
                    "name": f"{event.name}#{event.attrs.get('frame', 0)}",
                    "t_s": event.t_s,
                    "latency_ms": float(
                        event.attrs.get("latency_ms", 0.0)
                    ),
                    "args": {
                        k: v for k, v in event.attrs.items()
                        if not k.startswith("_")
                    },
                }
            )
        elif event.kind is SpanKind.BATCH:
            self._batches.append(
                {
                    "name": f"batch x{event.attrs.get('size', 1)}",
                    "t_s": event.t_s,
                    "args": {
                        k: v for k, v in event.attrs.items()
                        if not k.startswith("_")
                    },
                }
            )

    # ------------------------------------------------------------------
    def to_document(self) -> dict:
        """Build the Trace Event Format document."""
        timings = self._timings
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": _PID,
                "args": {"name": "trtsim GPU"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _TID_MEMCPY,
                "args": {"name": "memcpy (HtoD)"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _TID_KERNELS,
                "args": {"name": "kernels"},
            },
        ]
        offset_us = 0.0
        for run_index, timing in enumerate(timings):
            # Batched runs annotate every event with the micro-batch
            # size (batch-1 traces stay byte-identical to pre-batching
            # output).
            batch = getattr(timing, "batch_size", 1)
            for event in timing.memcpy_events:
                args: dict = {
                    "bytes": event.bytes,
                    "calls": event.calls,
                    "run": run_index,
                }
                if batch != 1:
                    args["batch"] = batch
                events.append(
                    {
                        "name": event.label,
                        "cat": "memcpy",
                        "ph": "X",
                        "pid": _PID,
                        "tid": _TID_MEMCPY,
                        "ts": offset_us + event.start_us,
                        "dur": event.duration_us,
                        "args": args,
                    }
                )
            for event in timing.kernel_events:
                args = {
                    "layer": event.layer_name,
                    "run": run_index,
                }
                if batch != 1:
                    args["batch"] = batch
                events.append(
                    {
                        "name": event.kernel_name,
                        "cat": "kernel",
                        "ph": "X",
                        "pid": _PID,
                        "tid": _TID_KERNELS,
                        "ts": offset_us + event.start_us,
                        "dur": event.duration_us,
                        "args": args,
                    }
                )
            offset_us += timing.total_us
        if self._faults:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": _TID_FAULTS,
                    "args": {"name": "faults"},
                }
            )
        for fault in self._faults:
            events.append(
                {
                    "name": fault.kind.value,
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID,
                    "tid": _TID_FAULTS,
                    "ts": fault.time_s * 1e6,
                    "args": fault.to_dict(),
                }
            )
        if self._requests:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": _TID_REQUESTS,
                    "args": {"name": "requests"},
                }
            )
        for request in self._requests:
            events.append(
                {
                    "name": request["name"],
                    "cat": "request",
                    "ph": "X",
                    "pid": _PID,
                    "tid": _TID_REQUESTS,
                    "ts": request["t_s"] * 1e6,
                    "dur": request["latency_ms"] * 1e3,
                    "args": request["args"],
                }
            )
        if self._batches:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": _TID_BATCHES,
                    "args": {"name": "micro-batches"},
                }
            )
        for batch_event in self._batches:
            events.append(
                {
                    "name": batch_event["name"],
                    "cat": "batch",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _TID_BATCHES,
                    "ts": batch_event["t_s"] * 1e6,
                    "args": batch_event["args"],
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "device": timings[0].device_name if timings else "",
                "clock_mhz": timings[0].clock_mhz if timings else 0.0,
            },
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write a ``.json`` trace loadable in chrome://tracing."""
        Path(path).write_text(json.dumps(self.to_document()))


class PrometheusSink:
    """Exposes the bus's metrics registry as Prometheus text.

    The sink consumes no events itself — the bus folds every span into
    the registry — it simply pins the registry reference at attach time
    so :meth:`expose` keeps working after the session closes.
    """

    def __init__(self) -> None:
        self._registry = None

    def attach(self, bus: "TelemetryBus") -> None:
        self._registry = bus.metrics

    def on_event(self, event: TelemetryEvent) -> None:
        pass

    def expose(self) -> str:
        """The text exposition (empty before attach)."""
        if self._registry is None:
            return ""
        return self._registry.prometheus()


class JsonlSink:
    """JSONL export: one JSON object per event, in stream order.

    ``path=None`` keeps the lines in memory (read them via
    :attr:`lines` / :meth:`dump`); with a path, :meth:`save` — called
    automatically at session detach — writes the file.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self.lines: List[str] = []

    def on_event(self, event: TelemetryEvent) -> None:
        self.lines.append(json.dumps(event.to_dict()))

    def dump(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("JsonlSink has no path to save to")
        target.write_text(self.dump())
        return target

    def detach(self, bus: "TelemetryBus") -> None:
        if self.path is not None:
            self.save()

    def __len__(self) -> int:
        return len(self.lines)

    def events(self) -> List[dict]:
        """Parse the captured lines back into dicts."""
        return [json.loads(line) for line in self.lines]


def iter_prometheus_lines(text: str) -> List[tuple]:
    """Parse a Prometheus exposition line-by-line into
    ``(name, labels_dict, value)`` tuples; comment lines are skipped.
    Raises ``ValueError`` on a malformed line — the format tests lean
    on this."""
    import re

    pattern = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
    )
    out = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = pattern.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = {}
        if match.group("labels"):
            for part in match.group("labels").split(","):
                key, _, raw = part.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    raise ValueError(
                        f"malformed label in line: {line!r}"
                    )
                labels[key] = raw[1:-1]
        out.append((match.group("name"), labels, float(match.group("value"))))
    return out
