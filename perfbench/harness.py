"""The measurement loop: whole passes, one call at a time.

A run repeats passes over the workload's fixed inputs until it has
measured for the requested seconds *and* made ``MIN_CALLS_FOR_P90``
calls.
Each pass starts with the memo caches empty, as a fresh ``trtsim``
invocation does.  The reference loop runs just before every call (see
``metrics.REF_NOMINAL_S``); only the call itself is timed and traced,
and its output checks run afterwards.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List

from perfbench.metrics import (
    MIN_CALLS_FOR_P90,
    REF_NOMINAL_S,
    at_reference_speed,
    call_metrics,
    median,
    reference_seconds,
)
from perfbench.workloads import digest

#: Failure messages kept in the result (the count is always exact).
MAX_FAILURE_MESSAGES = 20


@dataclass
class RunResult:
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    #: Raw wall time of every call, and of the reference loop before it.
    call_seconds: List[float] = field(default_factory=list)
    ref_seconds: List[float] = field(default_factory=list)
    #: Index of each pass's first call, and the items each pass finished.
    pass_starts: List[int] = field(default_factory=list)
    pass_items: List[int] = field(default_factory=list)
    #: (label, digest of the call's simulated statistics) of pass 0.
    call_digests: List[List[str]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest([d for _, d in self.call_digests])

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{label}: {message}")

    def metrics(self) -> dict:
        """``items_per_s`` (median over passes: every pass does the same
        work) and the call percentiles, all at reference speed."""
        scaled = at_reference_speed(self.call_seconds, self.ref_seconds)
        bounds = self.pass_starts + [len(scaled)]
        out = {
            "items_per_s": median(
                items / sum(scaled[start:end])
                for items, start, end in zip(
                    self.pass_items, bounds, bounds[1:]
                )
            )
        }
        out.update(call_metrics(scaled))
        return out

    def raw_metrics(self) -> dict:
        """The same statistics from unscaled wall time."""
        out = {"items_per_s": self.items / sum(self.call_seconds)}
        out.update(call_metrics(self.call_seconds))
        return out

    @property
    def speed_factor(self) -> float:
        """Multiplier from wall time to reference time for the run."""
        return REF_NOMINAL_S / median(self.ref_seconds)


def measure(
    workload,
    seconds: float,
    clear_caches: Callable[[], None],
    tracer=None,
) -> RunResult:
    """Run whole passes of ``workload`` (see module docstring).

    Every pass must reproduce pass 0's per-call digests; a call whose
    statistics differ, that raises, or that fails an output check is
    counted as failed.
    """
    result = RunResult()
    clock = time.perf_counter
    started = clock()
    while True:
        clear_caches()
        workload.begin_pass()
        result.pass_starts.append(len(result.call_seconds))
        items_before = result.items
        for index, call in enumerate(workload.calls()):
            result.attempted += 1
            result.ref_seconds.append(reference_seconds())
            traced = (
                tracer.call(f"call.{workload.name}") if tracer
                else nullcontext()
            )
            error = None
            t0 = clock()
            try:
                with traced:
                    items, output = call.fn()
            except Exception as exc:  # a failed call is data, not a crash
                error = f"{type(exc).__name__}: {exc}"
            result.call_seconds.append(clock() - t0)
            if error is None:
                result.items += items
                try:
                    record, failures = call.check(output)
                except Exception as exc:
                    record = None
                    failures = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                record, failures = {"error": error}, [error]
            call_digest = digest([call.label, record])
            if failures:
                result.fail(call.label, "; ".join(failures))
            if result.passes == 0:
                result.call_digests.append([call.label, call_digest])
            elif result.call_digests[index] != [call.label, call_digest]:
                if not failures:
                    result.fail(
                        call.label, f"pass {result.passes} differs from pass 0"
                    )
        result.pass_items.append(result.items - items_before)
        result.passes += 1
        if (
            clock() - started >= seconds
            and len(result.call_seconds) >= MIN_CALLS_FOR_P90
        ):
            break
    return result
