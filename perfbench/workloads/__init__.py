"""The benchmark's workloads.

Each workload module defines ``Workload`` with:

* ``setup(seed, workdir)`` — untimed: generates every input from the
  seed and does the engine builds and plan writes the calls need;
* ``begin_pass()`` — untimed reset before each pass;
* ``calls()`` — the pass's top-level calls, in a fixed order.

A :class:`Call`'s ``fn`` is the timed part and returns
``(items, output)``; its ``check`` runs untimed on that output and
returns ``(record, failures)``: the simulated statistics that go into
the digest, and a list of failed output checks.  A pass always makes
the same calls on the same inputs, so every pass of a run must produce
the same digest.

Workload modules import the simulator at module level, so importing
one is the workload's import cost.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from typing import Any, Callable, List, NamedTuple, Tuple

import numpy as np


class Call(NamedTuple):
    label: str
    fn: Callable[[], Tuple[int, Any]]
    check: Callable[[Any], Tuple[Any, List[str]]]


def load(name: str):
    """Import a workload module (this is where its imports are paid)."""
    return importlib.import_module(f"perfbench.workloads.{name}")


def canon(obj: Any) -> Any:
    """JSON-ready form of simulated results; floats keep every digit
    (``json`` writes the shortest repr that round-trips)."""
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return {
            "dtype": obj.dtype.str,
            "shape": list(obj.shape),
            "sha256": hashlib.sha256(
                np.ascontiguousarray(obj).tobytes()
            ).hexdigest(),
        }
    if isinstance(obj, np.generic):
        return canon(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def digest(records: List[Any]) -> str:
    """sha256 over the canonical JSON of a pass's records."""
    text = json.dumps(canon(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def seeds(seed: int, count: int) -> List[int]:
    """``count`` independent 31-bit seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) % (2 ** 31) for s in state]


def all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))
