"""Timing cache: reuse tactic measurements across builds.

TensorRT's timing cache stores the measured time of every (kernel,
layer-shape) pair from one build and reuses it in later builds, which
(a) makes rebuilds much faster and (b) makes them *deterministic* —
the same cached measurements produce the same auction winners.  This is
the deployment-side mitigation for the paper's Findings 2 and 6: ship
one cache alongside the model and every rebuild binds the same kernels.

The cache is serializable so it can be committed next to a model, and
it is device-specific (timings from one board do not transfer), which
the implementation enforces.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.graph.serialization import atomic_write
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload

#: Cost of one timing-cache lookup during a build (us).  A cached
#: candidate skips its measurement runs entirely; the auction only pays
#: this hash-probe epsilon, which is what makes fully-warm rebuilds
#: orders of magnitude faster than cold ones (paper Finding 2's
#: deployment mitigation).
TIMING_CACHE_LOOKUP_US = 0.25


class TimingCacheError(ValueError):
    """A timing-cache file is unreadable, truncated, or malformed.

    Mirrors the plan-file hardening: a corrupt cache produces one typed
    diagnostic, never a raw ``json``/``KeyError`` traceback out of the
    loader.
    """

#: Cache key: kernel identity + the workload dimensions that determine
#: its runtime (GEMM shape + byte counts).
_Key = Tuple[str, int, int, int, int, int, int]


def _key_for(kernel_name: str, workload: LayerWorkload) -> _Key:
    return (
        kernel_name,
        workload.gemm_m,
        workload.gemm_n,
        workload.gemm_k,
        workload.bytes_in,
        workload.bytes_w,
        workload.bytes_out,
    )


@dataclass
class TimingCache:
    """Measured kernel timings, keyed by (kernel, workload shape)."""

    device_name: str
    entries: Dict[_Key, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    # ------------------------------------------------------------------
    def lookup(
        self, kernel_name: str, workload: LayerWorkload
    ) -> Optional[float]:
        """Cached measured time (us), or None on a miss."""
        value = self.entries.get(_key_for(kernel_name, workload))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(
        self, kernel_name: str, workload: LayerWorkload, measured_us: float
    ) -> None:
        self.entries[_key_for(kernel_name, workload)] = float(measured_us)

    def __len__(self) -> int:
        return len(self.entries)

    def check_device(self, device: DeviceSpec) -> None:
        """Caches are device-specific; refuse cross-device reuse."""
        if device.name != self.device_name:
            raise ValueError(
                f"timing cache was recorded on {self.device_name!r}; "
                f"refusing to reuse it on {device.name!r} "
                "(kernel timings do not transfer across boards)"
            )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the cache to a JSON file (shippable artifact).

        The write is **atomic** (:func:`atomic_write`): a crash
        mid-save, or two builds sharing one ``timing_cache_path``, can
        never leave a truncated or interleaved file — readers always
        see a complete generation.
        """
        doc = {
            "device": self.device_name,
            "entries": [
                {"key": list(key), "us": value}
                for key, value in sorted(self.entries.items())
            ],
        }
        with atomic_write(path, "w") as f:
            f.write(json.dumps(doc, indent=1))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TimingCache":
        """Reload a cache saved by :meth:`save`.

        Truncated, corrupt, or wrong-schema files raise
        :class:`TimingCacheError` with a diagnostic naming the file and
        the defect — never a raw pickle/JSON exception.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise TimingCacheError(
                f"timing cache {path}: unreadable ({exc})"
            ) from None
        except UnicodeDecodeError as exc:
            raise TimingCacheError(
                f"timing cache {path}: not valid JSON "
                f"(binary or corrupt file? {exc})"
            ) from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TimingCacheError(
                f"timing cache {path}: not valid JSON "
                f"(truncated or corrupt file? {exc})"
            ) from None
        if not isinstance(doc, dict):
            raise TimingCacheError(
                f"timing cache {path}: top level must be an object, "
                f"got {type(doc).__name__}"
            )
        device = doc.get("device")
        if not isinstance(device, str) or not device:
            raise TimingCacheError(
                f"timing cache {path}: missing or non-string "
                f"'device' field"
            )
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise TimingCacheError(
                f"timing cache {path}: missing or non-array "
                f"'entries' field"
            )
        cache = cls(device_name=device)
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise TimingCacheError(
                    f"timing cache {path}: entry {i} is not an object"
                )
            key = entry.get("key")
            if not isinstance(key, list) or len(key) != 7:
                raise TimingCacheError(
                    f"timing cache {path}: entry {i} key must be a "
                    f"7-element [kernel, m, n, k, bytes_in, bytes_w, "
                    f"bytes_out] array, got {key!r}"
                )
            try:
                parsed = (str(key[0]), *(int(v) for v in key[1:]))
                measured = float(entry["us"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TimingCacheError(
                    f"timing cache {path}: entry {i} is malformed "
                    f"({exc})"
                ) from None
            cache.entries[parsed] = measured
        return cache

    @classmethod
    def load_or_cold(
        cls, path: Union[str, Path], device: DeviceSpec
    ) -> "TimingCache":
        """Load a cache for ``device``, falling back to a *cold* cache.

        The builder's deployment posture: a missing, corrupt, or
        cross-device cache must never fail a rebuild — it costs a
        warning and a slower, fresh tactic auction instead.
        """
        path = Path(path)
        if not path.exists():
            return cls(device_name=device.name)
        try:
            cache = cls.load(path)
            cache.check_device(device)
            return cache
        except (TimingCacheError, ValueError) as exc:
            warnings.warn(
                f"falling back to a cold timing cache: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls(device_name=device.name)
