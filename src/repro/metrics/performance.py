"""Performance metrics: FPS and latency statistics (paper II-E).

FPS counts inference work only — "excluding the time to load the image
from the disk or camera to the main memory" — and latency statistics
follow the paper's convention of mean (std) over 10 runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``samples`` (0.0 when empty).

    The repo's one quantile convention: linear interpolation between
    the closest ranks (numpy's default).  Every reported p50/p95/p99
    goes through here, so two views of one run cannot disagree.
    """
    if not len(samples):
        return 0.0
    return float(np.percentile(samples, pct))


def fps_from_latency_us(latency_us: float) -> float:
    """Frames per second implied by a per-frame latency."""
    if latency_us <= 0:
        raise ValueError(f"latency must be positive, got {latency_us}")
    return 1e6 / latency_us


@dataclass(frozen=True)
class LatencyStats:
    """Mean/std/min/max of a latency sample set, in milliseconds."""

    mean_ms: float
    std_ms: float
    min_ms: float
    max_ms: float
    runs: int

    @classmethod
    def from_us_samples(cls, samples_us: Sequence[float]) -> "LatencyStats":
        if not len(samples_us):
            raise ValueError("no latency samples")
        arr = np.asarray(samples_us, dtype=np.float64) / 1e3
        # Sample std (ddof=1): the paper's "mean (std) over 10 runs"
        # estimates spread from the runs themselves; a single run has
        # no spread estimate and reports 0.
        return cls(
            mean_ms=float(arr.mean()),
            std_ms=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            min_ms=float(arr.min()),
            max_ms=float(arr.max()),
            runs=len(arr),
        )

    @property
    def fps(self) -> float:
        if self.mean_ms <= 0:
            return 0.0
        return 1e3 / self.mean_ms

    def __str__(self) -> str:
        """The paper's 'mean(std)' cell format."""
        return f"{self.mean_ms:.2f}({self.std_ms:.2f})"
