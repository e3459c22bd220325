"""Evaluation metrics (paper Section II-E)."""

from repro.metrics.accuracy import (
    prediction_mismatches,
    top1_error,
    top1_predictions,
)
from repro.metrics.detection import DetectionScores, score_detections
from repro.metrics.performance import (
    LatencyStats,
    fps_from_latency_us,
    percentile,
)

__all__ = [
    "DetectionScores",
    "LatencyStats",
    "fps_from_latency_us",
    "percentile",
    "prediction_mismatches",
    "score_detections",
    "top1_error",
    "top1_predictions",
]
