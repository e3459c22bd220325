"""Tests for the engine inspector and the Chrome-trace exporter."""

import json

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.inspector import inspect_engine, inspect_engine_json
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.models import list_models
from repro.telemetry import ChromeTrace


@pytest.fixture(scope="module")
def engine():
    from tests.conftest import make_small_cnn

    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=19)).build(
        make_small_cnn()
    )


class TestInspector:
    def test_covers_all_bindings(self, engine):
        report = inspect_engine(engine)
        assert report["num_layers"] == len(engine.bindings)
        assert {e["layer"] for e in report["layers"]} == {
            b.layer_name for b in engine.bindings
        }

    def test_kernel_entries_have_cost_breakdown(self, engine):
        report = inspect_engine(engine)
        for entry in report["layers"]:
            for kernel in entry["kernels"]:
                breakdown = kernel["breakdown_us"]
                assert set(breakdown) == {
                    "launch", "compute", "bandwidth", "latency"
                }
                assert kernel["predicted_us"] > 0

    def test_auction_metadata_present(self, engine):
        report = inspect_engine(engine)
        auctioned = [e for e in report["layers"] if "auction" in e]
        assert auctioned
        for entry in auctioned:
            assert entry["auction"]["candidates_timed"] >= 1
            assert entry["weight_bytes_stored"] >= 0

    def test_cross_device_inspection(self, engine):
        nx = inspect_engine(engine, XAVIER_NX, clock_mhz=599.0)
        agx = inspect_engine(engine, XAVIER_AGX, clock_mhz=624.75)
        assert nx["inspected_on"] == "Xavier NX"
        assert agx["inspected_on"] == "Xavier AGX"
        assert nx["predicted_kernel_us"] != agx["predicted_kernel_us"]

    def test_json_serializable(self, engine):
        doc = json.loads(inspect_engine_json(engine))
        assert doc["engine"] == engine.name

    def test_predicted_total_matches_sum(self, engine):
        report = inspect_engine(engine)
        summed = sum(
            k["predicted_us"]
            for e in report["layers"]
            for k in e["kernels"]
        )
        assert report["predicted_kernel_us"] == pytest.approx(
            summed, abs=0.1
        )


def _trace(*timings):
    trace = ChromeTrace()
    trace.add_timings(timings)
    return trace


def _int8_auto_engine():
    from tests.conftest import make_small_cnn

    net = make_small_cnn()
    spec = next(iter(net.input_specs.values()))
    calibration = np.random.default_rng(0).normal(
        size=(4, *spec.shape)
    ).astype(np.float32)
    config = BuilderConfig(
        seed=0,
        precision=PrecisionMode.INT8,
        provider="auto",
        calibration_batch=calibration,
    )
    return EngineBuilder(XAVIER_NX, config).build(net)


class TestInspectorMatchesTimeline:
    """Regression: the inspector priced kernels with its own copy of
    the invocation cost and skipped the multi-kernel work split, so it
    overstated the noiseless timeline for detection-style bindings."""

    @staticmethod
    def _assert_matches(engine):
        timing = engine.create_execution_context().time_inference(
            jitter=0.0
        )
        assert inspect_engine(engine)["predicted_kernel_us"] == round(
            timing.kernel_us, 3
        )

    @pytest.mark.parametrize("model", list_models())
    def test_zoo_model_on_nx(self, farm, model):
        self._assert_matches(farm.pinned_engine(model, "NX"))

    def test_cuda_provider_engine(self, farm):
        self._assert_matches(farm.engine("pednet", "NX", provider="cuda"))

    def test_int8_auto_partitioned_engine(self):
        self._assert_matches(_int8_auto_engine())


class TestChromeTrace:
    def _timing(self, engine):
        return engine.create_execution_context().time_inference(jitter=0.0)

    def test_single_timing_events(self, engine):
        timing = self._timing(engine)
        doc = _trace(timing).to_document()
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(xs) == len(timing.kernel_events) + len(
            timing.memcpy_events
        )
        assert doc["otherData"]["device"] == "Xavier NX"

    def test_tracks_separated(self, engine):
        doc = _trace(self._timing(engine)).to_document()
        kernel_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e.get("cat") == "kernel"
        }
        memcpy_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e.get("cat") == "memcpy"
        }
        assert kernel_tids and memcpy_tids
        assert kernel_tids.isdisjoint(memcpy_tids)

    def test_multiple_runs_offset(self, engine):
        a = self._timing(engine)
        b = self._timing(engine)
        doc = _trace(a, b).to_document()
        run1 = [
            e
            for e in doc["traceEvents"]
            if e.get("args", {}).get("run") == 1
        ]
        assert run1
        assert min(e["ts"] for e in run1) >= a.total_us

    def test_events_are_chronological_within_run(self, engine):
        doc = _trace(self._timing(engine)).to_document()
        kernel_ts = [
            e["ts"]
            for e in doc["traceEvents"]
            if e.get("cat") == "kernel"
        ]
        assert kernel_ts == sorted(kernel_ts)

    def test_save(self, engine, tmp_path):
        path = tmp_path / "trace.json"
        _trace(self._timing(engine)).save(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
