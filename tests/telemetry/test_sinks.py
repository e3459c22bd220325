"""Sink behavior: ChromeTrace output, double-record guards on
Nvprof/Tegrastats, JSONL and Prometheus exports."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.engine import BuilderConfig, EngineBuilder
from repro.hardware.specs import XAVIER_NX
from repro.profiling import Nvprof, Tegrastats
from repro.profiling.tegrastats import TegrastatsSample
from repro.telemetry import (
    BUS,
    ChromeTrace,
    JsonlSink,
    Profiler,
    PrometheusSink,
    SpanKind,
)


@pytest.fixture(scope="module")
def engine():
    from tests.conftest import make_small_cnn

    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=19)).build(
        make_small_cnn()
    )


@pytest.fixture()
def timing(engine):
    return engine.create_execution_context().time_inference(jitter=0.0)


class TestProfilerProtocol:
    def test_all_builtin_sinks_implement_it(self):
        for sink in (ChromeTrace(), Nvprof(), Tegrastats(),
                     PrometheusSink(), JsonlSink()):
            assert isinstance(sink, Profiler)

    def test_non_sinks_do_not(self):
        assert not isinstance(object(), Profiler)


class TestChromeTraceLegacyEquivalence:
    def test_timing_only_trace_has_no_extra_tracks(self, timing):
        trace = ChromeTrace()
        trace.add_timing(timing)
        doc = trace.to_document()
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"memcpy (HtoD)", "kernels"}

    def test_bus_fed_trace_matches_direct_feed(self, timing):
        direct = ChromeTrace()
        direct.add_timing(timing)
        via_bus = ChromeTrace()
        with telemetry.session(via_bus):
            BUS.emit(
                SpanKind.INFERENCE, "run",
                dur_us=timing.total_us, _timing=timing,
            )
        assert json.dumps(direct.to_document()) == json.dumps(
            via_bus.to_document()
        )

    def test_request_and_batch_tracks_render(self):
        trace = ChromeTrace()
        with telemetry.session(trace):
            BUS.set_time(0.1)
            BUS.emit(
                SpanKind.REQUEST, "cam0",
                stream="cam0", frame=0, latency_ms=5.0, ok=True,
            )
            BUS.emit(SpanKind.BATCH, "coalesce", size=3)
        doc = trace.to_document()
        requests = [
            e for e in doc["traceEvents"] if e.get("cat") == "request"
        ]
        batches = [
            e for e in doc["traceEvents"] if e.get("cat") == "batch"
        ]
        assert requests[0]["name"] == "cam0#0"
        assert requests[0]["ts"] == pytest.approx(0.1 * 1e6)
        assert requests[0]["dur"] == pytest.approx(5.0 * 1e3)
        assert batches[0]["name"] == "batch x3"


class TestDoubleRecordGuards:
    def test_nvprof_not_double_counted(self, engine):
        """One instance used as per-call profiler AND bus sink sees
        each inference once."""
        nvprof = Nvprof()
        with telemetry.session(nvprof):
            engine.create_execution_context().time_inference(
                jitter=0.0, profiler=nvprof
            )
        assert nvprof.num_inferences == 1

    def test_nvprof_collects_via_bus_alone(self, engine):
        nvprof = Nvprof()
        with telemetry.session(nvprof):
            engine.create_execution_context().time_inference(jitter=0.0)
        assert nvprof.num_inferences == 1

    def test_tegrastats_not_double_counted(self):
        stats = Tegrastats()
        sample = TegrastatsSample(
            timestamp_s=0.0, ram_used_mb=1000, ram_total_mb=8000,
            gpu_util_pct=50.0, gpu_freq_mhz=599.0,
        )
        with telemetry.session(stats):
            stats.record(sample)
            BUS.emit(
                SpanKind.SAMPLE, "tegrastats",
                ram_used_mb=1000, gpu_util_pct=50.0, _sample=sample,
            )
        assert len(stats.samples) == 1


class TestJsonlSink:
    def test_roundtrip_in_memory(self):
        sink = JsonlSink()
        with telemetry.session(sink):
            BUS.emit(SpanKind.KERNEL, "k0", dur_us=2.0, layer="conv1")
            BUS.emit(SpanKind.MEMCPY, "m0", dur_us=1.0, bytes=64)
        events = sink.events()
        assert len(sink) == 2
        assert events[0]["kind"] == "exec.kernel"
        assert events[0]["attrs"]["layer"] == "conv1"
        assert events[1]["seq"] == 2

    def test_auto_save_on_session_exit(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with telemetry.session(JsonlSink(path)):
            BUS.emit(SpanKind.KERNEL, "k0", dur_us=2.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "k0"

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            JsonlSink().save()


class TestPrometheusSink:
    def test_empty_before_attach(self):
        assert PrometheusSink().expose() == ""

    def test_exposes_session_registry_after_close(self):
        sink = PrometheusSink()
        with telemetry.session(sink):
            BUS.emit(SpanKind.INFERENCE, "run", dur_us=1000.0)
        text = sink.expose()
        assert "trtsim_inferences_total 1" in text
