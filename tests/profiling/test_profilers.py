"""Tests for the nvprof and tegrastats models."""

import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.hardware.specs import XAVIER_NX
from repro.profiling.nvprof import KernelStats, Nvprof
from repro.profiling.tegrastats import Tegrastats, TegrastatsSample


@pytest.fixture(scope="module")
def profiled_engine():
    from tests.conftest import make_small_cnn

    engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=17)).build(
        make_small_cnn()
    )
    profiler = Nvprof()
    ctx = engine.create_execution_context()
    for _ in range(3):
        ctx.time_inference(jitter=0.0, profiler=profiler)
    return engine, profiler


class TestNvprof:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown nvprof mode"):
            Nvprof(mode="kernels")

    def test_records_every_inference(self, profiled_engine):
        _engine, profiler = profiled_engine
        assert profiler.num_inferences == 3

    def test_kernel_summary_counts(self, profiled_engine):
        engine, profiler = profiled_engine
        summary = profiler.kernel_summary()
        total_calls = sum(s.calls for s in summary.values())
        assert total_calls == 3 * engine.num_kernels

    def test_invocation_counts_match_summary(self, profiled_engine):
        _engine, profiler = profiled_engine
        counts = profiler.invocation_counts()
        summary = profiler.kernel_summary()
        assert counts == {k: s.calls for k, s in summary.items()}

    def test_invocation_durations(self, profiled_engine):
        engine, profiler = profiled_engine
        name = engine.bindings[0].kernels[0].name
        durations = profiler.invocation_durations(name)
        assert len(durations) >= 3
        assert all(d > 0 for d in durations)

    def test_memcpy_summary(self, profiled_engine):
        _engine, profiler = profiled_engine
        memcpy = profiler.memcpy_summary()
        assert any("engine" in label for label in memcpy)

    def test_gpu_trace_sorted(self, profiled_engine):
        _engine, profiler = profiled_engine
        trace = profiler.gpu_trace()
        starts = [row[0] for row in trace]
        assert starts == sorted(starts)

    def test_summary_report_renders(self, profiled_engine):
        _engine, profiler = profiled_engine
        text = profiler.report()
        assert "Calls" in text
        assert "CUDA memcpy" in text or "memcpy" in text

    def test_trace_report_renders(self, profiled_engine):
        engine, _ = profiled_engine
        profiler = Nvprof(mode="gpu-trace")
        engine.create_execution_context().time_inference(
            jitter=0.0, profiler=profiler
        )
        text = profiler.report()
        assert "Start(us)" in text

    def test_reset(self, profiled_engine):
        engine, _ = profiled_engine
        profiler = Nvprof()
        engine.create_execution_context().time_inference(
            jitter=0.0, profiler=profiler
        )
        profiler.reset()
        assert profiler.num_inferences == 0
        assert profiler.kernel_summary() == {}

    def test_kernel_stats_accumulation(self):
        stats = KernelStats("k")
        stats.add(2.0)
        stats.add(4.0)
        assert stats.calls == 2
        assert stats.avg_us == pytest.approx(3.0)
        assert stats.min_us == 2.0
        assert stats.max_us == 4.0


class TestTegrastats:
    def test_interval_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Tegrastats(interval_ms=0)

    def test_sample_rendering(self):
        sample = TegrastatsSample(
            timestamp_s=1.0, ram_used_mb=4722, ram_total_mb=8192,
            gpu_util_pct=82.0, gpu_freq_mhz=1109.0, cpu_util_pct=40.0,
        )
        line = sample.render()
        assert "RAM 4722/8192MB" in line
        assert "GR3D_FREQ 82%@1109" in line

    def test_aggregates(self):
        stats = Tegrastats()
        for util, ram in ((50.0, 2000), (70.0, 3000)):
            stats.record(
                TegrastatsSample(0.0, ram, 8192, util, 1100.0)
            )
        assert stats.mean_gpu_util() == pytest.approx(60.0)
        assert stats.peak_ram_mb() == 3000
        assert len(stats.log().splitlines()) == 2

    def test_empty_aggregates(self):
        stats = Tegrastats()
        assert stats.mean_gpu_util() == 0.0
        assert stats.peak_ram_mb() == 0


class TestProfilingNamespace:
    def test_profiling_namespace(self):
        from repro.profiling import (  # noqa: F401
            ChromeTrace,
            KernelStats,
            Nvprof,
            Tegrastats,
            TegrastatsSample,
        )
