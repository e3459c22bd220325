"""Graph partitioner: per-op provider assignment, transfer insertion,
PartitionedEngine surface, and plan round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.plan import load_plan, save_plan
from repro.graph.ir import DataType
from repro.graph.partition import (
    PartitionedEngine,
    partition_graph,
    transfer_binding,
)
from repro.hardware.specs import XAVIER_NX
from repro.runtime.providers import ProviderError, TransferSpec

from tests.conftest import make_small_cnn


def _calibration(graph, n=4, seed=0):
    spec = next(iter(graph.input_specs.values()))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, *spec.shape)).astype(np.float32)


def _build(provider, precision=PrecisionMode.FP32, calibrate=False,
           seed=0):
    net = make_small_cnn()
    config = BuilderConfig(
        seed=seed,
        precision=precision,
        provider=provider,
        calibration_batch=_calibration(net) if calibrate else None,
    )
    return EngineBuilder(XAVIER_NX, config).build(net)


class TestSingleProvider:
    def test_trt_stays_on_classic_path(self):
        engine = _build("trt")
        assert not isinstance(engine, PartitionedEngine)
        assert all(b.provider == "trt" for b in engine.bindings)

    def test_trt_instance_builds_the_classic_engine(self):
        """Regression: a ``TrtProvider()`` instance (same store key as
        ``"trt"``) once built an unfused per-op engine."""
        from repro.runtime.providers import TrtProvider

        engine = _build(TrtProvider())
        classic = _build("trt")
        assert not isinstance(engine, PartitionedEngine)
        assert engine.name == classic.name
        assert [b.kernels for b in engine.bindings] == [
            b.kernels for b in classic.bindings
        ]

    def test_cuda_build_is_partitioned_per_op(self):
        engine = _build("cuda")
        assert isinstance(engine, PartitionedEngine)
        assert engine.providers_used == ("cuda",)
        # no fusion: one binding per live layer, zero transfers
        assert engine.transfer_bindings() == []
        assert all(b.tactic is None for b in engine.bindings)
        assert "+cuda#" in engine.name

    def test_cuda_skips_tactic_auctions(self):
        # per-op providers never time candidates: build time is free of
        # auction charges, unlike the TRT path
        trt = _build("trt")
        cuda = _build("cuda")
        assert cuda.build_time_us < trt.build_time_us

    def test_cpu_always_supports_int8_graph(self):
        engine = _build("cpu", PrecisionMode.INT8, calibrate=True)
        assert isinstance(engine, PartitionedEngine)
        assert engine.providers_used == ("cpu",)
        # CPU executes dequantized: every bound kernel is fp32
        for b in engine.bindings:
            for k in b.kernels:
                assert k.precision is DataType.FP32


class TestMixedPartition:
    def test_int8_falls_back_to_trt(self):
        engine = _build("cuda,trt", PrecisionMode.INT8, calibrate=True)
        assert isinstance(engine, PartitionedEngine)
        assert set(engine.providers_used) == {"cuda", "trt"}
        for b in engine.bindings:
            if b.transfer is not None:
                continue
            if any(k.precision is DataType.INT8 for k in b.kernels):
                assert b.provider == "trt", b.layer_name

    def test_transfers_present_and_billed(self):
        engine = _build("cuda,trt", PrecisionMode.INT8, calibrate=True)
        transfers = engine.transfer_bindings()
        assert transfers
        for b in transfers:
            assert b.transfer.bytes > 0
            assert b.workload.bytes_out == b.transfer.bytes
            assert b.transfer.src_provider != b.transfer.dst_provider
        assert engine.transfer_bytes() == sum(
            b.transfer.bytes for b in transfers
        )

    def test_transfers_appear_in_timeline_as_memcpy(self):
        engine = _build("cuda,trt", PrecisionMode.INT8, calibrate=True)
        timing = engine.create_execution_context().time_inference(
            jitter=0.0
        )
        labels = [
            e.label for e in timing.memcpy_events
            if "memcpy DtoD" in e.label
        ]
        assert len(labels) == len(engine.transfer_bindings())

    def test_unsupported_layer_without_fallback_raises(self):
        with pytest.raises(ProviderError, match="supports"):
            _build("cuda", PrecisionMode.INT8, calibrate=True)


class TestPartitionGraphUnit:
    def test_assignment_is_priority_ordered(self):
        from repro.graph.shapes import infer_shapes
        from repro.runtime.providers import resolve_providers

        net = make_small_cnn()
        providers = resolve_providers("trt,cuda")
        menus = {
            layer.name: (DataType.FP32,) for layer in net.layers
        }
        from repro.hardware.workload import layer_workload

        shapes = infer_shapes(net)
        categories = {
            layer.name: layer_workload(
                layer, shapes, DataType.FP32
            ).category
            for layer in net.layers
        }
        plan = partition_graph(
            net, providers, menus, categories, shapes, DataType.FP32,
        )
        # everyone supports fp32 and trt has top priority
        assert set(plan.assignments.values()) == {"trt"}
        assert plan.transfers == ()

    def test_transfer_binding_shape(self):
        spec = TransferSpec(
            tensor="t", src_layer="a", dst_layer="b",
            src_provider="trt", dst_provider="cuda",
            bytes=1024, elements=256,
        )
        binding = transfer_binding(spec)
        assert binding.layer_name == spec.label
        assert binding.provider == "cuda"
        assert binding.workload.flops == 0.0
        assert binding.workload.bytes_out == 1024


class TestPlanRoundTrip:
    def test_partitioned_plan_roundtrip(self, tmp_path):
        engine = _build("cuda,trt", PrecisionMode.INT8, calibrate=True)
        path = tmp_path / "mixed.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert isinstance(loaded, PartitionedEngine)
        assert loaded.partition.assignments == (
            engine.partition.assignments
        )
        assert [b.layer_name for b in loaded.bindings] == [
            b.layer_name for b in engine.bindings
        ]
        assert [b.provider for b in loaded.bindings] == [
            b.provider for b in engine.bindings
        ]
        t0 = engine.create_execution_context().time_inference(jitter=0)
        t1 = loaded.create_execution_context().time_inference(jitter=0)
        assert t0.total_ms == t1.total_ms

    def test_single_provider_plan_roundtrip(self, tmp_path):
        engine = _build("cpu")
        path = tmp_path / "cpu.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert isinstance(loaded, PartitionedEngine)
        assert [k.name for b in loaded.bindings for k in b.kernels] == [
            k.name for b in engine.bindings for k in b.kernels
        ]
