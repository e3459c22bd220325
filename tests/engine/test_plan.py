"""Tests for engine plan serialization (repro.engine.plan)."""

import io
import zipfile

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.plan import load_plan, read_plan, save_plan
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.lint import lint_plan


@pytest.fixture()
def engine(small_cnn):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=21)).build(small_cnn)


class TestPlanRoundtrip:
    def test_metadata_preserved(self, engine, tmp_path):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert loaded.name == engine.name
        assert loaded.device is XAVIER_NX
        assert loaded.size_bytes == engine.size_bytes
        assert loaded.build_seed == engine.build_seed
        assert loaded.precision_mode == engine.precision_mode
        assert loaded.weight_chunks == engine.weight_chunks

    def test_kernel_bindings_preserved(self, engine, tmp_path):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert loaded.kernel_names() == engine.kernel_names()

    def test_numeric_equivalence(self, engine, tmp_path, images16):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        a = engine.create_execution_context().execute(
            data=images16
        ).primary()
        b = loaded.create_execution_context().execute(
            data=images16
        ).primary()
        np.testing.assert_array_equal(a, b)

    def test_timing_equivalence(self, engine, tmp_path):
        """The deployed plan must take the same simulated time as the
        freshly built engine — same kernels, same workloads."""
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        a = engine.create_execution_context().time_inference(jitter=0.0)
        b = loaded.create_execution_context().time_inference(jitter=0.0)
        assert a.total_us == pytest.approx(b.total_us, rel=1e-9)

    def test_cross_platform_deployment(self, engine, tmp_path):
        """The paper's case 2: an NX-built plan file executed on AGX."""
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        ctx = loaded.create_execution_context(run_device=XAVIER_AGX)
        timing = ctx.time_inference(jitter=0.0)
        assert timing.device_name == "Xavier AGX"

    def test_bad_version_rejected(self, engine, tmp_path):
        import json

        path = tmp_path / "bad.plan"
        with open(path, "wb") as f:
            np.savez_compressed(
                f,
                __plan__=np.frombuffer(
                    json.dumps({"plan_version": 99}).encode(),
                    dtype=np.uint8,
                ),
                __graph__=np.zeros(1, dtype=np.uint8),
            )
        with pytest.raises(Exception):
            load_plan(path)


def _bindings(engine):
    return [
        (b.layer_name, [k.name for k in b.kernels], b.provider)
        for b in engine.bindings
    ]


def _weights(graph):
    return {
        (layer.name, key): value
        for layer in graph.layers
        for key, value in layer.weights.items()
    }


class TestPlanFormat:
    def test_members_are_stored_at_both_levels(self, engine, tmp_path):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        with zipfile.ZipFile(path) as outer:
            assert {i.compress_type for i in outer.infolist()} == {
                zipfile.ZIP_STORED
            }
        with np.load(path) as archive:
            inner = bytes(archive["__graph__"])
        with zipfile.ZipFile(io.BytesIO(inner)) as nested:
            members = nested.infolist()
            assert len(members) > 1
            assert {i.compress_type for i in members} == {
                zipfile.ZIP_STORED
            }

    def test_deflated_plan_still_loads(self, engine, tmp_path):
        """A plan written the old way (both archive levels deflated)
        loads to the same bindings and passes the audit."""
        import json

        stored = tmp_path / "stored.plan"
        save_plan(engine, stored)
        doc, _ = read_plan(stored)
        with np.load(stored) as archive:
            inner = bytes(archive["__graph__"])
        with np.load(io.BytesIO(inner)) as graph_archive:
            arrays = {key: graph_archive[key] for key in graph_archive}
        graph_buf = io.BytesIO()
        np.savez_compressed(graph_buf, **arrays)
        old = tmp_path / "deflated.plan"
        with open(old, "wb") as f:
            np.savez_compressed(
                f,
                __plan__=np.frombuffer(
                    json.dumps(doc).encode(), dtype=np.uint8
                ),
                __graph__=np.frombuffer(
                    graph_buf.getvalue(), dtype=np.uint8
                ),
            )
        with zipfile.ZipFile(old) as outer:
            assert {i.compress_type for i in outer.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        assert _bindings(load_plan(old)) == _bindings(engine)
        assert lint_plan(old).ok

    def test_single_bit_flips_never_pass_as_a_different_plan(
        self, engine, tmp_path
    ):
        """Every flipped bit yields typed diagnostics (never a raw
        exception).  A flip the audit accepts landed in zip header
        fields the reader ignores, and the plan loads unchanged."""
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        blob = path.read_bytes()
        doc, graph = read_plan(path)
        weights = _weights(graph)
        flipped = tmp_path / "flipped.plan"
        rng = np.random.default_rng(13)
        rejected = 0
        for _ in range(300):
            corrupt = bytearray(blob)
            corrupt[int(rng.integers(len(blob)))] ^= 1 << int(
                rng.integers(8)
            )
            flipped.write_bytes(bytes(corrupt))
            if not lint_plan(flipped).ok:
                rejected += 1
                continue
            doc2, graph2 = read_plan(flipped)
            assert doc2 == doc
            weights2 = _weights(graph2)
            assert weights2.keys() == weights.keys()
            for key, value in weights.items():
                np.testing.assert_array_equal(weights2[key], value)
        # Ignored header fields are under 1% of a plan's bits.
        assert rejected >= 290


class TestDetectionModelPlan:
    def test_mobilenet_plan_roundtrip(self, farm, tmp_path):
        """Plans with fixed kernel sequences (detection layers) and
        depthwise convolutions must survive serialization."""
        engine = farm.engine("mobilenet_v1", "NX", 0)
        path = tmp_path / "det.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert loaded.kernel_names() == engine.kernel_names()
        det = loaded.binding_for("detections")
        assert det.tactic is None
        assert len(det.kernels) == 4
        a = engine.create_execution_context().time_inference(jitter=0.0)
        b = loaded.create_execution_context().time_inference(jitter=0.0)
        assert abs(a.total_us - b.total_us) / a.total_us < 1e-9
