"""On-disk artifact corruption and the observability surfaces fault
events flow into (chrome trace, plan lint)."""

import json

import numpy as np
import pytest

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.engine.plan import save_plan
from repro.engine.timing_cache import TimingCache, TimingCacheError
from repro.faults import (
    CORRUPTION_MODES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultScenario,
    corrupt_file,
)
from repro.hardware.specs import XAVIER_NX
from repro.lint import lint_plan
from repro.telemetry import ChromeTrace


@pytest.fixture(scope="module")
def engine(small_cnn):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(small_cnn)


class TestCorruptFile:
    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_every_mode_changes_bytes(self, tmp_path, mode):
        path = tmp_path / "artifact.bin"
        payload = bytes(range(256)) * 8
        path.write_bytes(payload)
        damaged = corrupt_file(
            path, np.random.default_rng(0), mode=mode, severity=3
        )
        assert damaged > 0
        assert path.read_bytes() != payload

    def test_deterministic_per_rng_seed(self, tmp_path):
        out = []
        for _ in range(2):
            path = tmp_path / "det.bin"
            path.write_bytes(bytes(range(256)) * 4)
            corrupt_file(path, np.random.default_rng(9), mode="flip")
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        with pytest.raises(ValueError, match="mode"):
            corrupt_file(path, np.random.default_rng(0), mode="bitrot")


class TestCorruptArtifact:
    def test_plan_corruption_fails_lint_audit(self, tmp_path, engine):
        plan_path = tmp_path / "engine.plan"
        save_plan(engine, plan_path)
        assert lint_plan(plan_path).ok

        injector = FaultInjector(
            FaultPlan(
                scenarios=[FaultScenario(kind=FaultKind.PLAN_CORRUPTION)],
                seed=1,
            )
        )
        event = injector.corrupt_artifact(plan_path)
        assert event is not None
        assert event.kind is FaultKind.PLAN_CORRUPTION
        assert event.detail("mode") in CORRUPTION_MODES
        assert not lint_plan(plan_path).ok

    def test_cache_corruption_triggers_typed_loader_error(self, tmp_path):
        cache_path = tmp_path / "timing.cache"
        TimingCache(XAVIER_NX.name).save(cache_path)
        injector = FaultInjector(
            FaultPlan(
                scenarios=[FaultScenario(kind=FaultKind.CACHE_CORRUPTION)],
                seed=2,
            )
        )
        event = injector.corrupt_artifact(cache_path)
        assert event is not None
        assert event.kind is FaultKind.CACHE_CORRUPTION
        with pytest.raises(TimingCacheError):
            TimingCache.load(cache_path)

    def test_no_matching_scenario_leaves_file_alone(self, tmp_path, engine):
        plan_path = tmp_path / "engine.plan"
        save_plan(engine, plan_path)
        before = plan_path.read_bytes()
        injector = FaultInjector(
            FaultPlan(
                scenarios=[
                    FaultScenario(
                        kind=FaultKind.PLAN_CORRUPTION, target="other*"
                    )
                ]
            )
        )
        assert injector.corrupt_artifact(plan_path) is None
        assert plan_path.read_bytes() == before


class TestChromeTraceFaultTrack:
    def test_fault_instants_land_on_their_own_track(self, tmp_path, engine):
        injector = FaultInjector(
            FaultPlan(
                scenarios=[FaultScenario(kind=FaultKind.KERNEL_HANG)]
            )
        )
        injector.set_time(0.25)
        context = engine.create_execution_context()
        timing = context.time_inference(jitter=0.0, hardware_hook=injector)

        out = tmp_path / "trace.json"
        trace = ChromeTrace()
        trace.add_timing(timing)
        trace.add_fault_log(injector.log)
        trace.save(out)
        doc = json.loads(out.read_text())
        instants = [
            e for e in doc["traceEvents"] if e.get("cat") == "fault"
        ]
        assert instants
        assert all(e["ph"] == "i" for e in instants)
        assert {e["name"] for e in instants} == {"kernel_hang"}
        thread_names = [
            e for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
            and e["args"]["name"] == "faults"
        ]
        assert thread_names

    def test_no_fault_track_without_events(self, tmp_path, engine):
        context = engine.create_execution_context()
        timing = context.time_inference(jitter=0.0)
        out = tmp_path / "clean.json"
        trace = ChromeTrace()
        trace.add_timing(timing)
        trace.add_fault_log(None)
        trace.save(out)
        doc = json.loads(out.read_text())
        assert not [
            e for e in doc["traceEvents"] if e.get("cat") == "fault"
        ]
