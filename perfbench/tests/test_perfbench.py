"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The cross-process determinism test runs every workload to the
100-call floor twice and compares pass 0's call digests; it takes a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import compare, metrics
from perfbench.harness import measure
from perfbench.workloads import Call

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def scratch(request):
    """A fresh directory inside the checkout's ``.perfbench/``: the
    benchmark writes nowhere else."""
    path = ROOT / ".perfbench" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_metric_names_match_benchmark_json():
    from perfbench.trace import Tracer

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        metrics.PER_LAYER
    )
    # Everything the traced run reports: the tracer's fold plus the two
    # values the worker and the launcher add.
    emitted = set(Tracer().per_layer(passes=1)) | {
        "import.repro_s", "trace.overhead_frac"
    }
    assert emitted == {name for name, _ in metrics.PER_LAYER}


def test_p90_withheld_below_min_calls():
    few = metrics.call_metrics([0.001 * i for i in range(1, 100)])
    assert set(few) == {"call_p50_ms"}
    enough = metrics.call_metrics([0.001 * i for i in range(1, 101)])
    assert enough["call_p90_ms"] == pytest.approx(90.0)
    assert enough["call_p50_ms"] == pytest.approx(50.0)


class FakeWorkload:
    """Ten calls per pass; calls chosen by a seeded draw raise or fail
    their output check, and one call's output changes between passes."""

    name = "fake"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        picks = rng.choice(10, size=4, replace=False)
        self.raising = set(picks[:2].tolist())
        self.failing = {int(picks[2])}
        self.drifting = int(picks[3])
        self.passes = 0

    def begin_pass(self):
        self.passes += 1

    def calls(self):
        for i in range(10):
            def fn(i=i):
                if i in self.raising:
                    raise ValueError(f"injected {i}")
                out = self.passes if i == self.drifting else i
                return 2, out

            def check(out, i=i):
                return out, ["injected check"] if i in self.failing else []

            yield Call(f"call{i}", fn, check)


@pytest.mark.parametrize("seed", [0, 1])
def test_failed_frac_counts_injected_failures(seed):
    workload = FakeWorkload(seed)
    run = measure(workload, seconds=0, clear_caches=lambda: None)
    # No time floor: the run stops at the call floor, ten passes.
    assert run.passes == 10
    assert run.attempted == metrics.MIN_CALLS_FOR_P90 == 100
    # Per pass: two raise and one fails its check; the drifting call
    # fails in every pass after pass 0, because each one differs.
    assert run.failed == 10 * 3 + 9
    assert metrics.failed_frac(run.attempted, run.failed) == 39 / 100
    assert run.items == 10 * 2 * 8
    assert len(run.call_seconds) == 100
    assert any("differs from pass 0" in f for f in run.failures)
    assert any("injected check" in f for f in run.failures)


def test_serve_check_counts_against_offered_traffic():
    from types import SimpleNamespace

    from perfbench.workloads.serve import fleet_failures

    report = SimpleNamespace(requests=10, served=7, failed=1, shed=2,
                             attainment=0.7)
    assert fleet_failures(report, offered=10) == []
    # A dropped request: the report's own counters still add up, but
    # it no longer covers the traffic.
    dropped = SimpleNamespace(requests=9, served=6, failed=1, shed=2,
                              attainment=0.7)
    assert fleet_failures(dropped, offered=10) == [
        "9 requests reported, 10 offered",
        "served 6 + failed 1 + shed 2 != 10 offered",
    ]
    lost = SimpleNamespace(requests=10, served=6, failed=1, shed=2,
                           attainment=1.5)
    assert len(fleet_failures(lost, offered=10)) == 2


def test_failed_frac_needs_an_attempt():
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)


def _result(scratch, name, workload="serve", seed=0, digests=None):
    digests = digests or [["a", "1"], ["b", "2"]]
    doc = {"workload": workload, "seed": seed, "call_digests": digests,
           "digest": "x"}
    path = scratch / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_tool(scratch, capsys):
    a = _result(scratch, "a.json")
    assert compare.main([a, _result(scratch, "b.json")]) == 0
    moved = _result(scratch, "c.json", digests=[["a", "1"], ["b", "3"]])
    assert compare.main([a, moved]) == 1
    assert "digest differs: b" in capsys.readouterr().out
    other = _result(scratch, "d.json", workload="compile")
    assert compare.main([a, other]) == 2


def test_missing_hook_fails_loudly(monkeypatch):
    from perfbench import trace

    monkeypatch.setattr(trace, "HOOKS", trace.HOOKS + (
        ("engine.renamed", "repro.engine.builder:EngineBuilder.gone", None),
    ))
    with pytest.raises(trace.HookMissing, match="engine.renamed"):
        trace.Tracer().install()


def test_traced_build_attributes_self_time():
    from perfbench.trace import Tracer

    import repro.models
    from repro.engine import BuilderConfig, EngineBuilder
    from repro.engine.builder import remove_dead_layers as original
    from repro.hardware import XAVIER_NX

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.call("call.test"):
            graph = repro.models.build_model(
                "alexnet", pretrained=False, cache=False
            )
            EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(graph)
    finally:
        tracer.uninstall()
    from repro.engine import builder

    assert builder.remove_dead_layers is original
    layers = tracer.per_layer(passes=1)
    for name in ("models.build_model.ms", "engine.pass.dead_layer.ms",
                 "lint.invariants.ms", "engine.tactics.choose.ms",
                 "graph.toposort.ms"):
        assert layers[name] > 0, name
    assert layers["engine.tactics.auctions"] > 0
    assert 0 < layers["engine.tactics.measured_frac"] <= 1
    # Self times never exceed the root span that encloses them.
    root = tracer.self_s["call.test"] + sum(
        v for k, v in tracer.self_s.items() if k != "call.test"
    )
    whole = tracer.span_end[0] - tracer.span_start[0]
    assert root == pytest.approx(whole, rel=1e-9)


def _worker_digests(workload: str, hash_seed: str, scratch: Path) -> list:
    from perfbench.run import child_env

    workdir = scratch / hash_seed
    workdir.mkdir()
    env = child_env(workdir)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", workload,
         "--seed", "3", "--seconds", "0",
         "--workdir", str(workdir), "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300,
        check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["failed"] == 0, doc["failures"]
    return doc["call_digests"]


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_digests_identical_across_hash_seeds(workload, scratch):
    assert _worker_digests(workload, "1", scratch) == _worker_digests(
        workload, "2", scratch
    )
