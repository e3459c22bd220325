"""Pass-invariant checking (rule family ``V``).

The guard wraps optimizer passes in snapshot/lint deltas; a pass that
renames an output, changes its shape, touches the input contract, or
introduces new lint errors raises :class:`PassInvariantViolation` —
including from inside ``EngineBuilder.build``, which is the acceptance
scenario: a deliberately buggy pass fails the build with a named
diagnostic instead of miscompiling silently.
"""

from __future__ import annotations

import pytest

import repro.engine.builder as builder_mod
from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.passes import fuse_vertically, remove_dead_layers
from repro.engine.passes.base import PassManager
from repro.graph.builder import GraphBuilder
from repro.graph.ir import GraphError, LayerKind, TensorSpec
from repro.hardware.specs import XAVIER_NX
from repro.lint import PassInvariantGuard, PassInvariantViolation

from tests.conftest import make_small_cnn


def make_fc_net():
    """conv -> relu -> fc with no global pooling: the fc layer's weight
    matrix encodes the conv's spatial size, so upstream geometry bugs
    are visible to the linter."""
    b = GraphBuilder("fcnet", (3, 8, 8), seed=0)
    t = b.conv("conv1", b.input_name, out_channels=4, kernel=3, pad=1)
    t = b.relu("relu1", t)
    t = b.fc("fc", t, 10)
    t = b.softmax("prob", t)
    return b.finish(t)


def violation_from(graph, bad_pass, name="bad_pass"):
    guard = PassInvariantGuard()
    with pytest.raises(PassInvariantViolation) as excinfo:
        guard.run(graph, bad_pass, name=name)
    return excinfo.value


# ----------------------------------------------------------------------
# guard basics
# ----------------------------------------------------------------------
def test_real_passes_run_clean():
    graph = make_small_cnn()
    guard = PassInvariantGuard()
    report = guard.run(graph, remove_dead_layers)
    assert report.pass_name
    guard.run(graph, fuse_vertically)


def test_violation_is_a_graph_error():
    assert issubclass(PassInvariantViolation, GraphError)


def test_v001_output_renamed():
    def rename(graph):
        graph.output_names[0] = "renamed"

    exc = violation_from(make_fc_net(), rename)
    assert "V001" in exc.report.rule_ids()
    assert "bad_pass" in str(exc)


def test_v002_output_shape_changed():
    def widen(graph):
        # stride bump upstream shrinks every downstream tensor
        b = GraphBuilder("other", (3, 8, 8), seed=0)  # fresh weights
        conv = {layer.name: layer for layer in graph.layers}["conv1"]
        conv.attrs["stride"] = 2
        conv.weights["kernel"] = b.init.conv(4, 3, 3)

    g = GraphBuilder("pool_net", (3, 8, 8), seed=0)
    t = g.conv("conv1", g.input_name, out_channels=4, kernel=3, pad=1)
    t = g.relu("relu1", t)
    graph = g.finish(t)
    exc = violation_from(graph, widen)
    assert "V002" in exc.report.rule_ids()


def test_v003_input_spec_changed():
    def shrink_input(graph):
        graph.input_specs["data"] = TensorSpec("data", (3, 4, 4))

    exc = violation_from(make_fc_net(), shrink_input)
    assert "V003" in exc.report.rule_ids()


def test_v004_new_lint_error():
    def drop_layer(graph):
        graph.remove_layer("conv1")  # relu1's input now dangles

    exc = violation_from(make_fc_net(), drop_layer)
    assert "V004" in exc.report.rule_ids()
    assert "G001" in str(exc)


def test_preexisting_errors_are_not_blamed_on_the_pass():
    """V004 fires on *new* errors only: a pass that leaves a broken
    graph exactly as broken is not the miscompiler."""
    graph = make_fc_net()
    {layer.name: layer for layer in graph.layers}["relu1"].inputs[
        0
    ] = "ghost"

    def noop(graph):
        return None

    PassInvariantGuard().run(graph, noop, name="noop")  # must not raise


# ----------------------------------------------------------------------
# wiring: PassManager and EngineBuilder
# ----------------------------------------------------------------------
def sabotaged_fusion(graph):
    """Run the real vertical fusion, then corrupt one conv's stride —
    the shape of what a real-world pass bug looks like."""
    report = fuse_vertically(graph)
    for layer in graph.layers:
        if layer.kind in (
            LayerKind.CONVOLUTION,
            LayerKind.FUSED_CONV_BLOCK,
        ) and layer.attrs.get("stride") == 1:
            layer.attrs["stride"] = 2
            break
    return report


def test_pass_manager_verifies_by_default():
    with pytest.raises(PassInvariantViolation):
        PassManager([sabotaged_fusion]).run(make_fc_net())


def test_engine_builder_catches_buggy_pass(monkeypatch):
    """Acceptance: a deliberately buggy optimizer pass makes
    ``EngineBuilder.build`` raise a named V-rule diagnostic."""
    monkeypatch.setattr(
        builder_mod, "fuse_vertically", sabotaged_fusion
    )
    builder = EngineBuilder(XAVIER_NX, BuilderConfig(seed=0))
    with pytest.raises(PassInvariantViolation) as excinfo:
        builder.build(make_fc_net())
    exc = excinfo.value
    assert set(exc.report.rule_ids()) & {"V002", "V004"}
    assert "vertical_fusion" in str(exc)


def test_unverified_build_miscompiles_silently(monkeypatch):
    """Contrast case: with ``verify_passes=False`` the same buggy pass
    builds an engine whose fc weights disagree with its conv output —
    exactly the silent miscompile the guard exists to catch."""
    monkeypatch.setattr(
        builder_mod, "fuse_vertically", sabotaged_fusion
    )
    builder = EngineBuilder(
        XAVIER_NX, BuilderConfig(seed=0, verify_passes=False)
    )
    engine = builder.build(make_fc_net())  # no exception: that's the bug
    from repro.lint import lint_engine

    assert "G012" in lint_engine(engine).rule_ids()


def test_layer_dropping_pass_caught_in_build(monkeypatch):
    def layer_dropper(graph):
        report = fuse_vertically(graph)
        victims = [
            layer.name
            for layer in graph.layers
            if any(
                out in other.inputs
                for other in graph.layers
                for out in layer.outputs
            )
        ]
        graph.remove_layer(victims[0])
        return report

    monkeypatch.setattr(builder_mod, "fuse_vertically", layer_dropper)
    builder = EngineBuilder(XAVIER_NX, BuilderConfig(seed=0))
    with pytest.raises(PassInvariantViolation) as excinfo:
        builder.build(make_small_cnn())
    assert "V004" in excinfo.value.report.rule_ids()


def test_clean_build_unaffected_by_guard():
    graph = make_small_cnn()
    verified = EngineBuilder(
        XAVIER_NX, BuilderConfig(seed=0)
    ).build(graph)
    unverified = EngineBuilder(
        XAVIER_NX, BuilderConfig(seed=0, verify_passes=False)
    ).build(graph)
    assert verified.size_bytes == unverified.size_bytes
    assert [b.layer_name for b in verified.bindings] == [
        b.layer_name for b in unverified.bindings
    ]


def test_snapshot_infers_shapes_once(monkeypatch):
    """A capture's output shapes and its lint rules share one view, so
    shape inference runs once per snapshot."""
    import repro.lint.graph_rules as graph_rules
    from repro.lint.invariants import GraphSnapshot

    calls = []
    real = graph_rules.infer_shapes

    def counting(graph):
        calls.append(graph.name)
        return real(graph)

    monkeypatch.setattr(graph_rules, "infer_shapes", counting)
    snapshot = GraphSnapshot.capture(make_small_cnn())
    assert len(calls) == 1
    assert all(shape is not None for shape in snapshot.output_shapes.values())
