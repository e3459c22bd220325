"""Property test: ``GraphView``'s cycle check keeps its fixed-point result.

``GraphView.cyclic_layers`` is one Kahn pass over consumer lists.  The
reference below is the original fixed-point sweep.  Lint sees broken
graphs, so the generated graphs also carry what ``Graph.add_layer``
rejects: duplicate producers and layers that shadow a graph input (made
by renaming outputs after insertion, as the rule tests do).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph.ir import Graph, Layer, LayerKind, TensorSpec
from repro.lint.graph_rules import GraphView

from tests.graph.test_toposort import random_graphs


def reference_cyclic(graph: Graph):
    defined = set(graph.input_specs)
    for layer in graph.layers:
        defined.update(layer.outputs)
    remaining = {
        layer.name: {
            t
            for t in layer.inputs
            if t in defined and t not in graph.input_specs
        }
        for layer in graph.layers
    }
    produced = set(graph.input_specs)
    changed = True
    while changed:
        changed = False
        for layer in graph.layers:
            if layer.name not in remaining:
                continue
            if all(t in produced for t in remaining[layer.name]):
                produced.update(layer.outputs)
                del remaining[layer.name]
                changed = True
    return sorted(remaining)


def reference_structural_ok(graph: Graph) -> bool:
    if reference_cyclic(graph):
        return False
    producers = {}
    for layer in graph.layers:
        for out in layer.outputs:
            producers.setdefault(out, []).append(layer)
    for tensor, found in producers.items():
        if len(found) > 1 or tensor in graph.input_specs:
            return False
    defined = set(graph.input_specs) | set(producers)
    return all(t in defined for l in graph.layers for t in l.inputs)


@st.composite
def broken_graphs(draw):
    graph = draw(random_graphs())
    tensors = list(graph.input_specs)
    tensors += [t for layer in graph.layers for t in layer.outputs]
    for layer in graph.layers:
        if draw(st.integers(0, 4)) == 0:
            layer.outputs[0] = draw(st.sampled_from(tensors))
    return graph


@settings(max_examples=400, deadline=None)
@given(broken_graphs())
def test_cyclic_layers_and_structural_ok_match_the_fixpoint(graph):
    view = GraphView(graph)
    assert view.cyclic_layers == reference_cyclic(graph)
    assert view.structural_ok == reference_structural_ok(graph)


def test_duplicate_producer_on_a_cycle_still_frees_its_consumers():
    graph = Graph("t", [TensorSpec("data", (4,))])
    graph.add_layer(Layer("a", LayerKind.IDENTITY, ["c_out"], ["a_out"]))
    graph.add_layer(Layer("b", LayerKind.IDENTITY, ["data"], ["b_out"]))
    graph.add_layer(Layer("c", LayerKind.IDENTITY, ["a_out"], ["c_out"]))
    graph.layer("b").outputs[0] = "a_out"  # a second producer of a_out
    view = GraphView(graph)
    # b defines a_out, so c and then a schedule: no cycle is left, but
    # the graph is still not structurally sound (a_out has 2 producers).
    assert view.cyclic_layers == reference_cyclic(graph) == []
    assert view.structural_ok is False


def test_defined_is_computed_once():
    graph = Graph("t", [TensorSpec("data", (4,))])
    graph.add_layer(Layer("a", LayerKind.IDENTITY, ["data"], ["a_out"]))
    view = GraphView(graph)
    assert view.defined is view.defined
    assert view.defined == {"data", "a_out"}
