"""Property test: ``Graph.toposort`` keeps the order of the repeated sweep.

``toposort`` computes each layer's sweep index with Kahn's algorithm in
linear time.  The reference below is the original fixed-point sweep:
pass over the pending layers in insertion order, schedule every layer
whose inputs are defined by then, repeat until nothing moves.  On any
graph -- shuffled insertion order, fan-in 1 to 3, dangling inputs,
cycles and self-loops -- both must return the same layer order, or
raise the same :class:`GraphError` message.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph.ir import Graph, GraphError, Layer, LayerKind, TensorSpec

_INPUTS = ("data", "aux")


def sweep_toposort(graph: Graph):
    """The quadratic reference: re-sweep pending layers to a fixpoint."""
    produced = dict(graph.input_specs)
    pending = list(graph.layers)
    ordered = []
    while pending:
        progressed = False
        still_pending = []
        for layer in pending:
            if all(t in produced for t in layer.inputs):
                ordered.append(layer)
                for out in layer.outputs:
                    produced[out] = True
                progressed = True
            else:
                still_pending.append(layer)
        if not progressed:
            missing = {
                t
                for layer in still_pending
                for t in layer.inputs
                if t not in produced
            }
            raise GraphError(
                f"graph {graph.name!r} has a cycle or undefined tensors: "
                f"{sorted(missing)}"
            )
        pending = still_pending
    return ordered


def outcome(sort):
    try:
        return [layer.name for layer in sort()]
    except GraphError as exc:
        return str(exc)


@st.composite
def layer_specs(draw, max_layers=12):
    """(name, inputs, outputs) per layer, in definition order.

    Most inputs come from earlier layers (a DAG); about one in eight is
    any tensor at all, which makes forward edges, cycles, self-loops
    and dangling names.
    """
    n = draw(st.integers(1, max_layers))
    outputs = [
        [f"t{i}"] + ([f"u{i}"] if draw(st.booleans()) else [])
        for i in range(n)
    ]
    everything = list(_INPUTS) + [t for outs in outputs for t in outs]
    everything.append("ghost")
    specs = []
    for i in range(n):
        earlier = list(_INPUTS) + [t for outs in outputs[:i] for t in outs]
        fan_in = draw(st.integers(1, 3))
        inputs = [
            draw(
                st.sampled_from(everything)
                if draw(st.integers(0, 7)) == 0
                else st.sampled_from(earlier)
            )
            for _ in range(fan_in)
        ]
        specs.append((f"L{i}", inputs, outputs[i]))
    return specs


@st.composite
def random_graphs(draw):
    specs = draw(layer_specs())
    order = draw(st.permutations(range(len(specs))))
    graph = Graph("rand", [TensorSpec(name, (4,)) for name in _INPUTS])
    for i in order:
        name, inputs, outputs = specs[i]
        graph.add_layer(
            Layer(name, LayerKind.IDENTITY, list(inputs), list(outputs))
        )
    return graph


@settings(max_examples=400, deadline=None)
@given(random_graphs())
def test_toposort_matches_the_sweep(graph):
    assert outcome(graph.toposort) == outcome(lambda: sweep_toposort(graph))


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_toposort_matches_after_inputs_are_rewired(graph):
    # Passes rewire ``inputs`` in place, so a first sort must leave
    # nothing behind that a second one could read stale.
    outcome(graph.toposort)
    for layer in graph.layers:
        layer.inputs = list(reversed(layer.inputs))[:1] or ["data"]
    assert outcome(graph.toposort) == outcome(lambda: sweep_toposort(graph))


def test_later_producer_defers_to_the_next_sweep():
    graph = Graph("t", [TensorSpec("data", (4,))])
    graph.add_layer(Layer("c", LayerKind.IDENTITY, ["b_out"], ["c_out"]))
    graph.add_layer(Layer("a", LayerKind.IDENTITY, ["data"], ["a_out"]))
    graph.add_layer(Layer("b", LayerKind.IDENTITY, ["a_out"], ["b_out"]))
    graph.add_layer(Layer("d", LayerKind.IDENTITY, ["data"], ["d_out"]))
    # Sweep 1 schedules a, b (a_out is ready by then) and d; c waits.
    assert [l.name for l in graph.toposort()] == ["a", "b", "d", "c"]
