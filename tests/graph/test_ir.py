"""Unit tests for the graph IR core (repro.graph.ir)."""

import numpy as np
import pytest

from repro.graph.ir import (
    DataType,
    Graph,
    GraphError,
    Layer,
    LayerKind,
    TensorSpec,
)


def _layer(name, kind=LayerKind.IDENTITY, inputs=("data",), outputs=None):
    return Layer(
        name=name,
        kind=kind,
        inputs=list(inputs),
        outputs=list(outputs or [f"{name}_out"]),
    )


@pytest.fixture()
def graph():
    return Graph("t", [TensorSpec("data", (3, 8, 8))])


class TestDataType:
    def test_itemsizes(self):
        assert DataType.FP32.itemsize == 4
        assert DataType.FP16.itemsize == 2
        assert DataType.INT8.itemsize == 1

    def test_numpy_dtypes(self):
        assert DataType.FP32.numpy_dtype == np.float32
        assert DataType.FP16.numpy_dtype == np.float16
        # INT8 is stored dequantized in the simulator.
        assert DataType.INT8.numpy_dtype == np.float32


class TestTensorSpec:
    def test_volume(self):
        assert TensorSpec("x", (3, 8, 8)).volume == 192
        assert TensorSpec("x", (10,)).volume == 10
        assert TensorSpec("x", ()).volume == 1

    def test_nbytes_uses_dtype(self):
        spec = TensorSpec("x", (4, 4), DataType.FP16)
        assert spec.nbytes == 32


class TestLayer:
    def test_weight_volume_and_bytes(self):
        layer = _layer("l")
        layer.weights["kernel"] = np.zeros((4, 3, 3, 3), dtype=np.float32)
        layer.weights["bias"] = np.zeros(4, dtype=np.float32)
        assert layer.weight_volume() == 4 * 27 + 4
        assert layer.weight_bytes() == (4 * 27 + 4) * 4
        layer.precision = DataType.FP16
        assert layer.weight_bytes() == (4 * 27 + 4) * 2

    def test_copy_is_independent_metadata(self):
        layer = _layer("l")
        layer.attrs["k"] = 1
        dup = layer.copy()
        dup.attrs["k"] = 2
        dup.inputs.append("other")
        assert layer.attrs["k"] == 1
        assert layer.inputs == ["data"]


class TestGraphConstruction:
    def test_duplicate_input_rejected(self):
        with pytest.raises(GraphError, match="duplicate graph input"):
            Graph("t", [TensorSpec("a", (1,)), TensorSpec("a", (1,))])

    def test_add_layer(self, graph):
        graph.add_layer(_layer("a"))
        assert graph.has_layer("a")
        assert len(graph) == 1

    def test_duplicate_layer_name_rejected(self, graph):
        graph.add_layer(_layer("a"))
        with pytest.raises(GraphError, match="duplicate layer name"):
            graph.add_layer(_layer("a", outputs=["other"]))

    def test_duplicate_tensor_rejected(self, graph):
        graph.add_layer(_layer("a"))
        with pytest.raises(GraphError, match="defined twice"):
            graph.add_layer(_layer("b", outputs=["a_out"]))

    def test_redefining_graph_input_rejected(self, graph):
        with pytest.raises(GraphError, match="defined twice"):
            graph.add_layer(_layer("a", outputs=["data"]))

    def test_layer_without_outputs_rejected(self, graph):
        with pytest.raises(GraphError, match="no outputs"):
            graph.add_layer(Layer("a", LayerKind.IDENTITY, ["data"], []))

    def test_duplicate_messages_name_the_tensor_and_layer(self, graph):
        graph.add_layer(_layer("a"))
        with pytest.raises(GraphError) as exc:
            graph.add_layer(_layer("a", outputs=["other"]))
        assert str(exc.value) == "duplicate layer name 'a'"
        with pytest.raises(GraphError) as exc:
            graph.add_layer(_layer("b", outputs=["b_out", "a_out"]))
        assert str(exc.value) == "tensor 'a_out' defined twice (layer 'b')"

    def test_rejected_layer_leaves_nothing_behind(self, graph):
        # A layer repeating one of its own outputs is rejected whole:
        # neither the layer nor its first output is indexed.
        with pytest.raises(GraphError, match="'x' defined twice"):
            graph.add_layer(_layer("a", outputs=["x", "x"]))
        assert not graph.has_layer("a")
        assert graph.producer_of("x") is None
        graph.add_layer(_layer("b", outputs=["x"]))
        assert graph.producer_of("x").name == "b"

    def test_removed_layer_frees_its_tensor_names(self, graph):
        graph.add_layer(_layer("a", outputs=["t", "u"]))
        graph.remove_layer("a")
        assert graph.producer_of("t") is None
        graph.add_layer(_layer("b", outputs=["u", "t"]))
        assert graph.producer_of("t").name == "b"

    def test_replaced_layers_free_their_tensor_names(self, graph):
        graph.add_layer(_layer("a"))
        graph.add_layer(_layer("b", inputs=["a_out"]))
        graph.replace_layers(
            ["a", "b"], Layer("a+b", LayerKind.IDENTITY, ["data"], ["b_out"])
        )
        # a_out is free again; b_out now belongs to the fused layer.
        graph.add_layer(_layer("c", outputs=["a_out"]))
        assert graph.producer_of("a_out").name == "c"
        with pytest.raises(GraphError, match="'b_out' defined twice"):
            graph.add_layer(_layer("d", outputs=["b_out"]))

    def test_remove_layer(self, graph):
        graph.add_layer(_layer("a"))
        removed = graph.remove_layer("a")
        assert removed.name == "a"
        assert not graph.has_layer("a")

    def test_remove_missing_layer(self, graph):
        with pytest.raises(GraphError, match="no layer named"):
            graph.remove_layer("ghost")

    def test_layer_lookup_missing(self, graph):
        with pytest.raises(GraphError, match="no layer named"):
            graph.layer("ghost")


class TestGraphTopology:
    def test_toposort_orders_dependencies(self, graph):
        # Insert out of order: b depends on a.
        graph.add_layer(_layer("b", inputs=["a_out"]))
        graph.add_layer(_layer("a"))
        ordered = [l.name for l in graph.toposort()]
        assert ordered == ["a", "b"]

    def test_toposort_detects_undefined_tensor(self, graph):
        graph.add_layer(_layer("b", inputs=["ghost"]))
        with pytest.raises(GraphError, match="cycle or undefined"):
            graph.toposort()

    def test_toposort_detects_cycle(self, graph):
        graph.add_layer(_layer("a", inputs=["b_out"]))
        graph.add_layer(_layer("b", inputs=["a_out"]))
        with pytest.raises(GraphError, match="cycle or undefined"):
            graph.toposort()

    def test_producer_and_consumers(self, graph):
        graph.add_layer(_layer("a"))
        graph.add_layer(_layer("b", inputs=["a_out"]))
        graph.add_layer(_layer("c", inputs=["a_out"]))
        assert graph.producer_of("a_out").name == "a"
        assert graph.producer_of("data") is None
        assert {l.name for l in graph.consumers_of("a_out")} == {"b", "c"}


class TestValidation:
    def test_validate_requires_outputs(self, graph):
        graph.add_layer(_layer("a"))
        with pytest.raises(GraphError, match="declares no outputs"):
            graph.validate()

    def test_validate_undefined_output(self, graph):
        graph.add_layer(_layer("a"))
        graph.mark_output("ghost")
        with pytest.raises(GraphError, match="never defined"):
            graph.validate()

    def test_validate_dead_tensor(self, graph):
        graph.add_layer(_layer("a"))
        graph.add_layer(_layer("dead", inputs=["a_out"]))
        graph.mark_output("a_out")
        with pytest.raises(GraphError, match="is dead"):
            graph.validate()
        graph.validate(allow_dead=True)  # tolerated when asked

    def test_validate_clean_graph(self, graph):
        graph.add_layer(_layer("a"))
        graph.mark_output("a_out")
        graph.validate()

    def test_mark_output_idempotent(self, graph):
        graph.add_layer(_layer("a"))
        graph.mark_output("a_out")
        graph.mark_output("a_out")
        assert graph.output_names == ["a_out"]


class TestGraphUtilities:
    def test_count_kind(self, graph):
        graph.add_layer(_layer("a", kind=LayerKind.ACTIVATION))
        graph.add_layer(
            _layer("b", kind=LayerKind.ACTIVATION, inputs=["a_out"])
        )
        assert graph.count_kind(LayerKind.ACTIVATION) == 2
        assert graph.count_kind(LayerKind.CONVOLUTION) == 0

    def test_weight_accounting(self, graph):
        layer = _layer("a")
        layer.weights["w"] = np.zeros(10, dtype=np.float32)
        graph.add_layer(layer)
        assert graph.weight_volume() == 10
        assert graph.weight_bytes() == 40
        assert graph.weight_bytes(DataType.FP16) == 20

    def test_copy_independent(self, graph):
        graph.add_layer(_layer("a"))
        graph.mark_output("a_out")
        dup = graph.copy()
        dup.remove_layer("a")
        assert graph.has_layer("a")
        assert dup.output_names == ["a_out"]

    def test_copy_indexes_its_own_layers(self, graph):
        graph.add_layer(_layer("a"))
        dup = graph.copy()
        assert dup.producer_of("a_out") is dup.layer("a")
        assert dup.producer_of("a_out") is not graph.layer("a")

    def test_replace_layers(self, graph):
        graph.add_layer(_layer("a"))
        graph.add_layer(_layer("b", inputs=["a_out"]))
        fused = Layer("a+b", LayerKind.IDENTITY, ["data"], ["b_out"])
        graph.replace_layers(["a", "b"], fused)
        assert graph.has_layer("a+b")
        assert not graph.has_layer("a")
        assert graph.producer_of("b_out").name == "a+b"

    def test_summary_mentions_layers(self, graph):
        graph.add_layer(_layer("a"))
        graph.mark_output("a_out")
        text = graph.summary()
        assert "a" in text and "identity" in text

    def test_iteration(self, graph):
        graph.add_layer(_layer("a"))
        assert [l.name for l in graph] == ["a"]
