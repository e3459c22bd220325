"""Tests for graph save/load (repro.graph.serialization)."""

import io

import numpy as np
import pytest

from repro.graph.serialization import load_graph, save_graph
from repro.runtime.executor import GraphExecutor


class TestRoundtrip:
    def test_topology_preserved(self, small_cnn, tmp_path):
        path = tmp_path / "net.npz"
        save_graph(small_cnn, path)
        loaded = load_graph(path)
        assert loaded.name == small_cnn.name
        assert [l.name for l in loaded.layers] == [
            l.name for l in small_cnn.layers
        ]
        assert loaded.output_names == small_cnn.output_names
        assert loaded.input_specs.keys() == small_cnn.input_specs.keys()

    def test_weights_bit_exact(self, small_cnn, tmp_path):
        path = tmp_path / "net.npz"
        save_graph(small_cnn, path)
        loaded = load_graph(path)
        for layer in small_cnn.layers:
            for key, value in layer.weights.items():
                np.testing.assert_array_equal(
                    value, loaded.layer(layer.name).weights[key]
                )

    def test_numeric_equivalence(self, small_cnn, tmp_path, images16):
        path = tmp_path / "net.npz"
        save_graph(small_cnn, path)
        loaded = load_graph(path)
        before = GraphExecutor(small_cnn).run(data=images16).primary()
        after = GraphExecutor(loaded).run(data=images16).primary()
        np.testing.assert_array_equal(before, after)

    def test_attrs_preserved(self, small_cnn, tmp_path):
        path = tmp_path / "net.npz"
        save_graph(small_cnn, path)
        loaded = load_graph(path)
        assert loaded.layer("conv1").attrs == small_cnn.layer("conv1").attrs

    def test_filelike_roundtrip(self, small_cnn):
        buf = io.BytesIO()
        save_graph(small_cnn, buf)
        buf.seek(0)
        loaded = load_graph(buf)
        assert len(loaded) == len(small_cnn)

    def test_roundtrip_bytes_nonempty(self, small_cnn):
        buf = io.BytesIO()
        save_graph(small_cnn, buf)
        assert len(buf.getvalue()) > 1000

    def test_bad_version_rejected(self, small_cnn, tmp_path):
        import json

        path = tmp_path / "net.npz"
        doc = {"format_version": 999}
        with open(path, "wb") as f:
            np.savez_compressed(
                f,
                __topology__=np.frombuffer(
                    json.dumps(doc).encode(), dtype=np.uint8
                ),
            )
        with pytest.raises(ValueError, match="format version"):
            load_graph(path)
