"""Tests for the model zoo: every network of the paper's Table II."""

import numpy as np
import pytest

from repro.graph.ir import LayerKind
from repro.graph.shapes import infer_shapes
from repro.models import MODEL_REGISTRY, build_model, list_models
from repro.runtime.executor import GraphExecutor

ALL_MODELS = sorted(MODEL_REGISTRY)


def _max_pool_count(graph):
    return sum(
        1
        for layer in graph.layers
        if layer.kind is LayerKind.POOLING
        and layer.attrs.get("pool") == "max"
    )


def _conv_count(graph):
    return (
        graph.count_kind(LayerKind.CONVOLUTION)
        + graph.count_kind(LayerKind.DEPTHWISE_CONVOLUTION)
    )


class TestRegistry:
    def test_thirteen_models(self):
        assert len(MODEL_REGISTRY) == 13

    def test_list_by_task(self):
        assert "alexnet" in list_models("classification")
        assert "pednet" in list_models("detection")
        assert list_models("segmentation") == ["fcn_resnet18_cityscapes"]
        assert len(list_models()) == 13

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("resnet-152")

    def test_display_names_match_paper(self):
        display = {info.display_name for info in MODEL_REGISTRY.values()}
        for paper_name in (
            "Alexnet", "ResNet-18", "vgg-16", "inception-v4", "Googlenet",
            "ssd-inception-v2", "Detectnet-Coco-Dog", "pednet",
            "Tiny-Yolov3", "facenet", "Mobilenetv1", "MTCNN",
            "fcn-resnet18-cityscapes",
        ):
            assert paper_name in display


@pytest.mark.parametrize("name", ALL_MODELS)
class TestTable2LayerCounts:
    """Table II ground truth: conv and max-pool counts per network."""

    def test_conv_count(self, name):
        info = MODEL_REGISTRY[name]
        graph = build_model(name, pretrained=False)
        assert _conv_count(graph) == info.paper_convs

    def test_max_pool_count(self, name):
        info = MODEL_REGISTRY[name]
        graph = build_model(name, pretrained=False)
        assert _max_pool_count(graph) == info.paper_max_pools

    def test_shapes_infer_cleanly(self, name):
        graph = build_model(name, pretrained=False)
        shapes = infer_shapes(graph)
        for out in graph.output_names:
            assert out in shapes


class TestNumericSmoke:
    @pytest.mark.parametrize(
        "name", ["alexnet", "tiny_yolov3", "mobilenet_v1", "mtcnn",
                 "fcn_resnet18_cityscapes"]
    )
    def test_forward_pass(self, name):
        info = MODEL_REGISTRY[name]
        graph = build_model(name, pretrained=False)
        spec = next(iter(graph.input_specs.values()))
        x = np.random.default_rng(0).normal(
            size=(1,) + spec.shape
        ).astype(np.float32)
        result = GraphExecutor(graph).run(**{spec.name: x})
        for out_name, arr in result.outputs.items():
            assert np.isfinite(arr).all(), out_name

    def test_classification_outputs_distribution(self):
        graph = build_model("alexnet", pretrained=False)
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        out = GraphExecutor(graph).run(data=x).primary()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)


class TestGoogleNetDeadHeads:
    def test_aux_heads_present_but_dead(self):
        from repro.engine.passes import remove_dead_layers

        graph = build_model("googlenet", pretrained=False)
        assert graph.has_layer("loss1_fc")
        work = graph.copy()
        remove_dead_layers(work)
        assert not work.has_layer("loss1_fc")
        assert not work.has_layer("loss2_classifier")
        # The live classifier survives.
        assert work.has_layer("loss3_classifier")


class TestPretraining:
    def test_pretrained_beats_untrained(self, tmp_path, monkeypatch):
        """The class-mean readout must dramatically beat the random
        head on the synthetic benign set."""
        from repro.data.synthetic import SyntheticImageNet
        from repro.metrics.accuracy import top1_error

        dataset = SyntheticImageNet()
        test = dataset.batch(2, classes=range(30), seed=404)
        raw = build_model("alexnet", pretrained=False)
        pre = build_model("alexnet", pretrained=True)
        raw_scores = GraphExecutor(raw).run(data=test.images).primary()
        pre_scores = GraphExecutor(pre).run(data=test.images).primary()
        raw_err = top1_error(raw_scores, test.labels)
        pre_err = top1_error(pre_scores, test.labels)
        assert pre_err < raw_err - 20

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ZOO_CACHE", str(tmp_path))
        a = build_model("mtcnn", pretrained=False)
        cached = list(tmp_path.glob("*.npz"))
        assert len(cached) == 1
        b = build_model("mtcnn", pretrained=False)
        assert [l.name for l in a.layers] == [l.name for l in b.layers]

    def test_failed_cache_write_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        """Regression: the cache was written to ``<name>.tmp<pid>`` and
        renamed by hand, so a ``save_graph`` that raised part-way left
        that torso behind in the zoo cache."""
        import repro.models.registry as registry

        def save_then_fail(graph, target):
            if hasattr(target, "write"):
                target.write(b"PK\x03\x04 partial archive")
            else:
                with open(target, "wb") as f:
                    f.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        monkeypatch.setenv("REPRO_ZOO_CACHE", str(tmp_path))
        monkeypatch.setattr(registry, "save_graph", save_then_fail)
        with pytest.raises(OSError, match="disk full"):
            build_model("mtcnn", pretrained=False)
        assert list(tmp_path.glob("*.tmp*")) == []
        assert list(tmp_path.iterdir()) == []

    def test_detection_probe_fits_heads(self):
        graph = build_model("pednet", pretrained=True)
        conf = graph.layer("coverage_head")
        # The probe writes non-zero class directions.
        assert np.abs(conf.weights["kernel"]).sum() > 0
        loc = graph.layer("bbox_head")
        assert loc.weights["bias"][2] != 0  # typical box size
