"""Model registry: lookup, construction, pretraining, and disk cache.

``build_model(name)`` is the zoo's entry point: it constructs the
network through its framework frontend, applies the pretraining step
(classifier readout or detection probe), and caches the result on disk
so repeated harness runs don't re-derive weights.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.data.synthetic import SyntheticImageNet
from repro.data.traffic import TrafficSceneDataset
from repro.graph.ir import Graph
from repro.graph.serialization import atomic_write, load_graph, save_graph

from repro.models import caffe_zoo, darknet_zoo, tf_zoo, torch_zoo
from repro.models.training import fit_detection_head, pretrain_classifier

#: Bump to invalidate cached zoo models after generator changes.
ZOO_VERSION = 8


@dataclass(frozen=True)
class ModelInfo:
    """Registry entry: identity, provenance, and Table II ground truth."""

    name: str  # canonical key, e.g. "resnet18"
    display_name: str  # the paper's spelling, e.g. "ResNet-18"
    task: str  # classification | detection | segmentation
    framework: str  # caffe | tensorflow | darknet | pytorch
    paper_convs: int
    paper_max_pools: int
    paper_unoptimized_mb: float  # Table II unoptimized model size
    builder: Callable[[], Graph]
    final_fc: Optional[str] = None  # classifier readout layer
    conf_layer: Optional[str] = None  # detection conf head
    loc_layer: Optional[str] = None  # detection loc head
    input_name: str = "data"


def _classification_dataset() -> SyntheticImageNet:
    return SyntheticImageNet()


MODEL_REGISTRY: Dict[str, ModelInfo] = {
    info.name: info
    for info in [
        ModelInfo(
            "alexnet", "Alexnet", "classification", "caffe",
            5, 3, 232.56, caffe_zoo.build_alexnet, final_fc="fc8",
        ),
        ModelInfo(
            "resnet18", "ResNet-18", "classification", "caffe",
            21, 2, 44.65, caffe_zoo.build_resnet18, final_fc="fc",
        ),
        ModelInfo(
            "vgg16", "vgg-16", "classification", "caffe",
            13, 5, 527.8, caffe_zoo.build_vgg16, final_fc="fc8",
        ),
        ModelInfo(
            "inception_v4", "inception-v4", "classification", "caffe",
            149, 19, 163.12, caffe_zoo.build_inception_v4,
            final_fc="classifier",
        ),
        ModelInfo(
            "googlenet", "Googlenet", "classification", "caffe",
            57, 14, 51.05, caffe_zoo.build_googlenet,
            final_fc="loss3_classifier",
        ),
        ModelInfo(
            "ssd_inception_v2", "ssd-inception-v2", "detection",
            "tensorflow", 90, 12, 95.58, tf_zoo.build_ssd_inception_v2,
            conf_layer="BoxPredictor_conf", loc_layer="BoxPredictor_loc",
            input_name="image_tensor",
        ),
        ModelInfo(
            "detectnet_coco_dog", "Detectnet-Coco-Dog", "detection",
            "caffe", 59, 12, 22.82, caffe_zoo.build_detectnet_coco_dog,
            conf_layer="coverage_head", loc_layer="bbox_head",
        ),
        ModelInfo(
            "pednet", "pednet", "detection", "caffe",
            59, 12, 22.82, caffe_zoo.build_pednet,
            conf_layer="coverage_head", loc_layer="bbox_head",
        ),
        ModelInfo(
            "tiny_yolov3", "Tiny-Yolov3", "detection", "darknet",
            13, 6, 33.1, darknet_zoo.build_tiny_yolov3,
        ),
        ModelInfo(
            "facenet", "facenet", "detection", "caffe",
            59, 12, 22.82, caffe_zoo.build_facenet,
            conf_layer="coverage_head", loc_layer="bbox_head",
        ),
        ModelInfo(
            "mobilenet_v1", "Mobilenetv1", "detection", "tensorflow",
            28, 1, 26.07, tf_zoo.build_mobilenet_v1,
            conf_layer="BoxPredictor_conf", loc_layer="BoxPredictor_loc",
            input_name="image_tensor",
        ),
        ModelInfo(
            "mtcnn", "MTCNN", "detection", "caffe",
            12, 6, 1.9, caffe_zoo.build_mtcnn,
        ),
        ModelInfo(
            "fcn_resnet18_cityscapes", "fcn-resnet18-cityscapes",
            "segmentation", "pytorch", 22, 1, 44.95,
            torch_zoo.build_fcn_resnet18_cityscapes,
        ),
    ]
}


def list_models(task: Optional[str] = None) -> List[str]:
    """Canonical model names, optionally filtered by task."""
    return [
        name
        for name, info in MODEL_REGISTRY.items()
        if task is None or info.task == task
    ]


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_ZOO_CACHE")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro-zoo"


def build_model(
    name: str,
    pretrained: bool = True,
    cache: bool = True,
) -> Graph:
    """Construct (or load from cache) a zoo model.

    ``pretrained=False`` skips the readout/probe fitting and returns
    the raw frontend import (used by structure-only experiments, which
    are much cheaper).
    """
    try:
        info = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; known: {known}") from None

    trainable = bool(info.final_fc or info.conf_layer)
    cache_path = (
        _cache_dir()
        / f"{name}-v{ZOO_VERSION}-{'pre' if pretrained else 'raw'}.npz"
    )
    if cache and cache_path.exists():
        return load_graph(cache_path)

    graph = info.builder()
    if pretrained and trainable:
        if info.final_fc:
            pretrain_classifier(
                graph,
                _classification_dataset(),
                info.final_fc,
                input_name=info.input_name,
            )
        elif info.conf_layer and info.loc_layer:
            fit_detection_head(
                graph,
                info.conf_layer,
                info.loc_layer,
                TrafficSceneDataset(),
                input_name=info.input_name,
            )
    if cache:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent harness processes and threads may
        # warm the same entry; a rename never exposes a half-written file.
        with atomic_write(cache_path) as f:
            save_graph(graph, f)
    return graph
