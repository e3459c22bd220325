"""Shared fixtures for the test suite.

Heavier artifacts (the engine farm, datasets, a small CNN) are session-
scoped; model-zoo graphs are cached on disk by the registry, so repeat
test runs are fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.analysis.engines import EngineFarm
from repro.data.synthetic import SyntheticImageNet
from repro.data.traffic import TrafficSceneDataset
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph

# ``HYPOTHESIS_PROFILE=ci`` makes every property test replay the same
# examples, so a shared runner cannot draw a new counterexample per run.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_small_cnn(
    seed: int = 1,
    num_classes: int = 10,
    with_dead_branch: bool = True,
    input_size: int = 16,
) -> Graph:
    """A compact CNN exercising every optimizer-relevant pattern:
    conv+bn+relu chains, sibling 1x1 convs, dropout, a dead branch."""
    b = GraphBuilder("small_cnn", (3, input_size, input_size), seed=seed)
    t = b.conv("conv1", b.input_name, out_channels=16, kernel=3, pad=1)
    t = b.batchnorm("bn1", t)
    t = b.relu("relu1", t)
    t = b.max_pool("pool1", t, kernel=2)
    left = b.conv("branch_a", t, out_channels=8, kernel=1)
    left = b.relu("branch_a_relu", left)
    right = b.conv("branch_b", t, out_channels=8, kernel=1)
    right = b.relu("branch_b_relu", right)
    t = b.concat("cat", [left, right])
    t = b.dropout("drop", t)
    if with_dead_branch:
        b.conv("dead_head", t, out_channels=4, kernel=1)
    t = b.conv("conv2", t, out_channels=16, kernel=3, pad=1)
    t = b.relu("relu2", t)
    t = b.global_avg_pool("gap", t)
    t = b.fc("fc", t, num_classes)
    t = b.softmax("prob", t)
    return b.finish(t, allow_dead=True)


@pytest.fixture(scope="session")
def small_cnn() -> Graph:
    return make_small_cnn()


@pytest.fixture()
def fresh_small_cnn() -> Graph:
    """A private copy for tests that mutate the graph."""
    return make_small_cnn()


@pytest.fixture(scope="session")
def farm() -> EngineFarm:
    """Structure-only engine farm shared across analysis tests."""
    return EngineFarm(pretrained=False)


@pytest.fixture(scope="session")
def dataset() -> SyntheticImageNet:
    return SyntheticImageNet(num_classes=10, image_size=16, seed=123)


@pytest.fixture(scope="session")
def traffic() -> TrafficSceneDataset:
    return TrafficSceneDataset(seed=5)


@pytest.fixture(scope="session")
def images16() -> np.ndarray:
    """A deterministic (8, 3, 16, 16) input batch."""
    return (
        np.random.default_rng(0)
        .normal(size=(8, 3, 16, 16))
        .astype(np.float32)
    )
