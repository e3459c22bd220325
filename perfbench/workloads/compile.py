"""``compile``: the write path, from frontend parse to a stored plan.

One pass builds the whole zoo: 13 models x {fp32, fp16, int8} x
{NX, AGX} on the TRT provider plus {fp32, fp16} x {NX, AGX} on the
CUDA provider, 130 engines.  One call is one build through a fresh
``EngineStore`` (passes under the invariant guard, tactic auction or
per-op partitioning, plan and timing-cache write) followed by
``lint_flow``.  The first call of each model also parses it through
its frontend (``build_model``), once per model per pass.  No timeline
sweeps, numeric forwards beyond INT8 calibration, or serving loops.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.engine import BuilderConfig, PrecisionMode
from repro.engine.plan import load_plan
from repro.engine.store import EngineStore
from repro.hardware import XAVIER_AGX, XAVIER_NX
from repro.lint.flow import lint_flow
from repro.models import MODEL_REGISTRY, build_model, list_models

from perfbench.workloads import Call, seeds

DEVICES = (XAVIER_NX, XAVIER_AGX)
TRT_PRECISIONS = (PrecisionMode.FP32, PrecisionMode.FP16, PrecisionMode.INT8)
CUDA_PRECISIONS = (PrecisionMode.FP32, PrecisionMode.FP16)
#: Images in each INT8 calibration batch.
CALIBRATION_IMAGES = 1


def build_matrix(models: List[str]) -> List[Tuple[str, object, object, str]]:
    """(model, device, precision, provider) of every build in a pass,
    grouped by model so each model is parsed once."""
    out = []
    for model in models:
        for provider, precisions in (
            ("trt", TRT_PRECISIONS), ("cuda", CUDA_PRECISIONS)
        ):
            for precision in precisions:
                for device in DEVICES:
                    out.append((model, device, precision, provider))
    return out


def _bindings(engine) -> List[Tuple[str, List[str], str]]:
    return [
        (b.layer_name, [k.name for k in b.kernels], b.provider)
        for b in engine.bindings
    ]


class Workload:
    name = "compile"

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.builds = build_matrix(list_models())
        self.build_seeds = seeds(seed, len(self.builds))
        self.calibration_seeds = dict(
            zip(list_models(), seeds(seed + 1, len(list_models())))
        )
        self.store = None
        self.passes = 0

    def begin_pass(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self.store = EngineStore(self.workdir / f"store-{self.passes}")
        self.passes += 1
        self.graphs: Dict[str, object] = {}
        self.calibration: Dict[str, object] = {}

    def _parse(self, model: str) -> None:
        graph = build_model(model, pretrained=False, cache=False)
        spec = graph.input_specs[MODEL_REGISTRY[model].input_name]
        rng = np.random.default_rng(self.calibration_seeds[model])
        self.graphs[model] = graph
        self.calibration[model] = rng.standard_normal(
            (CALIBRATION_IMAGES,) + tuple(spec.shape)
        ).astype(np.float32)

    def calls(self):
        for (model, device, precision, provider), build_seed in zip(
            self.builds, self.build_seeds
        ):
            label = f"{model}/{device.name}/{precision.value}/{provider}"

            def fn(model=model, device=device, precision=precision,
                   provider=provider, build_seed=build_seed):
                if model not in self.graphs:
                    self._parse(model)
                config = BuilderConfig(
                    precision=precision,
                    seed=build_seed,
                    input_name=MODEL_REGISTRY[model].input_name,
                    calibration_batch=(
                        self.calibration[model]
                        if precision is PrecisionMode.INT8 else None
                    ),
                    provider=provider,
                )
                engine, result = self.store.get_or_build(
                    self.graphs[model], device, config
                )
                return 1, (engine, result, lint_flow(engine))

            yield Call(label, fn, self._check)

    def _check(self, output):
        engine, result, flow = output
        failures = []
        if result.is_hit:
            failures.append(f"fresh store answered {result.outcome}")
        reloaded = load_plan(self.store.plan_path(result.key))
        if _bindings(reloaded) != _bindings(engine):
            failures.append("plan round-trip changed the bindings")
        if flow.errors:
            failures.append(
                "lint_flow errors: "
                + ",".join(sorted({d.rule_id for d in flow.errors}))
            )
        record = {
            "engine": engine.name,
            "bindings": _bindings(engine),
            "size_bytes": engine.size_bytes,
            "weight_chunks": list(engine.weight_chunks),
            "build_time_us": engine.build_time_us,
            "fresh_measurements": result.fresh_measurements,
            "flow": sorted(d.rule_id for d in flow.diagnostics),
        }
        return record, failures
