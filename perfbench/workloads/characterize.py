"""``characterize``: the read path, the paper's own measurement loop.

Set-up builds every zoo model at FP16 on NX and on AGX (pinned seeds)
and writes the plans into an ``EngineStore``.  One call is one *cell*:
one stored engine characterized on one run device, so the cross-device
cases cNX_rAGX and cAGX_rNX run on real plan reads.  A cell:

* loads the plan through the store (lint-gated disk hit);
* runs a clock x batch latency ladder under ``Nvprof`` (Tables VIII-X);
* runs a ``StreamScheduler`` concurrency sweep (Figs 3-4);
* calls ``inspect_engine`` (Table XI);
* forwards half of the model's seeded batch numerically: the first
  half on NX, the second on AGX, so each engine covers the whole batch
  over its two cells; for the consistency study's models the last cell
  checks NX-built vs AGX-built top-1 agreement over it (Table V).

No optimizer passes and no serving loops run here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.engine import BuilderConfig, PrecisionMode
from repro.engine.engine import ExecutionContext
from repro.engine.inspector import inspect_engine
from repro.engine.store import EngineStore
from repro.hardware import XAVIER_AGX, XAVIER_NX
from repro.hardware.scheduler import StreamScheduler
from repro.models import MODEL_REGISTRY, build_model, list_models
from repro.profiling.nvprof import Nvprof

from perfbench.workloads import Call, all_finite, seeds

DEVICES = {"NX": XAVIER_NX, "AGX": XAVIER_AGX}
#: Cell order per model: both engines have covered the batch before
#: the last cell, which runs the agreement check.
CELLS = (("NX", "NX"), ("NX", "AGX"), ("AGX", "NX"), ("AGX", "AGX"))
BATCHES = (1, 8)
#: Images in each model's seeded batch; a cell forwards half of them.
FORWARD_IMAGES = 4
#: The consistency study's models (paper Table V) and its cap on the
#: share of differing top-1 predictions between engines
#: (benchmarks/test_table05_cross_platform_consistency.py).  The study
#: gives no tolerance for the other models, so their NX-built and
#: AGX-built outputs are only checked to be finite.
AGREEMENT_CAP = {
    "resnet18": 0.05, "vgg16": 0.05, "alexnet": 0.05, "inception_v4": 0.15,
}
#: Images in the study models' batches: enough that one differing
#: prediction stays within a 5% cap.  Each cell forwards half, so the
#: cost spreads over all four cells of a model: whole batches on two
#: cells made a cluster of slow calls that unsettled ``call_p90_ms``.
AGREEMENT_IMAGES = 20


def ladder_clocks(device) -> tuple:
    """Four clocks spread over the device's DVFS ladder, max included."""
    ladder = device.supported_gpu_clocks_mhz
    step = (len(ladder) - 1) / 3
    return tuple(ladder[round(i * step)] for i in range(4))


def top1(scores: np.ndarray) -> np.ndarray:
    return np.argmax(scores.reshape(scores.shape[0], -1), axis=1)


class Workload:
    name = "characterize"

    def setup(self, seed: int, workdir: Path) -> None:
        models = list_models()
        self.store = EngineStore(workdir / "plans")
        self.graphs = {}
        self.configs: Dict[tuple, BuilderConfig] = {}
        self.inputs = {}
        build_seeds = iter(seeds(seed, 2 * len(models)))
        input_seeds = seeds(seed + 1, len(models))
        self.cell_seeds = seeds(seed + 2, len(models) * len(CELLS))
        for model, input_seed in zip(models, input_seeds):
            graph = build_model(model, pretrained=False, cache=False)
            input_name = MODEL_REGISTRY[model].input_name
            self.graphs[model] = graph
            for build in DEVICES:
                config = BuilderConfig(
                    precision=PrecisionMode.FP16,
                    seed=next(build_seeds),
                    input_name=input_name,
                )
                self.configs[model, build] = config
                self.store.get_or_build(graph, DEVICES[build], config)
            shape = graph.input_specs[input_name].shape
            images = (AGREEMENT_IMAGES if model in AGREEMENT_CAP
                      else FORWARD_IMAGES)
            self.inputs[model] = (
                np.random.default_rng(input_seed)
                .standard_normal((images,) + tuple(shape))
                .astype(np.float32)
            )

    def begin_pass(self) -> None:
        self.forwards: Dict[tuple, np.ndarray] = {}

    def calls(self):
        cell_seeds = iter(self.cell_seeds)
        for model in self.graphs:
            for build, run in CELLS:
                cell_seed = next(cell_seeds)

                def fn(model=model, build=build, run=run, cell_seed=cell_seed):
                    return 1, self._cell(model, build, run, cell_seed)

                yield Call(
                    f"{model}/c{build}_r{run}", fn,
                    lambda out, model=model, build=build, run=run:
                        self._check(out, model, build, run),
                )

    def _cell(self, model: str, build: str, run: str, cell_seed: int):
        engine, result = self.store.get_or_build(
            self.graphs[model], DEVICES[build], self.configs[model, build]
        )
        device = DEVICES[run]
        context = ExecutionContext(engine, device)
        profiler = Nvprof()
        rng = np.random.default_rng(cell_seed)
        ladder = [
            context.time_inference(
                clock_mhz=clock, rng=rng, profiler=profiler, batch_size=batch
            ).total_us
            for clock in ladder_clocks(device)
            for batch in BATCHES
        ]
        kernels = {
            name: [s.calls, s.total_us]
            for name, s in sorted(profiler.kernel_summary().items())
        }
        sweep = StreamScheduler(engine, device).sweep()
        inspected = inspect_engine(engine, device)
        batch = self.inputs[model]
        half = len(batch) // 2
        images = batch[:half] if run == "NX" else batch[half:]
        forward = context.execute(**{engine.input_name: images}).primary()
        return result, ladder, kernels, sweep, inspected, forward

    def _check(self, output, model: str, build: str, run: str):
        result, ladder, kernels, sweep, inspected, forward = output
        failures = []
        if result.outcome != "hit":
            failures.append(f"stored plan read was a {result.outcome}")
        if not (all_finite(ladder) and min(ladder) > 0):
            failures.append("non-positive ladder latency")
        fps = [p.aggregate_fps for p in sweep.points]
        if not fps or not (all_finite(fps) and min(fps) > 0):
            failures.append("non-positive concurrency sweep")
        if not inspected["predicted_kernel_us"] > 0:
            failures.append("non-positive inspector prediction")
        record = {
            "cell": f"{model}/c{build}_r{run}",
            "ladder_us": ladder,
            "kernels": kernels,
            "sweep": [
                [p.threads, p.aggregate_fps, p.gpu_utilization_pct,
                 p.ram_used_mb, p.bandwidth_limited]
                for p in sweep.points
            ],
            "max_threads": sweep.max_threads,
            "inspect": inspected,
        }
        record["forward"] = forward
        if not all_finite(forward):
            failures.append("non-finite forward output")
        self.forwards[model, build, run] = forward
        if (build, run) == CELLS[-1] and model in AGREEMENT_CAP:
            nx, agx = (
                np.concatenate([self.forwards[model, b, "NX"],
                                self.forwards[model, b, "AGX"]])
                for b in ("NX", "AGX")
            )
            flips = int(np.sum(top1(nx) != top1(agx)))
            record["top1_flips"] = flips
            if flips > AGREEMENT_CAP[model] * len(nx):
                failures.append(
                    f"NX/AGX top-1 disagree on {flips}/{len(nx)}"
                )
        return record, failures
