"""Engine construction helpers shared by the experiment harnesses.

The paper builds multiple engines per (model, platform) pair — three
each on NX and AGX for the consistency study — and reuses them across
experiments.  :class:`EngineFarm` memoizes those builds with stable
per-slot seeds so every table regenerates identically run-to-run while
still exhibiting build-to-build diversity (different seeds per slot,
exactly like rebuilding on a real board at different moments).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.builder import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import EngineStore
from repro.graph.ir import Graph
from repro.hardware.specs import DeviceSpec, XAVIER_AGX, XAVIER_NX
from repro.models import build_model


def device_by_name(name: str) -> DeviceSpec:
    devices = {"NX": XAVIER_NX, "AGX": XAVIER_AGX}
    try:
        return devices[name]
    except KeyError:
        raise KeyError(f"unknown device {name!r}; use NX or AGX") from None


class EngineFarm:
    """Memoizes engines per (model, device, slot index, provider)."""

    def __init__(
        self,
        precision: PrecisionMode = PrecisionMode.FP16,
        pretrained: bool = True,
        base_seed: int = 1000,
        store: Optional["EngineStore"] = None,
        provider: Optional[str] = None,
    ):
        self.precision = precision
        self.pretrained = pretrained
        self.base_seed = base_seed
        #: Default execution provider(s) for every build — the
        #: canonical ``provider=`` axis ("trt", "cuda", "cpu", "auto",
        #: or a comma list); per-call ``engine(provider=...)`` wins.
        self.provider = provider
        #: Optional persistent :class:`~repro.engine.store.EngineStore`.
        #: When set, builds route through the content-addressed store:
        #: every slot of a (model, device) pair resolves to the *same*
        #: cached artifact (store keys exclude the seed), which is the
        #: deployment posture — leave unset for the consistency studies
        #: that rely on build-to-build diversity across slots.
        self.store = store
        self._graphs: Dict[str, Graph] = {}
        self._engines: Dict[Tuple[str, str, int, str], Engine] = {}

    # ------------------------------------------------------------------
    def graph(self, model_name: str) -> Graph:
        if model_name not in self._graphs:
            self._graphs[model_name] = build_model(
                model_name, pretrained=self.pretrained
            )
        return self._graphs[model_name]

    def _slot_seed(self, model_name: str, device_name: str, slot: int) -> int:
        # Stable, distinct seed per slot: the harness regenerates the
        # same 'engine 1/2/3' in every process, like loading saved
        # plans.  CRC-32 of the names, not ``hash()``, which the
        # interpreter salts per process (PYTHONHASHSEED).
        return int(
            np.random.SeedSequence(
                [self.base_seed, zlib.crc32(model_name.encode("utf-8")),
                 zlib.crc32(device_name.encode("utf-8")), slot]
            ).generate_state(1)[0]
            % (2 ** 31)
        )

    def engine(
        self,
        model_name: str,
        device_name: str,
        slot: int = 0,
        calibration_batch: Optional[np.ndarray] = None,
        provider: Optional[str] = None,
    ) -> Engine:
        """The ``slot``-th engine of ``model_name`` built on a device."""
        from repro.runtime.providers import canonical_provider_key

        spec = provider if provider is not None else self.provider
        provider_key = canonical_provider_key(
            spec if spec is not None else "trt"
        )
        key = (model_name, device_name, slot, provider_key)
        if key not in self._engines:
            device = device_by_name(device_name)
            config = BuilderConfig(
                precision=self.precision,
                seed=self._slot_seed(model_name, device_name, slot),
                calibration_batch=calibration_batch,
                input_name=self._input_name(model_name),
                provider=spec if spec is not None else "trt",
            )
            if self.store is not None:
                engine, _ = self.store.get_or_build(
                    self.graph(model_name), device, config
                )
                self._engines[key] = engine
            else:
                builder = EngineBuilder(device, config)
                self._engines[key] = builder.build(self.graph(model_name))
        return self._engines[key]

    def pinned_engine(self, model_name: str, device_name: str) -> Engine:
        """One engine per (model, device), built with ``seed=base_seed``.

        ``engine()`` gives every slot its own seed, for the
        build-consistency studies that want build-to-build diversity.
        This path pins ``seed=base_seed`` and the default TRT provider,
        so every model and device of a farm shares one build seed; the
        fleet reports and interference matrices are defined on these
        engines.
        """
        key = (model_name, device_name, -1, "trt")
        if key not in self._engines:
            device = device_by_name(device_name)
            config = BuilderConfig(
                precision=self.precision,
                seed=self.base_seed,
                input_name=self._input_name(model_name),
            )
            if self.store is not None:
                engine, _ = self.store.get_or_build(
                    self.graph(model_name), device, config
                )
            else:
                builder = EngineBuilder(device, config)
                engine = builder.build(self.graph(model_name))
            self._engines[key] = engine
        return self._engines[key]

    def engines(
        self,
        model_name: str,
        device_name: str,
        count: int,
        provider: Optional[str] = None,
    ) -> List[Engine]:
        """``count`` independently built engines on one device."""
        return [
            self.engine(model_name, device_name, slot, provider=provider)
            for slot in range(count)
        ]

    @staticmethod
    def _input_name(model_name: str) -> str:
        from repro.models import MODEL_REGISTRY

        return MODEL_REGISTRY[model_name].input_name
