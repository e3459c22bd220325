"""Per-op graph partitioning across execution providers.

Mirrors ONNX Runtime's placement pass: walk the graph in topological
order, assign each layer to the **highest-priority provider that
supports it** (priority = the order the caller lists providers in), and
insert an explicit cross-provider *transfer node* on every edge whose
producer and consumer landed on different providers.  Transfers are
billed as device-to-device memcpys against the Eq. 1 bandwidth model —
the simulator's analogue of ORT's ``MemcpyToHost``/``MemcpyFromHost``
nodes, and the reason a badly split graph can be slower than a
single-provider one.

Placement is one step of the single build pipeline in
:meth:`repro.engine.builder.EngineBuilder.build`: for any provider
tuple other than plain TRT, the builder calls :func:`partition_graph`
after quantization planning and before kernel mapping.  Such builds are
**per-op by construction**: only dead-layer removal runs; vertical
fusion and horizontal merging are skipped even for TRT-assigned layers,
because fused super-layers cannot straddle a provider boundary.

The result is a :class:`PartitionedEngine` — a plain
:class:`~repro.engine.engine.Engine` subclass, so every downstream
consumer (``ExecutionContext``, ``simulate_inference``,
``InferenceSupervisor``, the fleet, the store, the lint rules) handles
it through the same API as a single-provider engine.  Transfer nodes
appear as extra :class:`~repro.engine.engine.LayerBinding` entries
carrying a :class:`~repro.runtime.providers.TransferSpec`; the numeric
executor ignores them (they move bytes, not values) while the timeline
prices them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, cast

import numpy as np

from repro.graph.ir import DataType, Graph
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload
from repro.runtime.providers import (
    ExecutionProvider,
    ProviderError,
    ProviderSpec,
    TransferSpec,
    resolve_providers,
    transfer_kernel,
)

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.engine.engine import Engine, LayerBinding
from repro.engine.kernels import DEFAULT_CATALOG, KernelCatalog


@dataclass(frozen=True)
class PartitionPlan:
    """Placement decision for one graph: who runs what, and the
    transfers the placement implies."""

    #: Provider names in the priority order the partition used.
    providers: Tuple[str, ...]
    #: layer name -> provider name, for every compute layer.
    assignments: Dict[str, str]
    #: Cross-provider edges, in insertion (schedule) order.
    transfers: Tuple[TransferSpec, ...]

    @property
    def providers_used(self) -> Tuple[str, ...]:
        """Providers that actually received at least one layer, in
        priority order."""
        used = set(self.assignments.values())
        return tuple(name for name in self.providers if name in used)

    def layers_on(self, provider_name: str) -> List[str]:
        return [
            name
            for name, assigned in self.assignments.items()
            if assigned == provider_name
        ]


@dataclass
class PartitionedEngine(Engine):
    """An engine whose layers span multiple execution providers.

    Behaves exactly like :class:`~repro.engine.engine.Engine` (same
    fields, same execution-context API); the extra ``partition`` field
    records the placement, and transfer bindings are distinguishable
    via ``binding.transfer is not None``.
    """

    partition: Optional[PartitionPlan] = None

    @property
    def providers_used(self) -> Tuple[str, ...]:
        return self.partition.providers_used if self.partition else ()

    def transfer_bindings(self) -> List[LayerBinding]:
        return [b for b in self.bindings if b.transfer is not None]

    def transfer_bytes(self) -> int:
        """Total cross-provider traffic per batch-1 inference."""
        return sum(
            b.transfer.bytes for b in self.bindings if b.transfer is not None
        )


def partition_graph(
    graph: Graph,
    providers: Tuple[ExecutionProvider, ...],
    menus: Dict[str, List[DataType]],
    categories: Dict[str, str],
    shapes: Dict[str, Tuple[int, ...]],
    act_dtype: DataType,
) -> PartitionPlan:
    """Assign every layer to the first provider that supports it and
    derive the implied cross-provider transfers.

    ``menus`` and ``categories`` map layer names to their quantization
    menus and workload categories; ``shapes`` prices the transfers
    (tensor volume x activation itemsize, batch 1 — the timeline scales
    them with the micro-batch like any activation traffic).
    """
    assignments: Dict[str, str] = {}
    transfers: List[TransferSpec] = []
    seen_transfers: set = set()

    for layer in graph.toposort():
        category = categories[layer.name]
        # A *quantized op*: the quantization plan kept INT8 on its menu
        # (calibrated, not precision-sensitive).
        required = (
            DataType.INT8 if DataType.INT8 in menus[layer.name]
            else DataType.FP32
        )
        chosen: Optional[ExecutionProvider] = None
        for provider in providers:
            if provider.supports_layer(category, required):
                chosen = provider
                break
        if chosen is None:
            names = "+".join(p.name for p in providers)
            raise ProviderError(
                f"no provider in [{names}] supports layer "
                f"{layer.name!r} ({category} at {required.value}); "
                "add TrtProvider (quantized ops) or CpuProvider "
                "(universal fallback) to the priority list"
            )
        assignments[layer.name] = chosen.name

        for tensor in layer.inputs:
            if tensor in graph.input_specs:
                continue  # graph inputs arrive via the input HtoD memcpy
            producer = graph.producer_of(tensor)
            if producer is None:
                continue
            src = assignments[producer.name]
            if src == chosen.name:
                continue
            dedup_key = (tensor, chosen.name)
            if dedup_key in seen_transfers:
                continue  # one copy serves every consumer on that provider
            seen_transfers.add(dedup_key)
            volume = int(np.prod(shapes[tensor])) if shapes[tensor] else 1
            transfers.append(
                TransferSpec(
                    tensor=tensor,
                    src_layer=producer.name,
                    dst_layer=layer.name,
                    src_provider=src,
                    dst_provider=chosen.name,
                    bytes=volume * act_dtype.itemsize,
                    elements=volume,
                )
            )

    return PartitionPlan(
        providers=tuple(p.name for p in providers),
        assignments=assignments,
        transfers=tuple(transfers),
    )


def transfer_binding(spec: TransferSpec) -> LayerBinding:
    """The timeline binding for one cross-provider transfer.

    Shared with the plan loader so serialized partitioned engines
    reconstruct byte-identical schedules."""
    workload = LayerWorkload(
        flops=0.0,
        bytes_in=spec.bytes,
        bytes_w=0,
        bytes_out=spec.bytes,
        gemm_m=1,
        gemm_n=1,
        gemm_k=0,
        elements_out=spec.elements,
        category="copy",
    )
    return LayerBinding(
        layer_name=spec.label,
        kernels=[transfer_kernel()],
        workload=workload,
        tactic=None,
        provider=spec.dst_provider,
        transfer=spec,
    )


def build_partitioned_engine(
    network: Graph,
    device: DeviceSpec,
    providers: ProviderSpec,
    config: Optional[BuilderConfig] = None,
    catalog: KernelCatalog = DEFAULT_CATALOG,
) -> PartitionedEngine:
    """Build an engine whose layers are partitioned across providers.

    Runs the builder's one pipeline with the placement step:
    dead layers are removed, quantization is planned, each layer is
    placed by :func:`partition_graph`, and TRT-assigned layers run real
    tactic auctions (charging build time) while CUDA/CPU-assigned
    layers bind their provider's fixed per-category kernel at zero
    auction cost — those backends don't search.  Every non-TRT
    :meth:`EngineBuilder.build` comes through here; the plain TRT
    tuple is not partitioned and yields the fused
    :class:`~repro.engine.engine.Engine` instead.
    """
    engine = EngineBuilder(device, config, catalog)._build(
        network, resolve_providers(providers)
    )
    return cast(PartitionedEngine, engine)


__all__ = [
    "PartitionPlan",
    "PartitionedEngine",
    "build_partitioned_engine",
    "partition_graph",
    "transfer_binding",
]
