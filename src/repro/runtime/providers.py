"""Pluggable execution providers (ONNX Runtime's EP split).

Real edge deployments rarely hand the whole graph to one backend: ONNX
Runtime routes each op to the highest-priority *execution provider*
that supports it — ``TensorrtExecutionProvider`` for everything TRT can
fuse and auto-tune, ``CUDAExecutionProvider`` for generic per-op CUDA
kernels (which, per the optimum GPU guide, rejects quantized ops), and
the always-available CPU fallback.  This module reproduces that split
for the simulator:

* :class:`TrtProvider` — the paper's engine: vertical fusion,
  horizontal merging, timing-based tactic auctions over the
  pre-implemented kernel catalog.  Supports every op at every
  precision.
* :class:`CudaProvider` — a generic cuDNN/cuBLAS-style backend: no
  layer fusion, no tactic search, one deterministic kernel launch per
  op, non-tensor-core kernels with its own :class:`ProviderCostParams`.
  **Rejects quantized (INT8) ops** — the optimum caveat that forces
  quantized layers onto the TRT provider.
* :class:`CpuProvider` — the fallback of last resort: numerically
  always-supported (it executes everything in FP32), with an
  orders-of-magnitude slower cost model (no tensor cores, no DRAM-wide
  bursts, host-class launch overhead).

Placement across providers is the graph partitioner's job
(:mod:`repro.graph.partition`); this module only answers "what can
provider X run, with which kernel, at what cost scale".

Import-cycle note: this module is imported by ``repro.engine.builder``,
``repro.engine.plan``, ``repro.hardware.gpu`` and the lint rules, so it
must stay a leaf — :class:`repro.engine.kernels.KernelSpec` instances
are constructed lazily on first catalog access, never at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

from repro.graph.ir import DataType

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.kernels import KernelSpec


class ProviderError(ValueError):
    """An unresolvable provider spec or an unsupported placement."""


@dataclass(frozen=True)
class ProviderCostParams:
    """Provider-level scaling of the hardware cost model (Eq. 1 terms).

    ``compute_scale``/``bandwidth_scale`` multiply the provider's
    *effective* FLOP rate and DRAM bandwidth (< 1.0 means slower than
    the TRT-tuned kernels achieve); ``launch_scale``/``latency_scale``
    multiply the per-launch overhead and exposed-latency terms.  The
    TRT provider is the identity by definition — its costs *are* the
    calibrated paper model — and scaling by exactly 1.0 leaves every
    term of :func:`repro.hardware.cost.invocation_us` unchanged.
    """

    compute_scale: float = 1.0
    bandwidth_scale: float = 1.0
    launch_scale: float = 1.0
    latency_scale: float = 1.0

    @property
    def is_identity(self) -> bool:
        return self == ProviderCostParams()


@dataclass(frozen=True)
class TransferSpec:
    """One cross-provider tensor hand-off inserted by the partitioner.

    Billed as a device-to-device memcpy against the Eq. 1 bandwidth
    model: the tensor leaves one provider's memory space and enters the
    other's, exactly like ONNX Runtime's ``MemcpyFromHost``/
    ``MemcpyToHost`` nodes at partition boundaries.
    """

    tensor: str
    src_layer: str
    dst_layer: str
    src_provider: str
    dst_provider: str
    bytes: int
    elements: int

    @property
    def label(self) -> str:
        return (
            f"transfer:{self.tensor}"
            f"@{self.src_provider}->{self.dst_provider}"
        )

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "tensor": self.tensor,
            "src_layer": self.src_layer,
            "dst_layer": self.dst_layer,
            "src_provider": self.src_provider,
            "dst_provider": self.dst_provider,
            "bytes": int(self.bytes),
            "elements": int(self.elements),
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "TransferSpec":
        return cls(
            tensor=doc["tensor"],
            src_layer=doc["src_layer"],
            dst_layer=doc["dst_layer"],
            src_provider=doc["src_provider"],
            dst_provider=doc["dst_provider"],
            bytes=int(doc["bytes"]),
            elements=int(doc["elements"]),
        )


#: Catalog name of the cross-provider transfer pseudo-kernel.
TRANSFER_KERNEL_NAME = "provider_transfer_memcpy_dtod"


class ExecutionProvider:
    """One pluggable backend: capability + deterministic kernel choice.

    Subclasses define identity (``name``, the ONNX Runtime provider it
    mirrors), capability (:meth:`supports_precision` /
    :meth:`supports_layer`), cost scaling (``cost_params``), and — for
    providers without tactic auctions — the per-category kernel lookup
    (:meth:`kernel_for`, :meth:`kernel_sequence_for`).
    """

    #: Canonical lowercase key ("trt" / "cuda" / "cpu").
    name: str = "base"
    #: The ONNX Runtime execution provider this backend mirrors.
    onnx_name: str = ""
    #: Whether the builder may run fusion/merge passes for this provider.
    fuses_layers: bool = False
    #: Whether kernels are chosen by timing-based tactic auctions.
    tactic_search: bool = False
    #: Scaling of the hardware cost model for this provider's kernels.
    cost_params: ProviderCostParams = ProviderCostParams()

    # ------------------------------------------------------------------
    def supports_precision(self, precision: DataType) -> bool:
        return True

    def supports_layer(self, category: str, precision: DataType) -> bool:
        """Whether this provider can execute a layer of ``category``
        whose compute precision would be ``precision``."""
        return self.supports_precision(precision)

    # ------------------------------------------------------------------
    def kernel_for(
        self, category: str, precision: DataType
    ) -> "KernelSpec":
        """The provider's fixed kernel for a workload category.

        Only meaningful for providers without tactic search; the TRT
        provider raises — its kernels come out of the auction.
        """
        raise ProviderError(
            f"provider {self.name!r} selects kernels by tactic auction, "
            "not by fixed per-category lookup"
        )

    def kernel_sequence_for(self, category: str) -> List["KernelSpec"]:
        """Fixed multi-kernel pipelines (detection post-processing)."""
        raise ProviderError(
            f"provider {self.name!r} has no fixed kernel sequence for "
            f"category {category!r}"
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class TrtProvider(ExecutionProvider):
    """The paper's TensorRT-style engine path, as a provider.

    Fused, tactic-auctioned builds over the pre-implemented kernel
    catalog — byte-for-byte the pipeline :class:`repro.engine.builder
    .EngineBuilder` always ran.  Supports every category at every
    precision (it owns the only INT8 kernels), so under priority
    partitioning it absorbs whatever other providers reject.
    """

    name = "trt"
    onnx_name = "TensorrtExecutionProvider"
    fuses_layers = True
    tactic_search = True


class CudaProvider(ExecutionProvider):
    """Generic CUDA backend: per-op launches, no fusion, no auctions.

    Models ONNX Runtime's ``CUDAExecutionProvider``: every op becomes
    one deterministic cuDNN/cuBLAS-style kernel launch.  Slower than
    TRT on every axis — non-tensor-core math, untuned tiles, a launch
    per op where TRT fuses — and, per the optimum caveat, quantized
    ops are rejected outright (``supports_precision(INT8) == False``).
    """

    name = "cuda"
    onnx_name = "CUDAExecutionProvider"
    cost_params = ProviderCostParams(
        compute_scale=0.55,   # no tensor-core MMA, generic tiles
        bandwidth_scale=0.70,  # untuned access patterns
        launch_scale=1.4,      # one launch per op, no graph capture
        latency_scale=1.25,    # shallow prefetch in generic kernels
    )

    def supports_precision(self, precision: DataType) -> bool:
        return precision is not DataType.INT8

    def kernel_for(
        self, category: str, precision: DataType
    ) -> "KernelSpec":
        if not self.supports_precision(precision):
            raise ProviderError(
                f"CudaProvider rejects quantized ops "
                f"(category {category!r} at {precision.value})"
            )
        return _provider_kernel(self.name, category, precision)

    def kernel_sequence_for(self, category: str) -> List["KernelSpec"]:
        if category != "detection":
            raise ProviderError(
                f"no fixed cuda sequence for category {category!r}"
            )
        return _provider_detection_sequence(self.name)


class CpuProvider(ExecutionProvider):
    """The always-available fallback, orders of magnitude slower.

    Numerically it supports everything — quantized graphs included —
    by executing in full FP32 precision (a CPU fallback has no tensor
    cores to feed, so INT8 layers placed here simply run unquantized).
    Temporally it is host-class: a fraction of a percent of the GPU's
    effective FLOP rate and a sliver of its DRAM bandwidth.
    """

    name = "cpu"
    onnx_name = "CPUExecutionProvider"
    cost_params = ProviderCostParams(
        compute_scale=0.001,    # ~1000x slower math than the GPU path
        bandwidth_scale=0.008,  # host memory system, no wide bursts
        launch_scale=40.0,      # per-op dispatch through the host runtime
        latency_scale=80.0,     # cache-miss chains instead of prefetch
    )

    def kernel_for(
        self, category: str, precision: DataType
    ) -> "KernelSpec":
        # The CPU path computes in FP32 regardless of the requested
        # precision: always-supported means never rejecting, not
        # pretending to have INT8/FP16 units.
        return _provider_kernel(self.name, category, DataType.FP32)

    def kernel_sequence_for(self, category: str) -> List["KernelSpec"]:
        if category != "detection":
            raise ProviderError(
                f"no fixed cpu sequence for category {category!r}"
            )
        return _provider_detection_sequence(self.name)


#: Singleton instances: providers are stateless capability objects.
TRT_PROVIDER = TrtProvider()
CUDA_PROVIDER = CudaProvider()
CPU_PROVIDER = CpuProvider()

#: Default priority order (ONNX Runtime convention: most capable first).
DEFAULT_PROVIDER_PRIORITY: Tuple[str, ...] = ("trt", "cuda", "cpu")

_PROVIDERS: Dict[str, ExecutionProvider] = {
    "trt": TRT_PROVIDER,
    "tensorrt": TRT_PROVIDER,
    "tensorrtexecutionprovider": TRT_PROVIDER,
    "cuda": CUDA_PROVIDER,
    "cudaexecutionprovider": CUDA_PROVIDER,
    "cpu": CPU_PROVIDER,
    "cpuexecutionprovider": CPU_PROVIDER,
}

#: A provider spec anywhere in the public API: a canonical name (case-
#: insensitive, ONNX Runtime spellings accepted), an instance, or a
#: priority-ordered sequence / comma list for partitioned builds.
ProviderSpec = Union[
    str, ExecutionProvider, Sequence[Union[str, ExecutionProvider]]
]


def resolve_provider(
    spec: Union[str, ExecutionProvider]
) -> ExecutionProvider:
    """One provider from a name (case-insensitive) or an instance."""
    if isinstance(spec, ExecutionProvider):
        return spec
    if isinstance(spec, str):
        provider = _PROVIDERS.get(spec.strip().lower())
        if provider is not None:
            return provider
    known = "/".join(DEFAULT_PROVIDER_PRIORITY)
    raise ProviderError(
        f"unknown execution provider {spec!r} (known: {known}, "
        "ONNX Runtime spellings accepted)"
    )


def resolve_providers(spec: ProviderSpec) -> Tuple[ExecutionProvider, ...]:
    """A priority-ordered provider tuple from any accepted spec shape.

    ``"auto"`` expands to the default priority (trt, cuda, cpu);
    ``"cuda,trt"`` / ``"cuda+trt"`` are ordered lists (first match
    wins during partitioning); duplicates collapse keeping the first
    occurrence.
    """
    if isinstance(spec, (str, ExecutionProvider)):
        if isinstance(spec, str):
            text = spec.strip().lower()
            if text == "auto":
                return tuple(
                    _PROVIDERS[name] for name in DEFAULT_PROVIDER_PRIORITY
                )
            if "," in text or "+" in text:
                parts = [
                    p for p in text.replace("+", ",").split(",") if p.strip()
                ]
                return resolve_providers(parts)
        return (resolve_provider(spec),)
    providers: List[ExecutionProvider] = []
    for item in spec:
        provider = resolve_provider(item)
        if provider not in providers:
            providers.append(provider)
    if not providers:
        raise ProviderError("empty execution provider list")
    return tuple(providers)


def canonical_provider_key(spec: ProviderSpec) -> str:
    """Stable identity string for store keys and reports ("cuda+trt")."""
    return "+".join(p.name for p in resolve_providers(spec))


def provider_cost_params(name: str) -> ProviderCostParams:
    """Cost scaling for a provider name; transfers bill as memcpy and
    carry no kernel cost scaling of their own."""
    return resolve_provider(name).cost_params


# ----------------------------------------------------------------------
# provider kernel tables (built lazily: keep this module a leaf)
# ----------------------------------------------------------------------
_KERNEL_TABLE: Dict[str, Dict[Tuple[str, DataType], "KernelSpec"]] = {}
_DETECTION_TABLE: Dict[str, List["KernelSpec"]] = {}
_BY_NAME: Dict[str, "KernelSpec"] = {}


def _build_tables() -> None:
    if _KERNEL_TABLE:
        return
    from repro.engine.kernels import KernelSpec

    f32, f16 = DataType.FP32, DataType.FP16

    def add(provider: str, spec: "KernelSpec") -> None:
        _KERNEL_TABLE.setdefault(provider, {})[
            (spec.category, spec.precision)
        ] = spec
        _BY_NAME[spec.name] = spec

    # Generic cuDNN/cuBLAS-style kernels: no tensor cores, modest
    # bandwidth efficiency, split_k == 1 everywhere (deterministic
    # accumulation order — FP32 outputs match TRT's split_k=1 FP32
    # kernels bit for bit).
    cuda_specs = [
        KernelSpec(
            "cudnn_generic_conv_implicit_gemm_f16", "conv", f16,
            tile_m=64, tile_n=64, blocks_per_sm=2, prefetch_depth=16,
            bw_eff=0.50, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cudnn_generic_conv_implicit_gemm_f32", "conv", f32,
            tile_m=64, tile_n=64, blocks_per_sm=2, prefetch_depth=12,
            bw_eff=0.42, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cudnn_generic_depthwise_f16", "depthwise", f16,
            tile_m=32, tile_n=32, blocks_per_sm=3, prefetch_depth=8,
            bw_eff=0.45, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cudnn_generic_depthwise_f32", "depthwise", f32,
            tile_m=32, tile_n=32, blocks_per_sm=2, prefetch_depth=8,
            bw_eff=0.40, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cudnn_generic_deconv_f16", "deconv", f16,
            tile_m=64, tile_n=32, blocks_per_sm=2, prefetch_depth=12,
            bw_eff=0.45, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cudnn_generic_deconv_f32", "deconv", f32,
            tile_m=64, tile_n=32, blocks_per_sm=2, prefetch_depth=8,
            bw_eff=0.40, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cublas_generic_gemm_f16_nn", "gemm", f16,
            tile_m=64, tile_n=64, blocks_per_sm=2, prefetch_depth=16,
            bw_eff=0.50, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cublas_generic_sgemm_nn", "gemm", f32,
            tile_m=64, tile_n=32, blocks_per_sm=2, prefetch_depth=12,
            bw_eff=0.44, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cudnn_generic_pooling_fwd_f16", "pooling", f16,
            blocks_per_sm=3, bw_eff=0.55, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cudnn_generic_pooling_fwd_f32", "pooling", f32,
            blocks_per_sm=3, bw_eff=0.50, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cuda_generic_elementwise_f16", "pointwise", f16,
            blocks_per_sm=4, bw_eff=0.60, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cuda_generic_elementwise_f32", "pointwise", f32,
            blocks_per_sm=4, bw_eff=0.52, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cudnn_generic_lrn_fwd_f32", "lrn", f32,
            blocks_per_sm=2, bw_eff=0.40, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cudnn_generic_softmax_fwd_f32", "softmax", f32,
            blocks_per_sm=3, bw_eff=0.45, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cuda_generic_copy_f16", "copy", f16,
            blocks_per_sm=4, bw_eff=0.60, access_granularity_bytes=64,
        ),
        KernelSpec(
            "cuda_generic_copy_f32", "copy", f32,
            blocks_per_sm=4, bw_eff=0.55, access_granularity_bytes=64,
        ),
    ]
    for spec in cuda_specs:
        add("cuda", spec)
    _DETECTION_TABLE["cuda"] = [
        KernelSpec(
            "cuda_generic_decode_boxes_f32", "detection", f32,
            blocks_per_sm=3, bw_eff=0.45,
        ),
        KernelSpec(
            "cub_generic_segmented_radix_sort_f32", "detection", f32,
            blocks_per_sm=2, bw_eff=0.38, access_granularity_bytes=32,
        ),
        KernelSpec(
            "cuda_generic_nms_gather_f32", "detection", f32,
            blocks_per_sm=3, bw_eff=0.42,
        ),
    ]
    for spec in _DETECTION_TABLE["cuda"]:
        _BY_NAME[spec.name] = spec

    # Host-side kernels: bandwidth/compute scaling lives in
    # CpuProvider.cost_params; the specs only carry category/precision.
    cpu_specs = [
        KernelSpec(
            f"cpu_{category}_f32", category, f32,
            tile_m=8, tile_n=8, blocks_per_sm=1, prefetch_depth=4,
            bw_eff=0.85, access_granularity_bytes=128,
        )
        for category in (
            "conv", "depthwise", "deconv", "gemm", "pooling",
            "pointwise", "lrn", "softmax", "copy",
        )
    ]
    for spec in cpu_specs:
        add("cpu", spec)
    _DETECTION_TABLE["cpu"] = [
        KernelSpec(
            "cpu_detection_postprocess_f32", "detection", f32,
            blocks_per_sm=1, bw_eff=0.85, access_granularity_bytes=128,
        )
    ]
    _BY_NAME[_DETECTION_TABLE["cpu"][0].name] = (
        _DETECTION_TABLE["cpu"][0]
    )

    # The cross-provider transfer pseudo-kernel (never costed through
    # the kernel model — transfers bill as Eq. 1 memcpys — but it must
    # resolve by name so plans round-trip and reports stay uniform).
    transfer = KernelSpec(
        TRANSFER_KERNEL_NAME, "copy", f32,
        blocks_per_sm=4, bw_eff=1.0, access_granularity_bytes=128,
    )
    _BY_NAME[transfer.name] = transfer


def _provider_kernel(
    provider: str, category: str, precision: DataType
) -> "KernelSpec":
    _build_tables()
    table = _KERNEL_TABLE.get(provider, {})
    spec = table.get((category, precision))
    if spec is None:
        # FP32 is the universal fallback, as in the TRT catalog.
        spec = table.get((category, DataType.FP32))
    if spec is None:
        raise ProviderError(
            f"provider {provider!r} has no kernel for category "
            f"{category!r}"
        )
    return spec


def _provider_detection_sequence(provider: str) -> List["KernelSpec"]:
    _build_tables()
    return list(_DETECTION_TABLE[provider])


def transfer_kernel() -> "KernelSpec":
    """The pseudo-kernel bound to cross-provider transfer nodes."""
    _build_tables()
    return _BY_NAME[TRANSFER_KERNEL_NAME]


def provider_kernel_by_name(name: str) -> "KernelSpec":
    """Resolve a provider-catalog kernel by name (plan reload path);
    raises :class:`KeyError` for names owned by the TRT catalog."""
    _build_tables()
    return _BY_NAME[name]


__all__ = [
    "CPU_PROVIDER",
    "CUDA_PROVIDER",
    "CpuProvider",
    "CudaProvider",
    "DEFAULT_PROVIDER_PRIORITY",
    "ExecutionProvider",
    "ProviderCostParams",
    "ProviderError",
    "ProviderSpec",
    "TRANSFER_KERNEL_NAME",
    "TRT_PROVIDER",
    "TransferSpec",
    "TrtProvider",
    "canonical_provider_key",
    "provider_cost_params",
    "provider_kernel_by_name",
    "resolve_provider",
    "resolve_providers",
    "transfer_kernel",
]
