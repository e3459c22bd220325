"""Fleet resilience experiments: build a fleet, hurt it, measure SLOs.

The single-node experiments (:mod:`repro.analysis` fault campaigns)
answer "does the supervisor keep one Jetson alive?"; this module asks
the fleet-scale question: given a heterogeneous mix of NX and AGX
nodes behind a router, how much SLO attainment do health checking,
circuit breakers, hedging, warm failover and graceful degradation buy
when devices crash, partition and brown out mid-traffic?

Fleet specs are strings like ``"4xNX+2xAGX"``.  Engines build once per
(model, device type) through the shared :class:`~repro.analysis
.engines.EngineFarm` — optionally store-backed, which is what arms
warm failover — and are shared across same-type devices exactly like
a fleet provisioned from one engine registry.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.engines import EngineFarm, device_by_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.interference import InterferenceReport
from repro.engine.builder import BuilderConfig
from repro.faults.scenario import FaultPlan
from repro.serving.fleet import (
    DegradationConfig,
    FleetDevice,
    FleetReport,
    FleetSimulator,
    RouterConfig,
    TrafficModel,
)

#: Default model mix and fallback ladder (tiny nets keep tests fast).
DEFAULT_MODELS: Tuple[str, ...] = ("mtcnn",)
DEFAULT_FALLBACKS: Tuple[str, ...] = ()

_SPEC_RE = re.compile(r"^(\d+)x([A-Za-z]+)$")


def parse_fleet_spec(spec: str) -> List[Tuple[int, str]]:
    """``"4xNX+2xAGX"`` -> ``[(4, "NX"), (2, "AGX")]``."""
    groups: List[Tuple[int, str]] = []
    for part in spec.split("+"):
        m = _SPEC_RE.match(part.strip())
        if not m:
            raise ValueError(
                f"bad fleet spec {spec!r}; expected e.g. '4xNX+2xAGX'"
            )
        count, device = int(m.group(1)), m.group(2).upper()
        try:
            device_by_name(device)
        except KeyError:
            raise ValueError(
                f"unknown device {device!r} in fleet spec {spec!r}; "
                "use NX or AGX"
            ) from None
        if count < 1:
            raise ValueError(f"bad device count in {spec!r}")
        groups.append((count, device))
    if not groups:
        raise ValueError("empty fleet spec")
    return groups


def build_fleet(
    spec: str = "4xNX+2xAGX",
    models: Sequence[str] = DEFAULT_MODELS,
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    farm: Optional[EngineFarm] = None,
    seed: int = 0,
    clock_mhz: Optional[float] = None,
    placement: Optional[Sequence[Sequence[str]]] = None,
    coloc_factors: Optional[Sequence[Dict[str, float]]] = None,
) -> List[FleetDevice]:
    """A named fleet: ``dev0..devN`` over the spec's device mix.

    By default every device installs every model (primary plus the
    fallback ladder).  With multiple models, warm residency is
    assigned round-robin so engine-affinity routing has cold devices
    to avoid; a single-model fleet is warm everywhere.  Engines are
    shared per (model, device type); per-device *state* (queues, warm
    flags, fault windows, supervisors) is independent.

    ``placement`` (one model list per device, e.g. from
    :func:`repro.analysis.interference.advise_placement`) instead
    installs only each device's assigned models, all warm, and
    ``coloc_factors`` (parallel to ``placement``, from
    :func:`repro.analysis.interference.placement_factors`) attaches
    the per-model co-location slowdowns that sharing each GPU
    implies.  Omitting both leaves the legacy everything-everywhere
    fleet byte-identical.

    Engines build through :meth:`EngineFarm.pinned_engine` — a fixed
    seed, not the farm's hash-derived slot seeds, which vary across
    interpreter processes: the same fleet spec must produce
    byte-identical simulation reports from separate ``trtsim fleet``
    invocations.
    """
    farm = farm or EngineFarm(pretrained=False)
    n_devices = sum(c for c, _ in parse_fleet_spec(spec))
    if placement is not None:
        if len(placement) != n_devices:
            raise ValueError(
                f"placement covers {len(placement)} devices but the "
                f"spec {spec!r} has {n_devices}"
            )
        unknown = {
            m for group in placement for m in group
        } - set(models)
        if unknown:
            raise ValueError(
                f"placement names models outside the fleet mix: "
                f"{sorted(unknown)}"
            )
    if coloc_factors is not None:
        if placement is None:
            raise ValueError("coloc_factors requires a placement")
        if len(coloc_factors) != len(placement):
            raise ValueError(
                "coloc_factors must parallel placement "
                f"({len(coloc_factors)} != {len(placement)})"
            )

    devices: List[FleetDevice] = []
    index = 0
    for count, device_name in parse_fleet_spec(spec):
        spec_obj = device_by_name(device_name)
        for _ in range(count):
            device = FleetDevice(
                f"dev{index}",
                spec_obj,
                store=farm.store,
                seed=seed,
                clock_mhz=clock_mhz,
            )
            device_models = (
                list(models) if placement is None
                else list(placement[index])
            )
            for j, model in enumerate(device_models):
                config = BuilderConfig(
                    precision=farm.precision,
                    seed=1000,
                    input_name=EngineFarm._input_name(model),
                )
                device.install(
                    model,
                    network=farm.graph(model),
                    fallback_networks=[
                        farm.graph(f) for f in fallbacks
                    ],
                    builder_config=config,
                    engine=farm.pinned_engine(model, device_name),
                    fallback_engines=[
                        farm.pinned_engine(f, device_name)
                        for f in fallbacks
                    ],
                    warm=(
                        placement is not None
                        or len(models) == 1
                        or (index - j) % len(models) == 0
                    ),
                )
            if coloc_factors is not None:
                device.set_colocation(coloc_factors[index])
            devices.append(device)
            index += 1
    return devices


def fleet_capacity_rps(devices: Sequence[FleetDevice]) -> float:
    """Aggregate level-0 service rate of the fleet (requests/s)."""
    total = 0.0
    for device in devices:
        rates = [
            1000.0 / device.serving(m).base_ms[0]
            for m in device.models()
        ]
        total += sum(rates) / len(rates)
    return total


def default_deadline_ms(
    devices: Sequence[FleetDevice], slack: float = 8.0
) -> float:
    """An SLO with ``slack`` x headroom over the slowest primary."""
    worst = max(
        device.serving(m).base_ms[0]
        for device in devices
        for m in device.models()
    )
    return slack * worst


def default_traffic(
    devices: Sequence[FleetDevice],
    duration_s: float = 4.0,
    utilization: float = 0.6,
    seed: int = 0,
    deadline_slack: float = 8.0,
) -> TrafficModel:
    """Traffic sized to the fleet: ``utilization`` of capacity, an SLO
    with ``deadline_slack`` headroom, uniform demand over the
    installed models."""
    models = sorted(
        {m for device in devices for m in device.models()}
    )
    return TrafficModel(
        duration_s=duration_s,
        base_rps=max(1.0, utilization * fleet_capacity_rps(devices)),
        models={m: 1.0 for m in models},
        deadline_ms=default_deadline_ms(devices, deadline_slack),
        seed=seed,
    )


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
@dataclass
class FleetComparison:
    """Resilient vs blind fleet over the same traffic and faults."""

    resilient: FleetReport
    baseline: FleetReport

    @property
    def hit_rate_gain(self) -> float:
        """Deadline-hit-rate multiple of resilience over the blind
        baseline (capped only by a zero-attainment floor guard)."""
        floor = max(self.baseline.attainment, 1e-9)
        return self.resilient.attainment / floor

    def slo_table(self) -> str:
        rows = [
            ("requests", "requests", "d"),
            ("deadline hits", "deadline_hits", "d"),
            ("attainment", "attainment", ".3f"),
            ("served", "served", "d"),
            ("failed", "failed", "d"),
            ("shed", "shed", "d"),
            ("p99 latency (ms)", "p99_latency_ms", ".2f"),
            ("hedges", "hedges", "d"),
            ("hedge cancels", "hedge_cancels", "d"),
            ("redispatches", "redispatches", "d"),
            ("warm failovers", "warm_failovers", "d"),
            ("device-seconds", "device_seconds", ".2f"),
        ]
        lines = [
            f"{'metric':<20}{'resilient':>12}{'baseline':>12}"
        ]
        for label, attr, fmt in rows:
            r = format(getattr(self.resilient, attr), fmt)
            b = format(getattr(self.baseline, attr), fmt)
            lines.append(f"{label:<20}{r:>12}{b:>12}")
        lines.append(
            f"{'hit-rate gain':<20}{self.hit_rate_gain:>12.2f}"
            f"{'1.00':>12}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "trtsim.fleet_comparison/1",
            "hit_rate_gain": self.hit_rate_gain,
            "resilient": self.resilient.to_dict(),
            "baseline": self.baseline.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_fleet(
    devices: List[FleetDevice],
    traffic: TrafficModel,
    plan: Optional[FaultPlan] = None,
    policy: str = "least-loaded",
    resilient: bool = True,
    router_config: Optional[RouterConfig] = None,
    degradation: Optional[DegradationConfig] = None,
    record_outcomes: bool = False,
) -> FleetReport:
    """One seeded fleet run (thin wrapper over the simulator)."""
    return FleetSimulator(
        devices,
        traffic,
        policy=policy,
        plan=plan,
        resilient=resilient,
        router_config=router_config,
        degradation=degradation,
        record_outcomes=record_outcomes,
    ).run()


def compare_resilience(
    spec: str = "4xNX+2xAGX",
    models: Sequence[str] = DEFAULT_MODELS,
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    plan: Optional[FaultPlan] = None,
    policy: str = "least-loaded",
    traffic: Optional[TrafficModel] = None,
    duration_s: float = 4.0,
    utilization: float = 0.6,
    seed: int = 0,
    farm: Optional[EngineFarm] = None,
    clock_mhz: Optional[float] = None,
) -> FleetComparison:
    """The headline experiment: same fleet shape, same traffic, same
    injected faults — routed blind vs with the full resilience stack
    (health checks, breakers, redispatch, hedging, warm failover,
    degradation ladder).

    When no farm is supplied, a store-backed one is created in a
    scratch directory so warm failover is armed — the resilient fleet
    restores crashed ladders from the shared store, the blind fleet
    rebuilds cold.
    """
    if farm is None:
        import tempfile

        from repro.engine.store import EngineStore

        farm = EngineFarm(
            pretrained=False,
            store=EngineStore(tempfile.mkdtemp(prefix="trtsim-fleet-")),
        )
    resilient_fleet = build_fleet(
        spec, models, fallbacks, farm=farm, seed=seed,
        clock_mhz=clock_mhz,
    )
    baseline_fleet = build_fleet(
        spec, models, fallbacks, farm=farm, seed=seed,
        clock_mhz=clock_mhz,
    )
    if traffic is None:
        traffic = default_traffic(
            resilient_fleet, duration_s=duration_s,
            utilization=utilization, seed=seed,
        )
    resilient = run_fleet(
        resilient_fleet, traffic, plan=plan, policy=policy,
        resilient=True,
    )
    baseline = run_fleet(
        baseline_fleet, traffic, plan=plan, policy=policy,
        resilient=False,
    )
    return FleetComparison(resilient=resilient, baseline=baseline)


@dataclass
class PolicySweep:
    """One report per routing policy over identical traffic/faults."""

    reports: List[FleetReport] = field(default_factory=list)

    def table(self) -> str:
        lines = [
            f"{'policy':<18}{'attain':>8}{'p99 ms':>9}{'hedges':>8}"
            f"{'redisp':>8}{'shed':>6}{'cold':>6}"
        ]
        for r in self.reports:
            lines.append(
                f"{r.policy:<18}{r.attainment:>8.3f}"
                f"{r.p99_latency_ms:>9.2f}{r.hedges:>8d}"
                f"{r.redispatches:>8d}{r.shed:>6d}{r.cold_loads:>6d}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "trtsim.fleet_policy_sweep/1",
            "policies": [r.to_dict() for r in self.reports],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class PlacementComparison:
    """Advisor vs round-robin placement over identical traffic.

    Both fleets are priced by the *same* interference physics (each
    device's co-location factors follow from its resident set); only
    the assignment differs, so the gain isolates what matrix-aware
    packing buys.
    """

    advisor: FleetReport
    round_robin: FleetReport
    advisor_placement: List[List[str]]
    round_robin_placement: List[List[str]]

    @property
    def attainment_gain(self) -> float:
        """Deadline-attainment multiple of advised placement over the
        naive round-robin baseline."""
        floor = max(self.round_robin.attainment, 1e-9)
        return self.advisor.attainment / floor

    def table(self) -> str:
        rows = [
            ("requests", "requests", "d"),
            ("deadline hits", "deadline_hits", "d"),
            ("attainment", "attainment", ".3f"),
            ("p99 latency (ms)", "p99_latency_ms", ".2f"),
            ("served", "served", "d"),
        ]
        lines = [f"{'metric':<20}{'advisor':>12}{'round-robin':>12}"]
        for label, attr, fmt in rows:
            a = format(getattr(self.advisor, attr), fmt)
            r = format(getattr(self.round_robin, attr), fmt)
            lines.append(f"{label:<20}{a:>12}{r:>12}")
        lines.append(
            f"{'attainment gain':<20}{self.attainment_gain:>12.2f}"
            f"{'1.00':>12}"
        )
        for title, placement in (
            ("advisor", self.advisor_placement),
            ("round-robin", self.round_robin_placement),
        ):
            lines.append(f"{title} placement:")
            for i, group in enumerate(placement):
                lines.append(f"  dev{i}: {', '.join(group) or '-'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "trtsim.placement_compare/1",
            "attainment_gain": self.attainment_gain,
            "advisor_placement": [
                list(g) for g in self.advisor_placement
            ],
            "round_robin_placement": [
                list(g) for g in self.round_robin_placement
            ],
            "advisor": self.advisor.to_dict(),
            "round_robin": self.round_robin.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def placement_bottleneck_rps(
    devices: Sequence[FleetDevice], n_models: int
) -> float:
    """Sustainable fleet-wide request rate under a placement.

    Traffic splits uniformly over ``n_models`` models and each model
    lives on exactly one device, so device *d* saturates when the
    offered rate reaches ``n_models / sum(effective service time of
    d's models)`` — the fleet bottleneck is the minimum over devices.
    Effective service times include each device's co-location
    factors: a placement that groups interfering models *loses
    capacity*, which is exactly what the advisor is minimizing.
    """
    caps = []
    for device in devices:
        total_s = sum(
            device.effective_base_ms(m) / 1000.0
            for m in device.models()
        )
        if total_s > 0:
            caps.append(n_models / total_s)
    return min(caps) if caps else 0.0


def compare_placement(
    spec: str = "2xNX",
    models: Optional[Sequence[str]] = None,
    policy: str = "least-loaded",
    duration_s: float = 4.0,
    utilization: float = 0.95,
    deadline_slack: float = 4.0,
    seed: int = 0,
    farm: Optional[EngineFarm] = None,
    clock_mhz: Optional[float] = None,
    matrix: Optional["InterferenceReport"] = None,
) -> PlacementComparison:
    """The advisor experiment: co-locate ``models`` across the fleet
    by interference-aware bin packing vs naive round-robin, then run
    identical traffic through both and compare deadline attainment.

    ``matrix`` (an :class:`~repro.analysis.interference
    .InterferenceReport`) is probed on the spec's first device type
    when omitted.

    Traffic is *steady* (no diurnal swing, no bursts) and sized at
    ``utilization`` of the tighter of the two fleets' bottleneck
    devices (co-location factors included): near saturation, the
    capacity the advisor recovers by separating interfering models is
    the difference between a draining queue and a diverging one, so
    deadline attainment — not survival — is what the comparison
    measures.
    """
    from repro.analysis.interference import (
        DEFAULT_MATRIX_MODELS,
        advise_placement,
        interference_matrix,
        placement_factors,
        round_robin_placement,
    )

    model_names = list(models or DEFAULT_MATRIX_MODELS)
    farm = farm or EngineFarm(pretrained=False)
    groups = parse_fleet_spec(spec)
    n_devices = sum(c for c, _ in groups)
    if matrix is None:
        matrix = interference_matrix(
            model_names,
            device_name=groups[0][1],
            farm=farm,
            clock_mhz=clock_mhz,
            seed=seed,
        )
    advised = advise_placement(matrix, n_devices, model_names)
    naive = round_robin_placement(model_names, n_devices)
    advisor_fleet = build_fleet(
        spec, model_names, farm=farm, seed=seed, clock_mhz=clock_mhz,
        placement=advised,
        coloc_factors=placement_factors(matrix, advised),
    )
    naive_fleet = build_fleet(
        spec, model_names, farm=farm, seed=seed, clock_mhz=clock_mhz,
        placement=naive,
        coloc_factors=placement_factors(matrix, naive),
    )
    bottleneck = min(
        placement_bottleneck_rps(advisor_fleet, len(model_names)),
        placement_bottleneck_rps(naive_fleet, len(model_names)),
    )
    traffic = TrafficModel(
        duration_s=duration_s,
        base_rps=max(1.0, utilization * bottleneck),
        models={m: 1.0 for m in model_names},
        diurnal_amplitude=0.0,
        burst_prob=0.0,
        deadline_ms=default_deadline_ms(naive_fleet, deadline_slack),
        seed=seed,
    )
    return PlacementComparison(
        advisor=run_fleet(
            advisor_fleet, traffic, policy=policy, resilient=True
        ),
        round_robin=run_fleet(
            naive_fleet, traffic, policy=policy, resilient=True
        ),
        advisor_placement=advised,
        round_robin_placement=naive,
    )


def compare_policies(
    spec: str = "4xNX+2xAGX",
    models: Sequence[str] = DEFAULT_MODELS,
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    policies: Sequence[str] = (
        "round-robin", "least-loaded", "latency-aware",
        "engine-affinity",
    ),
    plan: Optional[FaultPlan] = None,
    duration_s: float = 4.0,
    utilization: float = 0.6,
    seed: int = 0,
    farm: Optional[EngineFarm] = None,
    clock_mhz: Optional[float] = None,
) -> PolicySweep:
    """Sweep routing policies over the identical seeded scenario."""
    farm = farm or EngineFarm(pretrained=False)
    sweep = PolicySweep()
    traffic: Optional[TrafficModel] = None
    for policy in policies:
        fleet = build_fleet(spec, models, fallbacks, farm=farm,
                            seed=seed, clock_mhz=clock_mhz)
        if traffic is None:
            traffic = default_traffic(
                fleet, duration_s=duration_s,
                utilization=utilization, seed=seed,
            )
        sweep.reports.append(
            run_fleet(fleet, traffic, plan=plan, policy=policy,
                      resilient=True)
        )
    return sweep
