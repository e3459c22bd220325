"""``serve``: the serving loops under seeded faults.

Set-up builds every engine the loops use (pinned seeds, through a
store-backed ``EngineFarm`` so warm failover is armed), and counts the
requests the placement comparison's traffic offers.  One pass:

* eighteen fleet runs on ``4xNX+2xAGX``: ``fleet_chaos``,
  ``fleet_cold_reboot`` and ``fleet_brownout``, each resilient and
  blind, over three seeded open-loop traffic draws.  Each run is two
  calls: building the fleet (``build_fleet``), then running it
  (``run_fleet``);
* the interference matrix on NX, then the placement advisor against
  round-robin on ``2xNX`` (the matrix call's report feeds the advisor);
* supervised vs unsupervised traffic-app fault campaigns.

An item is one simulated request.  Traffic is open loop: arrivals
follow ``TrafficModel`` at the stated utilisation with its default
diurnal swing and bursts.  The fleets run at ``default_traffic``'s 60%
of capacity, the load ``trtsim fleet`` serves by default, so queueing,
shedding and hedging are all in play.  Their engines are FP32 at
408 MHz: utilisation is relative to capacity, so the regime stays the
same as at FP16 and a higher clock, but a slower fleet is offered fewer
requests over the fault windows, and one call stays short enough for a
run to make 100 calls.  The supervised campaigns are short so numeric
forwards stay a minority of the pass.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engines import EngineFarm
from repro.analysis.fleet import (
    build_fleet,
    compare_placement,
    default_traffic,
    fleet_capacity_rps,
    parse_fleet_spec,
    placement_bottleneck_rps,
    run_fleet,
)
from repro.analysis.interference import (
    advise_placement,
    interference_matrix,
    placement_factors,
    round_robin_placement,
)
from repro.apps.traffic import run_fault_scenario
from repro.engine import PrecisionMode
from repro.engine.store import EngineStore
from repro.faults import canned_fleet_plan, canned_plan
from repro.serving.fleet import TrafficModel

from perfbench.workloads import Call, seeds

FLEET_SPEC = "4xNX+2xAGX"
FLEET_MODELS = ("inception_v4",)
FLEET_FALLBACKS = ("mtcnn",)
FLEET_SCENARIOS = ("fleet_chaos", "fleet_cold_reboot", "fleet_brownout")
FLEET_PRECISION = PrecisionMode.FP32
FLEET_CLOCK_MHZ = 408.0
#: Long enough to cover every canned fleet fault window.
FLEET_DURATION_S = 4.5
FLEET_UTILIZATION = 0.6
#: Traffic draws per scenario and mode: bursts make one draw's request
#: count vary by about 20%, and more draws average that out, so the
#: work per pass varies less from seed to seed.
FLEET_DRAWS = 3

PLACEMENT_SPEC = "2xNX"
PLACEMENT_MODELS = (
    "vgg16", "alexnet", "pednet", "googlenet", "mobilenet_v1", "mtcnn",
)
PLACEMENT_DURATION_S = 0.75
PLACEMENT_UTILIZATION = 0.95
PLACEMENT_DEADLINE_SLACK = 4.0

DETECTOR = "tiny_yolov3"
DETECTOR_FALLBACKS = ("mtcnn",)
CAMPAIGNS = ("flaky_kernels",)
#: One request stream per camera approach.
CAMPAIGN_APPROACHES = ("north", "south", "east", "west")
CAMPAIGN_FRAMES = 4


def conservation_failures(offered: int, requests: int, attainment: float,
                          **outcomes: int) -> list:
    """Every offered request is reported once and ends in exactly one
    outcome; attainment is a fraction.  ``offered`` is counted from the
    input traffic, not from the report."""
    failures = []
    if requests != offered:
        failures.append(f"{requests} requests reported, {offered} offered")
    if sum(outcomes.values()) != offered:
        parts = " + ".join(f"{k} {v}" for k, v in outcomes.items())
        failures.append(f"{parts} != {offered} offered")
    if not 0.0 <= attainment <= 1.0:
        failures.append(f"attainment {attainment} outside [0, 1]")
    return failures


def fleet_failures(report, offered: int) -> list:
    return conservation_failures(
        offered, report.requests, report.attainment,
        served=report.served, failed=report.failed, shed=report.shed,
    )


class Workload:
    name = "serve"

    def setup(self, seed: int, workdir: Path) -> None:
        runs = [
            (s, r, d)
            for s in FLEET_SCENARIOS
            for r in (True, False)
            for d in range(FLEET_DRAWS)
        ]
        *fleet_seeds, self.placement_seed, self.campaign_seed = seeds(
            seed, len(runs) + 2
        )
        self.fleet_seeds = dict(zip(runs, fleet_seeds))
        store = EngineStore(workdir / "store")
        self.farm = EngineFarm(pretrained=False, store=store)
        self.fleet_farm = EngineFarm(
            precision=FLEET_PRECISION, pretrained=False, store=store
        )
        for model in FLEET_MODELS + FLEET_FALLBACKS:
            for device in ("NX", "AGX"):
                self.fleet_farm.pinned_engine(model, device)
        for model in PLACEMENT_MODELS:
            self.farm.pinned_engine(model, "NX")
        self.detector = self.farm.pinned_engine(DETECTOR, "NX")
        self.detector_fallbacks = [
            self.farm.pinned_engine(m, "NX") for m in DETECTOR_FALLBACKS
        ]
        # Requests offered by the traffic that compare_placement and the
        # campaigns generate inside the call, for the output checks.
        self.placement_offered = self._placement_offered()
        self.campaign_offered = CAMPAIGN_FRAMES * len(CAMPAIGN_APPROACHES)

    def _placement_offered(self) -> int:
        """Requests in ``compare_placement``'s shared traffic, rebuilt
        from its public parts (the count does not depend on the
        deadline, so that is left at its default)."""
        matrix = interference_matrix(
            PLACEMENT_MODELS, device_name="NX", farm=self.farm,
            seed=self.placement_seed,
        )
        n_devices = sum(c for c, _ in parse_fleet_spec(PLACEMENT_SPEC))
        placements = (
            advise_placement(matrix, n_devices, list(PLACEMENT_MODELS)),
            round_robin_placement(list(PLACEMENT_MODELS), n_devices),
        )
        bottleneck = min(
            placement_bottleneck_rps(
                build_fleet(
                    PLACEMENT_SPEC, PLACEMENT_MODELS, farm=self.farm,
                    seed=self.placement_seed, placement=placement,
                    coloc_factors=placement_factors(matrix, placement),
                ),
                len(PLACEMENT_MODELS),
            )
            for placement in placements
        )
        traffic = TrafficModel(
            duration_s=PLACEMENT_DURATION_S,
            base_rps=max(1.0, PLACEMENT_UTILIZATION * bottleneck),
            models={m: 1.0 for m in PLACEMENT_MODELS},
            diurnal_amplitude=0.0,
            burst_prob=0.0,
            seed=self.placement_seed,
        )
        return len(traffic.generate())

    def begin_pass(self) -> None:
        self.matrix = None
        self.built = {}

    def calls(self):
        for run in self.fleet_seeds:
            scenario, resilient, draw = run
            mode = "resilient" if resilient else "blind"
            label = f"fleet/{scenario}/{mode}/{draw}"
            yield Call(f"{label}/build", lambda run=run: self._build(run),
                       self._check_build)
            yield Call(label, lambda run=run: self._fleet(run),
                       self._check_fleet)
        yield Call("interference_matrix", self._matrix, self._check_matrix)
        yield Call("placement_advisor", self._placement,
                   self._check_placement)
        for plan in CAMPAIGNS:
            yield Call(f"supervised/{plan}",
                       lambda p=plan: self._campaign(p),
                       self._check_campaign)

    # ------------------------------------------------------------------
    def _fleet_traffic(self, seed: int):
        fleet = build_fleet(
            FLEET_SPEC, FLEET_MODELS, FLEET_FALLBACKS, farm=self.fleet_farm,
            seed=seed, clock_mhz=FLEET_CLOCK_MHZ,
        )
        traffic = default_traffic(
            fleet, duration_s=FLEET_DURATION_S,
            utilization=FLEET_UTILIZATION, seed=seed,
        )
        return fleet, traffic

    def _build(self, run):
        """Fleet construction: supervisor installs on every device and
        warm-failover pricing, kept apart from the event loop."""
        self.built[run] = self._fleet_traffic(self.fleet_seeds[run])
        return 0, self.built[run]

    def _check_build(self, built):
        fleet, traffic = built
        capacity = fleet_capacity_rps(fleet)
        failures = [] if capacity > 0 else [f"fleet capacity {capacity}"]
        record = {
            "devices": [[d.name, d.models()] for d in fleet],
            "capacity_rps": capacity,
            "base_rps": traffic.base_rps,
            "deadline_ms": traffic.deadline_ms,
        }
        return record, failures

    def _fleet(self, run):
        scenario, resilient, _ = run
        seed = self.fleet_seeds[run]
        fleet, traffic = self.built.pop(run)
        report = run_fleet(
            fleet, traffic, plan=canned_fleet_plan(scenario, seed=seed),
            resilient=resilient,
        )
        return report.requests, (report, traffic)

    def _check_fleet(self, output):
        report, traffic = output
        # The schedule the run consumed (memoized, so not drawn again).
        offered = len(traffic.generate())
        return report.to_dict(), fleet_failures(report, offered)

    def _matrix(self):
        self.matrix = interference_matrix(
            PLACEMENT_MODELS, device_name="NX", farm=self.farm,
            seed=self.placement_seed,
        )
        return 0, self.matrix

    def _check_matrix(self, report):
        failures = [
            f"slowdown {a}|{b} = {v} < 1"
            for a, row in report.matrix.items()
            for b, v in row.items()
            if not v >= 1.0
        ]
        return report.to_dict(), failures

    def _placement(self):
        comparison = compare_placement(
            spec=PLACEMENT_SPEC, models=PLACEMENT_MODELS,
            duration_s=PLACEMENT_DURATION_S,
            utilization=PLACEMENT_UTILIZATION,
            deadline_slack=PLACEMENT_DEADLINE_SLACK,
            seed=self.placement_seed, farm=self.farm, matrix=self.matrix,
        )
        items = comparison.advisor.requests + comparison.round_robin.requests
        return items, comparison

    def _check_placement(self, comparison):
        failures = fleet_failures(
            comparison.advisor, self.placement_offered
        ) + fleet_failures(comparison.round_robin, self.placement_offered)
        return comparison.to_dict(), failures

    def _campaign(self, plan: str):
        comparison = run_fault_scenario(
            self.detector,
            canned_plan(plan, seed=self.campaign_seed),
            fallbacks=self.detector_fallbacks,
            approaches=CAMPAIGN_APPROACHES,
            frames=CAMPAIGN_FRAMES,
            seed=self.campaign_seed,
        )
        items = (comparison.supervised.requests
                 + comparison.unsupervised.requests)
        return items, comparison

    def _check_campaign(self, comparison):
        failures = []
        for side in (comparison.supervised, comparison.unsupervised):
            failures += conservation_failures(
                self.campaign_offered, side.requests, side.deadline_hit_rate,
                served=side.served, dropped=side.dropped_frames,
            )
        return comparison.to_dict(), failures
