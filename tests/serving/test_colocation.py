"""Multi-model co-location: admission against one RAM budget, SM
partitioning with shared-DRAM contention, time slicing, isolation
metrics, and determinism."""

from __future__ import annotations

import pytest

from repro.analysis.engines import device_by_name
from repro.hardware.scheduler import StreamScheduler, usable_ram_mb
from repro.serving.colocation import (
    MODE_TIME_SLICE,
    ColocationConfig,
    ColocationScheduler,
    TenantSpec,
    contention_factors,
)

NX = device_by_name("NX")


def make_scheduler(farm, tenants, **config_kwargs):
    engines = [farm.engine(t.model, "NX") for t in tenants]
    config_kwargs.setdefault("frames", 4)
    return ColocationScheduler(
        tenants,
        engines,
        device=NX,
        config=ColocationConfig(**config_kwargs),
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_priority_must_be_positive(self):
        with pytest.raises(ValueError, match="priority"):
            TenantSpec(name="t", model="alexnet", priority=0)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            TenantSpec(name="t", model="alexnet", batch_size=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ColocationConfig(mode="mps")

    def test_duplicate_tenant_names_rejected(self, farm):
        tenants = [
            TenantSpec(name="t", model="alexnet"),
            TenantSpec(name="t", model="googlenet"),
        ]
        engines = [farm.engine(t.model, "NX") for t in tenants]
        with pytest.raises(ValueError, match="duplicate"):
            ColocationScheduler(tenants, engines, device=NX)

    def test_tenant_engine_length_mismatch(self, farm):
        with pytest.raises(ValueError, match="tenants but"):
            ColocationScheduler(
                [TenantSpec(name="t", model="alexnet")],
                [],
                device=NX,
            )

    def test_needs_at_least_one_tenant(self):
        with pytest.raises(ValueError, match="at least one"):
            ColocationScheduler([], [], device=NX)


class TestContentionFactors:
    def test_single_tenant_is_exactly_one(self):
        assert contention_factors([5e9], 50e9) == [1.0]

    def test_symmetric_demands_symmetric_factors(self):
        a, b = contention_factors([4e9, 4e9], 40e9)
        assert a == b == pytest.approx(1.1)

    def test_each_tenant_pays_only_the_others_demand(self):
        hog, mouse = contention_factors([30e9, 3e9], 30e9)
        assert hog == pytest.approx(1.1)  # only the mouse's 3 GB/s
        assert mouse == pytest.approx(2.0)  # the hog's full 30 GB/s

    def test_kappa_zero_disables_contention(self):
        assert contention_factors([9e9, 9e9], 10e9, kappa=0.0) == [
            1.0,
            1.0,
        ]


# ----------------------------------------------------------------------
# single tenant: bit-identical to the isolated path
# ----------------------------------------------------------------------
class TestSingleTenant:
    def test_solo_colocation_matches_isolated_bitwise(self, farm):
        scheduler = make_scheduler(
            farm, [TenantSpec(name="only", model="alexnet")]
        )
        tenant = scheduler.run().tenant("only")
        assert tenant.admitted
        assert tenant.sm_fraction == 1.0
        assert tenant.mem_contention == 1.0
        # Not approx: sm_fraction=1.0 hits the same skeleton-cache key
        # and the contention multiplier is exactly 1.0, so the
        # colocated timeline is the isolated timeline.
        assert tenant.colocated_ms == tenant.isolated_ms
        assert tenant.slowdown == 1.0


# ----------------------------------------------------------------------
# pairs: partitioning, contention, priorities
# ----------------------------------------------------------------------
class TestPairs:
    def test_colocated_is_never_faster_than_isolated(self, farm):
        scheduler = make_scheduler(
            farm,
            [
                TenantSpec(name="a", model="alexnet"),
                TenantSpec(name="b", model="googlenet"),
            ],
        )
        report = scheduler.run()
        for tenant in report.tenants:
            assert tenant.slowdown > 1.0
            assert tenant.colocated_ms > tenant.isolated_ms
        assert report.worst_slowdown >= report.mean_slowdown > 1.0

    def test_priority_buys_sm_share_and_less_slowdown(self, farm):
        scheduler = make_scheduler(
            farm,
            [
                TenantSpec(name="hi", model="alexnet", priority=3),
                TenantSpec(name="lo", model="alexnet", priority=1),
            ],
        )
        report = scheduler.run()
        hi, lo = report.tenant("hi"), report.tenant("lo")
        assert hi.sm_fraction == pytest.approx(0.75)
        assert lo.sm_fraction == pytest.approx(0.25)
        assert hi.slowdown < lo.slowdown

    def test_time_slice_is_weighted_processor_sharing(self, farm):
        scheduler = make_scheduler(
            farm,
            [
                TenantSpec(name="hi", model="alexnet", priority=3),
                TenantSpec(name="lo", model="googlenet", priority=1),
            ],
            mode=MODE_TIME_SLICE,
        )
        report = scheduler.run()
        hi, lo = report.tenant("hi"), report.tenant("lo")
        # Full-speed execution for a w/sum(w) share of wall time, and
        # serialized DRAM access: no cross-tenant contention term.
        assert hi.slowdown == pytest.approx(4.0 / 3.0)
        assert lo.slowdown == pytest.approx(4.0)
        assert hi.mem_contention == lo.mem_contention == 1.0

    def test_same_seed_reports_are_byte_identical(self, farm):
        tenants = [
            TenantSpec(name="a", model="alexnet"),
            TenantSpec(name="b", model="mobilenet_v1"),
        ]
        first = make_scheduler(farm, tenants, seed=11).run()
        second = make_scheduler(farm, tenants, seed=11).run()
        assert first.to_json() == second.to_json()

    def test_slo_attainment_tracks_the_deadline(self, farm):
        generous = make_scheduler(
            farm,
            [
                TenantSpec(name="a", model="alexnet", slo_ms=1e6),
                TenantSpec(name="b", model="googlenet", slo_ms=1e6),
            ],
        ).run()
        assert generous.mean_slo_attainment == 1.0
        hopeless = make_scheduler(
            farm,
            [
                TenantSpec(name="a", model="alexnet", slo_ms=1e-6),
                TenantSpec(name="b", model="googlenet", slo_ms=1e-6),
            ],
        ).run()
        assert hopeless.mean_slo_attainment == 0.0


# ----------------------------------------------------------------------
# admission: one combined RAM budget
# ----------------------------------------------------------------------
class TestAdmission:
    def test_committed_never_exceeds_usable(self, farm):
        scheduler = make_scheduler(
            farm,
            [
                TenantSpec(name="a", model="alexnet"),
                TenantSpec(name="b", model="googlenet"),
                TenantSpec(name="c", model="mobilenet_v1"),
            ],
        )
        report = scheduler.run()
        assert report.admitted
        assert report.committed_mb <= report.usable_mb
        # The combined charge is resident engine bytes plus working
        # set, against the one usable-RAM budget.
        expected = sum(
            t.resident_mb + t.working_set_mb for t in report.admitted
        )
        assert report.committed_mb == pytest.approx(expected)

    def test_ram_pressure_sheds_lowest_priority(self, farm):
        hi = TenantSpec(name="hi", model="alexnet", priority=2)
        lo = TenantSpec(name="lo", model="googlenet", priority=1)
        engine_hi = farm.engine("alexnet", "NX")
        cost_hi = (
            engine_hi.size_mb
            + StreamScheduler(engine_hi, NX).per_stream_memory_mb()
        )
        usable_full = usable_ram_mb(NX)
        scheduler = make_scheduler(
            farm,
            [lo, hi],
            headroom_mb=usable_full - cost_hi - 1.0,
        )
        report = scheduler.run()
        assert [t.name for t in report.admitted] == ["hi"]
        assert [t.name for t in report.rejected] == ["lo"]
        assert "RAM" in report.tenant("lo").reject_reason
        # The survivor runs solo: full SM share, no contention.
        assert report.tenant("hi").slowdown == 1.0


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_tenant_spans_fold_into_metrics(self, farm):
        from repro import telemetry

        with telemetry.session(telemetry.PrometheusSink()):
            make_scheduler(
                farm,
                [
                    TenantSpec(name="a", model="alexnet"),
                    TenantSpec(name="b", model="googlenet"),
                ],
            ).run()
            doc = telemetry.BUS.metrics.to_dict()
        text = str(doc)
        assert "trtsim_coloc_tenants_admitted_total" in text
        assert "trtsim_coloc_slowdown" in text
        assert "trtsim_coloc_slo_attainment" in text
