"""The fault-injection subsystem's acceptance gates.

Covers the issue's criteria:

- same seed ⇒ bit-identical :class:`FaultSchedule` (repr equality),
- cluster injectors apply and cleanly revert through the machines'
  existing mechanisms, observable only via the controllers' normal knobs,
- fault-storm co-location runs are deterministic and the storm driver
  compares Rhythm vs Heracles under an identical storm,
- **differential identity**: grid and profiling results under
  executor-only fault schedules are bit-identical to a fault-free inline
  run (fork and spawn contexts),
- the hardened pool's ``PoolStats`` counters match the plan-predicted
  sabotage exactly; timeouts, kills and inline fallbacks all recover,
- trace corruption is deterministic and the tolerant extraction path
  degrades gracefully where the strict path would raise.
"""

from __future__ import annotations

import pytest

from repro.bejobs.catalog import evaluation_be_jobs
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN
from repro.core.servpod import deploy_service
from repro.errors import FaultError, TracingError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.faultstorm import run_fault_storm
from repro.experiments.runner import (
    build_rhythm_controllers,
    clear_rhythm_cache,
    run_cell,
)
from repro.faults import (
    ClusterFaultInjector,
    ExecutorFaultPlan,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    TraceFaultConfig,
    corrupt_events,
    executor_chaos,
)
from repro.loadgen.patterns import ConstantLoad
from repro.parallel import (
    GridCell,
    artifact_for,
    colocation_fingerprint,
    comparison_fingerprint,
    run_comparison_grid,
)
from repro.parallel.pool import (
    Envelope,
    envelope_task_key,
    pool_stats,
    reset_pool_state_for_tests,
    reset_pool_stats,
    resolve_task_timeout,
    run_envelopes,
)
from repro.parallel.profile import clear_profile_memo, profile_service_parallel
from repro.sim.rng import RandomStreams
from repro.tracing.causality import CausalityMatcher
from repro.tracing.emitter import EmitterConfig, TraceEmitter, default_endpoints
from repro.tracing.sojourn import SojournExtractor
from repro.workloads.service import Service
from conftest import make_tiny_service

FAST = ColocationConfig(duration_s=20.0, sample_cap=150, min_samples=50)


@pytest.fixture(scope="module", autouse=True)
def _fresh_state():
    clear_rhythm_cache()
    clear_profile_memo()
    yield
    clear_rhythm_cache()
    clear_profile_memo()


@pytest.fixture(scope="module")
def service():
    return make_tiny_service()


# -- the declarative layer -------------------------------------------------


class TestFaultSchedule:
    def test_same_seed_identical_repr(self):
        a = FaultSchedule.generate(11, 600.0, targets=("m1", "m2"))
        b = FaultSchedule.generate(11, 600.0, targets=("m1", "m2"))
        assert repr(a) == repr(b)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultSchedule.generate(11, 600.0)
        b = FaultSchedule.generate(12, 600.0)
        assert repr(a) != repr(b)

    def test_time_sorted(self):
        schedule = FaultSchedule.generate(3, 900.0, faults_per_minute=4.0)
        starts = [f.at_s for f in schedule]
        assert starts == sorted(starts)

    def test_hand_built_schedules_sort_themselves(self):
        late = FaultSpec(FaultKind.DVFS_CAP, "m", at_s=50.0)
        early = FaultSpec(FaultKind.CORE_OFFLINE, "m", at_s=5.0)
        schedule = FaultSchedule(faults=(late, early))
        assert schedule.faults == (early, late)

    def test_count_scales_with_rate(self):
        schedule = FaultSchedule.generate(0, 300.0, faults_per_minute=4.0)
        assert len(schedule) == 20

    def test_windows_clipped_to_run_end(self):
        schedule = FaultSchedule.generate(5, 120.0, max_duration_s=500.0)
        for fault in schedule:
            assert fault.at_s < 120.0
            # A window may run past the end only by the enforced minimum
            # duration (a fault cannot be shorter than min_duration_s).
            assert fault.end_s <= 120.0 + 10.0

    def test_queries(self):
        f1 = FaultSpec(FaultKind.CORE_OFFLINE, "m1", at_s=10.0, duration_s=20.0)
        f2 = FaultSpec(FaultKind.NIC_DEGRADE, "*", at_s=40.0, duration_s=10.0)
        schedule = FaultSchedule(faults=(f1, f2))
        assert schedule.for_target("m1") == (f1, f2)
        assert schedule.for_target("m2") == (f2,)
        assert schedule.active_at(15.0) == (f1,)
        assert schedule.active_at(30.0) == ()
        assert schedule.starting_in(0.0, 20.0) == (f1,)
        assert schedule.counts_by_kind() == {"core_offline": 1, "nic_degrade": 1}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0},
            {"duration_s": 100.0, "faults_per_minute": -1.0},
            {"duration_s": 100.0, "targets": ()},
            {"duration_s": 100.0, "min_magnitude": 0.0},
            {"duration_s": 100.0, "min_magnitude": 0.8, "max_magnitude": 0.5},
            {"duration_s": 100.0, "min_duration_s": 0.0},
            {"duration_s": 100.0, "min_duration_s": 50.0, "max_duration_s": 10.0},
        ],
    )
    def test_generate_rejects_bad_ranges(self, kwargs):
        with pytest.raises(FaultError):
            FaultSchedule.generate(0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "core_offline"},
            {"kind": FaultKind.DVFS_CAP, "target": ""},
            {"kind": FaultKind.DVFS_CAP, "at_s": -1.0},
            {"kind": FaultKind.DVFS_CAP, "duration_s": 0.0},
            {"kind": FaultKind.DVFS_CAP, "magnitude": 0.0},
            {"kind": FaultKind.DVFS_CAP, "magnitude": 1.5},
        ],
    )
    def test_spec_rejects_bad_fields(self, kwargs):
        with pytest.raises(FaultError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize("field", ["at_s", "duration_s", "magnitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_spec_rejects_non_finite_windows(self, field, value):
        # A NaN start would apply on the first tick and a NaN end would
        # never revert; NaN sort keys would also make schedule order
        # depend on input order.
        with pytest.raises(FaultError, match=f"{field} must be finite"):
            FaultSpec(FaultKind.CORE_OFFLINE, "m", **{field: value})


# -- the cluster layer -----------------------------------------------------


def _one_fault_injector(cluster, kind, magnitude=0.5, target="front"):
    spec = FaultSpec(kind, target, at_s=10.0, duration_s=20.0, magnitude=magnitude)
    return ClusterFaultInjector(cluster, FaultSchedule(faults=(spec,))), spec


class TestClusterFaultInjector:
    @pytest.fixture
    def cluster(self, service):
        return deploy_service(service, None).cluster

    def test_core_offline_applies_and_reverts(self, cluster):
        machine = cluster["front"]
        free_before = machine.cpuset.free_cores
        injector, _ = _one_fault_injector(cluster, FaultKind.CORE_OFFLINE)
        assert injector.advance(0.0) == 0
        assert injector.advance(10.0) == 1
        assert machine.offlined_cores == machine.spec.cores // 2
        assert machine.cpuset.free_cores < free_before
        assert injector.advance(30.0) == 1
        assert machine.offlined_cores == 0
        assert machine.cpuset.free_cores == free_before

    def test_core_offline_evicts_be_cores_not_lc(self, cluster):
        from repro.cluster.machine import LC_OWNER

        machine = cluster["front"]
        lc_before = machine.cpuset.count(LC_OWNER)
        for i in range(6):
            if machine.can_launch_be():
                machine.launch_be(f"be-{i}")
                for _ in range(4):
                    machine.grow_be(f"be-{i}")
        be_before = machine.be_total_cores
        assert be_before > machine.be_instance_count  # jobs hold >1 core
        injector, _ = _one_fault_injector(
            cluster, FaultKind.CORE_OFFLINE, magnitude=0.9
        )
        injector.advance(10.0)
        assert machine.offlined_cores > 0
        assert machine.cpuset.count(LC_OWNER) == lc_before
        assert machine.be_total_cores < be_before

    def test_dvfs_cap_is_stuck(self, cluster):
        machine = cluster["front"]
        injector, _ = _one_fault_injector(
            cluster, FaultKind.DVFS_CAP, magnitude=1.0
        )
        injector.advance(10.0)
        assert machine.dvfs.frequency(LC_DOMAIN) == machine.dvfs.min_mhz
        # The governor's step_up "succeeds" but the silicon stays capped.
        machine.dvfs.step_up(BE_DOMAIN)
        machine.dvfs.step_up(BE_DOMAIN)
        assert machine.dvfs.frequency(BE_DOMAIN) == machine.dvfs.min_mhz
        assert machine.dvfs.ratio(LC_DOMAIN) < 1.0
        injector.advance(30.0)
        machine.dvfs.reset(BE_DOMAIN)
        assert machine.dvfs.frequency(BE_DOMAIN) == machine.dvfs.max_mhz

    def test_nic_degrade_creates_shortfall(self, cluster):
        machine = cluster["front"]
        link = machine.spec.link_gbps
        injector, _ = _one_fault_injector(
            cluster, FaultKind.NIC_DEGRADE, magnitude=0.8
        )
        injector.advance(10.0)
        machine.nic.observe_lc_traffic(0.5 * link)
        assert machine.nic.effective_link_gbps == pytest.approx(0.2 * link)
        assert machine.nic.lc_shortfall_fraction() == pytest.approx(0.6)
        injector.advance(30.0)
        machine.nic.observe_lc_traffic(0.5 * link)
        assert machine.nic.lc_shortfall_fraction() == 0.0

    def test_llc_way_loss_fences_ways(self, cluster):
        machine = cluster["front"]
        free_before = machine.llc.free_ways
        injector, _ = _one_fault_injector(cluster, FaultKind.LLC_WAY_LOSS)
        injector.advance(10.0)
        assert machine.lost_llc_ways > 0
        assert machine.llc.free_ways < free_before
        injector.advance(30.0)
        assert machine.lost_llc_ways == 0
        assert machine.llc.free_ways == free_before

    def test_stall_factor(self, cluster):
        injector, spec = _one_fault_injector(
            cluster, FaultKind.MACHINE_STALL, magnitude=1.0
        )
        injector.advance(10.0)
        assert injector.stall_factor("front") == pytest.approx(10.0)
        assert injector.stall_factor("back") == 1.0
        injector.advance(30.0)
        assert injector.stall_factor("front") == 1.0

    def test_adjust_pressure_folds_llc_and_net(self, cluster):
        from repro.interference.model import Pressure

        machine = cluster["front"]
        faults = (
            FaultSpec(FaultKind.LLC_WAY_LOSS, "front", at_s=10.0, magnitude=0.4),
            FaultSpec(FaultKind.NIC_DEGRADE, "front", at_s=10.0, magnitude=0.9),
        )
        injector = ClusterFaultInjector(cluster, FaultSchedule(faults=faults))
        injector.advance(10.0)
        machine.nic.observe_lc_traffic(0.8 * machine.spec.link_gbps)
        base = Pressure(cpu=0.1, llc=0.2, membw=0.1, net=0.0, freq=0.0)
        adjusted = injector.adjust_pressure(machine, base)
        assert adjusted.llc == pytest.approx(0.6)
        assert adjusted.net > 0.5
        # Unrelated machine: pressure passes through untouched.
        assert injector.adjust_pressure(cluster["back"], base) == base

    def test_advance_is_idempotent(self, cluster):
        injector, _ = _one_fault_injector(cluster, FaultKind.CORE_OFFLINE)
        assert injector.advance(10.0) == 1
        assert injector.advance(10.0) == 0
        assert injector.advance(12.0) == 0

    def test_window_between_ticks_is_skipped(self, cluster):
        spec = FaultSpec(
            FaultKind.CORE_OFFLINE, "front", at_s=10.0, duration_s=2.0
        )
        injector = ClusterFaultInjector(cluster, FaultSchedule(faults=(spec,)))
        # The control loop ticks at 5 and 15; the whole window fell in
        # between. Nothing applies and nothing leaks.
        assert injector.advance(5.0) == 0
        assert injector.advance(15.0) == 0
        assert cluster["front"].offlined_cores == 0
        assert injector.active_faults == ()

    def test_overlapping_nic_faults_compose(self, cluster):
        machine = cluster["front"]
        faults = (
            FaultSpec(FaultKind.NIC_DEGRADE, "front", at_s=10.0, magnitude=0.5),
            FaultSpec(FaultKind.NIC_DEGRADE, "front", at_s=12.0, magnitude=0.5),
        )
        injector = ClusterFaultInjector(cluster, FaultSchedule(faults=faults))
        injector.advance(10.0)
        assert machine.nic.link_scale == pytest.approx(0.5)
        injector.advance(12.0)
        assert machine.nic.link_scale == pytest.approx(0.25)
        injector.advance(100.0)
        assert machine.nic.link_scale == 1.0


# -- fault storms through the co-location loop ----------------------------


class TestFaultStormColocation:
    def test_storm_run_is_deterministic(self, service):
        schedule = FaultSchedule.generate(
            9, FAST.duration_s, targets=tuple(service.servpod_names),
            faults_per_minute=12.0, min_duration_s=4.0, max_duration_s=10.0,
        )
        from dataclasses import replace as dc_replace

        config = dc_replace(FAST, faults=schedule)
        controllers = build_rhythm_controllers(service, probe_slacklimits=False)
        be = evaluation_be_jobs()[0]
        one = run_cell(service, controllers, be, ConstantLoad(0.5), config=config)
        two = run_cell(service, controllers, be, ConstantLoad(0.5), config=config)
        assert colocation_fingerprint(one) == colocation_fingerprint(two)

    def test_storm_changes_the_outcome(self, service):
        schedule = FaultSchedule.generate(
            9, FAST.duration_s, targets=tuple(service.servpod_names),
            faults_per_minute=12.0, min_duration_s=4.0, max_duration_s=10.0,
        )
        from dataclasses import replace as dc_replace

        controllers = build_rhythm_controllers(service, probe_slacklimits=False)
        be = evaluation_be_jobs()[0]
        healthy = run_cell(service, controllers, be, ConstantLoad(0.5), config=FAST)
        stormy = run_cell(
            service, controllers, be, ConstantLoad(0.5),
            config=dc_replace(FAST, faults=schedule),
        )
        assert colocation_fingerprint(healthy) != colocation_fingerprint(stormy)

    def test_driver_end_to_end(self, service):
        storm = run_fault_storm(
            service,
            evaluation_be_jobs()[0],
            load=0.5,
            duration_s=FAST.duration_s,
            faults_per_minute=9.0,
            config=FAST,
        )
        assert storm.faults_injected == 3
        assert {f.target for f in storm.schedule} <= set(service.servpod_names)
        assert storm.rhythm.duration_s == FAST.duration_s
        assert storm.heracles.duration_s == FAST.duration_s
        assert storm.violation_gap == (
            storm.heracles.sla_violations - storm.rhythm.sla_violations
        )
        systems = dict(storm.summary_rows())
        assert set(systems) == {"rhythm", "heracles"}


# -- the execution layer ---------------------------------------------------


def _mul(a, b):
    return a * b


def _boom(x):
    raise ValueError(f"genuine bug ({x})")


def _make_envelopes(n=12):
    return [Envelope(fn=_mul, args=(i, 3)) for i in range(n)]


class TestExecutorFaultPlan:
    def test_deterministic_and_first_attempt_only(self):
        plan = ExecutorFaultPlan(seed=4, crash_rate=0.5)
        actions = [plan.action_for(f"task-{i}", 0) for i in range(32)]
        assert actions == [plan.action_for(f"task-{i}", 0) for i in range(32)]
        assert "crash" in actions and None in actions
        assert all(
            plan.action_for(f"task-{i}", attempt) is None
            for i in range(32)
            for attempt in (1, 2, 5)
        )

    def test_rate_one_hits_everything(self):
        plan = ExecutorFaultPlan(seed=0, crash_rate=1.0)
        assert all(
            plan.action_for(f"k{i}", 0) == "crash" for i in range(16)
        )

    def test_threshold_ladder_partitions(self):
        plan = ExecutorFaultPlan(
            seed=2, crash_rate=0.3, kill_rate=0.3, hang_rate=0.4
        )
        keys = [f"k{i}" for i in range(200)]
        counts = plan.expected_actions(keys)
        assert sum(counts.values()) == 200  # rates sum to 1: no survivors
        assert all(counts[mode] > 0 for mode in ("crash", "kill", "hang"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.1},
            {"crash_rate": 0.6, "kill_rate": 0.6},
            {"hang_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FaultError):
            ExecutorFaultPlan(seed=0, **kwargs)


class TestChaosHardenedPool:
    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        reset_pool_state_for_tests()
        reset_pool_stats()
        yield
        reset_pool_state_for_tests()
        reset_pool_stats()

    def test_timeout_resolution(self, monkeypatch):
        assert resolve_task_timeout(5.0) == 5.0
        assert resolve_task_timeout(0) is None
        monkeypatch.setenv("RHYTHM_TASK_TIMEOUT_S", "2.5")
        assert resolve_task_timeout() == 2.5
        monkeypatch.setenv("RHYTHM_TASK_TIMEOUT_S", "-1")
        assert resolve_task_timeout() is None

    def test_crash_storm_counters_match_plan(self):
        envelopes = _make_envelopes()
        plan = ExecutorFaultPlan(seed=6, crash_rate=0.5)
        expected = plan.expected_actions(
            envelope_task_key(env) for env in envelopes
        )
        assert expected["crash"] > 0
        inline = run_envelopes(envelopes, workers=1)
        with executor_chaos(plan):
            chaotic = run_envelopes(envelopes, workers=2)
        assert chaotic == inline
        stats = pool_stats()
        assert stats.task_failures == expected["crash"]
        assert stats.retries == expected["crash"]
        assert stats.inline_fallbacks == 0
        assert stats.completed == len(envelopes)

    def test_kill_mode_breaks_and_rebuilds_the_pool(self):
        envelopes = _make_envelopes()
        plan = ExecutorFaultPlan(seed=1, crash_rate=0.0, kill_rate=0.25)
        expected = plan.expected_actions(
            envelope_task_key(env) for env in envelopes
        )
        assert expected["kill"] > 0
        inline = run_envelopes(envelopes, workers=1)
        with executor_chaos(plan):
            chaotic = run_envelopes(envelopes, workers=2)
        assert chaotic == inline
        stats = pool_stats()
        assert stats.worker_crashes >= expected["kill"]
        assert stats.pool_rebuilds >= 1

    def test_hang_mode_times_out_and_recovers(self):
        envelopes = _make_envelopes(6)
        plan = ExecutorFaultPlan(seed=3, hang_rate=0.4, hang_s=30.0)
        expected = plan.expected_actions(
            envelope_task_key(env) for env in envelopes
        )
        assert expected["hang"] > 0
        inline = run_envelopes(envelopes, workers=1)
        with executor_chaos(plan):
            chaotic = run_envelopes(envelopes, workers=2, timeout=1.0)
        assert chaotic == inline
        stats = pool_stats()
        assert stats.timeouts >= expected["hang"]
        assert stats.pool_rebuilds >= 1

    def test_inline_fallback_after_exhausted_retries(self):
        envelopes = _make_envelopes(6)
        plan = ExecutorFaultPlan(seed=6, crash_rate=1.0)
        inline = run_envelopes(envelopes, workers=1)
        with executor_chaos(plan):
            # With zero retries every sabotaged task falls back inline —
            # and still produces the right answers.
            chaotic = run_envelopes(envelopes, workers=2, max_retries=0)
        assert chaotic == inline
        assert pool_stats().inline_fallbacks == len(envelopes)

    def test_genuine_bug_surfaces_its_real_error(self):
        envelopes = [Envelope(fn=_boom, args=(7,))] * 2 + _make_envelopes(4)
        with pytest.raises(ValueError, match="genuine bug"):
            run_envelopes(envelopes, workers=2, max_retries=1)
        stats = pool_stats()
        assert stats.task_failures >= 2
        assert stats.inline_fallbacks >= 1

    def test_inline_path_ignores_chaos(self):
        envelopes = _make_envelopes(4)
        with executor_chaos(ExecutorFaultPlan(seed=0, crash_rate=1.0)):
            results = run_envelopes(envelopes, workers=1)
        assert results == [i * 3 for i in range(4)]
        assert pool_stats().task_failures == 0


class TestDifferentialIdentity:
    """Executor-only faults must not change a single output bit."""

    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        reset_pool_state_for_tests()
        reset_pool_stats()
        yield
        reset_pool_state_for_tests()
        reset_pool_stats()

    def _cells(self, service):
        return [
            GridCell(service, be, load, seed=7)
            for be in evaluation_be_jobs()[:2]
            for load in (0.25, 0.65)
        ]

    def test_grid_identical_under_crash_storm(self, service):
        cells = self._cells(service)
        artifacts = {service.name: artifact_for(service, probe_slacklimits=False)}
        serial = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts
        )
        with executor_chaos(ExecutorFaultPlan(seed=0, crash_rate=0.6)):
            chaotic = run_comparison_grid(
                cells, config=FAST, workers=2, artifacts=artifacts
            )
        assert [comparison_fingerprint(r) for r in serial] == [
            comparison_fingerprint(r) for r in chaotic
        ]
        assert pool_stats().task_failures > 0

    def test_profiling_identical_under_crash_storm(self, service):
        clear_profile_memo()
        serial = profile_service_parallel(
            service, seed=0, probe_slacklimits=True, workers=1
        )
        clear_profile_memo()
        with executor_chaos(ExecutorFaultPlan(seed=1, crash_rate=0.6)):
            chaotic = profile_service_parallel(
                service, seed=0, probe_slacklimits=True, workers=2
            )
        assert chaotic == serial
        assert pool_stats().task_failures > 0

    @pytest.mark.slow
    def test_spawn_grid_identical_under_crash_storm(self, service, monkeypatch):
        cells = self._cells(service)[:2]
        artifacts = {service.name: artifact_for(service, probe_slacklimits=False)}
        serial = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts
        )
        monkeypatch.setenv("RHYTHM_MP_CONTEXT", "spawn")
        reset_pool_state_for_tests()
        try:
            with executor_chaos(ExecutorFaultPlan(seed=2, crash_rate=0.6)):
                chaotic = run_comparison_grid(
                    cells, config=FAST, workers=2, artifacts=artifacts
                )
            assert [comparison_fingerprint(r) for r in serial] == [
                comparison_fingerprint(r) for r in chaotic
            ]
        finally:
            reset_pool_state_for_tests()


# -- the tracing layer -----------------------------------------------------


@pytest.fixture(scope="module")
def traced(service):
    svc = Service(service, RandomStreams(0))
    records = svc.build_request_records(0.5, 150)
    endpoints = default_endpoints(service.servpod_names)
    emitter = TraceEmitter(endpoints, EmitterConfig(noise_per_request=2, seed=1))
    return endpoints, emitter.emit(records)


class TestTraceFaults:
    def test_corruption_is_deterministic(self, traced):
        _, events = traced
        config = TraceFaultConfig(
            seed=5, drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1
        )
        assert corrupt_events(events, config) == corrupt_events(events, config)

    def test_no_corruption_is_a_noop(self, traced):
        _, events = traced
        assert corrupt_events(events, TraceFaultConfig(seed=5)) == list(events)

    def test_rates_have_their_effects(self, traced):
        _, events = traced
        dropped = corrupt_events(events, TraceFaultConfig(seed=0, drop_rate=0.3))
        assert len(dropped) < len(events)
        duplicated = corrupt_events(
            events, TraceFaultConfig(seed=0, duplicate_rate=0.3)
        )
        assert len(duplicated) > len(events)
        reordered = corrupt_events(
            events, TraceFaultConfig(seed=0, reorder_rate=0.5, reorder_jitter_ms=50.0)
        )
        times = [e.timestamp for e in reordered]
        assert times != sorted(times)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": 1.0},
            {"duplicate_rate": -0.1},
            {"reorder_rate": 1.5},
            {"reorder_jitter_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FaultError):
            TraceFaultConfig(seed=0, **kwargs)

    def test_robust_stats_clean_stream_matches_strict(self, traced):
        endpoints, events = traced
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        strict = extractor.mean_only(events)
        robust, health = extractor.robust_stats(events)
        assert set(robust) == set(strict)
        for pod in strict:
            assert robust[pod].mean_ms == pytest.approx(strict[pod].mean_ms)
            assert robust[pod].n_requests == strict[pod].n_requests
        assert not health.degraded

    def test_robust_stats_survive_heavy_corruption(self, traced):
        endpoints, events = traced
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        mangled = corrupt_events(
            events,
            TraceFaultConfig(
                seed=2, drop_rate=0.4, duplicate_rate=0.2,
                reorder_rate=0.3, reorder_jitter_ms=20.0,
            ),
        )
        stats, health = extractor.robust_stats(mangled)
        assert health.degraded
        assert health.unmatched_sends + health.unmatched_recvs > 0
        e2e = extractor.e2e_latencies(mangled)
        bound = max(e2e) if e2e else float("inf")
        for pod, stat in stats.items():
            assert 0.0 <= stat.mean_ms <= bound
            assert stat.n_requests > 0

    def test_robust_stats_estimate_visits_when_entries_drop(self, traced):
        endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        extractor = SojournExtractor(matcher)
        # Drop every entry RECV at the frontend; its response RECVs
        # survive, so visits can only be estimated from matched segments.
        from repro.tracing.events import EventType

        surviving = [
            e
            for e in events
            if not (
                e.etype == EventType.RECV
                and matcher.is_request_direction(e)
                and matcher.servpod_of(e.context) == "front"
            )
        ]
        stats, health = extractor.robust_stats(surviving)
        assert "front" in health.pods_estimated
        assert "front" in stats and stats["front"].n_requests > 0

    def test_strict_mean_only_still_raises_without_entries(self, traced):
        endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        extractor = SojournExtractor(matcher)
        from repro.tracing.events import EventType

        surviving = [
            e
            for e in events
            if not (
                e.etype == EventType.RECV
                and matcher.is_request_direction(e)
                and matcher.servpod_of(e.context) == "front"
            )
        ]
        with pytest.raises(TracingError):
            extractor.mean_only(surviving)


# -- determinism regression (workers x fault seed x two runs) --------------


class TestDeterminismRegression:
    def test_env_pinned_chaos_run_reproduces_exactly(self, service, monkeypatch):
        monkeypatch.setenv("RHYTHM_WORKERS", "2")
        monkeypatch.setenv("RHYTHM_PROFILE_WORKERS", "2")
        schedule_a = FaultSchedule.generate(
            21, FAST.duration_s, targets=tuple(service.servpod_names),
            faults_per_minute=9.0, min_duration_s=4.0, max_duration_s=10.0,
        )
        schedule_b = FaultSchedule.generate(
            21, FAST.duration_s, targets=tuple(service.servpod_names),
            faults_per_minute=9.0, min_duration_s=4.0, max_duration_s=10.0,
        )
        assert repr(schedule_a) == repr(schedule_b)
        from dataclasses import replace as dc_replace

        from repro.cache.keys import stable_hash

        config = dc_replace(FAST, faults=schedule_a)
        cells = [
            GridCell(service, evaluation_be_jobs()[0], load, seed=3)
            for load in (0.25, 0.65)
        ]
        digests = []
        for _ in range(2):
            reset_pool_state_for_tests()
            artifacts = {
                service.name: artifact_for(service, probe_slacklimits=False)
            }
            results = run_comparison_grid(
                cells, config=config, artifacts=artifacts
            )
            digests.append(
                stable_hash([comparison_fingerprint(r) for r in results])
            )
        reset_pool_state_for_tests()
        assert digests[0] == digests[1]
