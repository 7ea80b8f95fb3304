"""Tests for the sharded fleet experiment (``repro.experiments.fleet``).

The load-bearing contract mirrors the kernel-identity tests one level
up: a fleet run is bit-identical to running every instance's experiment
sequentially under the scalar reference kernel (same fingerprints, same
final RNG states — both folded into per-instance digests), and the
shard count never changes results. The zone governor is the only
cross-instance coupling, and it is off by default, which is the
configuration the identity pin covers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import pytest

from repro.core.actions import BeAction
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.fleet import (
    FleetConfig,
    FleetExperiment,
    FleetInstanceSpec,
    PodPolicy,
    _build_experiment,
    alibaba_fleet,
    fleet_identity_probe,
    heracles_fleet_policies,
    instance_digest,
    make_growth_clamp,
    policies_from_controllers,
)
from repro.experiments.colocation import ColocationExperiment
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.loadgen.patterns import ConstantLoad
from repro.sim.kernel import FleetColocationKernel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import lc_service_spec


def small_fleet(
    n_instances: int = 4,
    duration_s: float = 40.0,
    seed: int = 3,
    **config_kwargs,
) -> FleetExperiment:
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("zone_size", 2)
    config = FleetConfig(duration_s=duration_s, **config_kwargs)
    return alibaba_fleet(
        2 * n_instances,
        policy="heracles",
        duration_s=duration_s,
        seed=seed,
        config=config,
    )


def violating_fleet(
    duration_s: float = 80.0, **config_kwargs
) -> FleetExperiment:
    """A fleet whose lenient controllers let the SLA be violated."""
    service = lc_service_spec("Redis")
    policies = tuple(
        sorted(
            (pod, PodPolicy(loadlimit=1.0, slacklimit=0.02))
            for pod in service.servpod_names
        )
    )
    specs = [
        FleetInstanceSpec(
            service="Redis",
            policies=policies,
            be_jobs=("stream-llc", "stream-dram"),
            pattern=ConstantLoad(0.95),
            seed=40 + k,
        )
        for k in range(4)
    ]
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("zone_size", 2)
    return FleetExperiment(
        specs, FleetConfig(duration_s=duration_s, **config_kwargs)
    )


class TestFleetIdentity:
    """Fleet runs must match the sequential scalar reference bit for bit."""

    def test_fleet_matches_scalar_reference(self):
        fleet = small_fleet()
        assert fleet.run().digest == fleet.run_reference().digest

    def test_identity_with_faulted_instance(self):
        fleet = small_fleet()
        fleet.instances[1] = dataclasses.replace(
            fleet.instances[1],
            faults=FaultSchedule.generate(7, 40.0, faults_per_minute=4.0),
        )
        assert fleet.run().digest == fleet.run_reference().digest

    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_count_invariance(self, shards):
        baseline = small_fleet(shards=1).run()
        sharded = small_fleet(shards=shards).run()
        assert sharded.digest == baseline.digest
        assert [s.index for s in sharded.instances] == list(range(4))

    def test_fork_subprocess_identity(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                fleet_identity_probe,
                ("fleet",),
                {"n_instances": 3, "duration_s": 40.0, "seed": 5},
            )
        parent = fleet_identity_probe(
            "reference", n_instances=3, duration_s=40.0, seed=5
        )
        assert parent == child

    @pytest.mark.slow
    def test_spawn_subprocess_identity(self):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                fleet_identity_probe,
                ("fleet",),
                {"n_instances": 3, "duration_s": 40.0, "seed": 5,
                 "with_faults": True},
            )
        parent = fleet_identity_probe(
            "reference", n_instances=3, duration_s=40.0, seed=5,
            with_faults=True,
        )
        assert parent == child

    def test_probe_rejects_unknown_mode(self):
        with pytest.raises(ExperimentError):
            fleet_identity_probe("turbo")


class TestShardPlan:
    def test_plan_is_zone_aligned_and_complete(self):
        fleet = small_fleet(n_instances=7, shards=3, zone_size=2)
        plan = fleet.shard_plan()
        covered = []
        for start, count in plan:
            assert start % 2 == 0, "shard must start at a zone boundary"
            covered.extend(range(start, start + count))
        assert covered == list(range(7))

    def test_more_shards_than_zones_collapses(self):
        fleet = small_fleet(n_instances=2, shards=16, zone_size=2)
        assert len(fleet.shard_plan()) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(shards=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(zone_size=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(epoch_ticks=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(violation_threshold=1.5)
        with pytest.raises(ConfigurationError):
            FleetExperiment([], FleetConfig())


class TestZoneGovernor:
    def test_growth_clamp_only_demotes_allow(self):
        seen = {}
        clamp = make_growth_clamp(seen)
        assert clamp("pod", BeAction.ALLOW_BE_GROWTH) is BeAction.DISALLOW_BE_GROWTH
        for action in (
            BeAction.STOP_BE,
            BeAction.SUSPEND_BE,
            BeAction.CUT_BE,
            BeAction.DISALLOW_BE_GROWTH,
        ):
            assert clamp("pod", action) is action
        assert seen == {"pod": 1}

    def test_governor_records_epochs_and_clamps(self):
        fleet = violating_fleet(epoch_ticks=5, violation_threshold=0.1)
        result = fleet.run()
        assert result.zone_records, "governor must emit epoch records"
        zones = {r.zone for r in result.zone_records}
        assert zones == {0, 1}
        assert any(r.clamped for r in result.zone_records)

    def test_governor_changes_results_only_when_clamping(self):
        off = violating_fleet().run()
        on = violating_fleet(epoch_ticks=5, violation_threshold=0.1).run()
        assert on.digest != off.digest
        # An unreachable threshold observes but never clamps: identical.
        watch = violating_fleet(epoch_ticks=5, violation_threshold=1.0).run()
        assert watch.digest == off.digest
        assert watch.zone_records and not any(r.clamped for r in watch.zone_records)

    def test_governor_survives_sharding(self):
        one = violating_fleet(epoch_ticks=5, violation_threshold=0.1, shards=1)
        two = violating_fleet(epoch_ticks=5, violation_threshold=0.1, shards=2)
        assert one.run().digest == two.run().digest

    def test_reference_requires_governor_off(self):
        fleet = violating_fleet(epoch_ticks=5, violation_threshold=0.1)
        with pytest.raises(ExperimentError):
            fleet.run_reference()


class TestPolicies:
    def test_pod_policy_builds_controller(self):
        policy = PodPolicy(loadlimit=0.9, slacklimit=0.2,
                           suspend_on_load_at_or_above=True)
        controller = policy.build("master", sla_ms=30.0)
        assert controller.thresholds.loadlimit == 0.9
        assert controller.thresholds.slacklimit == 0.2
        assert controller.suspend_on_load_at_or_above is True
        assert controller.sla_ms == 30.0

    def test_policies_roundtrip_through_controllers(self):
        from repro.baselines.heracles import heracles_controllers

        service = lc_service_spec("Redis")
        policies = policies_from_controllers(heracles_controllers(service))
        assert policies == heracles_fleet_policies("Redis")

    def test_missing_pod_policy_rejected(self):
        spec = FleetInstanceSpec(
            service="Redis",
            policies=(("master", PodPolicy(0.85, 0.1)),),
            be_jobs=("stream-llc",),
            pattern=ConstantLoad(0.5),
        )
        with pytest.raises(ExperimentError):
            FleetExperiment([spec], FleetConfig(duration_s=20.0, workers=1)).run()


class TestAlibabaFleet:
    def test_machine_floor_and_determinism(self):
        fleet = alibaba_fleet(10, policy="heracles", duration_s=60.0, seed=2)
        total = sum(
            len(lc_service_spec(s.service).servpod_names)
            for s in fleet.instances
        )
        assert total >= 10
        again = alibaba_fleet(10, policy="heracles", duration_s=60.0, seed=2)
        assert [s.seed for s in again.instances] == [
            s.seed for s in fleet.instances
        ]
        assert [s.be_jobs for s in again.instances] == [
            s.be_jobs for s in fleet.instances
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            alibaba_fleet(0)
        with pytest.raises(ConfigurationError):
            alibaba_fleet(4, policy="borg")
        with pytest.raises(ConfigurationError):
            alibaba_fleet(4, duration_s=60.0, config=FleetConfig(duration_s=30.0))

    def test_result_aggregation_is_machine_weighted(self):
        result = small_fleet(n_instances=2).run()
        assert result.n_instances == 2
        assert result.n_machines == 4
        manual = sum(
            s.be_throughput * s.machines for s in result.instances
        ) / result.n_machines
        assert result.be_throughput == pytest.approx(manual)
        assert result.events_fired == sum(
            s.events_fired for s in result.instances
        )


class TestAlibabaLoadMode:
    """``load="alibaba"`` replays the bundled trace per instance."""

    def _fleet(self, load, seed=3, services=("Redis",), shards=1):
        config = FleetConfig(
            duration_s=40.0, shards=shards, workers=1, zone_size=2
        )
        return alibaba_fleet(
            8,
            policy="heracles",
            duration_s=40.0,
            seed=seed,
            services=services,
            config=config,
            load=load,
        )

    def test_patterns_are_replayed_trace_days(self):
        from repro.loadgen.patterns import FlashCrowdLoad, ReplayLoad

        fleet = self._fleet("alibaba")
        for spec in fleet.instances:
            pattern = spec.pattern
            if isinstance(pattern, FlashCrowdLoad):
                pattern = pattern.base
            assert isinstance(pattern, ReplayLoad)

    def test_seeded_digest_matches_scalar_reference(self):
        # The replayed fleet rides the same identity contract as the
        # diurnal one: bit-identical to the sequential scalar runs.
        assert (
            self._fleet("alibaba").run().digest
            == self._fleet("alibaba").run_reference().digest
        )

    def test_seeded_digest_is_reproducible(self):
        assert (
            self._fleet("alibaba").run().digest
            == self._fleet("alibaba").run().digest
        )

    def test_mode_does_not_perturb_jitter_stream(self):
        # Switching load modes must not reshuffle seeds, BE mixes, or
        # flash-crowd membership (the jitter PRNG draws identically).
        replayed = self._fleet("alibaba")
        diurnal = self._fleet("diurnal")
        assert [s.seed for s in replayed.instances] == [
            s.seed for s in diurnal.instances
        ]
        assert [s.be_jobs for s in replayed.instances] == [
            s.be_jobs for s in diurnal.instances
        ]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            alibaba_fleet(4, load="clarknet")


class TestHeterogeneousServices:
    """Mixed service catalogs across one fleet's instances."""

    def _mixed(self, shards, seed=5):
        config = FleetConfig(
            duration_s=40.0, shards=shards, workers=1, zone_size=2
        )
        return alibaba_fleet(
            10,
            policy="heracles",
            duration_s=40.0,
            seed=seed,
            services=("Redis", "E-commerce"),
            config=config,
        )

    def test_services_cycle_across_instances(self):
        fleet = self._mixed(shards=1)
        names = [s.service for s in fleet.instances]
        assert set(names) == {"Redis", "E-commerce"}
        assert names == [
            ("Redis", "E-commerce")[k % 2] for k in range(len(names))
        ]

    @pytest.mark.parametrize("shards", [2, 3])
    def test_mixed_fleet_is_shard_invariant(self, shards):
        assert (
            self._mixed(shards=1).run().digest
            == self._mixed(shards=shards).run().digest
        )

    def test_mixed_fleet_matches_scalar_reference(self):
        assert (
            self._mixed(shards=2).run().digest
            == self._mixed(shards=1).run_reference().digest
        )

    def test_service_mix_is_a_zone_key_coordinate(self):
        from repro.experiments.fleet import zone_cache_key

        config = FleetConfig(duration_s=40.0, zone_size=2)
        redis_only = alibaba_fleet(
            4, policy="heracles", duration_s=40.0, config=config
        )
        mixed = alibaba_fleet(
            4,
            policy="heracles",
            duration_s=40.0,
            services=("Redis", "E-commerce"),
            config=config,
        )
        assert zone_cache_key(
            redis_only.instances[:2], config
        ) != zone_cache_key(mixed.instances[:2], config)


def _fault_fleet(n_instances: int, kind, seed: int = 3) -> FleetExperiment:
    """A fleet whose odd instances carry a dense one-kind fault schedule."""
    fleet = small_fleet(n_instances=n_instances, seed=seed)
    for k in range(1, n_instances, 2):
        fleet.instances[k] = dataclasses.replace(
            fleet.instances[k],
            faults=FaultSchedule.generate(
                seed + k,
                40.0,
                faults_per_minute=6.0,
                kinds=[kind],
                min_duration_s=4.0,
                max_duration_s=16.0,
            ),
        )
    return fleet


class TestFaultedFleetTick:
    """Faulted instances ride the fleet SoA tick, bit-identical to scalar.

    6 instances are 12 machines (the whole-array path); 4 instances are
    8 machines (the small-fleet python path).
    """

    @pytest.mark.parametrize("n_instances", [6, 4])
    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    def test_identity_per_fault_kind(self, kind, n_instances):
        fleet = _fault_fleet(n_instances, kind)
        assert fleet.run().digest == fleet.run_reference().digest

    @pytest.mark.parametrize("n_instances", [6, 4])
    def test_mixed_histogram_and_faulted_instances(self, n_instances):
        fleet = _fault_fleet(n_instances, FaultKind.NIC_DEGRADE)
        digests = {}
        for kernel in ("fleet", "scalar"):
            experiments = [
                _build_experiment(spec, fleet.config) for spec in fleet.instances
            ]
            # One instance streams its tails through a histogram, one
            # carries both a histogram and a fault schedule.
            for k in (0, 1):
                exp = experiments[k]
                experiments[k] = ColocationExperiment(
                    exp.spec,
                    exp.controllers,
                    exp.be_specs,
                    exp.pattern,
                    streams=RandomStreams(fleet.instances[k].seed),
                    config=dataclasses.replace(
                        exp.config, tail_estimator="histogram"
                    ),
                )
            if kernel == "fleet":
                results = FleetColocationKernel(experiments).run()
            else:
                results = []
                for exp in experiments:
                    exp.kernel = "scalar"
                    results.append(exp.run())
            digests[kernel] = [
                instance_digest(exp, res)
                for exp, res in zip(experiments, results)
            ]
        assert digests["fleet"] == digests["scalar"]

    @pytest.mark.parametrize("n_instances", [6, 2])
    def test_memo_sees_fault_held_cores(self, n_instances):
        """A core-offline window that holds every free core turns ALLOW
        into a no-op; once the cores come back the same (action,
        version, mem_version) must launch again. Only the fault-held
        counts in the memo key can tell the two states apart."""
        service = lc_service_spec("Redis")
        policies = tuple(
            sorted(
                (pod, PodPolicy(loadlimit=1.0, slacklimit=0.05))
                for pod in service.servpod_names
            )
        )
        hold = FaultSchedule(
            faults=(
                FaultSpec(
                    FaultKind.CORE_OFFLINE, at_s=6.0, duration_s=12.0,
                    magnitude=1.0,
                ),
            )
        )
        specs = [
            FleetInstanceSpec(
                service="Redis",
                policies=policies,
                # 1 GB working set: the 2 GB start needs no memory
                # growth, so a blocked ALLOW changes nothing at all.
                be_jobs=("CPU-stress",),
                pattern=ConstantLoad(0.3),
                seed=60 + k,
                faults=hold,
            )
            for k in range(n_instances)
        ]
        fleet = FleetExperiment(
            specs, FleetConfig(duration_s=40.0, workers=1, zone_size=2)
        )
        fleet_result = fleet.run()
        assert fleet_result.digest == fleet.run_reference().digest
        # The window really did turn ALLOW into a no-op and back.
        experiments = [_build_experiment(spec, fleet.config) for spec in specs]
        FleetColocationKernel(experiments).run()
        samples = next(iter(experiments[0]._runs.values())).metrics.samples
        during = [s for s in samples if 6.0 < s.t < 18.0]
        after = [s for s in samples if s.t >= 20.0]
        assert all(s.action == BeAction.ALLOW_BE_GROWTH.value for s in samples)
        assert len({s.be_instances for s in during}) == 1
        assert after[-1].be_instances > during[-1].be_instances

    def test_stop_on_last_tick_keeps_kill_clawback(self):
        """StopBE on the final tick kills jobs (losing their in-flight
        units); the end-of-run flush must not write the pre-kill SoA
        progress back over them."""
        fleet = violating_fleet(duration_s=20.0)
        experiments = [
            _build_experiment(spec, fleet.config) for spec in fleet.instances
        ]
        FleetColocationKernel(experiments).run()
        last = [
            next(iter(exp._runs.values())).metrics.samples[-1].action
            for exp in experiments
        ]
        assert BeAction.STOP_BE.value in last
        assert fleet.run().digest == fleet.run_reference().digest
