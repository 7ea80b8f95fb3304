"""Tests for the single-pass controller bake-off.

The load-bearing contract: every member of a
:class:`~repro.sim.kernel.BakeoffKernel` pass — result fingerprint AND
final RNG stream states — is bit-identical to running that member alone
through a fresh :class:`ColocationExperiment`, in-process, in fork- and
spawn-started children, and under fault schedules. Divergence forking
is exercised at its edges (never diverge, diverge at the first tick,
re-converge mid-run), and the cell cache is pinned to treat the
controller member as a key coordinate while wall-clock knobs stay out.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.baselines.heracles import heracles_controllers
from repro.baselines.interference import (
    InterferencePolicy,
    interference_controllers,
)
from repro.baselines.predictive import PredictivePolicy, predictive_controllers
from repro.bejobs.catalog import CPU_STRESS, evaluation_be_jobs
from repro.cache import CacheStore
from repro.cache.keys import CODE_VERSION_SALT
from repro.core.actions import BeAction
from repro.core.controller import ColocationController
from repro.errors import ConfigurationError
from repro.experiments.bakeoff import (
    BakeoffConfig,
    BakeoffMember,
    bakeoff_cell_key,
    bakeoff_identity_probe,
    bakeoff_member_digest,
    bakeoff_scenario_grid,
    default_members,
    heracles_member,
    interference_member,
    predictive_member,
    run_bakeoff,
    run_member_reference,
)
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.loadgen.patterns import ConstantLoad, DiurnalLoad
from repro.parallel.grid import colocation_fingerprint
from repro.sim.kernel import BakeoffKernel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import redis_service


def rng_states(streams):
    return tuple(
        (name, repr(streams._streams[name].bit_generator.state))
        for name in sorted(streams._streams)
    )


class Scripted(ColocationController):
    """Plays a fixed per-tick action script (for divergence edge cases)."""

    def __init__(self, pod, sla_ms, script, default):
        super().__init__(pod, sla_ms)
        self.script = dict(script)
        self.default = default
        self.calls = 0

    def _decide(self, load, tail_ms):
        action = self.script.get(self.calls, self.default)
        self.calls += 1
        return action


def scripted(script, default):
    return lambda service: {
        pod: Scripted(pod, service.sla_ms, script, default)
        for pod in service.servpod_names
    }


def run_independent(service, controllers_fn, pattern, seed, config):
    exp = ColocationExperiment(
        service,
        controllers_fn(service),
        [evaluation_be_jobs()[0]],
        pattern,
        streams=RandomStreams(seed),
        config=config,
    )
    return colocation_fingerprint(exp.run()), rng_states(exp.streams)


def run_shared(service, members, pattern, seed, config):
    """One bake-off pass; returns (kernel, results)."""
    first = next(iter(members.values()))
    root = ColocationExperiment(
        service,
        first(service),
        [evaluation_be_jobs()[0]],
        pattern,
        streams=RandomStreams(seed),
        config=config,
    )
    kernel = BakeoffKernel(root, {n: fn(service) for n, fn in members.items()})
    return kernel, kernel.run()


def assert_members_identical(service, members, pattern, seed, config):
    kernel, results = run_shared(service, members, pattern, seed, config)
    for name, fn in members.items():
        fingerprint, states = run_independent(
            service, fn, pattern, seed, config
        )
        assert colocation_fingerprint(results[name]) == fingerprint, name
        assert rng_states(kernel.member_streams(name)) == states, name
    return kernel


class TestBakeoffKernelIdentity:
    """Shared-pass results are bit-identical to independent runs."""

    def test_three_family_roster_healthy(self):
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {
                "heracles": heracles_controllers,
                "interference": interference_controllers,
                "predictive": predictive_controllers,
            },
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            3,
            ColocationConfig(duration_s=60.0),
        )
        # The pass must actually share physics, not run 3x independently.
        assert kernel.stats.branch_ticks < kernel.stats.ticks * 3

    def test_identity_under_faults(self):
        service = redis_service()
        faults = FaultSchedule.generate(7, 60.0, faults_per_minute=4.0)
        assert_members_identical(
            service,
            {
                "heracles": heracles_controllers,
                "stopper": scripted({}, BeAction.STOP_BE),
            },
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            3,
            ColocationConfig(duration_s=60.0, faults=faults),
        )

    def test_never_diverge_is_pure_sharing(self):
        # Two members running the exact same policy: one branch,
        # zero forks, every physics pass shared.
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {"a": heracles_controllers, "b": heracles_controllers},
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            3,
            ColocationConfig(duration_s=60.0),
        )
        assert kernel.stats.forks == 0
        assert kernel.stats.merges == 0
        assert kernel.stats.branch_ticks == kernel.stats.ticks
        assert len(kernel._branches) == 1

    def test_diverge_at_tick_zero_degenerates_to_independent(self):
        # Members disagreeing from the very first tick (and STOP is
        # never memoizable) fork immediately and stay forked: the
        # shared pass degenerates to independent execution.
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {
                "grower": scripted({}, BeAction.ALLOW_BE_GROWTH),
                "stopper": scripted({}, BeAction.STOP_BE),
            },
            ConstantLoad(0.4),
            5,
            ColocationConfig(duration_s=60.0),
        )
        assert kernel.stats.forks == 1
        assert len(kernel._branches) == 2
        # Both branches tick every tick after the first-tick fork.
        assert kernel.stats.branch_ticks == 2 * kernel.stats.ticks - 1

    def test_reconverge_mid_run_merges_back(self):
        # "ab" allows one launch then stops (killing the job claws its
        # work back to a whole-unit boundary), "b" stops throughout —
        # their worlds re-converge and the branches must re-merge.
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {
                "ab": scripted(
                    {0: BeAction.ALLOW_BE_GROWTH, 1: BeAction.STOP_BE},
                    BeAction.STOP_BE,
                ),
                "b": scripted({}, BeAction.STOP_BE),
            },
            ConstantLoad(0.4),
            5,
            ColocationConfig(duration_s=60.0),
        )
        assert kernel.stats.forks >= 1
        assert kernel.stats.merges >= 1
        assert len(kernel._branches) == 1

    def test_high_divergence_roster_under_faults(self):
        # The worst case for copy-on-write forking: five members whose
        # scripts disagree early and often, under an active fault
        # schedule (so forked clones carry live injector state), with a
        # mid-run flip that lets some branches re-converge. Every member
        # must still match its independent reference run bit for bit.
        service = redis_service()
        faults = FaultSchedule.generate(11, 60.0, faults_per_minute=6.0)
        kernel = assert_members_identical(
            service,
            {
                "grower": scripted({}, BeAction.ALLOW_BE_GROWTH),
                "stopper": scripted({}, BeAction.STOP_BE),
                "flipper": scripted(
                    {0: BeAction.ALLOW_BE_GROWTH, 1: BeAction.STOP_BE},
                    BeAction.STOP_BE,
                ),
                "late": scripted(
                    {3: BeAction.STOP_BE}, BeAction.ALLOW_BE_GROWTH
                ),
                "heracles": heracles_controllers,
            },
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            5,
            ColocationConfig(duration_s=60.0, faults=faults),
        )
        assert kernel.stats.forks >= 3

    def test_rejects_empty_roster_and_missing_pods(self):
        service = redis_service()
        exp = ColocationExperiment(
            service,
            heracles_controllers(service),
            [evaluation_be_jobs()[0]],
            ConstantLoad(0.4),
            streams=RandomStreams(0),
            config=ColocationConfig(duration_s=30.0),
        )
        with pytest.raises(ConfigurationError):
            BakeoffKernel(exp, {})
        partial = heracles_controllers(service)
        partial.popitem()
        with pytest.raises(ConfigurationError):
            BakeoffKernel(exp, {"partial": partial})

    def test_rejects_action_filter(self):
        service = redis_service()
        exp = ColocationExperiment(
            service,
            heracles_controllers(service),
            [evaluation_be_jobs()[0]],
            ConstantLoad(0.4),
            streams=RandomStreams(0),
            config=ColocationConfig(duration_s=30.0),
        )
        exp.action_filter = lambda pod, action: action
        with pytest.raises(ConfigurationError):
            BakeoffKernel(exp, {"a": heracles_controllers(service)})


class TestForkInsideFaultWindow:
    """Forks and a re-merge while a fault window is open.

    One fault of each kind covers every machine from 40 s to 70 s. The
    scripted members share one world while they grow CPU-bound BE work
    (its rate follows the BE frequency), split at tick 27 (t = 56 s)
    into a grower, a holder and a stopper, and the late stopper leaves
    the grower one tick later and re-merges with the stopper (t = 58 s).
    Under the DVFS cap the holder's machines idle in the power band, so
    its DVFS *request* stays above the capped frequency until the cap
    lifts: a fork that took the capped frequency, or healthy fault
    columns, would diverge from the scalar engine.
    """

    SPLIT = 27

    def _members(self):
        allow = BeAction.ALLOW_BE_GROWTH
        head = {k: allow for k in range(self.SPLIT)}
        return {
            "grower": scripted({}, allow),
            "holder": scripted(head, BeAction.DISALLOW_BE_GROWTH),
            "stopper": scripted(head, BeAction.STOP_BE),
            "late": scripted({**head, self.SPLIT: allow}, BeAction.STOP_BE),
        }

    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    def test_members_match_scalar_runs(self, kind):
        service = redis_service()
        faults = FaultSchedule(
            faults=(FaultSpec(kind, at_s=40.0, duration_s=30.0, magnitude=0.125),)
        )
        config = ColocationConfig(duration_s=90.0, faults=faults)
        pattern = ConstantLoad(0.5)
        members = self._members()

        def experiment(controllers_fn, kernel=None):
            return ColocationExperiment(
                service,
                controllers_fn(service),
                [CPU_STRESS],
                pattern,
                streams=RandomStreams(5),
                config=config,
                kernel=kernel,
            )

        kernel = BakeoffKernel(
            experiment(members["grower"]),
            {name: fn(service) for name, fn in members.items()},
        )
        results = kernel.run()
        assert kernel.stats.forks >= 3
        assert kernel.stats.merges >= 1
        for name, fn in members.items():
            reference = experiment(fn, kernel="scalar")
            fingerprint = colocation_fingerprint(reference.run())
            assert colocation_fingerprint(results[name]) == fingerprint, name
            assert rng_states(kernel.member_streams(name)) == rng_states(
                reference.streams
            ), name


class TestBakeoffExperiment:
    """run_bakeoff vs. per-member reference runs, and the league table."""

    def _grid(self, **kwargs):
        kwargs.setdefault("loads", (0.35, 0.55))
        kwargs.setdefault("duration_s", 60.0)
        kwargs.setdefault("seed", 3)
        return bakeoff_scenario_grid(**kwargs)

    def _members(self):
        return [
            heracles_member("Redis"),
            interference_member(),
            predictive_member(),
        ]

    def test_cells_match_reference_bitwise(self):
        config = BakeoffConfig(duration_s=60.0)
        scenarios = self._grid()
        members = self._members()
        result = run_bakeoff(scenarios, members, config, cache=None)
        for cell in result.cells:
            scenario = next(s for s in scenarios if s.label == cell.scenario)
            member = next(m for m in members if m.name == cell.member)
            reference = run_member_reference(scenario, member, config)
            assert cell == reference
        assert result.passes == len(scenarios)

    def test_probe_modes_agree(self):
        assert bakeoff_identity_probe("bakeoff") == bakeoff_identity_probe(
            "reference"
        )

    def test_league_ranks_by_violations_then_emu(self):
        result = run_bakeoff(
            self._grid(),
            self._members(),
            BakeoffConfig(duration_s=60.0),
            cache=None,
        )
        league = result.league()
        assert [row.rank for row in league] == list(
            range(1, len(league) + 1)
        )
        keys = [(row.sla_violations, -row.emu) for row in league]
        assert keys == sorted(keys)
        assert {row.member for row in league} == {
            m.name for m in self._members()
        }

    def test_default_members_cover_four_families(self):
        members = default_members("Redis")
        assert [m.name for m in members] == [
            "rhythm",
            "heracles",
            "interference",
            "predictive",
        ]

    def test_validation_errors(self):
        config = BakeoffConfig(duration_s=30.0)
        members = self._members()
        with pytest.raises(ConfigurationError):
            run_bakeoff([], members, config)
        with pytest.raises(ConfigurationError):
            run_bakeoff(self._grid(), [], config)
        with pytest.raises(ConfigurationError):
            run_bakeoff(
                self._grid(),
                [interference_member(), interference_member()],
                config,
            )
        with pytest.raises(ConfigurationError):
            BakeoffMember(name="x", kind="nope")
        with pytest.raises(ConfigurationError):
            BakeoffMember(name="x", kind="policies")


class TestBakeoffIdentityAcrossProcesses:
    def test_fork_subprocess_identity(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(bakeoff_identity_probe, ("bakeoff",))
        assert child == bakeoff_identity_probe("reference")

    @pytest.mark.slow
    def test_spawn_subprocess_identity(self):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                bakeoff_identity_probe, ("bakeoff",), {"with_faults": True}
            )
        assert child == bakeoff_identity_probe(
            "reference", with_faults=True
        )


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "bakeoff-cache")


class TestBakeoffCellKey:
    def _parts(self):
        scenario = bakeoff_scenario_grid(loads=(0.45,), duration_s=30.0)[0]
        return scenario, interference_member(), BakeoffConfig(duration_s=30.0)

    def test_member_is_a_key_coordinate(self):
        # The whole point of the bake-off cache: who decided matters.
        scenario, member, config = self._parts()
        base = bakeoff_cell_key(scenario, member, config)
        assert base != bakeoff_cell_key(
            scenario,
            interference_member(InterferencePolicy(cut_above=0.75)),
            config,
        )
        assert base != bakeoff_cell_key(
            scenario, predictive_member(), config
        )
        assert base != bakeoff_cell_key(
            scenario, interference_member(name="renamed"), config
        )

    def test_scenario_label_is_not_a_coordinate(self):
        import dataclasses

        scenario, member, config = self._parts()
        relabeled = dataclasses.replace(scenario, label="elsewhere")
        assert bakeoff_cell_key(scenario, member, config) == bakeoff_cell_key(
            relabeled, member, config
        )

    def test_fleet_wall_clock_knobs_remain_non_coordinates(self):
        # Companion regression: the member became a coordinate while
        # shard/worker counts stayed out of every key family.
        from repro.experiments.fleet import FleetConfig, zone_cache_key
        from repro.loadgen.patterns import ConstantLoad as CL

        from tests.test_fleet_cache import constant_specs

        specs = constant_specs(2)
        del CL  # imported only to mirror the fleet test fixture
        base = zone_cache_key(specs, FleetConfig(duration_s=30.0))
        for shards, workers in ((2, 1), (4, 2), (8, None)):
            assert base == zone_cache_key(
                specs,
                FleetConfig(duration_s=30.0, shards=shards, workers=workers),
            )

    def test_salt_bumped_past_pre_bakeoff_entries(self):
        # :5 entries predate the controller-interface extraction and
        # the bakeoff-cell family; they must never be served again.
        tag = CODE_VERSION_SALT.rsplit(":", 1)[-1]
        assert tag.isdigit() and int(tag) >= 6


class TestBakeoffCaching:
    def _run(self, store, members=None, loads=(0.35, 0.55)):
        return run_bakeoff(
            bakeoff_scenario_grid(loads=loads, duration_s=30.0, seed=3),
            members
            or [
                heracles_member("Redis"),
                interference_member(),
                predictive_member(),
            ],
            BakeoffConfig(duration_s=30.0),
            cache=store,
        )

    def test_warm_rerun_zero_passes_identical_digest(self, store):
        cold = self._run(store)
        warm = self._run(store)
        assert cold.digest == warm.digest
        assert cold.cells == warm.cells
        assert warm.passes == 0
        assert warm.cache.hits == warm.cache.total == 6
        assert warm.cache.simulated == 0

    def test_uncached_run_reports_no_stats(self):
        result = self._run(None)
        assert result.cache is None

    def test_partial_roster_hits_then_extends(self, store):
        solo = self._run(store, members=[interference_member()])
        extended = self._run(store)
        assert extended.cache.hits == 2  # interference, both scenarios
        assert extended.cache.misses == 4
        # Served-from-cache cells equal the freshly simulated ones.
        for cell in solo.cells:
            twin = next(
                c
                for c in extended.cells
                if c.member == cell.member and c.scenario == cell.scenario
            )
            assert twin == cell

    def test_retuned_member_misses_cleanly(self, store):
        self._run(store)
        retuned = self._run(
            store,
            members=[
                heracles_member("Redis"),
                interference_member(InterferencePolicy(cut_above=0.75)),
                predictive_member(),
            ],
        )
        assert retuned.cache.hits == 4
        assert retuned.cache.misses == 2

    def test_corrupted_entry_recomputes(self, store):
        cold = self._run(store, members=[interference_member()])
        scenario = bakeoff_scenario_grid(
            loads=(0.35, 0.55), duration_s=30.0, seed=3
        )[0]
        key = bakeoff_cell_key(
            scenario, interference_member(), BakeoffConfig(duration_s=30.0)
        )
        store.put(key, ("not", "a", "summary"))
        again = self._run(store, members=[interference_member()])
        assert again.digest == cold.digest
        assert again.cache.misses == 1 and again.cache.hits == 1


class TestMemberDigest:
    def test_digest_folds_fingerprint_and_rng(self):
        service = redis_service()
        config = ColocationConfig(duration_s=30.0)
        exp = ColocationExperiment(
            service,
            heracles_controllers(service),
            [evaluation_be_jobs()[0]],
            ConstantLoad(0.4),
            streams=RandomStreams(2),
            config=config,
        )
        result = exp.run()
        digest = bakeoff_member_digest(exp.streams, result)
        assert len(digest) == 64 and int(digest, 16) >= 0
        # Rebuilding the same run reproduces the digest exactly.
        exp2 = ColocationExperiment(
            service,
            heracles_controllers(service),
            [evaluation_be_jobs()[0]],
            ConstantLoad(0.4),
            streams=RandomStreams(2),
            config=config,
        )
        assert bakeoff_member_digest(exp2.streams, exp2.run()) == digest
