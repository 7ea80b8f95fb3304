"""The benchmark's four workloads.

Each workload builds its inputs from the run seed in :meth:`setup`, then
repeats one operation: :meth:`prepare` (untimed: a private cache store),
:meth:`execute` (timed: the calls into ``repro`` a user waits for) and
:meth:`outcome` (untimed: digest, simulated work and simulated results).
Every call of :meth:`execute` on one set-up workload must produce the
same digest.

Why these four, and which layers each one should and should not
exercise, is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.cache import CacheStore
from repro.experiments.fleet import FleetConfig, FleetExperiment, alibaba_fleet
from repro.experiments.runner import clear_rhythm_cache
from repro.parallel.pool import Envelope, run_envelopes, shutdown_pool


@dataclass
class Outcome:
    """What one operation produced, besides its wall time."""

    #: Folds every result digest of the operation (bit-identity).
    digest: str
    #: Simulated machine-seconds the operation completed.
    machine_s: float
    sla_violation_rate: float
    be_throughput: float
    #: Per-layer counts read from the results (zones, forks, ...).
    counts: Dict[str, float] = field(default_factory=dict)


def start_pool(workers: int) -> float:
    """Start the shared worker pool from scratch; returns seconds taken.

    A pool is started only when the workload uses more than one worker.
    One no-op envelope per worker makes every worker exist before timing ends.
    """
    shutdown_pool()
    t0 = perf_counter()
    if workers > 1:
        run_envelopes([Envelope(fn=os.getpid, args=())] * workers, workers)
    return perf_counter() - t0


class Workload:
    """Defaults for a workload whose operations need no private state."""

    name = ""
    setup_reps = 9

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch

    def prepare(self) -> Any:
        return None

    def cleanup(self, ctx: Any) -> None:
        return None

    def reference_digest(self, workers: int) -> Optional[str]:
        """The digest of an independent run to check against, if any."""
        return None


def _fold(digests: List[str]) -> str:
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode("ascii"))
    return h.hexdigest()


# -- fleets -------------------------------------------------------------------

FLEET_MACHINES = 200
FLEET_DURATION_S = 300.0
FLEET_ZONE_SIZE = 4
FLEET_SHARDS = 2


def _fleet_outcome(result) -> Outcome:
    cache = result.cache
    return Outcome(
        digest=result.digest,
        machine_s=result.n_machines * result.duration_s,
        sla_violation_rate=result.sla_violation_rate,
        be_throughput=result.be_throughput,
        counts={
            "sim.engine.events": result.events_fired,
            "experiments.fleet.zones_simulated": cache.simulated,
            "experiments.fleet.zones_cached": cache.hits,
        },
    )


class FleetDiurnal(Workload):
    """A healthy Alibaba-shaped diurnal fleet; every zone a cache write."""

    name = "fleet-diurnal"

    def _build_fleet(self, seed: int, workers: int) -> Dict[str, float]:
        clear_rhythm_cache()
        t0 = perf_counter()
        self.fleet = alibaba_fleet(
            FLEET_MACHINES,
            policy="rhythm",
            duration_s=FLEET_DURATION_S,
            seed=seed,
            config=FleetConfig(
                duration_s=FLEET_DURATION_S,
                shards=FLEET_SHARDS,
                workers=workers,
                zone_size=FLEET_ZONE_SIZE,
            ),
        )
        return {"loadgen.build_s": perf_counter() - t0}

    def setup(self, seed: int, workers: int) -> Dict[str, float]:
        phases = self._build_fleet(seed, workers)
        phases["parallel.pool.start_s"] = start_pool(workers)
        return phases

    def _with_workers(self, fleet: FleetExperiment, workers: int) -> FleetExperiment:
        return FleetExperiment(fleet.instances, replace(fleet.config, workers=workers))

    def prepare(self) -> str:
        return tempfile.mkdtemp(prefix="op-", dir=self.scratch)

    def execute(self, store_dir: str, workers: int):
        fleet = self._with_workers(self.fleet, workers)
        return fleet.run(cache=CacheStore(directory=store_dir))

    def outcome(self, result) -> Outcome:
        return _fleet_outcome(result)

    def cleanup(self, store_dir: str) -> None:
        shutil.rmtree(store_dir, ignore_errors=True)


def half_zone_storm(seed: int, topology, duration_s: float):
    """A seeded storm whose blast radius is half the fleet's zones.

    Racks are taken in a seeded order and given one rack-power or
    top-of-rack event each, skipping any rack that would overshoot,
    until exactly half the zones (or the nearest reachable count below)
    are hit. Holding the faulted share fixed keeps the work per run
    comparable across seeds; which racks fail, when and how hard still
    comes from the seed.
    """
    from repro.faults.topology import (
        CorrelatedFaultSchedule,
        DomainEvent,
        DomainKind,
    )

    rng = random.Random(f"perfbench-storm-{seed}")
    target = topology.n_zones // 2
    racks = list(range(topology.n_racks))
    rng.shuffle(racks)
    covered: set = set()
    events = []
    for rack in racks:
        zones = topology.zones_of_domain("rack", rack)
        if len(covered) + len(zones) > target:
            continue
        covered.update(zones)
        at_s = rng.uniform(0.0, 0.6 * duration_s)
        events.append(
            DomainEvent(
                kind=rng.choice((DomainKind.RACK_POWER, DomainKind.TOR_DEGRADE)),
                domain=rack,
                at_s=at_s,
                duration_s=min(rng.uniform(30.0, 120.0), duration_s - at_s),
                magnitude=rng.uniform(0.3, 0.8),
            )
        )
        if len(covered) == target:
            break
    return CorrelatedFaultSchedule(topology=topology, seed=seed, events=tuple(events))


class FleetStorm(FleetDiurnal):
    """The diurnal fleet under a correlated storm over half its zones.

    Set-up fills a store with the healthy fleet; each operation starts
    from a copy of it, so zones outside the blast radius are cache reads
    and zones inside are simulated on the faulted path and written back.
    """

    name = "fleet-storm"
    setup_reps = 3

    def setup(self, seed: int, workers: int) -> Dict[str, float]:
        from repro.experiments.scenarios import storm_fleet
        from repro.faults.topology import FleetTopology

        phases = self._build_fleet(seed, workers)
        t0 = perf_counter()
        topology = FleetTopology.generate(
            seed, n_instances=len(self.fleet.instances), zone_size=FLEET_ZONE_SIZE
        )
        self.storm = half_zone_storm(seed, topology, FLEET_DURATION_S)
        phases["faults.storm_s"] = perf_counter() - t0
        t0 = perf_counter()
        self.stormed = storm_fleet(self.fleet, self.storm)
        phases["faults.expand_s"] = perf_counter() - t0
        phases["parallel.pool.start_s"] = start_pool(workers)
        self.baseline = os.path.join(self.scratch, "storm-baseline")
        shutil.rmtree(self.baseline, ignore_errors=True)
        t0 = perf_counter()
        self.fleet.run(cache=CacheStore(directory=self.baseline))
        phases["cache.baseline_fill_s"] = perf_counter() - t0
        return phases

    def prepare(self) -> str:
        store_dir = os.path.join(tempfile.mkdtemp(prefix="op-", dir=self.scratch), "store")
        shutil.copytree(self.baseline, store_dir)
        return store_dir

    def execute(self, store_dir: str, workers: int):
        fleet = self._with_workers(self.stormed, workers)
        return fleet.run(cache=CacheStore(directory=store_dir))

    def cleanup(self, store_dir: str) -> None:
        shutil.rmtree(os.path.dirname(store_dir), ignore_errors=True)

    def reference_digest(self, workers: int) -> Optional[str]:
        """One uncached run of the stormed fleet (run outside timing)."""
        return self._with_workers(self.stormed, workers).run(cache=None).digest


# -- bake-off -------------------------------------------------------------------

BAKEOFF_SERVICES = ("Redis", "Solr", "E-commerce")
BAKEOFF_LOADS = (0.25, 0.45, 0.65, 0.85)
#: Seeded grids per service. How often members diverge, and so how much
#: a scenario costs, swings with its seed; four grids of 120 s average
#: that out better than one grid of 480 s.
BAKEOFF_GRIDS = 4
BAKEOFF_DURATION_S = 120.0
BAKEOFF_FAULTS_PER_MINUTE = 2.0


class BakeoffFaulted(Workload):
    """The four-member roster over faulted scenario grids, cache off."""

    name = "bakeoff-faulted"

    def setup(self, seed: int, workers: int) -> Dict[str, float]:
        from repro.experiments.bakeoff import bakeoff_scenario_grid, default_members

        clear_rhythm_cache()
        t0 = perf_counter()
        self.plan = [
            (
                default_members(service, seed=0),
                [
                    scenario
                    for grid in range(BAKEOFF_GRIDS)
                    for scenario in bakeoff_scenario_grid(
                        service=service,
                        loads=BAKEOFF_LOADS,
                        duration_s=BAKEOFF_DURATION_S,
                        seed=seed * BAKEOFF_GRIDS + grid,
                        faults_per_minute=BAKEOFF_FAULTS_PER_MINUTE,
                    )
                ],
            )
            for service in BAKEOFF_SERVICES
        ]
        return {"loadgen.build_s": perf_counter() - t0}

    def execute(self, ctx: None, workers: int):
        from repro.experiments.bakeoff import BakeoffConfig, run_bakeoff

        config = BakeoffConfig(duration_s=BAKEOFF_DURATION_S)
        return [
            run_bakeoff(scenarios, members, config, cache=None)
            for members, scenarios in self.plan
        ]

    def outcome(self, results) -> Outcome:
        from repro.workloads.catalog import lc_service_spec

        cells = [cell for result in results for cell in result.cells]
        machines = {
            name: len(lc_service_spec(name).servpod_names) for name in BAKEOFF_SERVICES
        }
        ticks = sum(cell.events_fired for cell in cells)
        branch_ticks = sum(r.branch_ticks for r in results)
        member_ticks = sum(r.member_ticks for r in results)
        return Outcome(
            digest=_fold([result.digest for result in results]),
            machine_s=sum(machines[c.service] for c in cells) * BAKEOFF_DURATION_S,
            sla_violation_rate=sum(c.sla_violations for c in cells) / ticks,
            be_throughput=sum(c.be_throughput for c in cells) / len(cells),
            counts={
                "sim.engine.events": ticks,
                "sim.bakeoff.forks": sum(r.forks for r in results),
                "sim.bakeoff.merges": sum(r.merges for r in results),
                "sim.bakeoff.shared_fraction": (
                    1.0 - branch_ticks / member_ticks if member_ticks else 0.0
                ),
            },
        )


# -- profiling ------------------------------------------------------------------

PROFILE_SERVICES = ("Redis", "Elgg")
#: A 20-point sweep instead of the default 50, and 120 s SLA probes
#: instead of 600 s, so several cold profiles fit in one run.
PROFILE_LOADS = tuple(round(0.05 * i, 2) for i in range(1, 21))
PROFILE_PROBE_S = 120.0
#: Algorithm 2 on the profiled thresholds, after profiling.
EVAL_DURATION_S = 120.0
EVAL_BE_JOBS = ("stream-llc", "wordcount")


class ProfileTracer(Workload):
    """Cold tracer-mode profiling with Algorithm-1 probes, then Algorithm 2."""

    name = "profile-tracer"

    def setup(self, seed: int, workers: int) -> Dict[str, float]:
        from repro.core.rhythm import RhythmConfig
        from repro.workloads.catalog import lc_service_spec

        t0 = perf_counter()
        self.seed = seed
        self.specs = [lc_service_spec(name) for name in PROFILE_SERVICES]
        self.config = RhythmConfig(loads=PROFILE_LOADS, profiling_mode="tracer")
        phases = {"loadgen.build_s": perf_counter() - t0}
        phases["parallel.pool.start_s"] = start_pool(workers)
        return phases

    def execute(self, ctx: None, workers: int):
        from repro.bejobs.catalog import be_job_spec
        from repro.experiments.colocation import ColocationConfig, ColocationExperiment
        from repro.loadgen.patterns import DiurnalLoad
        from repro.parallel.profile import (
            ProfileStats,
            clear_profile_memo,
            profile_service_parallel,
        )
        from repro.sim.rng import RandomStreams

        clear_profile_memo()
        stats = ProfileStats()
        runs = []
        for spec in self.specs:
            artifact = profile_service_parallel(
                spec,
                seed=self.seed,
                profiling_mode="tracer",
                probe_slacklimits=True,
                probe_duration_s=PROFILE_PROBE_S,
                workers=workers,
                cache=None,
                config=self.config,
                stats=stats,
            )
            experiment = ColocationExperiment(
                spec,
                artifact.controllers(),
                [be_job_spec(name) for name in EVAL_BE_JOBS],
                DiurnalLoad(base=0.5, amplitude=0.2, period_s=EVAL_DURATION_S),
                streams=RandomStreams(self.seed),
                config=ColocationConfig(duration_s=EVAL_DURATION_S, seed=self.seed),
            )
            runs.append((artifact, experiment, experiment.run()))
        return runs, stats

    def outcome(self, output) -> Outcome:
        from repro.experiments.fleet import instance_digest

        runs, stats = output
        digests = []
        for artifact, experiment, result in runs:
            limits = repr((artifact.service_name, artifact.loadlimits, artifact.slacklimits))
            digests.append(hashlib.sha256(limits.encode("utf-8")).hexdigest())
            digests.append(instance_digest(experiment, result))
        machines = [len(result.machines) for _a, _e, result in runs]
        ticks = sum(result.events_fired for _a, _e, result in runs)
        return Outcome(
            digest=_fold(digests),
            machine_s=sum(machines) * EVAL_DURATION_S,
            sla_violation_rate=sum(r.sla_violations for _a, _e, r in runs) / ticks,
            be_throughput=sum(
                r.be_throughput * m for (_a, _e, r), m in zip(runs, machines)
            ) / sum(machines),
            counts={
                "sim.engine.events": ticks,
                "parallel.profile.sweep_points": stats.sweep_points,
                "parallel.profile.slack_walks": stats.slack_walks,
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (FleetDiurnal, FleetStorm, BakeoffFaulted, ProfileTracer)
}
