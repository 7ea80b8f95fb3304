#!/usr/bin/env python
"""Fast regression gate for the parallel grid engine and result cache.

Runs, in order:

1. a tiny parallel grid (1 service, 2 BE jobs, 2 loads, 20 simulated
   seconds per cell) twice — inline and on a 2-worker pool — and asserts
   the results are bit-identical, then
2. the profiling pipeline twice — the serial ``Rhythm`` path and the
   fanned-out pool path — asserting identical artifacts, plus a
   cold/warm profiling cache round trip that must execute zero
   simulations when warm, then
3. the same grid cold-then-warm against a throwaway disk cache and
   asserts the warm run hits every cell (zero recomputation) with
   bit-identical results, then
4. the chaos smoke: the tiny grid again under an executor crash storm
   (bit-identical to the fault-free inline run, retry counters matching
   the injected crashes, zero unhandled exceptions) and a tiny
   cluster-layer fault storm driven end to end, then
5. the kernel smoke: a small co-location cell (healthy and faulted) and
   a short queueing run under the scalar and batched simulation kernels,
   asserting bit-identical results and RNG states, then
6. the fleet smoke: a small mixed fleet through the fleet SoA kernel,
   asserting bit-identity with the sequential scalar reference and
   shard-count invariance, then
7. the fleet cache smoke: the same fleet cold-then-warm against a
   throwaway disk cache, asserting the warm run executes zero
   simulations, reproduces the cold ``FleetResult.digest``
   bit-identically, and still hits every entry after resharding, then
8. the bake-off smoke: a small three-member controller bake-off,
   healthy and under a fault schedule, run as independent reference
   runs on both kernels and once through the shared-physics single
   pass, asserting bit-identical digests, plus a cold/warm bake-off cache round trip that must
   execute zero shared passes when warm, then
9. the storm smoke: a correlated fault storm (seeded rack/AZ/ToR
   domain events expanded over a small fleet) through the fleet SoA
   kernel, asserting bit-identity with the sequential scalar
   reference, plus a cold/warm storm round trip that must execute
   zero simulations when warm, then
10. the tier-1 test suite (``pytest -x -q`` over ``tests/``).

Exit code is non-zero on any failure, so CI can gate pool-runner and
cache regressions without paying for the full figure grids. Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--skip-tests]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def smoke_parallel_grid() -> None:
    """The tiny serial-vs-pool identity check."""
    from repro.bejobs.catalog import evaluation_be_jobs
    from repro.experiments.colocation import ColocationConfig
    from repro.parallel.grid import (
        GridCell,
        comparison_fingerprint,
        profile_services,
        run_comparison_grid,
    )
    from repro.workloads.catalog import LC_CATALOG

    spec = LC_CATALOG["Redis"]()
    cells = [
        GridCell(spec, be, load, seed=0)
        for be in evaluation_be_jobs()[:2]
        for load in (0.25, 0.65)
    ]
    config = ColocationConfig(duration_s=20.0)
    # The analytic slacklimit fixed point skips the expensive SLA probe;
    # the pool mechanics under test are identical either way.
    artifacts = profile_services(cells, probe_slacklimits=False)
    t0 = time.perf_counter()
    serial = run_comparison_grid(
        cells, config=config, workers=1, artifacts=artifacts
    )
    pooled = run_comparison_grid(
        cells, config=config, workers=2, artifacts=artifacts
    )
    elapsed = time.perf_counter() - t0
    if [comparison_fingerprint(r) for r in serial] != [
        comparison_fingerprint(r) for r in pooled
    ]:
        raise AssertionError("pool results diverged from the serial run")
    events = sum(r.rhythm.events_fired + r.heracles.events_fired for r in serial)
    print(
        f"smoke grid OK: {2 * len(cells)} simulations x2 paths, "
        f"{events} events, bit-identical, {elapsed:.1f}s"
    )


def smoke_profiling() -> None:
    """Profiling identity gate plus the cold/warm profiling round trip."""
    import shutil
    import tempfile

    from repro.cache import CacheStore
    from repro.experiments.runner import clear_rhythm_cache
    from repro.parallel.artifact import artifact_for
    from repro.parallel.profile import (
        ProfileStats,
        clear_profile_memo,
        profile_service_parallel,
    )
    from repro.workloads.catalog import LC_CATALOG

    spec = LC_CATALOG["Redis"]()
    clear_rhythm_cache()
    clear_profile_memo()
    t0 = time.perf_counter()
    serial = artifact_for(spec, seed=0, probe_slacklimits=False)
    clear_profile_memo()
    pooled = profile_service_parallel(
        spec, seed=0, probe_slacklimits=False, workers=2
    )
    identity_s = time.perf_counter() - t0
    if pooled != serial:
        raise AssertionError("pooled profiling diverged from the serial pipeline")

    cache_dir = tempfile.mkdtemp(prefix="rhythm-smoke-profile-")
    try:
        store = CacheStore(cache_dir)
        clear_profile_memo()
        cold_stats = ProfileStats()
        t0 = time.perf_counter()
        cold = profile_service_parallel(
            spec, seed=0, probe_slacklimits=False, workers=2,
            cache=store, stats=cold_stats,
        )
        cold_s = time.perf_counter() - t0
        clear_profile_memo()  # force everything back from disk
        warm_stats = ProfileStats()
        t0 = time.perf_counter()
        warm = profile_service_parallel(
            spec, seed=0, probe_slacklimits=False, workers=2,
            cache=store, stats=warm_stats,
        )
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm_stats.sweep_executed or warm_stats.slack_executed:
        raise AssertionError(
            f"warm profiling re-ran simulations: "
            f"{warm_stats.sweep_executed} sweep, "
            f"{warm_stats.slack_executed} slacklimit"
        )
    if warm != cold or warm != serial:
        raise AssertionError("warm profiling artifact diverged")
    print(
        f"smoke profiling OK: serial==pooled ({identity_s:.1f}s), "
        f"cold {cold_s:.1f}s -> warm {warm_s:.3f}s, zero simulations warm"
    )


def smoke_cache() -> None:
    """The tiny cold-vs-warm incremental re-execution check."""
    import shutil
    import tempfile

    from repro.bejobs.catalog import evaluation_be_jobs
    from repro.cache import CacheStore
    from repro.experiments.colocation import ColocationConfig
    from repro.experiments.runner import clear_rhythm_cache
    from repro.parallel.grid import (
        GridCacheStats,
        GridCell,
        comparison_fingerprint,
        run_comparison_grid,
    )
    from repro.workloads.catalog import LC_CATALOG

    spec = LC_CATALOG["Redis"]()
    cells = [
        GridCell(spec, be, load, seed=0)
        for be in evaluation_be_jobs()[:2]
        for load in (0.25, 0.65)
    ]
    config = ColocationConfig(duration_s=20.0)
    cache_dir = tempfile.mkdtemp(prefix="rhythm-smoke-cache-")
    try:
        store = CacheStore(cache_dir)
        clear_rhythm_cache()
        cold_stats = GridCacheStats()
        t0 = time.perf_counter()
        cold = run_comparison_grid(
            cells, config=config, workers=1, cache=store, cache_stats=cold_stats
        )
        cold_s = time.perf_counter() - t0
        clear_rhythm_cache()  # force the artifact to come back from disk
        warm_stats = GridCacheStats()
        t0 = time.perf_counter()
        warm = run_comparison_grid(
            cells, config=config, workers=1, cache=store, cache_stats=warm_stats
        )
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm_stats.hits != len(cells) or warm_stats.misses or warm_stats.skipped:
        raise AssertionError(
            f"warm run recomputed cells: {warm_stats.hits} hits, "
            f"{warm_stats.misses} misses, {warm_stats.skipped} skipped"
        )
    if [comparison_fingerprint(r) for r in cold] != [
        comparison_fingerprint(r) for r in warm
    ]:
        raise AssertionError("warm cache results diverged from the cold run")
    print(
        f"smoke cache OK: {len(cells)} cells, cold {cold_s:.1f}s -> "
        f"warm {warm_s:.3f}s, all hits, bit-identical"
    )


def smoke_chaos() -> None:
    """The fault-injection gate: chaos must not change outputs.

    Re-runs the tiny grid with every pooled task crashing on its first
    attempt more often than not, asserts the hardened pool's results are
    bit-identical to the fault-free inline run with the retry counters
    matching the injected crashes exactly, then drives one tiny
    cluster-layer fault storm end to end (Rhythm vs Heracles) to prove
    the chaos CLI path completes without unhandled exceptions.
    """
    from repro.bejobs.catalog import BE_CATALOG, evaluation_be_jobs
    from repro.experiments.colocation import ColocationConfig
    from repro.experiments.faultstorm import run_fault_storm
    from repro.experiments.runner import clear_rhythm_cache
    from repro.faults import ExecutorFaultPlan, executor_chaos
    from repro.parallel.artifact import artifact_for
    from repro.parallel.grid import (
        GridCell,
        comparison_fingerprint,
        run_comparison_grid,
    )
    from repro.parallel.pool import pool_stats, reset_pool_stats
    from repro.workloads.catalog import LC_CATALOG

    spec = LC_CATALOG["Redis"]()
    cells = [
        GridCell(spec, be, load, seed=0)
        for be in evaluation_be_jobs()[:2]
        for load in (0.25, 0.65)
    ]
    config = ColocationConfig(duration_s=20.0)
    clear_rhythm_cache()  # earlier smokes memoized these same cells
    artifacts = {spec.name: artifact_for(spec, seed=0, probe_slacklimits=False)}
    serial = run_comparison_grid(cells, config=config, workers=1, artifacts=artifacts)
    reset_pool_stats()
    t0 = time.perf_counter()
    try:
        with executor_chaos(ExecutorFaultPlan(seed=0, crash_rate=0.6)):
            chaotic = run_comparison_grid(
                cells, config=config, workers=2, artifacts=artifacts
            )
        stats = pool_stats()
    finally:
        reset_pool_stats()
    elapsed = time.perf_counter() - t0
    if [comparison_fingerprint(r) for r in serial] != [
        comparison_fingerprint(r) for r in chaotic
    ]:
        raise AssertionError("crash-storm grid diverged from the fault-free run")
    # Every injected crash fails the first attempt once and is retried
    # once; a clean second attempt means no inline fallbacks were needed.
    if stats.task_failures == 0:
        raise AssertionError("crash storm injected no faults (vacuous gate)")
    if stats.retries != stats.task_failures or stats.inline_fallbacks:
        raise AssertionError(
            f"retry counters diverged from injected crashes: "
            f"{stats.task_failures} failures, {stats.retries} retries, "
            f"{stats.inline_fallbacks} inline fallbacks"
        )

    t0 = time.perf_counter()
    storm = run_fault_storm(
        spec,
        BE_CATALOG["stream-dram-small"],
        load=0.5,
        duration_s=20.0,
        seed=0,
        storm_seed=1,
        faults_per_minute=9.0,
    )
    storm_s = time.perf_counter() - t0
    if storm.faults_injected == 0:
        raise AssertionError("fault storm generated an empty schedule")
    print(
        f"smoke chaos OK: {stats.task_failures} injected crashes all retried "
        f"clean, bit-identical ({elapsed:.1f}s); "
        f"{storm.faults_injected}-fault storm ran both systems ({storm_s:.1f}s)"
    )


def smoke_kernel() -> None:
    """The scalar-vs-batched kernel identity gate.

    A small co-location cell (healthy and under a fault schedule) and a
    short queueing run must produce bit-identical results — fingerprints
    plus the final state of every RNG stream — under both kernels.
    """
    from repro.experiments.runner import kernel_identity_probe
    from repro.sim.rng import RandomStreams
    from repro.workloads.queueing import QueueingComponent

    t0 = time.perf_counter()
    for pattern, faults in (("constant", False), ("step", True)):
        scalar = kernel_identity_probe(
            "scalar", seed=3, pattern_name=pattern, with_faults=faults
        )
        batched = kernel_identity_probe(
            "batched", seed=3, pattern_name=pattern, with_faults=faults
        )
        if scalar != batched:
            raise AssertionError(
                f"batched kernel diverged from scalar "
                f"(pattern={pattern}, faults={faults})"
            )

    runs = {}
    for kernel in ("scalar", "batched"):
        component = QueueingComponent(2.0, 0.3, workers=8)
        streams = RandomStreams(11)
        stats = component.simulate(
            0.7 * component.capacity_qps, 20.0, streams, kernel=kernel
        )
        runs[kernel] = (
            stats,
            tuple(
                (name, repr(streams._streams[name].bit_generator.state))
                for name in sorted(streams._streams)
            ),
        )
    if runs["scalar"] != runs["batched"]:
        raise AssertionError("batched queueing run diverged from scalar")
    elapsed = time.perf_counter() - t0
    print(
        f"smoke kernel OK: colocation (healthy + faulted) and "
        f"{runs['scalar'][0].events}-event queueing run bit-identical "
        f"across kernels ({elapsed:.1f}s)"
    )


def smoke_fleet() -> None:
    """The fleet identity gate.

    A small mixed fleet (one fault-injected instance) through the fleet
    SoA kernel must match the sequential scalar reference digest, and a
    2-shard split of the same fleet must match the 1-shard run.
    """
    from repro.experiments.fleet import fleet_identity_probe

    t0 = time.perf_counter()
    case = {"n_instances": 4, "duration_s": 40.0, "seed": 5, "with_faults": True}
    reference = fleet_identity_probe("reference", **case)
    if fleet_identity_probe("fleet", **case) != reference:
        raise AssertionError("fleet kernel diverged from the scalar reference")
    if fleet_identity_probe("fleet", shards=2, **case) != reference:
        raise AssertionError("fleet results changed with the shard count")
    elapsed = time.perf_counter() - t0
    print(
        f"smoke fleet OK: 4-instance mixed fleet bit-identical to the "
        f"sequential scalar reference, shard-count invariant ({elapsed:.1f}s)"
    )


def smoke_fleet_cache() -> None:
    """The fleet cold/warm cache round trip.

    A small fleet cold-then-warm against a throwaway disk cache: the
    warm run must execute zero simulations and reproduce the cold run's
    ``FleetResult.digest`` bit-identically, and a resharded re-run of
    the same fleet must still hit every per-zone entry (the shard count
    is not a cache-key coordinate).
    """
    import dataclasses
    import shutil
    import tempfile

    from repro.cache import CacheStore
    from repro.experiments.fleet import FleetConfig, FleetExperiment, alibaba_fleet

    config = FleetConfig(duration_s=30.0, shards=2, workers=1, zone_size=2)
    fleet = alibaba_fleet(
        8, policy="heracles", duration_s=30.0, seed=5, config=config
    )
    cache_dir = tempfile.mkdtemp(prefix="rhythm-smoke-fleet-cache-")
    try:
        store = CacheStore(cache_dir)
        t0 = time.perf_counter()
        cold = fleet.run(cache=store)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = fleet.run(cache=store)
        warm_s = time.perf_counter() - t0
        resharded = FleetExperiment(
            fleet.instances, dataclasses.replace(config, shards=1)
        ).run(cache=store)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm.cache.simulated != 0:
        raise AssertionError(
            f"warm fleet re-run executed simulations: "
            f"{warm.cache.misses} misses, {warm.cache.skipped} skipped"
        )
    if warm.digest != cold.digest:
        raise AssertionError("warm fleet digest diverged from the cold run")
    if resharded.cache.simulated != 0 or resharded.digest != cold.digest:
        raise AssertionError(
            "resharded fleet re-run missed the per-zone cache entries"
        )
    print(
        f"smoke fleet cache OK: {cold.cache.total} zones, "
        f"cold {cold_s:.1f}s -> warm {warm_s:.3f}s, zero simulations "
        f"warm, shard-count invariant, bit-identical digest"
    )


def smoke_bakeoff() -> None:
    """The controller bake-off identity gate plus its cache round trip.

    A small three-member bake-off, healthy and under a fault schedule,
    must reproduce the independent reference runs' digests
    bit-identically through the shared-physics single pass — against
    references run on the default (batched) kernel, which the bake-off
    branches share, and on the scalar engine, the oracle. A warm re-run
    against a throwaway disk cache must execute zero shared passes
    while returning the cold run's digest.
    """
    import os
    import shutil
    import tempfile

    from repro.cache import CacheStore
    from repro.experiments.bakeoff import (
        BakeoffConfig,
        bakeoff_identity_probe,
        bakeoff_scenario_grid,
        heracles_member,
        interference_member,
        predictive_member,
        run_bakeoff,
    )
    from repro.sim.kernel import KERNEL_ENV_VAR

    t0 = time.perf_counter()
    saved = os.environ.get(KERNEL_ENV_VAR)
    try:
        for with_faults in (False, True):
            shared = bakeoff_identity_probe(
                "bakeoff", duration_s=40.0, with_faults=with_faults
            )
            for kernel in ("batched", "scalar"):
                os.environ[KERNEL_ENV_VAR] = kernel
                reference = bakeoff_identity_probe(
                    "reference", duration_s=40.0, with_faults=with_faults
                )
                if shared != reference:
                    raise AssertionError(
                        f"shared bake-off pass diverged from the independent "
                        f"{kernel} reference runs (with_faults={with_faults})"
                    )
    finally:
        if saved is None:
            os.environ.pop(KERNEL_ENV_VAR, None)
        else:
            os.environ[KERNEL_ENV_VAR] = saved
    identity_s = time.perf_counter() - t0

    members = [
        heracles_member("Redis"),
        interference_member(),
        predictive_member(),
    ]
    scenarios = bakeoff_scenario_grid(
        loads=(0.35,), duration_s=40.0, seed=3
    )
    config = BakeoffConfig(duration_s=40.0)
    cache_dir = tempfile.mkdtemp(prefix="rhythm-smoke-bakeoff-")
    try:
        store = CacheStore(cache_dir)
        t0 = time.perf_counter()
        cold = run_bakeoff(scenarios, members, config=config, cache=store)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_bakeoff(scenarios, members, config=config, cache=store)
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm.passes != 0:
        raise AssertionError(
            f"warm bake-off re-simulated: {warm.passes} shared passes, "
            f"{warm.cache.misses} cache misses"
        )
    if warm.digest != cold.digest:
        raise AssertionError("warm bake-off digest diverged from the cold run")
    print(
        f"smoke bakeoff OK: 3-member roster bit-identical to independent "
        f"batched and scalar runs, healthy + faulted ({identity_s:.1f}s); "
        f"cold {cold_s:.1f}s "
        f"-> warm {warm_s:.3f}s, zero shared passes warm"
    )


def smoke_storm() -> None:
    """The correlated-storm identity gate plus its cache round trip.

    A small stormed fleet (seeded domain events expanded into
    per-instance fault schedules) through the fleet SoA kernel must
    match the sequential scalar reference digest, and a warm re-run of
    the identical storm against a throwaway disk cache must execute
    zero simulations while reproducing the cold digest.
    """
    import shutil
    import tempfile

    from repro.cache import CacheStore
    from repro.experiments.fleet import FleetConfig, alibaba_fleet
    from repro.experiments.scenarios import storm_fleet, storm_identity_probe
    from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology

    t0 = time.perf_counter()
    # 4 instances are 8 machines (the small-fleet tick); 6 are 12, so
    # faults also run on the whole-array tick.
    for n_instances in (4, 6):
        case = {
            "n_instances": n_instances,
            "duration_s": 40.0,
            "seed": 5,
            "storm_seed": 7,
        }
        reference = storm_identity_probe("reference", **case)
        if storm_identity_probe("fleet", **case) != reference:
            raise AssertionError(
                f"stormed {n_instances}-instance fleet diverged from the "
                "scalar reference"
            )
        if storm_identity_probe("fleet", shards=2, **case) != reference:
            raise AssertionError(
                f"{n_instances}-instance storm results changed with the "
                "shard count"
            )
    identity_s = time.perf_counter() - t0

    config = FleetConfig(duration_s=40.0, shards=2, workers=1, zone_size=2)
    fleet = alibaba_fleet(
        8, policy="heracles", duration_s=40.0, seed=5, config=config
    )
    topology = FleetTopology.generate(
        7, n_instances=len(fleet.instances), zone_size=2
    )
    storm = CorrelatedFaultSchedule.generate(
        7, topology, 40.0, events_per_minute=2.0
    )
    stormed = storm_fleet(fleet, storm)
    cache_dir = tempfile.mkdtemp(prefix="rhythm-smoke-storm-")
    try:
        store = CacheStore(cache_dir)
        t0 = time.perf_counter()
        cold = stormed.run(cache=store)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = stormed.run(cache=store)
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm.cache.simulated != 0:
        raise AssertionError(
            f"warm storm re-run executed simulations: "
            f"{warm.cache.misses} misses, {warm.cache.skipped} skipped"
        )
    if warm.digest != cold.digest:
        raise AssertionError("warm storm digest diverged from the cold run")
    print(
        f"smoke storm OK: stormed 4- and 6-instance fleets bit-identical "
        f"to the scalar reference, shard-count invariant ({identity_s:.1f}s); "
        f"{len(storm)}-event storm cold {cold_s:.1f}s -> warm "
        f"{warm_s:.3f}s, zero simulations warm"
    )


def run_tier1() -> int:
    """The repo's tier-1 suite, exactly as the roadmap invokes it."""
    env = dict(**__import__("os").environ)
    env["PYTHONPATH"] = (
        f"{SRC}:{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(SRC)
    )
    return subprocess.call(
        [sys.executable, "-m", "pytest", "-x", "-q"], cwd=REPO_ROOT, env=env
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-tests", action="store_true",
        help="only run the parallel-grid smoke, not the tier-1 suite",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    smoke_parallel_grid()
    smoke_profiling()
    smoke_cache()
    smoke_chaos()
    smoke_kernel()
    smoke_fleet()
    smoke_fleet_cache()
    smoke_bakeoff()
    smoke_storm()
    if args.skip_tests:
        return 0
    return run_tier1()


if __name__ == "__main__":
    raise SystemExit(main())
