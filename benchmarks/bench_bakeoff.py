"""Controller bake-off engine benchmark → ``BENCH_bakeoff.json``.

Measures the single-pass multi-controller evaluation engine end to end:

- ``independent`` vs ``bakeoff``: three controllers (Heracles,
  interference-scoring, predictive) evaluated on one scenario — first
  as three independent reference runs, then as one shared-physics
  :class:`~repro.sim.kernel.BakeoffKernel` pass. The shared pass must be
  >=2x faster in aggregate and reproduce every member's cell digest
  bit-identically (``identical_results``).
- ``cached``: the same roster against a private store — the cold run
  writes one ``bakeoff-cell`` entry per member, the warm re-run must
  execute ZERO shared passes and return identical digests.
- ``divergence``: the four-member default roster (Rhythm, Heracles,
  interference scoring, predictive) over faulted scenario grids, where
  the rivals disagree often — the plan of perfbench's
  ``bakeoff-faulted`` workload at seed 1. Reports the forks and merges,
  the merge check's world digests, and the seconds spent forking and
  merging; the first grid's cells must equal their solo runs bit for
  bit (folded into ``identical_results``).

Timing takes the best of five rounds per side with the cyclic GC
paused inside each round (the work is deterministic; the repeats and
GC hygiene only shed scheduler and collector noise, which dominates
run-to-run variance on small shared CPU quotas).

Run standalone (``PYTHONPATH=src python benchmarks/bench_bakeoff.py
[--out BENCH_bakeoff.json] [--gate 2.0]``) or via
``pytest benchmarks/bench_bakeoff.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import tempfile
import time
from typing import Dict, Optional

from bench_env import environment
from repro.cache import CacheStore
from repro.experiments.bakeoff import (
    BakeoffConfig,
    bakeoff_scenario_grid,
    default_members,
    heracles_member,
    interference_member,
    predictive_member,
    run_bakeoff,
    run_member_reference,
)

DEFAULT_REPORT = "BENCH_bakeoff.json"
DEFAULT_GATE = None

#: The probe scenario: ten simulated minutes at a load where the three
#: rival controllers keep agreeing (full physics sharing, zero forks) —
#: the case the single-pass engine is built for.
BENCH_DURATION_S = 600.0
BENCH_LOAD = 0.30
BENCH_BE_JOB = "stream-llc"
BENCH_SEED = 11
BENCH_ROUNDS = 5

#: The divergence probe (perfbench's ``bakeoff-faulted`` plan, seed 1).
DIVERGENCE_SERVICES = ("Redis", "Solr", "E-commerce")
DIVERGENCE_LOADS = (0.25, 0.45, 0.65, 0.85)
DIVERGENCE_GRIDS = 4
DIVERGENCE_SEED = 1
DIVERGENCE_DURATION_S = 120.0
DIVERGENCE_FAULTS_PER_MINUTE = 2.0
DIVERGENCE_ROUNDS = 3


def _members(service: str):
    return [
        heracles_member(service),
        interference_member(),
        predictive_member(),
    ]


def _divergence_plan():
    return [
        (
            default_members(service, seed=0),
            [
                scenario
                for grid in range(DIVERGENCE_GRIDS)
                for scenario in bakeoff_scenario_grid(
                    service=service,
                    loads=DIVERGENCE_LOADS,
                    duration_s=DIVERGENCE_DURATION_S,
                    seed=DIVERGENCE_SEED * DIVERGENCE_GRIDS + grid,
                    faults_per_minute=DIVERGENCE_FAULTS_PER_MINUTE,
                )
            ],
        )
        for service in DIVERGENCE_SERVICES
    ]


def run_divergence() -> Dict[str, object]:
    """Time the high-divergence roster; check its first grid against solo runs."""
    plan = _divergence_plan()
    config = BakeoffConfig(duration_s=DIVERGENCE_DURATION_S)
    best = None
    digests = set()
    for _ in range(DIVERGENCE_ROUNDS):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            results = [
                run_bakeoff(scenarios, members, config, cache=None)
                for members, scenarios in plan
            ]
            wall_s = time.perf_counter() - t0
        finally:
            gc.enable()
        digests.add(tuple(r.digest for r in results))
        if best is None or wall_s < best[0]:
            best = (wall_s, results)
    wall_s, results = best
    identical = len(digests) == 1
    for (members, scenarios), result in zip(plan, results):
        # Cells come in (scenario, member) order.
        for k, cell in enumerate(result.cells[: len(DIVERGENCE_LOADS) * len(members)]):
            scenario = scenarios[k // len(members)]
            member = members[k % len(members)]
            solo = run_member_reference(scenario, member, config)
            identical = identical and solo.digest == cell.digest
    return {
        "services": list(DIVERGENCE_SERVICES),
        "members": [m.name for m in plan[0][0]],
        "scenarios": sum(len(scenarios) for _, scenarios in plan),
        "duration_s": DIVERGENCE_DURATION_S,
        "faults_per_minute": DIVERGENCE_FAULTS_PER_MINUTE,
        "seed": DIVERGENCE_SEED,
        "wall_s": round(wall_s, 4),
        "forks": sum(r.forks for r in results),
        "merges": sum(r.merges for r in results),
        "digests": sum(r.digests for r in results),
        "fork_s": round(sum(r.fork_s for r in results), 4),
        "merge_s": round(sum(r.merge_s for r in results), 4),
        "identical_results": identical,
    }


def run_benchmark(
    out: Optional[str] = DEFAULT_REPORT,
    gate: Optional[float] = DEFAULT_GATE,
) -> Dict[str, object]:
    """Run the independent-vs-shared and cold/warm sequences and report."""
    service = "Redis"
    members = _members(service)
    scenarios = bakeoff_scenario_grid(
        service=service,
        loads=(BENCH_LOAD,),
        be_jobs=(BENCH_BE_JOB,),
        duration_s=BENCH_DURATION_S,
        seed=BENCH_SEED,
    )
    config = BakeoffConfig(duration_s=BENCH_DURATION_S)

    # Warm-up: both paths once, outside the timed rounds.
    references = {
        member.name: run_member_reference(scenarios[0], member, config)
        for member in members
    }
    shared = run_bakeoff(scenarios, members, config=config, cache=None)

    independent_s = float("inf")
    for _ in range(BENCH_ROUNDS):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for scenario in scenarios:
                for member in members:
                    run_member_reference(scenario, member, config)
            independent_s = min(independent_s, time.perf_counter() - t0)
        finally:
            gc.enable()

    bakeoff_s = float("inf")
    for _ in range(BENCH_ROUNDS):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            shared = run_bakeoff(
                scenarios, members, config=config, cache=None
            )
            bakeoff_s = min(bakeoff_s, time.perf_counter() - t0)
        finally:
            gc.enable()

    divergence = run_divergence()
    identical = divergence["identical_results"] and all(
        cell.digest == references[cell.member].digest for cell in shared.cells
    )
    speedup = round(independent_s / bakeoff_s, 2) if bakeoff_s > 0 else None

    cache_dir = tempfile.mkdtemp(prefix="rhythm-bench-bakeoff-")
    try:
        store = CacheStore(directory=cache_dir)
        cold = run_bakeoff(scenarios, members, config=config, cache=store)
        warm = run_bakeoff(scenarios, members, config=config, cache=store)
        disk = store.stats()
        cached = {
            "cold": {
                "hits": cold.cache.hits,
                "misses": cold.cache.misses,
                "passes": cold.passes,
            },
            "warm": {
                "hits": warm.cache.hits,
                "misses": warm.cache.misses,
                "passes": warm.passes,
            },
            "warm_zero_passes": warm.passes == 0,
            "warm_identical_digest": warm.digest == cold.digest,
            "store_entries": disk.entries,
            "store_bytes": disk.total_bytes,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report: Dict[str, object] = {
        "benchmark": "bakeoff",
        **environment(),
        "roster": {
            "members": [member.name for member in members],
            "service": service,
            "load": BENCH_LOAD,
            "be_job": BENCH_BE_JOB,
            "duration_s": BENCH_DURATION_S,
            "seed": BENCH_SEED,
        },
        "independent_s": round(independent_s, 4),
        "bakeoff_s": round(bakeoff_s, 4),
        "speedup": speedup,
        "identical_results": identical,
        "shared_pass": {
            "passes": shared.passes,
            "forks": shared.forks,
            "merges": shared.merges,
            "branch_ticks": shared.branch_ticks,
            "member_ticks": shared.member_ticks,
            "shared_fraction": round(shared.shared_fraction, 4),
        },
        "cached": cached,
        "divergence": divergence,
    }
    correct = bool(
        identical
        and cached["warm_zero_passes"]
        and cached["warm_identical_digest"]
    )
    report["correct"] = correct
    if gate is not None:
        report["gate"] = gate
        report["gate_passed"] = bool(
            correct and speedup is not None and speedup >= gate
        )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def test_bakeoff_speedup(benchmark):
    """One measured round: >=2x aggregate, bit-identical, warm at 0 passes."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark)
    print()
    print(json.dumps(report, indent=2))
    assert report["correct"], "bakeoff diverged from reference or re-simulated"
    assert report["speedup"] >= 2.0, (
        f"expected >=2x aggregate bake-off speedup, got {report['speedup']}x"
    )


def divergence_line(d: Dict[str, object]) -> str:
    return (
        f"{d['wall_s']}s, {d['forks']} forks ({d['fork_s']}s), "
        f"{d['merges']} merges, {d['digests']} digests ({d['merge_s']}s)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_REPORT)
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) if aggregate speedup < GATE or any check fails",
    )
    args = parser.parse_args()
    report = run_benchmark(out=args.out, gate=args.gate)
    print(json.dumps(report, indent=2))
    if not report["correct"]:
        print("FAIL: bake-off diverged from the reference or re-simulated")
        return 1
    print(
        f"\nindependent {report['independent_s']}s | "
        f"bakeoff {report['bakeoff_s']}s | speedup {report['speedup']}x | "
        f"{report['shared_pass']['shared_fraction']:.0%} physics shared | "
        f"divergence: {divergence_line(report['divergence'])} | "
        f"report -> {args.out}"
    )
    if args.gate is not None and not report.get("gate_passed"):
        print(
            f"FAIL: aggregate speedup {report['speedup']}x "
            f"below gate {args.gate}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
