"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-diurnal --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: the operation runs on
``min(2, cpu_count)`` pool workers, one caller waiting for each result
(a closed loop), repeated for ``--seconds`` (at least three times).
``--trace 1`` measures the per-layer metrics: the same operation on one
worker, first untraced and then twice with spans around every layer
(see ``spans.py``), so every span lands in this process.

Every operation's digest must equal the first one's, and for the
default seed the one pinned in ``pinned.json``. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the full report, with the environment, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_OPS = 3
TRACED_OPS = 2


def _load_spec() -> Dict[str, Any]:
    """Metric names and units, from the BENCHMARK.json next to this directory."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _hermetic_env(scratch: Path) -> None:
    """No inherited repro settings; the default cache is a private directory."""
    for key in [k for k in os.environ if k.startswith("RHYTHM_")]:
        del os.environ[key]
    os.environ["RHYTHM_CACHE_DIR"] = str(scratch / "default-cache")


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """One invocation: a set-up workload and the operations made on it."""

    def __init__(self, workload, seed: int, pinned: Optional[str]) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.first: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def setup(self, workers: int, reps: int) -> Dict[str, Any]:
        times, phases = [], {}
        for _ in range(reps):
            gc.collect()
            t0 = perf_counter()
            phases = self.workload.setup(self.seed, workers)
            times.append(perf_counter() - t0)
        return {"times": times, "phases": phases}

    def check(self, digest: str) -> bool:
        if self.first is None:
            self.first = digest
        expected = [self.first] + ([self.pinned] if self.pinned else [])
        if all(digest == e for e in expected):
            return True
        self.errors.append(f"digest {digest} != expected {expected}")
        return False

    def op(self, workers: int, tracer=None):
        """One timed operation; (wall seconds, outcome) or None on failure."""
        self.attempted += 1
        wl = self.workload
        ctx = wl.prepare()
        gc.collect()
        try:
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            t0 = perf_counter()
            try:
                result = wl.execute(ctx, workers)
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            outcome = wl.outcome(result)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        finally:
            wl.cleanup(ctx)
        if not self.check(outcome.digest):
            self.failed += 1
            return None
        return wall, outcome


def measure(run: Run, workers: int, seconds: float) -> Dict[str, Any]:
    setup = run.setup(workers, run.workload.setup_reps)
    walls, rates, outcomes = [], [], []
    t_start = perf_counter()
    while len(walls) < MIN_OPS or perf_counter() - t_start < seconds:
        done = run.op(workers)
        if done is None:
            if run.failed >= MIN_OPS:
                break
            continue
        wall, outcome = done
        walls.append(wall)
        rates.append(outcome.machine_s / wall)
        outcomes.append(outcome)
    reference = None
    if outcomes:
        reference = run.workload.reference_digest(workers)
        run.attempted += reference is not None
        if reference is not None and reference != outcomes[0].digest:
            run.failed += 1
            run.errors.append(
                f"cache-served digest {outcomes[0].digest} != uncached {reference}"
            )
    metrics = {
        "wall_s": statistics.median(walls) if walls else None,
        "sim_machine_s_per_s": statistics.median(rates) if rates else None,
        "setup_s": statistics.median(setup["times"]),
    }
    return {
        "metrics": metrics,
        "walls": walls,
        "setup": setup,
        "outcome": vars(outcomes[0]) if outcomes else None,
        "uncached_reference_digest": reference,
    }


def trace(run: Run, workers: int, seconds: float) -> Dict[str, Any]:
    """Per-layer metrics from traced one-worker operations.

    Set-up is the end-to-end one (pool included), so its phase timings
    are comparable; the operations then run on one worker.
    """
    import spans
    from repro.parallel.pool import pool_stats

    setup = run.setup(workers, 1)
    untraced = []
    t_start = perf_counter()
    while not untraced or perf_counter() - t_start < seconds / 3:
        done = run.op(1)
        if done is None:
            break
        untraced.append(done[0])
    tracer = spans.Tracer()
    tracer.install()
    traced, counts = [], []
    try:
        for _ in range(TRACED_OPS):
            before = pool_stats().as_dict()
            done = run.op(1, tracer)
            if done is None:
                break
            pool = {k: v - before[k] for k, v in pool_stats().as_dict().items()}
            traced.append(done)
            counts.append(tracer.repeatable_counts())
    finally:
        tracer.uninstall()
    if len(traced) < TRACED_OPS:
        return {"metrics": {}, "setup": setup}
    mismatches = sorted(
        k for k in set(counts[0]) | set(counts[1])
        if counts[0].get(k) != counts[1].get(k)
    )
    if mismatches:
        run.failed += 1
        run.errors.append(f"per-layer counts differ between traced runs: {mismatches}")
    wall, outcome = traced[-1]
    metrics = spans.layer_metrics(tracer, wall, outcome, setup["phases"], pool)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced) if untraced else 0.0
    metrics["trace.overhead_frac"] = (
        wall / metrics["trace.untraced_wall_s"] - 1.0 if untraced else 0.0
    )
    metrics["trace.count_mismatches"] = len(mismatches)
    return {
        "metrics": metrics,
        "setup": setup,
        "traced_walls": [w for w, _ in traced],
        "untraced_walls": untraced,
        "count_mismatches": mismatches,
        "tracer": tracer,
        "outcome": vars(outcome),
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src, benchmarks = root / "src", root / "benchmarks"
    if not (src / "repro").is_dir() or not (benchmarks / "bench_env.py").is_file():
        print(
            f"error: run from the root of a checkout of the repository "
            f"({src / 'repro'} or {benchmarks / 'bench_env.py'} is missing)",
            file=sys.stderr,
        )
        return 2
    out_dir = root / ".perfbench"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    _hermetic_env(scratch)
    sys.path[:0] = [str(src), str(benchmarks)]

    import workloads
    from bench_env import environment
    from repro.parallel import pool
    from repro.sim.kernel import resolve_kernel

    pinned_all = json.loads((HERE / "pinned.json").read_text())
    pinned = pinned_all.get(args.workload) if args.seed == DEFAULT_SEED else None
    workers = min(2, os.cpu_count() or 1)
    run = Run(workloads.WORKLOADS[args.workload](str(scratch)), args.seed, pinned)
    try:
        if args.trace:
            report = trace(run, workers, args.seconds)
        else:
            report = measure(run, workers, args.seconds)
    finally:
        pool.shutdown_pool()
        shutil.rmtree(scratch, ignore_errors=True)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = dict(report.pop("metrics"))
    if not args.trace:
        metrics["peak_rss_mb"] = _peak_rss_mb()
    tracer = report.pop("tracer", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(str(out_dir / f"spans-{tag}.npz"))
    missing = [m["name"] for m in names if metrics.get(m["name"]) is None]
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
    correct = run.failed == 0 and not run.errors
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        workers=1 if args.trace else workers,
        pool_start_method=pool._context_method(),
        kernel=resolve_kernel(),
        pinned_digest=pinned,
        correct=correct,
        attempted=run.attempted,
        failed=run.failed,
        errors=run.errors,
        metrics=metrics,
        **environment(),
    )
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=2, default=str))
    for error in run.errors:
        print(error, file=sys.stderr)
    env = {k: report[k] for k in ("cpu_count", "degraded", "pool_start_method", "kernel", "seed", "workers")}
    print(f"# env {json.dumps(env)}")
    result_metrics = {
        m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in names
    }
    for name, value in result_metrics.items():
        print(f"# {name} = {value['value']} {value['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
