#!/usr/bin/env bash
# The repo's CI gate: tier-1 tests plus the perf smoke gate.
#
# Usage (from the repo root):
#
#   bash scripts/ci_check.sh
#
# Runs, in order:
#   1. the tier-1 test suite (PYTHONPATH=src pytest -x -q; slow-marked
#      chaos/spawn tests are excluded by pyproject addopts), then
#   2. the perf + chaos smoke gate (parallel-grid bit-identity,
#      profiling identity + cold/warm profiling round trip, the
#      cold/warm grid cache round trip, and the chaos smoke: a crash
#      storm that must leave results bit-identical with retry counters
#      matching the injected crashes, plus a tiny cluster fault storm,
#      the scalar-vs-batched kernel identity smoke, the fleet
#      smoke: a mixed fleet bit-identical to the sequential scalar
#      reference and invariant to the shard count, and the fleet cache
#      smoke: a warm fleet re-run must execute zero simulations and
#      reproduce the cold run's FleetResult.digest, and the bake-off
#      smoke: a shared-physics multi-controller pass bit-identical to
#      independent reference runs, healthy and faulted, with a warm
#      cache re-run executing zero shared passes, and the storm smoke:
#      a correlated fault storm bit-identical to the scalar reference
#      with a warm re-run executing zero simulations, and the tracing
#      smoke: examples/trace_a_request.py end to end, its aggregate
#      causal path graph equal to the service call tree and its
#      clean-trace mean sojourns equal to the ground truth)
#      from scripts/bench_smoke.py, then
#   3. (opt-in, RHYTHM_BENCH_GATE=1) the full kernel benchmark with a 5x
#      aggregate-speedup gate (benchmarks/bench_kernel.py --gate 5.0),
#      the fleet benchmark with its 10x colocation-path gate
#      (benchmarks/bench_fleet.py --gate 10.0), the bake-off
#      benchmark with its 2x aggregate-speedup gate
#      (benchmarks/bench_bakeoff.py --gate 2.0), and the storm
#      benchmark with its 10x warm-cache gate
#      (benchmarks/bench_storm.py --gate 10.0).
#
# Any failure aborts with a non-zero exit code.

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== perf smoke gate =="
python scripts/bench_smoke.py --skip-tests

if [[ "${RHYTHM_BENCH_GATE:-0}" == "1" ]]; then
  echo
  echo "== kernel benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_kernel.py --gate 5.0
  echo
  echo "== fleet benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_fleet.py --gate 10.0
  echo
  echo "== bake-off benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_bakeoff.py --gate 2.0
  echo
  echo "== storm benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_storm.py --gate 10.0
fi

echo
echo "ci_check OK"
