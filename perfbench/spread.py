"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload profile-tracer --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{out.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:>22}: median {median:.4g}  spread {(q3 - q1) / median:.3f}"
              f"  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
