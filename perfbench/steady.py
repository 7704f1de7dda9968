"""Steadiness of the benchmark: one workload, several seeds.

    python3 perfbench/steady.py --workload cli --runs 10

Runs ``perfbench/run.py --trace 0`` once per seed (``--first-seed``
on), one run at a time, and prints for every end-to-end metric the
median, the quartiles, the minimum and maximum, and the spread: the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  The bounds in ``BENCHMARK.json`` are set from these
spreads.  The last line is the same summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and the relative quartile spread."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: List[str] = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    args = parser.parse_args(argv)
    samples: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    summary = {name: dict(summarize(values), unit=units[name])
               for name, values in samples.items()}
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'spread':>9}")
    for name, row in summary.items():
        print(f"{name:<28}" + "".join(
            f"{row[key]:>12.5g}" for key in ("median", "q1", "q3", "min",
                                             "max"))
            + f"{row['spread']:>9.3f}")
    print(f"failed/attempted per run: {sorted(shares)}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "failed_attempted":
                      sorted(shares), "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
