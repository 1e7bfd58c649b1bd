"""Run-to-run spread of every metric, the basis of the regression bounds.

    python3 benchmark/quartiles.py --workload NAME [--runs 10] [--first-seed 1] [--trace 0|1]

Runs ``run.py`` once per seed (``--first-seed`` onwards, ``run_seconds`` from
BENCHMARK.json each) and prints, per metric, the quartiles of the run
medians and their spread (q3 - q1) / median.  For end-to-end metrics the
spread is set against the bound in BENCHMARK.json: a bound should be at
least three times the spread seen here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs, attempted {attempted}, failed {failed}")
    print(f"{'metric':38s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
        print(f"{name:38s} {q1:12.6g} {median:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
