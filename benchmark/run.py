"""ctqsearch benchmark: CLI wall time, memory and output checks per workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package need not be installed).  With
``--trace 0`` each CLI command is timed from the outside: a closed loop with
one client runs ``python -m ctqsearch.cli`` as a subprocess, one invocation
at a time, whole passes over the workload's invocations until ``--seconds``
is used up.  With ``--trace 1`` a child process calls ``ctqsearch.cli.main``
in-process instead and records layer spans (see ``tracer.py``).

Every invocation's outputs are checked (``checks.py``).  A report goes to
stdout, the full record (seed, environment, output hashes, counters, samples)
to ``benchmark/results/``, and the last stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracer
import workloads
from checks import OutputChecker

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
MIN_SETUP_PROBES = 7
PERCENTILES = (50, 75, 90, 95, 99)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    # children get no more BLAS threads than the CPUs this process may use
    threads = str(nproc())
    # bytecode is cached, as in an installed package, but inside the checkout
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONPYCACHEPREFIX=str(BENCH / "work" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def environment(env: dict) -> dict:
    commit = None
    if (REPO / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=False
        )
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((REPO / "src" / "ctqsearch").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def summarize(samples: list[float]) -> dict:
    """Median with sample count, quartiles, and the highest percentile that
    has at least ten samples beyond it (None when there is none)."""
    n = len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n > 1 else (samples[0],) * 3
    ordered = sorted(samples)
    tail = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    high = None
    if tail:
        p = tail[-1]
        high = {"percentile": p, "value": ordered[min(n - 1, int(n * p / 100))]}
    return {"median": statistics.median(samples), "n": n, "q1": q1, "q3": q3, "high": high}


def spawn(argv: list[str], env: dict, log: Path, timeout: float = 60.0) -> tuple[float, int, float]:
    """Run one child to exit, killing it after ``timeout`` seconds; return
    wall seconds, exit code and max RSS (MB)."""
    with log.open("wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=REPO, stdout=sink, stderr=sink)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_probe(env: dict, work: Path) -> float:
    """Wall time of a fresh interpreter that imports ctqsearch.cli and exits."""
    wall, code, _ = spawn(["-c", "import ctqsearch.cli"], env, work / "setup.log")
    if code != 0:
        raise SystemExit(f"error: cannot import ctqsearch.cli:\n{(work / 'setup.log').read_text()}")
    return wall


def run_untraced(invocations, seconds: float, env: dict, work: Path) -> dict:
    checker = OutputChecker()
    walls: dict[str, list[float]] = {c: [] for c in workloads.COMMANDS}
    setup, peak_rss, attempts = [], [], []
    setup_probe(env, work)  # compiles bytecode; not kept
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        # set-up is probed once per pass, so it samples the same machine
        # states as the commands
        setup.append(setup_probe(env, work))
        pass_rss = 0.0
        for index, inv in enumerate(invocations):
            out_dir = work / "out" / f"{index:02d}"
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = ["-m", "ctqsearch.cli", *inv.argv(out_dir)]
            wall, code, rss = spawn(argv, env, work / f"{index:02d}.log")
            out_dir.mkdir(parents=True, exist_ok=True)
            problems = checker.check(inv.key, code, out_dir)
            if code:
                problems.append((work / f"{index:02d}.log").read_text()[-500:])
            walls[inv.command].append(wall)
            pass_rss = max(pass_rss, rss)
            attempts.append({"key": inv.key, "problems": problems})
        peak_rss.append(pass_rss)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(setup_probe(env, work))
    return {"setup": setup, "walls": walls, "peak_rss_mb": peak_rss, "attempts": attempts,
            "digests": checker.digests}


def run_traced(invocations, seconds: float, env: dict, work: Path, results: Path) -> dict:
    job = {
        "src": str(REPO / "src"),
        "seconds": seconds,
        "invocations": [(inv.key, inv.argv(Path())[:-2]) for inv in invocations],
        "out_root": str(work / "out"),
        "spans_path": str(results.with_suffix(".spans.jsonl")),
        "passes_path": str(work / "passes.json"),
    }
    (work / "job.json").write_text(json.dumps(job))
    _, code, _ = spawn([str(BENCH / "tracer.py"), str(work / "job.json")], env, work / "trace.log",
                       timeout=seconds + 100)
    if code:
        raise SystemExit(f"error: traced child failed:\n{(work / 'trace.log').read_text()[-2000:]}")
    record = json.loads((work / "passes.json").read_text())
    with open(job["spans_path"]) as fh:
        spans = [json.loads(line) for line in fh]
    own = tracer.self_times(spans)
    by_command: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_command.setdefault(span[4], []).append(index)

    def totals(indices: list[int]) -> dict[str, float]:
        return tracer.layer_metrics([spans[i] for i in indices], [own[i] for i in indices])

    # traced command c is invocation c % n of traced pass c // n
    n = len(invocations)
    per_pass: dict[str, list[float]] = {}
    per_command: dict[str, dict[str, list[float]]] = {inv.key: {} for inv in invocations}
    for first in range(0, len(by_command), n):
        commands = range(first, first + n)
        for name, value in totals([i for c in commands for i in by_command[c]]).items():
            per_pass.setdefault(name, []).append(value)
        for c in commands:
            for name, value in totals(by_command[c]).items():
                per_command[invocations[c % n].key].setdefault(name, []).append(value)
    plain = [p["wall_s"] for p in record["passes"][1:] if not p["traced"]]
    traced = [p["wall_s"] for p in record["passes"] if p["traced"]]
    per_pass["trace.overhead_frac"] = [statistics.median(traced) / statistics.median(plain) - 1.0]
    attempts = [o for p in record["passes"] for o in p["outcomes"]]
    return {
        "per_pass": per_pass,
        "per_command": {
            key: {name: statistics.median(v) for name, v in metrics.items()}
            for key, metrics in per_command.items()
        },
        "attempts": attempts,
        "digests": record["digests"],
        "pass_walls": {"untraced": plain, "traced": traced},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "src" / "ctqsearch" / "cli.py").is_file() or not (REPO / "scenarios").is_dir():
        print(f"error: {REPO} has no src/ctqsearch or scenarios/; run from a ctqsearch checkout",
              file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "work" / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    results = results_dir / f"{label}.json"
    env = child_env()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    invocations = workloads.build(args.workload, args.seed, REPO, work)
    if args.trace:
        run = run_traced(invocations, args.seconds, env, work, results)
        samples = run["per_pass"]
    else:
        run = run_untraced(invocations, args.seconds, env, work)
        samples = {"setup_s": run["setup"]}
        samples.update({f"{command}_s": walls for command, walls in run["walls"].items()})
        samples["peak_rss_mb"] = run["peak_rss_mb"]
    summaries = {name: summarize(values) for name, values in samples.items()}

    attempted = len(run["attempts"])
    failures = [a for a in run["attempts"] if a["problems"]]
    metrics = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env),
        "loop": "closed, one client, one invocation at a time",
        "invocations": [inv.key for inv in invocations],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {name: {**summaries[name], "unit": metrics[name]["unit"]} for name in metrics},
        "samples": samples,
        "output_sha256": run["digests"],
    }
    if args.trace:
        record["pass_walls"] = run["pass_walls"]
        record["per_command"] = run["per_command"]
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} (seed {args.seed}): {record['why']}")
    print(f"attempted {attempted}, failed {len(failures)} (failed_frac {record['failed_frac']:.4f})")
    for failure in failures[:5]:
        print(f"  FAILED {failure['key']}: {'; '.join(failure['problems'])[:300]}")
    for name, summary in record["metrics"].items():
        high = summary["high"]
        tail = f"p{high['percentile']}={high['value']:.6g}" if high else "no percentile with 10 beyond"
        print(f"  {name:38s} {summary['median']:12.6g} {summary['unit']:6s} n={summary['n']:<4d} "
              f"q1={summary['q1']:.6g} q3={summary['q3']:.6g} {tail}")
    print(f"full record: {results.relative_to(REPO)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
