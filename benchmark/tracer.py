"""Outside-in layer trace of ``ctqsearch.cli.main``.

Run as a script, this is the traced child process: it calls
``ctqsearch.cli.main(argv)`` in-process for every invocation of a pass,
alternating untraced and traced passes until its time is up.  In a traced
pass each call into a layer's public functions (listed in ``SPANS``) is
wrapped in a span with a name, start, end, parent and command id.  Spans stay
in memory and are written out as JSON lines when the child ends.

Imported, it turns a span file into per-layer metrics: self time (a span's
duration minus that of its direct children) summed per metric name, plus the
counters recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

# module -> {function: span name}; the span name is also the metric stem
SPANS = {
    "cli": {"main": "cli.main", "_write_json": "cli.write", "_write_csv": "cli.write"},
    "scenario": {"load_scenario": "scenario.load", "scenario_to_dict": "scenario.to_dict"},
    "stateprep": {"weighted_superposition": "stateprep.prep", "uniform_superposition": "stateprep.prep"},
    "dynamics": {"trajectory": "dynamics.trajectory", "success_distribution": "dynamics.distribution"},
    "fullsim": {
        "full_hamiltonian": "fullsim.hamiltonian",
        "evolve_on_grid": "fullsim.evolve",
        "project_reduced": "fullsim.project",
    },
    "phase_estimation": {
        "run_phase_estimation": "phase_estimation.run",
        "run_counting": "phase_estimation.run",
        "counting_scenario": "phase_estimation.counting_scenario",
        "measurement_distribution": "phase_estimation.register",
        "sample_phase_register": "phase_estimation.sample",
        "estimate_y": "phase_estimation.estimate",
        "disambiguate": "phase_estimation.disambiguate",
    },
    "rng": {"make_rng": "rng.make"},
    "analysis": {
        "misplaced_structure": "analysis.structure",
        "misplaced_confidence_curve": "analysis.curve",
        "compare_structured_unstructured": "analysis.compare",
        "check_scenario_bounds": "analysis.bounds",
    },
}
SUPPORT_SPAN = "scenario.support"  # the SearchScenario.support property
# spans whose self time is reported under another metric than "<span>_s";
# disambiguation is not its own metric because it never runs on workloads
# whose estimates are clear, and a time that is 0 on every run is no reading
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "phase_estimation.disambiguate": "phase_estimation.estimate_s",
}

# per-layer metrics; every "<span>_s" is that span's total self time
METRICS = (
    "cli.main_s",
    "cli.self_s",
    "cli.write_s",
    "cli.bytes_written",
    "scenario.load_s",
    "scenario.support_s",
    "scenario.support_calls",
    "scenario.to_dict_s",
    "stateprep.prep_s",
    "stateprep.prep_calls",
    "stateprep.repeat_frac",
    "dynamics.trajectory_s",
    "dynamics.trajectory_points",
    "dynamics.distribution_s",
    "fullsim.hamiltonian_s",
    "fullsim.evolve_s",
    "fullsim.project_s",
    "fullsim.project_calls",
    "fullsim.dense_mb",
    "fullsim.ops",
    "phase_estimation.run_s",
    "phase_estimation.counting_scenario_s",
    "phase_estimation.register_s",
    "phase_estimation.sample_s",
    "phase_estimation.estimate_s",
    "phase_estimation.ambiguous_frac",
    "phase_estimation.m_size",
    "rng.make_s",
    "analysis.structure_s",
    "analysis.curve_s",
    "analysis.compare_s",
    "analysis.bounds_s",
    "trace.overhead_frac",
)


def _evolve_counts(result) -> dict:
    # computed, not measured: the dense Hamiltonian and its eigenvectors
    # (8 bytes * N^2 each) plus the evolved states (16 bytes * G * N);
    # ~9 N^3 flop for a symmetric eigendecomposition with vectors plus
    # 4 G N^2 for the complex-by-real grid product
    n, g = result.shape[1], result.shape[0]
    return {"dense_mb": (16 * n * n + 16 * g * n) / 1e6, "ops": 9 * n**3 + 4 * g * n * n}


class Tracer:
    """Records spans into a list; ``install`` wraps the layer functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.command = -1
        self._prepared: dict[tuple, object] = {}

    def begin_command(self) -> None:
        self.command += 1
        self._prepared = {}

    def _counts(self, name, fn_name, args, result):
        if name == "cli.write":
            return {"bytes": Path(args[0]).stat().st_size}
        if name == "stateprep.prep":
            key = (fn_name, id(args[0]))
            repeat = key in self._prepared
            self._prepared[key] = args[0]  # hold the scenario so its id is not reused
            return {"repeat": int(repeat)}
        if name == "dynamics.trajectory":
            return {"points": len(result.times)}
        if name == "fullsim.evolve":
            return _evolve_counts(result)
        if name == "phase_estimation.register":
            return {"m_size": result.m_size}
        if name == "phase_estimation.estimate":
            return {"ambiguous": int(result.ambiguous)}
        return None

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self._counts
        fn_name = fn.__name__

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            record[5] = counts(name, fn_name, args, result)
            return result

        return traced

    def install(self) -> None:
        package = sys.modules["ctqsearch"]
        modules = [m for n, m in sys.modules.items() if n == "ctqsearch" or n.startswith("ctqsearch.")]
        for short, functions in SPANS.items():
            home = getattr(package, short)
            for fn_name, span in functions.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(span, original)
                for module in modules:  # every `from .x import f` binding
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cls = package.scenario.SearchScenario
        prop = cls.support
        self._restore.append((cls, "support", prop))
        cls.support = property(self.wrap(SUPPORT_SPAN, prop.fget), doc=prop.__doc__)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], own: list[float]) -> dict[str, float]:
    """Per-layer totals over the given spans, with each span's self time."""
    totals = {name: 0 for name in METRICS if name != "trace.overhead_frac"}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    m_size = 0
    for (name, start, end, _, _, counts), self_s in zip(spans, own):
        totals[SELF_TIME_METRIC.get(name, name + "_s")] += self_s
        calls[name] = calls.get(name, 0) + 1
        if name == "cli.main":
            totals["cli.main_s"] += end - start
        for key, value in (counts or {}).items():
            if key == "m_size":
                m_size = max(m_size, value)
            else:
                sums[key] = sums.get(key, 0) + value
    prep_calls = calls.get("stateprep.prep", 0)
    estimates = calls.get("phase_estimation.estimate", 0)
    totals.update(
        {
            "cli.bytes_written": sums.get("bytes", 0),
            "scenario.support_calls": calls.get(SUPPORT_SPAN, 0),
            "stateprep.prep_calls": prep_calls,
            "stateprep.repeat_frac": sums.get("repeat", 0) / prep_calls if prep_calls else 0.0,
            "dynamics.trajectory_points": sums.get("points", 0),
            "fullsim.project_calls": calls.get("fullsim.project", 0),
            "fullsim.dense_mb": sums.get("dense_mb", 0.0),
            "fullsim.ops": sums.get("ops", 0),
            "phase_estimation.ambiguous_frac": sums.get("ambiguous", 0) / estimates if estimates else 0.0,
            "phase_estimation.m_size": m_size,
        }
    )
    return totals


def _run_pass(cli, invocations, out_root: Path, checker, tracer: Tracer | None) -> dict:
    outcomes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for index, (key, argv) in enumerate(invocations):
        out_dir = out_root / f"{index:02d}"
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer:
            tracer.begin_command()
        raised = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main([*argv, "--out", str(out_dir)])
            except Exception as exc:  # a traceback in a real run: exit code 1
                code, raised = 1, [f"raised {exc!r}"]
        out_dir.mkdir(parents=True, exist_ok=True)
        problems = checker.check(key, code, out_dir) + raised
        outcomes.append({"key": key, "problems": problems})
        sink.seek(0)
        sink.truncate()
    return {"traced": tracer is not None, "wall_s": time.perf_counter() - start, "outcomes": outcomes}


def child(job_path: str) -> None:
    """Traced child: alternate untraced and traced in-process passes."""
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import ctqsearch.cli as cli
    from checks import OutputChecker

    checker = OutputChecker()
    tracer = Tracer()
    out_root = Path(job["out_root"])
    passes = []
    deadline = time.perf_counter() + job["seconds"]
    while True:
        # pass 0 warms the interpreter; then traced and untraced passes
        # alternate, and their wall times give the tracing overhead
        traced = len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(_run_pass(cli, job["invocations"], out_root, checker, tracer if traced else None))
        finally:
            tracer.uninstall()
        if len(passes) >= 3 and time.perf_counter() + passes[-1]["wall_s"] > deadline:
            break
    with open(job["spans_path"], "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    Path(job["passes_path"]).write_text(
        json.dumps({"passes": passes, "digests": checker.digests})
    )


if __name__ == "__main__":
    child(sys.argv[1])
