"""The benchmark's layer tracer must keep finding what it instruments.

``benchmark/tracer.py`` wraps package functions by name and the
``SearchScenario.support`` property; a refactor that renames one of them, or
turns ``support`` into something other than a property, breaks the
benchmark's traced runs.  This checks that contract without editing the
tracer: it is loaded by path and run around one shipped command.
"""

import importlib.util
from pathlib import Path

import ctqsearch
from ctqsearch import SearchScenario, cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    tracer = load_tracer()
    for short, functions in tracer.SPANS.items():
        home = getattr(ctqsearch, short)
        for fn_name in functions:
            assert callable(getattr(home, fn_name)), f"{short}.{fn_name}"
    assert isinstance(SearchScenario.__dict__["support"], property)


def test_traced_compare_records_every_layer_it_touches(tmp_path, library_demo_path):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    support = SearchScenario.__dict__["support"]
    load = ctqsearch.scenario.load_scenario
    tracer.install()
    try:
        tracer.begin_command()
        code = cli.main(["compare", "--scenario", str(library_demo_path), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.write", "scenario.load", "stateprep.prep",
            "analysis.compare", tracer_module.SUPPORT_SPAN} <= names
    assert "scenario.to_dict" not in names  # the digest reads the arrays, not their JSON
    metrics = tracer_module.layer_metrics(tracer.spans, tracer_module.self_times(tracer.spans))
    assert metrics["scenario.support_calls"] >= 1
    assert metrics["cli.bytes_written"] == (tmp_path / "compare.json").stat().st_size
    assert SearchScenario.__dict__["support"] is support
    assert ctqsearch.scenario.load_scenario is load


def test_traced_estimate_records_the_register_table_size(tmp_path, library_demo_path):
    # the tracer reads RegisterDistribution.m_size from measurement_distribution
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_command()
        code = cli.main(["estimate", "--scenario", str(library_demo_path), "--out", str(tmp_path),
                         "--format", "both"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "phase_estimation.register" in {span[0] for span in tracer.spans}
    metrics = tracer_module.layer_metrics(tracer.spans, tracer_module.self_times(tracer.spans))
    assert metrics["phase_estimation.m_size"] == 64
