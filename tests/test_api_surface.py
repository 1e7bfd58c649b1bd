"""The package holds the pipeline only: no public name exists just for tests.

Every public top-level function or class in ``src/ctqsearch`` must be used
by another module of the package, by its own module outside its own
definition, or be documented in README.  Re-exports in ``__init__`` do not
count as use.  Test oracles belong in ``tests/oracles.py``.  The exceptions
are the names the benchmark's layer tracer instruments: the item-level
full-space oracles ``evolve_on_grid`` and ``project_reduced``, which
therefore stay in ``ctqsearch.fullsim``, and ``scenario_to_dict``, which
stays in ``ctqsearch.scenario``.  The tracer also instruments
``full_hamiltonian``, but ``plane_projection_on_grid`` builds its matrix
with it, so it needs no exception.

The evolution layers take a prepared state and an energy, ``(prep, energy)``:
no function of ``fullsim`` takes a scenario, and in ``phase_estimation`` only
the counting entry points do, since counting builds its own state.
"""

import ast
import re
from pathlib import Path

import ctqsearch

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ctqsearch"
TRACER_BOUND = {"evolve_on_grid", "project_reduced", "scenario_to_dict"}


def used_names(nodes) -> set[str]:
    """Names a piece of code refers to: bare names, attributes and imports."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def modules(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def unused_public_names(package: Path = PACKAGE, readme: str | None = None) -> set[str]:
    trees = modules(package)
    if readme is None:
        readme = (ROOT / "README.md").read_text()
    unused = set()
    for name, tree in trees.items():
        elsewhere = set()
        for other, other_tree in trees.items():
            if other not in (name, "__init__"):
                elsewhere |= used_names([other_tree])
        for node in public_definitions(tree):
            own = used_names(n for n in tree.body if n is not node)
            in_readme = re.search(rf"\b{node.name}\b", readme)
            if node.name not in elsewhere | own and not in_readme:
                unused.add(node.name)
    return unused


def test_no_public_name_exists_only_for_tests():
    assert unused_public_names() == TRACER_BOUND


def test_tracer_bound_oracles_are_named_by_the_tracer_and_not_exported():
    tracer = (ROOT / "benchmark" / "tracer.py").read_text()
    for name in TRACER_BOUND:
        assert f'"{name}"' in tracer
        assert name not in vars(ctqsearch)


def test_guard_sees_an_unused_function(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with (tmp_path / "rng.py").open("a") as fh:
        fh.write("\n\ndef only_tests_call_this():\n    return only_tests_call_this\n")
    assert unused_public_names(tmp_path) == TRACER_BOUND | {"only_tests_call_this"}
    # a README mention counts as use
    assert "only_tests_call_this" not in unused_public_names(tmp_path, "only_tests_call_this")


def scenario_takers(tree: ast.Module) -> set[str]:
    """Functions, at any depth, with a parameter that is a SearchScenario by
    annotation or by name."""
    takers = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            if any("scenario" in arg.arg or (arg.annotation is not None and "SearchScenario"
                                             in ast.unparse(arg.annotation)) for arg in params):
                takers.add(node.name)
    return takers


def test_evolution_layers_take_a_prepared_state_and_an_energy():
    trees = modules(PACKAGE)
    assert scenario_takers(trees["fullsim"]) == set()
    assert scenario_takers(trees["phase_estimation"]) == {"counting_scenario", "run_counting"}


def test_scenario_guard_sees_a_scenario_parameter():
    tree = ast.parse("def f(prep, energy):\n    pass\n"
                     "def g(s: SearchScenario):\n    pass\n"
                     "def h(prep, *, scenario=None):\n    pass\n")
    assert scenario_takers(tree) == {"g", "h"}
