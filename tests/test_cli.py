import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SCENARIO_DIR
from ctqsearch import cli


def run(*args):
    return cli.main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


def test_simulate_writes_all_outputs(tmp_path, library_demo_path, capsys):
    assert run("simulate", "--scenario", library_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "simulate.json")
    assert data["schema_version"] == "1.0"
    assert data["command"] == "simulate"
    assert data["success_distribution"]["failure"] <= 1e-12
    assert set(data["success_distribution"]["targets"]) == {"2", "5", "10", "12"}
    assert data["optimal_time"] == pytest.approx(math.pi / (2 * data["y"]), rel=1e-12)

    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re(a),im(a),re(b),im(b),success_prob"
    assert len(lines) == 1 + 256
    dist_lines = (tmp_path / "success_distribution.csv").read_text().splitlines()
    assert dist_lines[0] == "item,probability"
    assert dist_lines[-1].startswith("failure,")

    out = capsys.readouterr().out
    assert "wrote" in out and "success=" in out


def test_simulate_format_gating(tmp_path, library_demo_path):
    json_dir = tmp_path / "j"
    csv_dir = tmp_path / "c"
    assert run("simulate", "--scenario", library_demo_path, "--out", json_dir,
               "--format", "json") == 0
    assert (json_dir / "simulate.json").exists()
    assert not (json_dir / "trajectory.csv").exists()
    assert run("simulate", "--scenario", library_demo_path, "--out", csv_dir,
               "--format", "csv") == 0
    assert not (csv_dir / "simulate.json").exists()
    assert (csv_dir / "trajectory.csv").exists()
    assert (csv_dir / "success_distribution.csv").exists()


def test_simulate_custom_grid(tmp_path, counting_demo_path):
    assert run("simulate", "--scenario", counting_demo_path, "--out", tmp_path,
               "--points", 32, "--t-max", 1.5) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 32
    assert lines[-1].startswith("1.5,")


FORMAT_OUTPUTS = {
    # command: (JSON report, CSV tables)
    "simulate": ("simulate.json", {"trajectory.csv", "success_distribution.csv"}),
    "verify": ("verify.json", set()),
    "estimate": ("estimate.json", {"register_distribution.csv"}),
    "count": ("count.json", set()),
    "sweep": ("sweep.json", {"sweep_curve.csv"}),
    "compare": ("compare.json", set()),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
@pytest.mark.parametrize("command", sorted(FORMAT_OUTPUTS))
def test_format_rule_writes_exact_files(tmp_path, misplaced_demo_path, command, fmt):
    # json skips the CSVs; csv skips the JSON only where there are CSVs
    report, tables = FORMAT_OUTPUTS[command]
    expected = {"json": {report}, "csv": tables or {report}, "both": {report} | tables}[fmt]
    assert run(command, "--scenario", misplaced_demo_path, "--out", tmp_path,
               "--format", fmt) == 0
    assert {p.name for p in tmp_path.iterdir()} == expected


def test_verify_passes_on_demo(tmp_path, library_demo_path):
    assert run("verify", "--scenario", library_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "verify.json")
    assert data["passed"] is True
    assert data["max_subspace_leak"] <= 1e-10
    assert data["max_trajectory_deviation"] <= 1e-10
    assert data["tolerance"] == 1e-10


def test_verify_runs_above_the_dense_cap(tmp_path):
    # N = 8192 is twice the dense oracle's cap; the matrix-free check has none
    n = 8192
    scenario = tmp_path / "big.json"
    scenario.write_text(json.dumps({
        "n_items": n,
        "targets": [0, 1, 2, 3],
        "info_sets": [
            {"members": list(range(0, n // 2)), "weight": 0.5},
            {"members": list(range(n // 4, n)), "weight": 0.5},
        ],
    }))
    assert run("verify", "--scenario", scenario, "--out", tmp_path) == 0
    data = read_json(tmp_path / "verify.json")
    assert data["passed"] is True
    assert data["max_subspace_leak"] <= 1e-10
    assert data["max_trajectory_deviation"] <= 1e-10


def test_verify_over_basis_limit_exits_1(tmp_path, capsys):
    # 52 Chebyshev rows of 10^6 items exceed the basis limit; refused before
    # the basis is built
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps({
        "n_items": 1_000_000,
        "targets": [0],
        "info_sets": [{"members": [0, 1], "weight": 1.0}],
    }))
    assert run("verify", "--scenario", scenario, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "N=1000000" in err and "K=" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "verify.json").exists()


def test_verify_report_ignores_format_gating(tmp_path, counting_demo_path):
    # the verification verdict is the point of the command; always written
    assert run("verify", "--scenario", counting_demo_path, "--out", tmp_path,
               "--format", "csv") == 0
    assert (tmp_path / "verify.json").exists()


def test_verify_failure_exits_2(tmp_path, library_demo_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "VERIFY_TOL", -1.0)
    assert run("verify", "--scenario", library_demo_path, "--out", tmp_path) == 2
    data = read_json(tmp_path / "verify.json")  # report is still written
    assert data["passed"] is False
    assert "internal check failed" in capsys.readouterr().err


def test_estimate_outputs_and_histogram(tmp_path, library_demo_path):
    assert run("estimate", "--scenario", library_demo_path, "--out", tmp_path,
               "--seed", 3) == 0
    data = read_json(tmp_path / "estimate.json")
    assert data["m_size"] == 64 and data["n_samples"] == 200 and data["seed"] == 3
    assert sum(data["k_histogram"].values()) == 200
    assert all(int(k) in range(64) for k in data["k_histogram"])
    assert abs(data["y_hat"] - data["true_y"]) <= data["resolution"]
    lines = (tmp_path / "register_distribution.csv").read_text().splitlines()
    assert lines[0] == "k,p_total,p_phase_y,p_phase_complement"
    assert len(lines) == 1 + 64


class RegisterBuilt(Exception):
    pass


def test_estimate_register_table_is_lazy(tmp_path, library_demo_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise RegisterBuilt
    monkeypatch.setattr(cli, "measurement_distribution", refuse)
    args = ("estimate", "--scenario", library_demo_path)
    assert run(*args, "--out", tmp_path / "j", "--format", "json") == 0
    assert (tmp_path / "j" / "estimate.json").exists()
    with pytest.raises(RegisterBuilt):
        run(*args, "--out", tmp_path / "b", "--format", "both")


def test_estimate_runs_are_byte_deterministic(tmp_path, library_demo_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert run("estimate", "--scenario", library_demo_path, "--out", d,
                   "--seed", 11) == 0
    assert (d1 / "estimate.json").read_bytes() == (d2 / "estimate.json").read_bytes()
    assert (d1 / "register_distribution.csv").read_bytes() == (
        d2 / "register_distribution.csv"
    ).read_bytes()


def test_count_recovers_target_count(tmp_path, counting_demo_path):
    assert run("count", "--scenario", counting_demo_path, "--out", tmp_path,
               "--m-size", 64, "--seed", 7) == 0
    data = read_json(tmp_path / "count.json")
    assert data["count_estimate"] == 3
    assert data["true_count"] == 3
    assert data["support_size"] == 6
    assert data["m_size"] == 64
    assert data["disjoint_scenario"]["info_sets"]  # rewritten scenario included


def test_count_auto_register_size(tmp_path, library_demo_path):
    assert run("count", "--scenario", library_demo_path, "--out", tmp_path,
               "--seed", 5) == 0
    data = read_json(tmp_path / "count.json")
    assert data["m_size"] == 64
    assert data["count_estimate"] == data["true_count"] == 4


def test_count_rejects_small_register(tmp_path, counting_demo_path, capsys):
    assert run("count", "--scenario", counting_demo_path, "--out", tmp_path,
               "--m-size", 8) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_outputs(tmp_path, misplaced_demo_path):
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "sweep.json")
    assert data["structure"] == {"l": 1, "n1": 2, "n2": 1, "n12": 0, "alpha2": 0.95}
    assert data["monotone_increasing"] is True
    assert data["divergence_ratio"] > 100
    assert data["time_at_max"] == pytest.approx(
        data["time_at_min"] * data["divergence_ratio"], rel=1e-12
    )
    kinds = {r["kind"] for r in data["bound_reports"]}
    assert "unstructured_baseline" in kinds

    lines = (tmp_path / "sweep_curve.csv").read_text().splitlines()
    assert lines[0] == "alpha2,nu,y,T"
    assert len(lines) == 1 + 64
    assert lines[1].startswith("0.05,")
    assert lines[-1].startswith("0.999,")


def test_sweep_rejects_non_misplaced_scenario(tmp_path, library_demo_path, capsys):
    assert run("sweep", "--scenario", library_demo_path, "--out", tmp_path) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_grid_validation(tmp_path, misplaced_demo_path):
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", tmp_path,
               "--alpha2-min", 0.9, "--alpha2-max", 0.5) == 1
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", tmp_path,
               "--alpha2-points", 1) == 1


def test_compare_outputs(tmp_path, library_demo_path):
    assert run("compare", "--scenario", library_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "compare.json")
    assert data["confidence"] == "basic"
    assert data["speedup"] == pytest.approx(
        data["time_uniform"] / data["time_structured"], rel=1e-12
    )
    assert data["time_ratio"] == pytest.approx(1.0 / data["speedup"], rel=1e-12)
    assert data["y_structured"] > data["y_uniform"]


def test_compare_misplaced_shows_slowdown(tmp_path, misplaced_demo_path):
    assert run("compare", "--scenario", misplaced_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "compare.json")
    assert data["confidence"] == "not_basic"
    assert data["time_ratio"] > 1


def test_energy_override_scales_time(tmp_path, counting_demo_path):
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    assert run("simulate", "--scenario", counting_demo_path, "--out", d1) == 0
    assert run("simulate", "--scenario", counting_demo_path, "--out", d2,
               "--energy", 2.0) == 0
    t1 = read_json(d1 / "simulate.json")["optimal_time"]
    t2 = read_json(d2 / "simulate.json")["optimal_time"]
    assert t2 == pytest.approx(t1 / 2, rel=1e-12)
    assert read_json(d2 / "simulate.json")["scenario"]["energy"] == 2.0


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    assert run("simulate", "--scenario", tmp_path / "nope.json", "--out", tmp_path) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--scenario", bad, "--out", tmp_path) == 1
    assert "error:" in capsys.readouterr().err


def scenario_with(**fields):
    doc = {"n_items": 4, "targets": [0],
           "info_sets": [{"members": [0, 1], "weight": 0.5}, {"members": [2], "weight": 0.5}]}
    for key, value in fields.items():
        if key in ("members", "weight"):
            doc["info_sets"][0][key] = value
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize("doc, field", [
    ({"n_items": 2, "targets": [0], "info_sets": [{"members": [0], "weight": 1e308},
                                                  {"members": [1], "weight": 1e308}]}, "weight"),
    (scenario_with(members=[[0]]), "members"),
    (scenario_with(members=None), "members"),
    (scenario_with(targets=None), "targets"),
    (scenario_with(n_items=None), "n_items"),
    (scenario_with(weight=None), "weight"),
    (scenario_with(labels=[1]), "labels"),
    (scenario_with(labels={"x": "a"}), "labels"),
    (scenario_with(targets="12"), "targets"),
    (scenario_with(n_items=20.9), "n_items"),
    (scenario_with(members=[0, 1.7]), "members"),
    (scenario_with(members=[0, "1"]), "members"),
    (scenario_with(members=[0, True]), "members"),
    (scenario_with(weight=True), "weight"),
    (scenario_with(weight="0.5"), "weight"),
    (scenario_with(energy="2"), "energy"),
    (scenario_with(labels={"1": None}), "labels"),
    (scenario_with(labels={"9": "far"}), "labels"),
    (scenario_with(info_sets=[{"members": [0, 1], "weight": 0.5, "x": 3},
                              {"members": [2], "weight": 0.5}]), "info_sets"),
], ids=["weights_overflow", "nested_members", "null_members", "null_targets", "null_n_items",
        "null_weight", "list_labels", "non_integer_label", "string_targets", "fractional_n_items",
        "fractional_member", "string_member", "boolean_member", "boolean_weight", "string_weight",
        "string_energy", "null_label", "label_out_of_range", "info_set_extra_key"])
def test_malformed_scenario_field_exits_1_naming_it(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"'{field}'" in err
    assert "Traceback" not in err


def test_huge_n_items_exits_1_without_traceback(tmp_path, capsys):
    # these item counts exceed the address space even as a bool mask: nothing is allocated
    for n_items in (10**15, 2**62):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scenario_with(n_items=n_items)))
        assert run("compare", "--scenario", path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'n_items'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def refuse_constant(constant):
    raise ValueError(f"not JSON: {constant}")


# integers stay small, apart from two extremes that must be refused without
# allocating: one past int64, and an item count beyond the address space
json_ints = st.integers(min_value=-2, max_value=64) | st.sampled_from([2**63, 10**15])
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(deadline=None, max_examples=60)
@given(
    command=st.sampled_from(sorted(cli.COMMANDS)),
    field=st.sampled_from(["n_items", "targets", "info_sets", "energy", "labels", "members", "weight"]),
    value=json_values,
)
def test_fuzzed_scenario_field_exits_cleanly(command, field, value):
    doc = scenario_with(**{field: value})
    if field != "labels":
        doc["labels"] = {"0": "first"}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, "--scenario", path, "--out", out)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        for output in out.glob("*.json"):
            json.loads(output.read_text(), parse_constant=refuse_constant)


SHIPPED_FOR = {"sweep": "misplaced_pair.json", "count": "disjoint_counting.json"}


@pytest.mark.parametrize("route", ["flag", "file"])
@pytest.mark.parametrize("energy", ["1e-320", "5e-324", "1e308"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_extreme_energy_exits_cleanly(tmp_path, capsys, command, energy, route):
    # 2*E*y leaves the float range: pi over it overflows, divides by zero or is 0
    source = SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json")
    if route == "flag":
        argv = ["--scenario", source, "--energy", energy]
    else:
        doc = json.loads(source.read_text())
        doc["energy"] = float(energy)
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(doc))
        argv = ["--scenario", path]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command, *argv, "--out", out)
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1
    if command in ("simulate", "verify", "sweep", "compare"):  # each needs an optimal time
        assert code == 1 and "energy" in err
    for output in out.glob("*.json"):
        json.loads(output.read_text(), parse_constant=refuse_constant)


def test_compare_on_one_item_writes_strict_json(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        {"n_items": 1, "targets": [0], "info_sets": [{"members": [0], "weight": 1}]}
    ))
    assert run("compare", "--scenario", path, "--out", tmp_path) == 0
    data = json.loads((tmp_path / "compare.json").read_text(), parse_constant=refuse_constant)
    assert data["support_exponent"] is None


def test_bad_usage_exits_1(tmp_path, library_demo_path, capsys):
    assert run("frobnicate", "--scenario", library_demo_path) == 1
    assert run("simulate", "--scenario", library_demo_path, "--no-such-flag") == 1
    assert run() == 1
    assert run("simulate") == 1  # --scenario is required
    capsys.readouterr()


def test_invalid_energy_override(tmp_path, library_demo_path, capsys):
    assert run("simulate", "--scenario", library_demo_path, "--out", tmp_path,
               "--energy", -1.0) == 1
    assert "error:" in capsys.readouterr().err


def indent2(doc):
    # the serializer the writer must reproduce byte for byte
    return json.dumps(doc, sort_keys=True, indent=2)


numbers = st.integers(min_value=-(10**40), max_value=10**40) | st.floats() | st.just(-0.0)
leaves = (
    st.none()
    | st.booleans()
    | numbers
    | st.floats().map(np.float64)
    | st.text()
    | st.lists(numbers | st.booleans())  # bools inside number lists
)
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


@settings(deadline=None, max_examples=100)
@given(doc=documents)
def test_iterencode_matches_indented_dumps(doc):
    assert "".join(cli._iterencode(doc)) == indent2(doc)


@settings(deadline=None, max_examples=40)
@given(payload=st.dictionaries(st.text(), documents, max_size=6))
def test_write_json_bytes_match_indented_dumps(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        cli._write_json(path, payload)
        expected = indent2({"schema_version": cli.SCHEMA_VERSION, **payload}) + "\n"
        assert path.read_bytes() == expected.encode()


def test_iterencode_edge_documents():
    for doc in ([], {}, [[]], {"a": {}}, [1, True, 2.5, -0.0], {"k": [10**30, -1]},
                ["\u00e9\u4e2d", "a, b"], {"x": [{"y": []}, None]}, {2: "int key"},
                {2: [[1]], 3.5: {}}, {True: [{}]}, {None: [[]]}):
        assert "".join(cli._iterencode(doc)) == indent2(doc)
    with pytest.raises(TypeError):
        "".join(cli._iterencode({(1, 2): [[]]}))


@pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_cli_json_reserializes_to_same_bytes(tmp_path, scenario):
    path = SCENARIO_DIR / scenario
    written = 0
    for command in cli.COMMANDS:
        out = tmp_path / command
        if run(command, "--scenario", path, "--out", out) != 0:
            continue  # sweep refuses scenarios that are not misplaced
        for output in out.glob("*.json"):
            text = output.read_text()
            assert text == indent2(json.loads(text)) + "\n", output.name
            written += 1
    assert written >= 5


def csv_writer_bytes(header, columns):
    # the oracle: csv.writer over rows of per-element values, numpy scalars included
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buffer.getvalue().encode()


def write_csv_bytes(header, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write_csv(path, header, columns)
        return path.read_bytes()


CHUNK = cli.CSV_CHUNK_ROWS
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1e-4, math.nan, math.inf, -math.inf]
float_cells = st.floats() | st.sampled_from(EDGE_FLOATS)


@settings(deadline=None, max_examples=30)
@given(data=st.data(), n_rows=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]))
def test_write_csv_matches_csv_writer(data, n_rows):
    plain = data.draw(arrays(np.float64, n_rows, elements=float_cells))
    packed = data.draw(arrays(np.complex128, n_rows, elements=st.complex_numbers()))
    ints = data.draw(arrays(np.int64, n_rows))
    # strided views and int64 arrays, as the command tables pass them
    columns = (range(n_rows), plain, packed.real, packed.imag, ints, tuple(ints.tolist()))
    header = ["k", "x", "re(z)", "im(z)", "i64", "int"]
    assert write_csv_bytes(header, columns) == csv_writer_bytes(header, columns)


def test_write_csv_edge_columns():
    edges = np.array(EDGE_FLOATS)
    for columns in (
        (range(len(edges)), edges, edges[::-1].copy()),
        ((2, 5, 10, "failure"), (0.25, 1e-5, 1e16, 0.0)),  # the success_distribution shape
        ((1, 0.5, 3, -0.0),),  # mixed ints and floats: 1 stays "1", not "1.0"
        ((), (), ()),
    ):
        header = ["a", "b", "c"][: len(columns)]
        assert write_csv_bytes(header, columns) == csv_writer_bytes(header, columns)
