import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SCENARIO_DIR
from ctqsearch import (
    InformationSet,
    ScenarioError,
    SearchScenario,
    analysis,
    cli,
    counting_scenario,
    dynamics,
    estimate_y,
    fullsim,
    load_scenario,
    make_rng,
    phase_estimation,
    run_phase_estimation,
    sample_phase_register,
    scenario_from_dict,
    stateprep,
    weighted_superposition,
)
import ctqsearch.scenario as scenario_module
from ctqsearch.stateprep import symmetry_classes


def run(*args):
    return cli.main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


def test_simulate_writes_all_outputs(tmp_path, library_demo_path, capsys):
    assert run("simulate", "--scenario", library_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "simulate.json")
    assert data["schema_version"] == "5.0"
    assert data["command"] == "simulate"
    assert data["success_distribution"]["failure"] <= 1e-12
    assert set(data["success_distribution"]) == {"failure"}
    assert data["optimal_time"] == pytest.approx(math.pi / (2 * data["y"]), rel=1e-12)

    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re(a),im(a),re(b),im(b),success_prob"
    assert len(lines) == 1 + 256
    dist_lines = (tmp_path / "success_distribution.csv").read_text().splitlines()
    assert dist_lines[0] == "item,probability"
    assert [line.split(",")[0] for line in dist_lines[1:]] == ["2", "5", "10", "12", "failure"]

    out = capsys.readouterr().out
    assert "wrote" in out and "success=" in out


def test_simulate_json_states_each_fact_once(tmp_path, library_demo_path):
    # the per-target probabilities are success_distribution.csv's rows alone
    assert run("simulate", "--scenario", library_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "simulate.json")
    assert set(data) == {
        "schema_version", "command", "scenario", "y", "nu", "r_count", "optimal_time",
        "success_distribution", "trajectory",
    }
    assert set(data["success_distribution"]) == {"failure"}


def test_simulate_json_stays_small_at_many_targets(tmp_path):
    rng = np.random.default_rng(3)
    n, l = 50_000, 10_000
    targets = rng.choice(n, l, replace=False)
    path = tmp_path / "many.json"
    path.write_text(json.dumps({
        "n_items": n,
        "targets": targets.tolist(),
        "info_sets": [{"members": np.union1d(targets[: l // 2], range(20_000)).tolist(),
                       "weight": 0.6},
                      {"members": np.union1d(targets[l // 2 :], range(15_000, n)).tolist(),
                       "weight": 0.4}],
    }))
    assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 0
    assert (tmp_path / "out" / "simulate.json").stat().st_size < 1024
    prep = weighted_superposition(load_scenario(path))
    rows = (tmp_path / "out" / "success_distribution.csv").read_text().splitlines()
    assert len(rows) == l + 2
    items, probs = zip(*(row.split(",") for row in rows[1:]))
    assert list(items) == [*map(str, prep.target_items.tolist()), "failure"]
    expected = dynamics.success_distribution(prep, 1.0, dynamics.optimal_time(prep.y, 1.0))
    assert np.array_equal(np.array(probs, dtype=float), expected)


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
    # N = 8192 is twice the dimension cap, which the check meets on d = 4 classes
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


def million_items(tmp_path):
    # one target and one other item share the only set: two symmetry classes
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n_items": 1_000_000,
        "targets": [0],
        "info_sets": [{"members": [0, 1], "weight": 1.0}],
    }))
    return path


def test_verify_at_a_million_items_passes(tmp_path, monkeypatch):
    # the check runs on the symmetry classes, so its basis does not grow with N;
    # n_classes reports them without finding them a second time
    calls = []

    def counted(prep):
        calls.append(prep)
        return symmetry_classes(prep)

    monkeypatch.setattr(stateprep, "symmetry_classes", counted)
    monkeypatch.setattr(fullsim, "symmetry_classes", counted)
    assert run("verify", "--scenario", million_items(tmp_path), "--out", tmp_path / "out") == 0
    data = read_json(tmp_path / "out" / "verify.json")
    assert data["passed"] is True
    assert data["n_classes"] == 2 and len(calls) == 1
    assert data["max_subspace_leak"] <= 1e-10
    assert data["max_trajectory_deviation"] <= 1e-10


def two_ranges_at_a_million_items(tmp_path):
    # y = 1.0e-3: a relative error of 1e-13 in the norm of beta would make verify
    # read a phase drift of about pi * 1e-13 / (2 * y), over the tolerance
    path = tmp_path / "two_ranges.json"
    path.write_text(json.dumps({
        "n_items": 1_000_000,
        "targets": list(range(5)),
        "info_sets": [
            {"members": list(range(600_000)), "weight": 0.3},
            {"members": list(range(400_000, 1_000_000)), "weight": 0.7},
        ],
    }))
    return path


def test_verify_passes_with_a_small_overlap_at_a_million_items(tmp_path):
    scenario = two_ranges_at_a_million_items(tmp_path)
    assert run("verify", "--scenario", scenario, "--out", tmp_path / "out") == 0
    data = read_json(tmp_path / "out" / "verify.json")
    assert data["passed"] is True
    assert data["max_trajectory_deviation"] <= 1e-11


def test_verify_catches_a_perturbed_closed_form_at_a_million_items(tmp_path, monkeypatch, capsys):
    closed_form = dynamics._reduced_coefficients

    def perturbed(y, energy, times):
        a, b = closed_form(y, energy, times)
        return a + 1e-8, b

    monkeypatch.setattr(dynamics, "_reduced_coefficients", perturbed)
    assert run("verify", "--scenario", million_items(tmp_path), "--out", tmp_path / "out") == 2
    data = read_json(tmp_path / "out" / "verify.json")
    assert data["passed"] is False
    assert data["max_trajectory_deviation"] == pytest.approx(1e-8, rel=1e-3)
    assert "internal check failed" in capsys.readouterr().err


def test_verify_over_the_class_cap_exits_1_before_x_or_eigh(tmp_path, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("X allocated or diagonalised despite the cap")

    monkeypatch.setattr(fullsim, "DEFAULT_DIM_CAP", 1)
    monkeypatch.setattr(np, "outer", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    assert run("verify", "--scenario", million_items(tmp_path), "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: full-space check on d=2 dimensions") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "verify.json").exists()


@pytest.mark.parametrize("block_bytes", [fullsim.BLOCK_BYTES, 1])
def test_verify_diagonalises_once(tmp_path, library_demo_path, monkeypatch, block_bytes):
    # block_bytes=1 walks the grid one row at a time; the eigenvectors are shared
    eigh = np.linalg.eigh
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(fullsim, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert run("verify", "--scenario", library_demo_path, "--out", tmp_path,
               "--grid-points", 300) == 0
    assert calls == [(7, 7)]


def reweighted_pair(tmp_path, alpha2):
    # the shipped misplaced pair with the misplaced weight raised to alpha2
    doc = json.loads((SCENARIO_DIR / "misplaced_pair.json").read_text())
    doc["info_sets"][0]["weight"], doc["info_sets"][1]["weight"] = 1.0 - alpha2, alpha2
    path = tmp_path / f"pair_{alpha2}.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_passes_at_a_tiny_overlap(tmp_path):
    # alpha2 = 0.99999: y = 1e-5 and E*t_max = 3.1e5, so the 2x2 closed form and
    # the class evolution must agree to 1e-10 over 3.1e5 radians of phase
    assert run("verify", "--scenario", reweighted_pair(tmp_path, 0.99999), "--out", tmp_path) == 0
    data = read_json(tmp_path / "verify.json")
    assert data["passed"] is True
    assert data["energy_time"] == pytest.approx(3.14e5, rel=1e-3)
    assert data["max_trajectory_deviation"] <= 1e-10


def test_verify_catches_a_perturbed_closed_form_at_a_tiny_overlap(tmp_path, monkeypatch, capsys):
    # 1e-8 is far above the roundoff floor 4*eps*E*t_max = 2.8e-10 here
    closed_form = dynamics._reduced_coefficients

    def perturbed(y, energy, times):
        a, b = closed_form(y, energy, times)
        return a + 1e-8, b

    monkeypatch.setattr(dynamics, "_reduced_coefficients", perturbed)
    assert run("verify", "--scenario", reweighted_pair(tmp_path, 0.99999), "--out", tmp_path) == 2
    assert read_json(tmp_path / "verify.json")["passed"] is False
    assert "internal check failed" in capsys.readouterr().err


def one_target_in_a_thousand(tmp_path, y):
    # target 0; set {0..9} of weight w and set {10..999} of weight 1, with w
    # chosen so that y = w / sqrt(10 w^2 + 990): three symmetry classes
    w = y * math.sqrt(990.0 / (1.0 - 10.0 * y * y))
    path = tmp_path / f"thousand_{y:.6e}.json"
    path.write_text(json.dumps({
        "n_items": 1000,
        "targets": [0],
        "info_sets": [
            {"members": list(range(10)), "weight": w},
            {"members": list(range(10, 1000)), "weight": 1.0},
        ],
    }))
    return path


def test_verify_never_fails_a_correct_scenario_at_small_overlap(tmp_path, capsys):
    # past E*t_max ~ 1.1e5 float64 roundoff alone can exceed 1e-10; verify then
    # refuses (exit 1, nothing written) instead of reporting a failure (exit 2)
    codes = []
    for y in np.geomspace(3e-7, 3e-5, 25):
        out = tmp_path / f"out_{y:.6e}"
        code = run("verify", "--scenario", one_target_in_a_thousand(tmp_path, y), "--out", out)
        err = capsys.readouterr().err
        assert code in (0, 1), (y, err)
        if code == 1:
            assert err.startswith("error: verify cannot resolve 1e-10 here: at y=")
            assert "E*t_max=" in err and err.count("\n") == 1
            assert not out.exists()
        else:
            assert read_json(out / "verify.json")["passed"] is True
        codes.append(code)
    assert 0 in codes


def test_verify_refusal_keeps_a_perturbation_it_can_resolve(tmp_path, monkeypatch, capsys):
    # at y = 3e-7 the floor is 4*eps*E*t_max = 9.3e-9: a 2e-9 drift in the
    # closed form is refused as unresolvable, a 1e-7 drift is a failure
    scenario = one_target_in_a_thousand(tmp_path, 3e-7)
    closed_form = dynamics._reduced_coefficients
    for drift, expected in ((2e-9, 1), (1e-7, 2)):
        def perturbed(y, energy, times):
            a, b = closed_form(y, energy, times)
            return a + drift, b

        monkeypatch.setattr(dynamics, "_reduced_coefficients", perturbed)
        out = tmp_path / f"out_{drift}"
        assert run("verify", "--scenario", scenario, "--out", out) == expected
        assert out.exists() == (expected == 2)
    assert "cannot resolve" in capsys.readouterr().err


def test_verify_reports_its_classes_and_energy_time(tmp_path, library_demo_path):
    assert run("verify", "--scenario", library_demo_path, "--out", tmp_path,
               "--energy", 2.5) == 0
    data = read_json(tmp_path / "verify.json")
    prep = weighted_superposition(load_scenario(library_demo_path))
    assert data["n_classes"] == symmetry_classes(prep)[0].size == 7
    assert data["t_max"] == 2.0 * dynamics.optimal_time(prep.y, 2.5)
    assert data["energy_time"] == 2.5 * data["t_max"]


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
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: reduced model disagrees") and err.count("\n") == 1


# what estimate.json and count.json's "estimate" say about the register reading
ESTIMATE_FIELDS = {"m_size", "k_mode", "y_candidates", "y_hat", "resolution", "cluster_counts",
                   "candidate_gap", "log_likelihood_ratio", "ambiguous", "branch_flipped",
                   "verification", "rng_streams"}


def test_estimate_outputs_and_histogram(tmp_path, library_demo_path):
    assert run("estimate", "--scenario", library_demo_path, "--out", tmp_path,
               "--seed", 3) == 0
    data = read_json(tmp_path / "estimate.json")
    assert set(data) == ESTIMATE_FIELDS | {"schema_version", "command", "scenario", "n_samples",
                                           "seed", "k_histogram", "true_y"}
    assert data["m_size"] == 64 and data["n_samples"] == 200 and data["seed"] == 3
    # a clear split: no verification, one random stream
    assert data["ambiguous"] is False and data["branch_flipped"] is False
    assert data["verification"] is None and data["rng_streams"] == ["phase-register-window"]
    assert sum(data["k_histogram"].values()) == 200
    assert all(int(k) in range(64) for k in data["k_histogram"])
    assert abs(data["y_hat"] - data["true_y"]) <= data["resolution"]
    lines = (tmp_path / "register_distribution.csv").read_text().splitlines()
    assert lines[0] == "k,p_total,p_phase_y,p_phase_complement"
    assert len(lines) == 1 + 64


def test_estimate_json_explains_a_verified_branch(tmp_path):
    # y = 1/sqrt(8000) ~ 0.0112: the mirror clusters hold (1 -+ y)/2 of the
    # samples, so splits are ambiguous and verification draws for both sides
    path = tmp_path / "small_y.json"
    path.write_text(json.dumps({"n_items": 8000, "targets": [0],
                                "info_sets": [{"members": list(range(8000)), "weight": 1.0}]}))
    y = weighted_superposition(load_scenario(path)).y
    seen = set()
    for seed in range(8):
        out = tmp_path / str(seed)
        assert run("estimate", "--scenario", path, "--out", out, "--seed", seed) == 0
        data = read_json(out / "estimate.json")
        before = estimate_y(sample_phase_register(y, 64, 200, seed), 64)
        assert data["ambiguous"] is before.ambiguous
        assert data["branch_flipped"] is (data["y_hat"] != before.y_hat)
        if data["verification"] is None:
            assert data["rng_streams"] == ["phase-register-window"]
            continue
        assert data["rng_streams"] == ["phase-register-window", "verify"]
        rng = make_rng(seed, "verify")
        assert [d["candidate"] for d in data["verification"]] == data["y_candidates"]
        for draw in data["verification"]:
            assert draw["harmonic"] % 2 == 1
            assert draw["hits"] == phase_estimation._verification_hits(
                y, 1.0, draw["candidate"], rng, phase_estimation.N_VERIFY, draw["harmonic"])
        seen.add(data["branch_flipped"])
    assert seen == {False, True}


def uniform_scenario(path, n_items, targets, members):
    path.write_text(json.dumps({"n_items": n_items, "targets": targets,
                                "info_sets": [{"members": members, "weight": 1.0}]}))
    return path


def test_estimate_refuses_an_overlap_below_half_a_bin(tmp_path, capsys):
    # one target among 40,000 items, y = 0.005 < 1/(2M) = 1/128: refused
    # with one line and nothing written; at M = 128 it reads one bin
    path = uniform_scenario(tmp_path / "tiny_y.json", 40_000, [0], list(range(40_000)))
    out = tmp_path / "out"
    assert run("estimate", "--scenario", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1/(2M) = 0.0078125" in err and "raise the register size" in err
    assert not out.exists()
    assert run("estimate", "--scenario", path, "--out", out, "--m-size", 128) == 0
    assert read_json(out / "estimate.json")["y_hat"] == 0.0078125


def test_estimate_verifies_a_full_overlap(tmp_path):
    path = uniform_scenario(tmp_path / "full.json", 8, [0, 1], [0, 1])
    assert run("estimate", "--scenario", path, "--out", tmp_path / "out") == 0
    data = read_json(tmp_path / "out" / "estimate.json")
    assert data["true_y"] == data["y_hat"] == 1.0 and data["k_mode"] == 0
    assert data["verification"] == [{"candidate": 1.0, "harmonic": 1, "hits": 48}]
    assert data["rng_streams"] == ["phase-register-window", "verify"]
    # every covered item is a target, so counting runs at y = 1 too
    assert run("count", "--scenario", path, "--out", tmp_path / "count") == 0
    data = read_json(tmp_path / "count" / "count.json")
    assert data["count_estimate"] == data["true_count"] == 2
    assert data["estimate"]["verification"] == [{"candidate": 1.0, "harmonic": 1, "hits": 48}]


@pytest.mark.parametrize("m_size", [8, 64, 4096, 65536])
def test_estimate_histogram_matches_full_bincount(tmp_path, library_demo_path, m_size):
    # k_histogram is built from np.unique; the full-length bincount it
    # replaced is the oracle (sort_keys makes equal dicts equal text)
    scenario = load_scenario(library_demo_path)
    prep = weighted_superposition(scenario)
    for seed in (0, 11, 902):
        out = tmp_path / f"s{seed}"
        assert run("estimate", "--scenario", library_demo_path, "--out", out, "--seed", seed,
                   "--m-size", m_size, "--samples", 500, "--format", "json") == 0
        _, samples = run_phase_estimation(prep, scenario.energy, m_size=m_size, n_samples=500,
                                          seed=seed)
        counts = np.bincount(samples, minlength=m_size)
        old = {str(k): int(c) for k, c in enumerate(counts) if c}
        assert read_json(out / "estimate.json")["k_histogram"] == old


@pytest.mark.parametrize("command", ["estimate", "count"])
@pytest.mark.parametrize("exponent", [40, 54, 63, 64])
def test_huge_register_size_exits_cleanly(tmp_path, library_demo_path, capsys, command,
                                          exponent):
    # above 2**53 the register size is refused by name; 2**40 runs, since
    # nothing of register length is built
    code = run(command, "--scenario", library_demo_path, "--out", tmp_path,
               "--m-size", 2**exponent, "--format", "json")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if exponent > 53:
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "m_size" in err
    else:
        assert code == 0 and err == ""
        data = read_json(tmp_path / f"{command}.json")
        assert data.get("estimate", data)["m_size"] == 2**exponent


@pytest.mark.parametrize("fmt", ["both", "csv"])
@pytest.mark.parametrize("exponent", [40, 53])
def test_huge_register_table_is_windowed(tmp_path, library_demo_path, capsys, fmt, exponent):
    # the table holds the two branch windows and a rest row, whatever M
    out = tmp_path / "out"
    assert run("estimate", "--scenario", library_demo_path, "--out", out,
               "--m-size", 2**exponent, "--format", fmt) == 0
    assert capsys.readouterr().err == ""
    with (out / "register_distribution.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["k", "p_total", "p_phase_y", "p_phase_complement"]
    assert len(rows) <= 259 and rows[-1][0] == "rest"
    ks = [int(row[0]) for row in rows[:-1]]
    assert ks == sorted(set(ks)) and 0 <= ks[0] and ks[-1] < 2**exponent
    for column in range(1, 4):
        assert math.fsum(float(row[column]) for row in rows) == pytest.approx(1.0, abs=1e-12)


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
    assert data["scenario"]["support_size"] == 6
    assert counting_scenario(load_scenario(counting_demo_path)).support_size == 6
    # the register reading, as estimate.json writes it
    assert set(data["estimate"]) == ESTIMATE_FIELDS
    assert data["estimate"]["m_size"] == 64


def test_count_auto_register_size(tmp_path, library_demo_path):
    assert run("count", "--scenario", library_demo_path, "--out", tmp_path,
               "--seed", 5) == 0
    data = read_json(tmp_path / "count.json")
    assert data["estimate"]["m_size"] == 64
    assert data["count_estimate"] == data["true_count"] == 4


def test_count_json_states_each_fact_once(tmp_path, counting_demo_path):
    # support size, register size and y_hat live in scenario and estimate alone
    assert run("count", "--scenario", counting_demo_path, "--out", tmp_path) == 0
    assert set(read_json(tmp_path / "count.json")) == {
        "schema_version", "command", "scenario", "n_samples", "seed", "estimate",
        "count_estimate", "true_count",
    }


REGISTER_SIZE_CASES = [0, 3, 2**54, 2.5, -1, "nan", "inf"]


@pytest.mark.parametrize("value", REGISTER_SIZE_CASES)
@pytest.mark.parametrize("command", ["estimate", "count"])
def test_register_size_refusal_names_the_flag(tmp_path, capsys, command, value):
    out = tmp_path / "out"
    assert run(command, "--scenario", SCENARIO_DIR / "library_demo.json", "--out", out,
               "--m-size", value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --m-size: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", REGISTER_SIZE_CASES)
def test_time_horizon_flag_is_checked_when_parsed(tmp_path, capsys, value):
    # a horizon is any finite time >= 0: 0, 3, 2**54 and 2.5 run
    out = tmp_path / "out"
    code = run("simulate", "--scenario", SCENARIO_DIR / "library_demo.json", "--out", out,
               "--points", 8, "--t-max", value)
    err = capsys.readouterr().err
    if value in (-1, "nan", "inf"):
        assert code == 1
        assert err.startswith("error: argument --t-max: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert code == 0 and err == ""
        assert read_json(out / "simulate.json")["trajectory"]["t_max"] == float(value)


@pytest.mark.parametrize("energy_from", ["flag", "scenario"])
def test_horizon_that_overflows_at_the_energy_is_refused(tmp_path, capsys, energy_from):
    # --t-max 1e308 parses, but at E = 10 the phase E*t_max leaves the float
    # range; the energy may come from the scenario file, so this is refused later
    source = SCENARIO_DIR / "library_demo.json"
    energy = ["--energy", 10]
    if energy_from == "scenario":
        source = tmp_path / "energetic.json"
        source.write_text(json.dumps({**read_json(SCENARIO_DIR / "library_demo.json"),
                                      "energy": 10.0}))
        energy = []
    out = tmp_path / "out"
    assert run("simulate", "--scenario", source, "--out", out, *energy, "--t-max", 1e308) == 1
    assert capsys.readouterr().err == "error: E*t_max overflows at energy 10.0 and t_max 1e+308\n"
    assert not out.exists()


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
    assert "bound_reports" not in data

    lines = (tmp_path / "sweep_curve.csv").read_text().splitlines()
    assert lines[0] == "alpha2,nu,y,T"
    assert len(lines) == 1 + 64
    assert lines[1].startswith("0.05,")
    assert lines[-1].startswith("0.999,")


def test_sweep_json_states_each_fact_once(tmp_path, misplaced_demo_path):
    # y and T of both preparations are compare.json's facts, not sweep's
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", tmp_path) == 0
    assert set(read_json(tmp_path / "sweep.json")) == {
        "schema_version", "command", "scenario", "structure", "alpha2_grid",
        "time_at_min", "time_at_max", "divergence_ratio", "monotone_increasing",
    }


def test_sweep_prepares_no_state(tmp_path, misplaced_demo_path, monkeypatch):
    # the curve is closed form: sweep builds neither N-length prepared state
    def refuse(scenario):
        raise AssertionError("sweep built a prepared state")

    for module in (analysis, cli):
        for name in ("weighted_superposition", "uniform_superposition"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", tmp_path) == 0


def test_sweep_rejects_non_misplaced_scenario(tmp_path, library_demo_path, capsys):
    assert run("sweep", "--scenario", library_demo_path, "--out", tmp_path) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_grid_validation(tmp_path, misplaced_demo_path, library_demo_path, capsys):
    out = tmp_path / "out"
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", out,
               "--alpha2-min", 0.9, "--alpha2-max", 0.5) == 1
    assert capsys.readouterr().err == (
        "error: argument --alpha2-max: need --alpha2-min < --alpha2-max, got 0.9 and 0.5\n"
    )
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", out,
               "--alpha2-min", 0.9995) == 1
    assert capsys.readouterr().err.startswith("error: argument --alpha2-min: need ")
    # the bounds are refused when parsed, before a scenario of the wrong shape is read
    for flag in ("--alpha2-min", "--alpha2-max"):
        for value in ("nan", "inf", 0, 1, -0.5):
            assert run("sweep", "--scenario", library_demo_path, "--out", out, flag, value) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: argument {flag}: alpha2 must lie in (0, 1)"), err
            assert err.count("\n") == 1
    assert run("sweep", "--scenario", misplaced_demo_path, "--out", out,
               "--alpha2-points", 1) == 1
    assert not out.exists()


def test_compare_outputs(tmp_path, library_demo_path):
    assert run("compare", "--scenario", library_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "compare.json")
    assert data["confidence"] == "basic"
    assert data["speedup"] == pytest.approx(
        data["time_uniform"] / data["time_structured"], rel=1e-12
    )
    assert "time_ratio" not in data  # the reciprocal of speedup
    assert data["y_structured"] > data["y_uniform"]


def test_compare_misplaced_shows_slowdown(tmp_path, misplaced_demo_path):
    assert run("compare", "--scenario", misplaced_demo_path, "--out", tmp_path) == 0
    data = read_json(tmp_path / "compare.json")
    assert data["confidence"] == "not_basic"
    assert data["time_structured"] > data["time_uniform"]


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


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_deeply_nested_scenario_exits_1_without_traceback(tmp_path, capsys, command):
    # json.loads raises RecursionError past the interpreter's recursion limit
    path = tmp_path / "nested.json"
    path.write_text('{"n_items": 4, "targets": ' + "[" * 200_000 + "]" * 200_000 + "}")
    assert run(command, "--scenario", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed scenario JSON in {path}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    (scenario_with(n_items=[3]), "n_items"),
    (scenario_with(weight=[1]), "weight"),
    (scenario_with(energy=[2]), "energy"),
    (scenario_with(info_sets=[1, 2]), "info_sets"),
], ids=["weights_overflow", "nested_members", "null_members", "null_targets", "null_n_items",
        "null_weight", "list_labels", "non_integer_label", "string_targets", "fractional_n_items",
        "fractional_member", "string_member", "boolean_member", "boolean_weight", "string_weight",
        "string_energy", "null_label", "label_out_of_range", "info_set_extra_key",
        "integer_array_n_items", "integer_array_weight", "integer_array_energy",
        "integer_array_info_sets"])
def test_malformed_scenario_field_exits_1_naming_it(tmp_path, capsys, monkeypatch, doc, field):
    # every integer array, however short, is read as int64
    monkeypatch.setattr(scenario_module, "SHORT_ARRAY_CHARS", 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"'{field}'" in err
    assert "Traceback" not in err
    # the line the lists of json.loads give
    with pytest.raises(ScenarioError) as refusal:
        scenario_from_dict(json.loads(path.read_text()))
    assert err == f"error: {refusal.value}\n"


@pytest.mark.parametrize("field, value, line", [
    ("n_items", [3], "scenario field 'n_items': expected int, got list"),
    ("weight", [1], "scenario field 'weight': expected float, got list"),
    ("energy", [2], "scenario field 'energy': expected float, got list"),
    ("info_sets", [1, 2],
     "scenario field 'info_sets': each entry needs exactly the keys 'members' and 'weight'"),
])
def test_integer_array_where_none_belongs_is_refused_as_a_list(tmp_path, capsys, monkeypatch,
                                                               field, value, line):
    monkeypatch.setattr(scenario_module, "SHORT_ARRAY_CHARS", 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario_with(**{field: value})))
    assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_scenario_with_labels_is_refused_as_an_unknown_key(tmp_path, capsys):
    # a scenario written for schema 4.0, with its display labels
    doc = library_doc()
    doc["labels"] = {"2": "hunting-guide", "5": "fly-fishing-atlas"}
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(doc))
    assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == "error: unknown scenario keys: ['labels']\n"
    assert not (tmp_path / "out").exists()


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


LONG_MEMBERS = {"n_items": 1000, "targets": [0],
                "info_sets": [{"members": [*range(1000), 2**64], "weight": 1.0}]}


@pytest.mark.parametrize("text, line", [
    (json.dumps(scenario_with(n_items=0)), "n_items must be >= 1, got 0"),
    ("[]", "scenario document must be a JSON object"),
    (json.dumps(scenario_with(weight=10**400)), "scenario field 'weight': number out of range"),
    (json.dumps(scenario_with(members=[0, 2**64])),
     "scenario field 'members': item index does not fit in 64 bits"),
    (json.dumps(LONG_MEMBERS), "scenario field 'members': item index does not fit in 64 bits"),
    # y**2 = (1e-320 / nu)**2 underflows to zero
    (json.dumps({"n_items": 4, "targets": [0],
                 "info_sets": [{"members": [0], "weight": 1e-320},
                               {"members": [1, 2, 3], "weight": 1.0}]}),
     "state preparation invariant violated: no amplitude on targets"),
], ids=["no_items", "not_an_object", "weight_past_float", "short_member_past_int64",
        "long_member_past_int64", "target_amplitude_underflows"])
def test_refused_scenario_exits_1_with_one_line(tmp_path, capsys, monkeypatch, text, line):
    decoded = []
    int64_array = scenario_module._int64_array

    def recorded(array_text):
        decoded.append(int64_array(array_text))
        return decoded[-1]

    monkeypatch.setattr(scenario_module, "_int64_array", recorded)
    path = tmp_path / "refused.json"
    path.write_text(text)
    assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "out").exists()
    # the long array is offered to the int64 decoder, which declines 2**64
    assert decoded == ([None] if text == json.dumps(LONG_MEMBERS) else [])


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
    field=st.sampled_from(["n_items", "targets", "info_sets", "energy", "members", "weight"]),
    value=json_values,
)
def test_fuzzed_scenario_field_exits_cleanly(command, field, value):
    doc = scenario_with(**{field: value})
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


@pytest.mark.parametrize("energy", ["-1", "0", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_energy_flag_refused_by_name(tmp_path, capsys, command, energy):
    source = SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json")
    out = tmp_path / "out"
    assert run(command, "--scenario", source, f"--energy={energy}", "--out", out) == 1
    value = float(energy)
    assert capsys.readouterr().err == (
        f"error: argument --energy: energy must be positive and finite, got {value}\n"
    )
    assert not out.exists()


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


@settings(deadline=None, max_examples=40)
@given(payload=st.dictionaries(st.text(), documents, max_size=6))
def test_write_json_bytes_match_indented_dumps(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        cli._write_json(path, payload)
        expected = indent2({"schema_version": cli.SCHEMA_VERSION, **payload}) + "\n"
        assert path.read_bytes() == expected.encode()


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
            doc = json.loads(text, parse_constant=refuse_constant)
            assert text == indent2(doc) + "\n", output.name
            written += 1
        if command == "estimate":  # written only in schema 2.0; finite by construction
            doc = read_json(out / "estimate.json")
            assert math.isfinite(doc["log_likelihood_ratio"])
            assert 0.0 <= doc["candidate_gap"] <= 0.5
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
    # any 64-bit pattern: every exponent, subnormals, NaN payloads
    bits = data.draw(arrays(np.uint64, n_rows, elements=st.integers(0, 2**64 - 1)))
    # strided views and int64 arrays, as the command tables pass them
    columns = (range(n_rows), plain, packed.real, packed.imag, ints, tuple(ints.tolist()),
               bits.view(np.float64))
    header = ["k", "x", "re(z)", "im(z)", "i64", "int", "bits"]
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


def library_doc():
    return json.loads((SCENARIO_DIR / "library_demo.json").read_text())


def written_digest(tmp_path, text, *flags):
    path = tmp_path / "digest.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    out = tmp_path / "digest_out"
    assert run("compare", "--scenario", path, "--out", out, *flags) == 0
    return read_json(out / "compare.json")["scenario"]["sha256"]


def reordered(doc):
    # every object's keys reversed, every index list reversed
    sets = [{"weight": s["weight"], "members": s["members"][::-1]} for s in doc["info_sets"]]
    return {"energy": doc["energy"], "info_sets": sets,
            "targets": doc["targets"][::-1], "n_items": doc["n_items"]}


def with_duplicate(doc):
    doc["info_sets"][0]["members"].append(doc["info_sets"][0]["members"][0])
    doc["targets"].append(doc["targets"][-1])
    return doc


def test_scenario_digest_ignores_the_file_form(tmp_path):
    base = written_digest(tmp_path, library_doc())
    assert len(base) == 64 and int(base, 16) >= 0
    assert written_digest(tmp_path, json.dumps(library_doc(), indent=7)) == base
    assert written_digest(tmp_path, json.dumps(library_doc(), separators=(",", ":"))) == base
    assert written_digest(tmp_path, reordered(library_doc())) == base
    assert written_digest(tmp_path, with_duplicate(library_doc())) == base
    # the energy is the one run, whether the file or --energy sets it
    doc = library_doc()
    doc["energy"] = 2.5
    assert written_digest(tmp_path, doc) == written_digest(tmp_path, library_doc(), "--energy", 2.5)


def edited(**edits):
    doc = library_doc()
    if "member" in edits:
        doc["info_sets"][0]["members"].append(edits["member"])
    if "target" in edits:
        doc["targets"].remove(edits["target"])
    if "weight" in edits:
        doc["info_sets"][1]["weight"] = edits["weight"]
    if "energy" in edits:
        doc["energy"] = edits["energy"]
    return doc


def test_scenario_digest_moves_with_each_field(tmp_path):
    digests = [
        written_digest(tmp_path, library_doc()),
        written_digest(tmp_path, edited(member=19)),
        written_digest(tmp_path, edited(target=12)),
        written_digest(tmp_path, edited(weight=0.4)),
        written_digest(tmp_path, edited(energy=1.5)),
        written_digest(tmp_path, library_doc(), "--energy", 0.75),
    ]
    assert len(set(digests)) == len(digests)


def test_scenario_digest_tells_set_boundaries_apart(tmp_path):
    # the same members and weights, cut into sets at another place
    def split(*sets):
        return {"n_items": 4, "targets": [0],
                "info_sets": [{"members": m, "weight": 1.0} for m in sets]}

    assert (written_digest(tmp_path, split([0, 1, 2], [3]))
            != written_digest(tmp_path, split([0, 1], [2, 3])))


def test_scenario_summary_at_a_million_items_needs_no_json(monkeypatch):
    n = 10**6
    scenario = SearchScenario(
        n_items=n,
        targets=np.arange(0, n, 100),
        info_sets=(InformationSet(np.arange(600_000), 0.3),
                   InformationSet(np.arange(400_000, n), 0.7)),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the digest serialised the scenario")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr("ctqsearch.scenario.scenario_to_dict", refuse)
    summary = cli._scenario_summary(scenario)
    monkeypatch.undo()
    namespace = {"path": None}
    exec(readme_digest_recipe().replace("digest = scenario_digest(load_scenario(path))", ""),
         namespace)
    assert summary == {"sha256": namespace["scenario_digest"](scenario), "n_items": n,
                       "n_targets": 10**4, "n_sets": 2, "support_size": n, "energy": 1.0}


def readme_digest_recipe():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    (recipe,) = [b.split("```")[0] for b in blocks if "hashlib.sha256" in b]
    return recipe


@pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_readme_digest_recipe_gives_the_written_digest(tmp_path, scenario):
    path = SCENARIO_DIR / scenario
    namespace = {"path": path}
    exec(readme_digest_recipe(), namespace)
    assert run("compare", "--scenario", path, "--out", tmp_path) == 0
    summary = read_json(tmp_path / "compare.json")["scenario"]
    loaded = load_scenario(path)
    assert summary == {
        "sha256": namespace["digest"],
        "n_items": loaded.n_items,
        "n_targets": loaded.n_targets,
        "n_sets": loaded.n_sets,
        "support_size": loaded.support_size,
        "energy": loaded.energy,
    }
    # after --energy, the summary names the scenario as run
    assert run("compare", "--scenario", path, "--out", tmp_path / "e", "--energy", 2.5) == 0
    summary = read_json(tmp_path / "e" / "compare.json")["scenario"]
    as_run = dataclasses.replace(loaded, energy=2.5)
    assert summary["energy"] == 2.5
    assert summary["sha256"] == namespace["scenario_digest"](as_run) != namespace["digest"]


def test_count_json_stays_small_at_a_million_items(tmp_path):
    # the large_items shape: 8 overlapping sets of 5e4 members, 64 targets
    rng = np.random.default_rng(1)
    n = 10**6
    targets = rng.choice(n, 64, replace=False)
    sets = [rng.choice(n, 50_000, replace=False) for _ in range(8)]
    sets[0] = np.union1d(sets[0], targets)
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "n_items": n,
        "targets": targets.tolist(),
        "info_sets": [{"members": s.tolist(), "weight": 1.0 + i} for i, s in enumerate(sets)],
    }))
    assert run("count", "--scenario", path, "--out", tmp_path / "out") == 0
    written = tmp_path / "out" / "count.json"
    assert written.stat().st_size < 16 * 1024
    counting = counting_scenario(load_scenario(path))
    data = read_json(written)
    assert data["schema_version"] == "5.0" and set(data["estimate"]) == ESTIMATE_FIELDS
    assert not {"disjoint_scenario", "support_size", "m_size", "y_hat"} & set(data)
    summary = data["scenario"]
    assert summary["support_size"] == counting.support_size
    assert summary["n_items"] == n and summary["n_targets"] == 64


SIZE_CASES = [("simulate", "--points"), ("verify", "--grid-points"),
              ("sweep", "--alpha2-points"), ("estimate", "--samples"), ("count", "--samples")]


def test_size_cases_cover_every_size_flag():
    assert {flag for _, flag in SIZE_CASES} == set(cli.SIZE_FLAGS)


@pytest.mark.parametrize("case", ["below", "zero", "negative", "over_budget", "past_int64",
                                  "fraction", "nan"])
@pytest.mark.parametrize("command, flag", SIZE_CASES)
def test_size_flag_refusal_names_the_flag(tmp_path, capsys, monkeypatch, command, flag, case):
    # a small budget: the smallest refused value allocates almost nothing
    # were the refusal missing
    monkeypatch.setattr(cli, "SIZE_FLAG_BUDGET", 4096)
    minimum, bytes_per_unit = cli.SIZE_FLAGS[flag]
    value = {"below": minimum - 1, "zero": 0, "negative": -5,
             "over_budget": 4096 // bytes_per_unit + 1, "past_int64": 2**64,
             "fraction": 2.5, "nan": "nan"}[case]
    source = SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json")
    out = tmp_path / "out"
    assert run(command, "--scenario", source, "--out", out, flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", SIZE_CASES)
def test_size_flag_budget_boundary(tmp_path, monkeypatch, command, flag):
    # the largest value within the budget parses and runs; one more is refused
    monkeypatch.setattr(cli, "SIZE_FLAG_BUDGET", 4096)
    _, bytes_per_unit = cli.SIZE_FLAGS[flag]
    largest = 4096 // bytes_per_unit
    source = SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(command, "--scenario", source, "--out", tmp_path, flag, largest) == 0
    argv = [command, "--scenario", str(source), flag, str(largest + 1)]
    with pytest.raises(cli.CliInputError, match=f"argument {flag}: "):
        cli.build_parser().parse_args(argv)


def package_env():
    """The environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


PEAK_PROBE = """
import contextlib, io, sys, tracemalloc
from ctqsearch import cli
with contextlib.redirect_stdout(io.StringIO()):
    tracemalloc.start()
    assert cli.main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("command, flag", [("simulate", "--points"), ("verify", "--grid-points"),
                                           ("sweep", "--alpha2-points")])
def test_size_flag_peak_memory_is_within_its_bytes_per_unit(tmp_path, command, flag):
    # SIZE_FLAGS states the tracemalloc peak per unit at 10**5 units of the
    # command's first run in a fresh interpreter, as the CLI runs it; the CSV
    # writer's chunks must stay under it, beside the command's own arrays
    units = 10**5
    source = SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json")
    argv = [command, "--scenario", str(source), "--out", str(tmp_path), flag, str(units)]
    probe = subprocess.run([sys.executable, "-c", PEAK_PROBE, *argv],
                           env=package_env(), capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert int(probe.stdout) <= cli.SIZE_FLAGS[flag][1] * units


@pytest.mark.parametrize("command, flag", SIZE_CASES)
def test_size_flag_refuses_a_billion_at_parse_time(command, flag):
    # parsing alone: nothing is run, so nothing of this size is allocated
    argv = [command, "--scenario", "unread.json", flag, str(10**9)]
    with pytest.raises(cli.CliInputError, match=f"argument {flag}: .*over the 1024 MiB budget"):
        cli.build_parser().parse_args(argv)


# every numeric flag that sizes or bounds a command's work, per command
SIZED_FLAGS = {
    "simulate": ("--points", "--t-max"),
    "verify": ("--grid-points",),
    "estimate": ("--samples", "--m-size"),
    "count": ("--samples", "--m-size"),
    "sweep": ("--alpha2-points", "--alpha2-min", "--alpha2-max"),
    "compare": (),
}
flag_texts = (
    st.integers(min_value=-3, max_value=130)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.integers(min_value=1, max_value=60).map(lambda e: 2**e)
    | st.floats()
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "0x10", "", " 8 "])
).map(str)


@settings(deadline=None, max_examples=80)
@given(data=st.data(), command=st.sampled_from(sorted(SIZED_FLAGS)))
def test_fuzzed_size_flags_exit_cleanly(data, command):
    flags = {flag: data.draw(flag_texts, label=flag)
             for flag in SIZED_FLAGS[command] if data.draw(st.booleans(), label=f"use {flag}")}
    source = SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json")
    # "--flag=text" hands a text such as "-inf" to the flag, not to the option parser
    argv = [command, "--scenario", str(source), *(f"{f}={t}" for f, t in flags.items())]
    err = io.StringIO()
    # a small budget keeps every accepted value cheap to run
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(cli, "SIZE_FLAG_BUDGET", 4096)
        code = cli.main([*argv, "--out", tmp])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # no run raises a numpy warning, and one that succeeds says nothing on stderr
    assert not [str(w.message) for w in caught]
    if code == 0:
        assert err == ""
    if code == 1:
        # one line naming a flag it was given, as argparse names it
        assert err.count("\n") == 1
        assert any(err.startswith(f"error: argument {f}: ") for f in flags), err


def test_count_register_refusal_names_the_flag(tmp_path, capsys, counting_demo_path):
    # the 4 * support rule needs the scenario, so it is checked after parsing
    out = tmp_path / "out"
    assert run("count", "--scenario", counting_demo_path, "--m-size", 8, "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: argument --m-size: counting requires m_size >= 4 * support_size = 24, got 8\n"
    )
    assert not out.exists()
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("count", "--scenario", counting_demo_path, "--m-size", 32, "--out", out) == 0


@pytest.mark.parametrize("energy, m_size", [("-1", "8"), ("nan", "8"), ("1e308", "2048")])
def test_count_energy_refusal_still_names_the_energy(tmp_path, capsys, energy, m_size):
    # one target among 400 items: the clusters are balanced, so the count runs
    # the verification experiment, whose optimal time needs the energy
    path = tmp_path / "balanced.json"
    path.write_text(json.dumps({"n_items": 400, "targets": [0],
                                "info_sets": [{"members": list(range(400)), "weight": 1.0}]}))
    argv = ["count", "--scenario", path, f"--energy={energy}", "--m-size", m_size]
    assert run(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "energy" in err and "--m-size" not in err


NUMPY_MA_PROBE = """
import json, sys
from ctqsearch import cli
assert "numpy.ma" not in sys.modules, "imported with the package"
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs ~17 ms of import; on numpy 2.x plain np.unique pulls it in
    doc = json.loads((SCENARIO_DIR / "library_demo.json").read_text())
    doc["targets"] = doc["targets"][::-1] + doc["targets"][:1]
    doc["info_sets"] = [{**s, "members": s["members"][::-1] + s["members"]} for s in doc["info_sets"]]
    unsorted = tmp_path / "unsorted.json"
    unsorted.write_text(json.dumps(doc))
    runs = [[command, "--scenario", str(SCENARIO_DIR / SHIPPED_FOR.get(command, "library_demo.json"))]
            for command in cli.COMMANDS]
    runs += [["compare", "--scenario", str(unsorted)],
             ["verify", "--scenario", str(million_items(tmp_path))]]
    runs = [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
    probe = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, json.dumps(runs)],
                           env=package_env(), capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
