"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one ``ACCEPTANCE NN PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a checklist.  All
randomness is seeded; reruns are bit-identical.
"""

import json
import math
import time

import numpy as np
from scipy.optimize import brentq

from conftest import SCENARIO_DIR, build_scenario
from ctqsearch import (
    cli,
    counting_scenario,
    disambiguate,
    estimate_count,
    estimate_y,
    measurement_distribution,
    misplaced_confidence_curve,
    next_power_of_two,
    optimal_time,
    plane_projection_on_grid,
    reduced_basis,
    sample_phase_register,
    success_distribution,
    trajectory,
    weighted_superposition,
)
from ctqsearch.fullsim import evolve_on_grid, full_hamiltonian, project_reduced
from oracles import (
    EIGHT_OVER_PI_SQ,
    ScenarioMode,
    misplaced_scenario,
    nu_squared_lower,
    random_scenario_suite,
    tail_and_pointwise_hold,
    walk_register_marginal,
    weight_power_sum,
    window_mass,
)


def _criterion(num: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {num}: {description}"


def _mixed_suite_50():
    """Fifty scenarios, N <= 64, spanning all three families."""
    return (
        random_scenario_suite(201, 30, ScenarioMode.BASIC, n_items_range=(8, 64))
        + random_scenario_suite(202, 10, ScenarioMode.DISJOINT, n_items_range=(8, 64))
        + random_scenario_suite(203, 10, ScenarioMode.MISPLACED)
    )


def test_criterion_01_reduced_full_equivalence():
    start = time.perf_counter()
    max_dev = 0.0
    max_resid = 0.0
    for s in _mixed_suite_50():
        prep = weighted_superposition(s)
        t_opt = optimal_time(prep.y, s.energy)
        times = np.linspace(0.0, 2.0 * t_opt, 64)
        h = full_hamiltonian(prep.beta, prep.target_items, s.energy)
        states = evolve_on_grid(h, prep.beta, times)
        traj = trajectory(prep, s.energy, t_max=2.0 * t_opt, n_points=64)
        for i, row in enumerate(states):
            a, b, _ = project_reduced(prep, row)
            max_dev = max(max_dev, abs(a - traj.a[i]), abs(b - traj.b[i]))
        _, _, leak, _ = plane_projection_on_grid(prep, s.energy, times)
        max_resid = max(max_resid, float(np.max(leak)))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        f"reduced vs full evolution: max deviation {max_dev:.2e} <= 1e-10, "
        f"max subspace leak {max_resid:.2e} <= 1e-10, {elapsed:.1f}s < 30s "
        "(50 scenarios, 64-point grids on [0, 2T])",
        max_dev <= 1e-10 and max_resid <= 1e-10 and elapsed < 30.0,
    )


def test_criterion_02_success_at_optimal_time():
    worst_failure = 0.0
    worst_dev = 0.0
    for s in _mixed_suite_50():
        prep = weighted_superposition(s)
        probs = success_distribution(prep, s.energy, optimal_time(prep.y, s.energy))
        worst_failure = max(worst_failure, probs[-1])
        for i, coeff in enumerate(prep.target_coeffs):
            worst_dev = max(worst_dev, abs(probs[i] - coeff**2))
    # reference point: double-covered target takes 25/34 of the success mass
    pair = build_scenario(8, {0, 1}, [({0, 1, 2}, 0.6), ({1, 3}, 0.4)])
    prep = weighted_superposition(pair)
    probs = success_distribution(prep, 1.0, optimal_time(prep.y, 1.0))
    example_ok = abs(probs[0] - 0.264706) <= 1e-6 and abs(probs[1] - 0.735294) <= 1e-6
    _criterion(
        2,
        f"measurement at T=pi/(2Ey): max failure mass {worst_failure:.2e} <= 1e-12, "
        f"per-target deviation from beta_j^2/y^2 {worst_dev:.2e} <= 1e-12, "
        f"reference example (0.264706, 0.735294) within 1e-6: {example_ok}",
        worst_failure <= 1e-12 and worst_dev <= 1e-12 and example_ok,
    )


def test_criterion_03_window_concentration():
    start = time.perf_counter()
    rng_y = np.random.Generator(np.random.Philox(key=31))
    ys = rng_y.uniform(0.001, 0.999, 100)
    min_prob = math.inf
    for y in ys:
        for m_size in (8, 16, 64, 256):
            for phase in (y, 1.0 - y):
                min_prob = min(min_prob, window_mass(phase, m_size))
    grid = np.arange(1, 8 * 64) / (8 * 64)  # hits the worst case at half-bin offsets
    grid_min = min(window_mass(y, 64) for y in grid)
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        f"P(within 1/M of branch phase): min {min_prob:.7f} >= 8/pi^2 = "
        f"{EIGHT_OVER_PI_SQ:.7f} (100 random y, M in 8..256, both branches); "
        f"fine-grid minimum at M=64 is {grid_min:.7f}, within 1e-3 of the bound; "
        f"{elapsed:.1f}s < 10s",
        min_prob >= EIGHT_OVER_PI_SQ - 1e-12
        and abs(grid_min - EIGHT_OVER_PI_SQ) <= 1e-3
        and grid_min >= EIGHT_OVER_PI_SQ - 1e-12
        and elapsed < 10.0,
    )


def test_criterion_04_tail_and_pointwise_bounds():
    rng = np.random.Generator(np.random.Philox(key=32))
    all_ok = True
    for _ in range(100):
        y = float(rng.uniform(0.001, 0.999))
        m_size = 2 ** int(rng.integers(3, 9))
        all_ok = all_ok and tail_and_pointwise_hold(y, m_size, m_values=(2, 3, 5, 10))
    _criterion(
        4,
        "tail windows m in {2,3,5,10}: P(distance <= m/M | branch) >= 1 - 1/(2(m-1)) "
        "on both branches, and pointwise cap 1/(2Md)^2 holds, for 100 random (y, M)",
        all_ok,
    )


def test_criterion_05_pipeline_equivalence():
    worst = 0.0
    for y in (0.1, 0.25, 1 / 3, 0.5, 0.70711, 0.9):
        for m_size in (8, 16, 64):
            simulated = walk_register_marginal(y, m_size)
            analytic = measurement_distribution(y, m_size).total
            worst = max(worst, float(np.max(np.abs(simulated - analytic))))
    _criterion(
        5,
        f"walk-built register marginal vs analytic mixture: max entrywise gap "
        f"{worst:.2e} <= 1e-10 on the declared 6x3 (y, M) grid",
        worst <= 1e-10,
    )


def test_criterion_06_exact_phase_determinism():
    dist = measurement_distribution(0.25, 8).total
    expected = np.zeros(8)
    expected[2] = 0.375
    expected[6] = 0.625
    exact = bool(np.max(np.abs(dist - expected)) <= 1e-15)
    samples = sample_phase_register(0.25, 8, 1000, seed=40)
    support_ok = set(np.unique(samples)) == {2, 6}
    _criterion(
        6,
        f"y=0.25, M=8: support exactly {{2, 6}} with weights (0.375, 0.625): {exact}; "
        f"1000 seeded samples stay on that support: {support_ok}",
        exact and support_ok,
    )


def test_criterion_07_counting_round_trip():
    suite = random_scenario_suite(
        77,
        50,
        ScenarioMode.DISJOINT,
        n_items_range=(8, 64),
        uniform_weights=True,
        support_cap=32,
    )
    min_rate = 1.0
    modal_hits = 0
    for i, s in enumerate(suite):
        cscn = counting_scenario(s)
        prep = weighted_superposition(cscn)
        support = cscn.support_size
        m_size = next_power_of_two(max(64, 4 * support))
        true_l = s.n_targets

        samples = sample_phase_register(prep.y, m_size, 200, seed=9000 + i)
        hits = 0
        for j, k in enumerate(samples):
            est = estimate_y([int(k)], m_size)
            if est.ambiguous:
                est = disambiguate(est, prep, cscn.energy, seed=100_000 + 137 * i + j)
            hits += estimate_count(est.y_hat, support) == true_l
        min_rate = min(min_rate, hits / 200)

        modal_samples = sample_phase_register(prep.y, m_size, 50, seed=5000 + i)
        est = estimate_y(modal_samples, m_size)
        if est.ambiguous:
            est = disambiguate(est, prep, cscn.energy, seed=333 + i)
        modal_hits += estimate_count(est.y_hat, support) == true_l
    modal_rate = modal_hits / len(suite)
    _criterion(
        7,
        f"counting round-trip on 50 disjoint uniform scenarios (support <= 32): "
        f"worst single-sample success rate {min_rate:.3f} >= 8/pi^2 - 0.05 = "
        f"{EIGHT_OVER_PI_SQ - 0.05:.3f}; modal 50-sample estimate rate "
        f"{modal_rate:.2f} >= 0.99",
        min_rate >= EIGHT_OVER_PI_SQ - 0.05 and modal_rate >= 0.99,
    )


def test_criterion_08_misplaced_confidence_divergence():
    # closed-form curve vs an independently simulated first zero of the
    # residual amplitude, plus the divergence facts for the 2-set instance
    formula_ok = True
    zero_dev = 0.0
    for alpha2 in (0.5, 0.9, 0.99):
        s = misplaced_scenario(1, 2, 1, 0, alpha2, n_items=9)
        prep = weighted_superposition(s)
        (pt,) = misplaced_confidence_curve(1, 2, 1, 0, [alpha2])
        a1 = 1.0 - alpha2
        nu_manual = math.sqrt(2 * a1**2 + alpha2**2)
        formula_ok = formula_ok and abs(pt.y - a1 / nu_manual) <= 1e-14
        formula_ok = formula_ok and abs(prep.y - pt.y) <= 1e-14

        h = full_hamiltonian(prep.beta, prep.target_items, s.energy)
        _, r_axis = reduced_basis(prep.beta, prep.target_items)

        def residual(t):
            state = evolve_on_grid(h, prep.beta, [t])[0]
            return (np.exp(1j * s.energy * t) * np.vdot(r_axis, state)).real

        ts = np.linspace(0.0, 1.5 * pt.time, 2001)
        states = evolve_on_grid(h, prep.beta, ts)
        values = (np.exp(1j * s.energy * ts) * (states @ r_axis.conj())).real
        sign_change = np.nonzero(np.diff(np.sign(values)) != 0)[0]
        t_zero = brentq(residual, ts[sign_change[0]], ts[sign_change[0] + 1], xtol=1e-12)
        zero_dev = max(zero_dev, abs(t_zero - pt.time))

    grid = np.linspace(0.8, 0.999, 40)
    times = [p.time for p in misplaced_confidence_curve(1, 2, 1, 0, grid)]
    monotone = all(b > a for a, b in zip(times, times[1:]))
    lo, hi = misplaced_confidence_curve(1, 2, 1, 0, [0.5, 0.999])
    ratio = hi.time / lo.time
    _criterion(
        8,
        f"misplaced-confidence sweep: simulated first residual zero matches "
        f"pi/(2Ey) within {zero_dev:.1e} <= 1e-6; T increasing on [0.8, 0.999]: "
        f"{monotone}; T(0.999)/T(0.5) = {ratio:.1f} > 100",
        formula_ok and zero_dev <= 1e-6 and monotone and ratio > 100,
    )


def test_criterion_09_overlap_and_norm_bounds():
    basic = random_scenario_suite(301, 200, ScenarioMode.BASIC)
    disjoint = random_scenario_suite(302, 200, ScenarioMode.DISJOINT)
    misplaced = random_scenario_suite(303, 100, ScenarioMode.MISPLACED)
    ok = True
    for s in basic:
        y = weighted_superposition(s).y
        ok = ok and y >= 1 / math.sqrt(s.n_sets * s.support_size) - 1e-12
    for s in disjoint:
        y = weighted_superposition(s).y
        ok = ok and y >= 1 / math.sqrt(s.support_size) - 1e-12
        ok = ok and y >= 1 / math.sqrt(s.n_sets * s.support_size) - 1e-12
    for s in basic + disjoint + misplaced:
        nu_sq = weighted_superposition(s).nu ** 2
        ok = ok and nu_squared_lower(s) <= nu_sq + 1e-9
        ok = ok and nu_sq <= s.support_size + 1e-9
        ok = ok and weight_power_sum(s) >= 1 / s.n_sets - 1e-12
        if s.pairwise_disjoint:
            ok = ok and nu_sq <= s.support_size * weight_power_sum(s) + 1e-9
    # sanity on the generator itself: the families are what they claim
    ok = ok and all(all(s.target_overlaps) for s in basic + disjoint)
    ok = ok and not any(all(s.target_overlaps) for s in misplaced)
    _criterion(
        9,
        "500 generated scenarios: y >= 1/sqrt(n(l+R)) on basic confidence, "
        "y >= 1/sqrt(l+R) on disjoint, and the norm bounds "
        "sum|A_j|a_j^2 <= nu^2 <= l+R, sum a_j^2 >= 1/n all hold",
        ok,
    )


def test_criterion_10_cli_byte_determinism(tmp_path):
    library = str(SCENARIO_DIR / "library_demo.json")
    counting = str(SCENARIO_DIR / "disjoint_counting.json")
    misplaced = str(SCENARIO_DIR / "misplaced_pair.json")
    invocations = [
        ["simulate", "--scenario", library],
        ["verify", "--scenario", library],
        ["estimate", "--scenario", library, "--seed", "11"],
        ["count", "--scenario", counting, "--seed", "11"],
        ["sweep", "--scenario", misplaced],
        ["compare", "--scenario", library],
    ]
    artifacts = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        for argv in invocations:
            code = cli.main(argv + ["--out", str(run_dir)])
            assert code == 0, f"cli failed: {argv}"
        files = sorted(p.name for p in run_dir.glob("*.json"))
        artifacts.append({name: (run_dir / name).read_bytes() for name in files})
    identical = artifacts[0] == artifacts[1]
    json_ok = len(artifacts[0]) == 6 and all(
        json.loads(blob)["schema_version"] == "5.0" for blob in artifacts[0].values()
    )
    _criterion(
        10,
        f"two seeded CLI suite runs produce byte-identical JSON artifacts "
        f"({len(artifacts[0])} files): {identical}",
        identical and json_ok,
    )
