import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import build_scenario
from ctqsearch import (
    make_rng,
    optimal_time,
    success_distribution,
    trajectory,
    weighted_superposition,
)
from ctqsearch.dynamics import _reduced_coefficients
from ctqsearch.rng import sample_inverse_cdf
from oracles import (
    ScenarioMode,
    eigensystem,
    evolution_matrix,
    random_scenario_suite,
    reduced_hamiltonian,
)


def expm_propagator(y, energy, t):
    # independent route: generic matrix exponential of the 2x2 block
    return expm(-1j * t * reduced_hamiltonian(y, energy))


def test_hamiltonian_entries_literal():
    h = reduced_hamiltonian(0.6, 2.0)
    # E=2, y=0.6: diag 2*(1+0.36), 2*(1-0.36); off-diag 2*0.6*0.8
    assert_allclose(h, [[2.72, 0.96], [0.96, 1.28]], atol=1e-15)


def test_hamiltonian_symmetric_and_trace():
    for y in (0.1, 0.5, 0.99, 1.0):
        h = reduced_hamiltonian(y, 1.5)
        assert_allclose(h, h.T, atol=0)
        assert np.trace(h) == pytest.approx(2 * 1.5, abs=1e-12)  # projector ranks


@pytest.mark.parametrize("y", [0.05, 0.2357, 0.5, 0.8505, 1.0])
@pytest.mark.parametrize("energy", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 12.0])
def test_propagator_matches_matrix_exponential(y, energy, t):
    assert_allclose(
        evolution_matrix(y, energy, t), expm_propagator(y, energy, t), atol=1e-12
    )


@settings(deadline=None, max_examples=60)
@given(
    y=st.floats(min_value=0.01, max_value=1.0),
    energy=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_propagator_unitary(y, energy, t):
    u = evolution_matrix(y, energy, t)
    assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_propagator_group_property():
    u1 = evolution_matrix(0.37, 1.3, 0.9)
    u2 = evolution_matrix(0.37, 1.3, 2.2)
    assert_allclose(u1 @ u2, evolution_matrix(0.37, 1.3, 3.1), atol=1e-12)


def test_eigensystem_closed_form():
    (x1, lam1), (x2, lam2) = eigensystem(0.28, 2.0)
    assert lam1 == pytest.approx(2.0 * 1.28, abs=1e-15)
    assert lam2 == pytest.approx(2.0 * 0.72, abs=1e-15)
    assert_allclose(x1, [math.sqrt(1.28 / 2), math.sqrt(0.72 / 2)], atol=1e-15)
    assert_allclose(x2, [-math.sqrt(0.72 / 2), math.sqrt(1.28 / 2)], atol=1e-15)


@pytest.mark.parametrize("y", [0.1, 0.5, 0.9, 1.0])
def test_eigensystem_diagonalizes_hamiltonian(y):
    h = reduced_hamiltonian(y, 1.7)
    (x1, lam1), (x2, lam2) = eigensystem(y, 1.7)
    assert_allclose(h @ x1, lam1 * x1, atol=1e-12)
    assert_allclose(h @ x2, lam2 * x2, atol=1e-12)
    assert abs(x1 @ x2) < 1e-14
    assert np.linalg.norm(x1) == pytest.approx(1.0, abs=1e-14)


def test_propagator_diagonal_on_eigenvectors():
    y, energy, t = 0.41, 0.8, 3.3
    u = evolution_matrix(y, energy, t)
    (x1, lam1), (x2, lam2) = eigensystem(y, energy)
    assert_allclose(u @ x1, np.exp(-1j * lam1 * t) * x1, atol=1e-12)
    assert_allclose(u @ x2, np.exp(-1j * lam2 * t) * x2, atol=1e-12)


def test_reduced_evolution_matches_propagator(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    y = prep.y
    initial = np.array([y, math.sqrt(1 - y * y)])
    for t in (0.0, 0.4, 1.1, 2.9):
        expected = evolution_matrix(y, 1.0, t) @ initial
        traj = trajectory(prep, 1.0, t_max=t, n_points=2)
        assert_allclose([traj.a[-1], traj.b[-1]], expected, atol=1e-12)
        success = 1.0 - success_distribution(prep, 1.0, t)[-1]
        assert success == pytest.approx(abs(expected[0]) ** 2, abs=1e-12)


def test_success_probability_closed_form():
    # |a(t)|**2 = 1 - (1 - y**2) * cos(E*y*t)**2
    energy = 1.4
    prep = weighted_superposition(build_scenario(4, {0}, [({0, 1, 2, 3}, 1.0)]))
    y = prep.y  # 0.5
    traj = trajectory(prep, energy, t_max=9.0, n_points=25)
    for t, success in zip(traj.times, traj.success):
        expected = 1.0 - (1.0 - y * y) * math.cos(energy * y * t) ** 2
        assert success == pytest.approx(expected, abs=1e-12)
        assert 1.0 - success_distribution(prep, energy, t)[-1] == pytest.approx(expected, abs=1e-12)


def test_success_probability_periodic(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    energy = 1.0
    period = math.pi / (energy * prep.y)
    for t in (0.2, 1.0, 3.7):
        p1 = 1.0 - success_distribution(prep, energy, t)[-1]
        p2 = 1.0 - success_distribution(prep, energy, t + period)[-1]
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_optimal_time_value(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    t_opt = optimal_time(prep.y, 1.0)
    assert t_opt == pytest.approx(6.664324407237549, abs=1e-12)
    assert t_opt == pytest.approx(math.pi / (2 * prep.y), abs=1e-15)


def test_optimal_time_is_first_maximum(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    t_opt = optimal_time(prep.y, 1.0)
    at_peak = 1.0 - success_distribution(prep, 1.0, t_opt)[-1]
    assert at_peak == pytest.approx(1.0, abs=1e-12)
    for frac in (0.25, 0.5, 0.9):
        assert 1.0 - success_distribution(prep, 1.0, frac * t_opt)[-1] < at_peak
    # doubling the energy halves the time
    assert optimal_time(prep.y, 2.0) == pytest.approx(t_opt / 2, abs=1e-12)


def test_success_distribution_at_peak(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    t_opt = optimal_time(prep.y, 1.0)
    probs = success_distribution(prep, 1.0, t_opt)
    # target amplitudes 0.6 and 1.0: shares 0.36/1.36 and 1.00/1.36
    assert probs[0] == pytest.approx(0.36 / 1.36, abs=1e-12)
    assert probs[1] == pytest.approx(1.00 / 1.36, abs=1e-12)
    assert probs[-1] <= 1e-12
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_success_distribution_matches_a_per_target_loop():
    # the reference: one float(p * c * c) per target, in target order, and
    # the failure as 1 minus their exact sum
    suite = (random_scenario_suite(31, 20)
             + random_scenario_suite(32, 10, ScenarioMode.DISJOINT)
             + random_scenario_suite(33, 10, ScenarioMode.MISPLACED))
    for s in suite:
        prep = weighted_superposition(s)
        for frac in (0.0, 0.37, 1.0, 1.6):
            t = frac * optimal_time(prep.y, s.energy)
            probs = success_distribution(prep, s.energy, t)
            a, _ = _reduced_coefficients(prep.y, s.energy, [t])
            p_success = abs(complex(a[0])) ** 2
            targets = [float(p_success * coeff * coeff) for coeff in prep.target_coeffs]
            assert np.array_equal(probs[:-1], targets)
            assert probs[-1] == max(0.0, 1.0 - math.fsum(targets))


def test_success_distribution_at_start(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    probs = success_distribution(prep, 1.0, 0.0)
    for prob, item in zip(probs, boosted_pair.targets):
        assert prob == pytest.approx(prep.beta[item] ** 2, abs=1e-12)
    assert probs[-1] == pytest.approx(1.0 - prep.y**2, abs=1e-12)


def test_sampling_is_deterministic_per_seed(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    probs = success_distribution(prep, 1.0, 1.0)
    draws = [sample_inverse_cdf(probs, make_rng(42, "measurement"), 50) for _ in range(5)]
    assert all(np.array_equal(d, draws[0]) for d in draws)
    other = sample_inverse_cdf(probs, make_rng(43, "measurement"), 50)
    assert set(other.tolist()) <= {0, 1, 2}


def test_sampling_point_mass():
    rng = make_rng(0, "measurement")
    assert set(sample_inverse_cdf([1.0], rng, 20).tolist()) == {0}
    assert set(sample_inverse_cdf([0.0, 1.0, 0.0], rng, 20).tolist()) == {1}
    # one target at probability 0, then the failure at 1
    assert set(sample_inverse_cdf([0.0, 1.0], rng, 20).tolist()) == {1}


def test_sampling_frequencies_track_probabilities(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    t_opt = optimal_time(prep.y, 1.0)
    probs = success_distribution(prep, 1.0, t_opt)
    draws = sample_inverse_cdf(probs, make_rng(0, "measurement"), 2000)
    freq1 = np.mean(draws == 1)  # sorted targets are (0, 1)
    # expect 1.0/1.36 = 0.735 with sigma ~ 0.01
    assert freq1 == pytest.approx(1.00 / 1.36, abs=0.04)


def test_trajectory_grid_and_probability(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    traj = trajectory(prep, 1.0)
    t_opt = optimal_time(prep.y, 1.0)
    assert traj.times.shape == (256,)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2 * t_opt, abs=1e-12)
    assert_allclose(traj.success, np.abs(traj.a) ** 2, atol=1e-14)
    assert traj.a[0] == pytest.approx(prep.y, abs=1e-14)
    norms = np.abs(traj.a) ** 2 + np.abs(traj.b) ** 2
    assert_allclose(norms, 1.0, atol=1e-12)


def test_trajectory_matches_scalar_loop(boosted_pair):
    # reference: the per-point scalar complex arithmetic the grid evaluation
    # replaced; same operations, so only the trig routines may differ by an ulp
    prep = weighted_superposition(boosted_pair)
    energy = 1.7
    traj = trajectory(prep, energy, n_points=257)
    y, c = prep.y, math.sqrt(1.0 - prep.y * prep.y)
    for t, a, b in zip(traj.times, traj.a, traj.b):
        theta = energy * y * t
        phase = complex(np.exp(-1j * energy * t))
        assert abs(a - phase * (y * math.cos(theta) - 1j * math.sin(theta))) <= 4e-16
        assert abs(b - phase * (c * math.cos(theta))) <= 4e-16


def test_trajectory_custom_horizon(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    traj = trajectory(prep, 1.0, t_max=3.0, n_points=11)
    assert traj.times.shape == (11,)
    assert traj.times[-1] == 3.0


def test_trajectory_refuses_a_single_point(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    with pytest.raises(ValueError, match="n_points must be >= 2, got 1"):
        trajectory(prep, 1.0, n_points=1)


def test_input_validation():
    with pytest.raises(ValueError):
        reduced_hamiltonian(0.0, 1.0)
    with pytest.raises(ValueError):
        reduced_hamiltonian(1.2, 1.0)
    with pytest.raises(ValueError):
        evolution_matrix(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        evolution_matrix(0.5, 1.0, -0.1)
    with pytest.raises(ValueError):
        optimal_time(0.0, 1.0)


@pytest.mark.parametrize("energy", [1e-320, 5e-324, 1e308])
def test_optimal_time_refuses_a_time_out_of_range(energy):
    # 2*E*y is subnormal (pi over it overflows), underflows to 0 or overflows
    with pytest.raises(ValueError, match=re.escape(f"out of range for energy {energy!r} and y 0.5")):
        optimal_time(0.5, energy)


def test_horizon_whose_phase_overflows_is_refused(lopsided_pair):
    # E*t = 1e309 leaves the float range, where e^(-iEt) and cos(E*y*t) are nan
    prep = weighted_superposition(lopsided_pair)
    message = re.escape("E*t_max overflows at energy 10.0 and t_max 1e+308")
    with pytest.raises(ValueError, match=message):
        trajectory(prep, 10.0, t_max=1e308)
    with pytest.raises(ValueError, match=message):
        success_distribution(prep, 10.0, 1e308)
    # at E = 1 every finite horizon runs, up to the largest float, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = trajectory(prep, 1.0, t_max=sys.float_info.max, n_points=8)
        probs = success_distribution(prep, 1.0, sys.float_info.max)
    assert traj.times[-1] == sys.float_info.max and np.all(np.isfinite(traj.success))
    assert 0.0 <= probs[-1] <= 1.0
