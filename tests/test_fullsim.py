import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import jv

from conftest import build_scenario
from ctqsearch import (
    load_scenario,
    optimal_time,
    plane_projection_on_grid,
    reduced_basis,
    trajectory,
    weighted_superposition,
)
from ctqsearch import fullsim, uniform_superposition
from ctqsearch.fullsim import evolve_on_grid, full_hamiltonian, project_reduced
from ctqsearch.stateprep import symmetry_classes
import oracles
from oracles import (
    ScenarioMode,
    chebyshev_coefficients,
    chebyshev_order,
    dense_plane_projection,
    evolve_blocks,
    lift_classes,
    skewed_plane,
    random_scenario_suite,
    reduced_hamiltonian,
)


def max_leak(scenario, prep, times):
    return float(np.max(plane_projection_on_grid(prep, scenario.energy, times)[2]))


def test_hamiltonian_two_item_literal():
    # single covering set over both items: beta = (1, 1)/sqrt(2)
    s = build_scenario(2, {0}, [({0, 1}, 1.0)])
    prep = weighted_superposition(s)
    h = full_hamiltonian(prep.beta, prep.target_items, s.energy)
    assert_allclose(h, [[1.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_hamiltonian_is_projector_sum(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, boosted_pair.energy)
    target_proj = np.zeros((8, 8))
    for t in boosted_pair.targets:
        target_proj[t, t] = 1.0
    assert_allclose(h, target_proj + np.outer(prep.beta, prep.beta), atol=1e-15)
    assert_allclose(h, h.T, atol=0)


def test_spectrum_stays_in_energy_window():
    for s in random_scenario_suite(seed=2, count=10, n_items_range=(8, 48)):
        prep = weighted_superposition(s)
        vals = np.linalg.eigvalsh(full_hamiltonian(prep.beta, prep.target_items, s.energy))
        assert vals.min() >= -1e-10
        assert vals.max() <= 2 * s.energy + 1e-10


def test_restriction_to_plane_is_reduced_hamiltonian(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, boosted_pair.energy)
    w, r = reduced_basis(prep.beta, prep.target_items)
    basis = np.column_stack([w, r])
    assert_allclose(basis.T @ h @ basis, reduced_hamiltonian(prep.y, 1.0), atol=1e-12)
    # and the plane is invariant: H maps basis vectors into the plane
    for v in (w, r):
        image = h @ v
        back = basis @ (basis.T @ image)
        assert_allclose(image, back, atol=1e-12)


def test_plane_eigenvalues(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, boosted_pair.energy)
    w, r = reduced_basis(prep.beta, prep.target_items)
    basis = np.column_stack([w, r])
    vals = np.linalg.eigvalsh(basis.T @ h @ basis)
    expected = sorted([1.0 * (1 - prep.y), 1.0 * (1 + prep.y)])
    assert_allclose(vals, expected, atol=1e-12)


def test_full_evolve_matches_generic_exponential(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, lopsided_pair.energy)
    for t in (0.0, 0.7, 3.1):
        direct = expm(-1j * t * h) @ prep.beta.astype(complex)
        assert_allclose(evolve_on_grid(h, prep.beta, [t])[0], direct, atol=1e-12)


def test_norm_and_energy_conserved(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, boosted_pair.energy)
    times = np.linspace(0.0, 12.0, 40)
    states = evolve_on_grid(h, prep.beta, times)
    e0 = prep.beta @ h @ prep.beta
    for row in states:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-10)
        assert (row.conj() @ h @ row).real == pytest.approx(e0, abs=1e-10)


def test_uncovered_items_never_acquire_amplitude(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, boosted_pair.energy)
    states = evolve_on_grid(h, prep.beta, np.linspace(0.0, 8.0, 20))
    outside = sorted(set(range(8)) - set(boosted_pair.support))
    assert np.max(np.abs(states[:, outside])) == 0.0


def test_evolution_never_leaves_plane(boosted_pair, lopsided_pair):
    for s in (boosted_pair, lopsided_pair):
        prep = weighted_superposition(s)
        t_opt = optimal_time(prep.y, s.energy)
        times = np.linspace(0.0, 2 * t_opt, 64)
        assert max_leak(s, prep, times) <= 1e-12


def test_projected_trajectory_matches_closed_form(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, boosted_pair.energy)
    t_opt = optimal_time(prep.y, 1.0)
    closed = trajectory(prep, 1.0, t_max=2 * t_opt, n_points=64)
    states = evolve_on_grid(h, prep.beta, closed.times)
    for row, a_closed, b_closed in zip(states, closed.a, closed.b):
        a, b, leak = project_reduced(prep, row)
        assert abs(a - a_closed) <= 1e-12
        assert abs(b - b_closed) <= 1e-12
        assert leak <= 1e-12


def test_full_overlap_scenario_has_no_residual_axis():
    s = build_scenario(4, {1, 2}, [({1, 2}, 1.0)])
    prep = weighted_superposition(s)
    w, r = reduced_basis(prep.beta, prep.target_items)
    assert np.all(r == 0.0)
    times = np.linspace(0.0, 4.0, 16)
    assert max_leak(s, prep, times) <= 1e-12


def test_evolve_on_grid_agrees_with_single_calls(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    h = full_hamiltonian(prep.beta, prep.target_items, lopsided_pair.energy)
    times = [0.3, 1.4, 5.0]
    grid = evolve_on_grid(h, prep.beta, times)
    for t, row in zip(times, grid):
        assert_allclose(row, evolve_on_grid(h, prep.beta, [t])[0], atol=1e-13)


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        evolve_on_grid(bad, np.array([1.0, 0.0]), [1.0])
    with pytest.raises(ValueError):
        evolve_on_grid(np.zeros((2, 3)), np.array([1.0, 0.0]), [1.0])


def test_state_shape_checked():
    h = np.eye(3)
    with pytest.raises(ValueError):
        evolve_on_grid(h, np.array([1.0, 0.0]), [1.0])


def _small_suite():
    return (
        random_scenario_suite(41, 12, ScenarioMode.BASIC, n_items_range=(8, 64))
        + random_scenario_suite(42, 4, ScenarioMode.DISJOINT, n_items_range=(8, 64))
        + random_scenario_suite(43, 4, ScenarioMode.MISPLACED)
    )


@pytest.mark.parametrize("block_bytes", [oracles.BLOCK_BYTES, 1])
def test_chebyshev_propagator_matches_dense_oracle(monkeypatch, block_bytes):
    # block_bytes=1 forces one time row per block in the dense and Chebyshev oracles
    monkeypatch.setattr(oracles, "BLOCK_BYTES", block_bytes)
    for s in _small_suite():
        assert s.n_items <= 64
        prep = weighted_superposition(s)
        times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 33)
        h = full_hamiltonian(prep.beta, prep.target_items, s.energy)
        dense = evolve_on_grid(h, prep.beta, times)
        cheb = np.vstack(list(evolve_blocks(prep.beta, prep.target_items, s.energy, times)))
        assert np.max(np.abs(cheb - dense)) <= 1e-12

        a, b, leak, d = plane_projection_on_grid(prep, s.energy, times)
        for i, row in enumerate(dense):
            a_ref, b_ref, leak_ref = project_reduced(prep, row)
            assert abs(a[i] - a_ref) <= 1e-12
            assert abs(b[i] - b_ref) <= 1e-12
            assert leak[i] <= 1e-12 and leak_ref <= 1e-12
        a_eigh, b_eigh, leak_eigh, d_eigh = dense_plane_projection(prep, s.energy, times)
        assert d_eigh == d and np.max(leak_eigh) <= 1e-12
        assert np.max(np.abs(a - a_eigh)) <= 1e-12 and np.max(np.abs(b - b_eigh)) <= 1e-12


@pytest.mark.parametrize("a_max", [0.0, 0.3, 3.7, 40.0, 150.0, 300.0])
def test_chebyshev_coefficients_match_bessel(a_max):
    # a = pi/y at the end of a 2T grid, so a_max = 300 covers y ~ 0.01
    order = chebyshev_order(a_max)
    a = np.linspace(0.0, a_max, 9)
    k = np.arange(order + 1)
    expected = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, a[:, None])
    assert_allclose(chebyshev_coefficients(a, order), expected, rtol=0, atol=1e-13)
    # the dropped tail sits far below roundoff
    assert np.max(np.abs(jv(order + 1, a))) <= 1e-17


def test_chebyshev_conserves_norm_and_leaves_uncovered_items_zero(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    times = np.linspace(0.0, 40.0, 50)
    states = np.vstack(list(evolve_blocks(prep.beta, prep.target_items, 1.0, times)))
    assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)
    outside = sorted(set(range(8)) - set(boosted_pair.support))
    assert outside and np.max(np.abs(states[:, outside])) == 0.0


def test_grid_walk_memory_is_bounded_by_the_block():
    # 12 classes and 2**17 time rows: the states alone would take 24 MiB
    sets = [(set(range(k, 12)), 0.05 + 0.03 * k) for k in range(12)]
    s = build_scenario(16, {2, 7, 11}, sets)
    prep = weighted_superposition(s)
    times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 2**17)
    tracemalloc.start()
    try:
        a, b, leak, d = plane_projection_on_grid(prep, s.energy, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = a.nbytes + b.nbytes + leak.nbytes
    # a row's m = 2 Krylov coefficients and one temporary, 40 bytes a point;
    # d-wide rows would take 192 for the states alone, 74 MiB in all
    assert d == 12 and peak - outputs <= 64 * times.size
    assert np.max(leak) <= 1e-12


@pytest.mark.parametrize("y", [1e-2, 1e-3, 1e-4])
def test_class_evolution_matches_the_chebyshev_oracle_at_small_overlap(y):
    # the eigendecomposition route against a route that diagonalises nothing,
    # both on the classes of the one-target-in-a-thousand family
    w = y * np.sqrt(990.0 / (1.0 - 10.0 * y * y))
    s = build_scenario(1000, {0}, [(set(range(10)), w), (set(range(10, 1000)), 1.0)])
    prep = weighted_superposition(s)
    amplitudes, is_target = symmetry_classes(prep)
    times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 65)
    states = np.vstack(list(evolve_blocks(amplitudes, is_target, s.energy, times)))
    plane = np.column_stack(reduced_basis(amplitudes, is_target))
    ab = states @ plane
    a, b, leak, d = plane_projection_on_grid(prep, s.energy, times)
    assert d == 3
    assert np.max(np.abs(a - ab[:, 0])) <= 1e-10 and np.max(np.abs(b - ab[:, 1])) <= 1e-10
    assert np.max(leak) <= 1e-12
    a_eigh, b_eigh, _, _ = dense_plane_projection(prep, s.energy, times)
    assert np.max(np.abs(a - a_eigh)) <= 1e-10 and np.max(np.abs(b - b_eigh)) <= 1e-10


def test_class_evolution_matches_the_chebyshev_oracle_at_hundreds_of_classes():
    # 8 random overlapping sets over 3,000 items: their membership patterns and
    # the target flags give a few hundred classes, where V's roundoff could show
    rng = np.random.default_rng(3401)
    sets = [(set(rng.choice(3000, 1200, replace=False).tolist()), w)
            for w in rng.uniform(0.1, 1.0, 8)]
    covered = sorted(set().union(*(members for members, _ in sets)))
    s = build_scenario(3000, set(rng.choice(covered, 40, replace=False).tolist()), sets)
    prep = weighted_superposition(s)
    amplitudes, is_target = symmetry_classes(prep)
    times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 65)
    states = np.vstack(list(evolve_blocks(amplitudes, is_target, s.energy, times)))
    plane = np.column_stack(reduced_basis(amplitudes, is_target))
    ab = states @ plane
    leak_ref = np.linalg.norm(states - ab @ plane.T, axis=1)
    a, b, leak, d = plane_projection_on_grid(prep, s.energy, times)
    assert 200 <= d <= 400
    assert np.max(np.abs(a - ab[:, 0])) <= 1e-10 and np.max(np.abs(b - ab[:, 1])) <= 1e-10
    assert np.max(leak) <= 1e-12 and np.max(leak_ref) <= 1e-12
    a_eigh, b_eigh, leak_eigh, _ = dense_plane_projection(prep, s.energy, times)
    assert np.max(np.abs(a - a_eigh)) <= 1e-10 and np.max(np.abs(b - b_eigh)) <= 1e-10
    assert np.max(leak_eigh) <= 1e-12


def test_an_unclosed_krylov_space_keeps_its_bound_in_the_leak(monkeypatch, boosted_pair):
    # stopped at beta alone, the state never leaves the plane; the Krylov
    # error bound E*t*b_1, with b_1 = y*sqrt(1 - y^2), is then the whole leak
    monkeypatch.setattr(fullsim, "KRYLOV_MAX", 1)
    prep = weighted_superposition(boosted_pair)
    times = np.linspace(0.0, 2.0 * optimal_time(prep.y, 1.3), 9)
    leak = plane_projection_on_grid(prep, 1.3, times)[2]
    assert_allclose(leak, 1.3 * times * prep.y * np.sqrt(1.0 - prep.y**2), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("delta, expected", [(1e-6, 3.22e-7), (1e-9, 3.22e-10)])
def test_both_routes_read_a_skewed_plane_as_its_leak(monkeypatch, library_demo_path, delta,
                                                     expected):
    # the evolution is exact and the plane is off by ~delta: the Krylov route
    # and the dense eigh route must both see it, on verify's own grid
    s = load_scenario(library_demo_path)
    prep = weighted_superposition(s)
    times = trajectory(prep, s.energy, n_points=64).times
    monkeypatch.setattr(fullsim, "reduced_basis", skewed_plane(delta))
    for route in (plane_projection_on_grid, dense_plane_projection):
        assert np.max(route(prep, s.energy, times)[2]) == pytest.approx(expected, rel=0.01)


def test_symmetry_classes_of_the_boosted_pair(boosted_pair):
    # beta = (0.6, 1.0, 0.6, 0.4, 0, 0, 0, 0)/sqrt(1.88), targets {0, 1}: the
    # two 0.6 items differ in their target flag, so every class is one item
    prep = weighted_superposition(boosted_pair)
    amplitudes, is_target = symmetry_classes(prep)
    assert_allclose(amplitudes, np.array([1.0, 0.6, 0.4, 0.6]) / np.sqrt(1.88), atol=1e-15)
    assert is_target.tolist() == [True, True, False, False]


def test_uniform_state_folds_onto_the_plane():
    # equal amplitudes: one target class and one residual class, (y, sqrt(1 - y^2))
    s = build_scenario(16, {0, 1, 2, 3}, [({0, 1, 2, 3, 4}, 1.0)])
    prep = uniform_superposition(s)
    amplitudes, is_target = symmetry_classes(prep)
    assert_allclose(amplitudes, [prep.y, np.sqrt(1.0 - prep.y**2)], rtol=0, atol=1e-15)
    assert is_target.tolist() == [True, False]


@pytest.mark.parametrize("block_bytes", [oracles.BLOCK_BYTES, 1])
def test_class_states_lift_to_the_dense_oracle(monkeypatch, block_bytes):
    monkeypatch.setattr(oracles, "BLOCK_BYTES", block_bytes)
    for s in _small_suite():
        prep = weighted_superposition(s)
        amplitudes, is_target = symmetry_classes(prep)
        assert amplitudes.size <= s.support_size and np.all(amplitudes > 0.0)
        assert np.linalg.norm(amplitudes[is_target]) == pytest.approx(prep.y, abs=1e-14)
        times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 33)
        h = full_hamiltonian(prep.beta, prep.target_items, s.energy)
        dense = evolve_on_grid(h, prep.beta, times)
        classes = np.vstack(list(evolve_blocks(amplitudes, is_target, s.energy, times)))
        lifted = lift_classes(prep.beta, prep.target_items, classes)
        assert np.max(np.abs(lifted - dense)) <= 1e-12


def test_distinct_amplitudes_make_every_item_a_class():
    # nested sets with distinct weights: each covered item has its own beta,
    # so the class space is the item support itself (d = support_size)
    sets = [(set(range(k, 12)), w) for k, w in enumerate([0.05, 0.07, 0.11, 0.13, 0.17, 0.19,
                                                          0.23, 0.29, 0.31, 0.37, 0.41, 0.43])]
    s = build_scenario(16, {2, 7, 11}, sets, energy=1.3)
    prep = weighted_superposition(s)
    amplitudes, is_target = symmetry_classes(prep)
    assert amplitudes.size == s.support_size == 12
    assert is_target.sum() == 3
    times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 41)
    h = full_hamiltonian(prep.beta, prep.target_items, s.energy)
    dense = evolve_on_grid(h, prep.beta, times)
    classes = np.vstack(list(evolve_blocks(amplitudes, is_target, s.energy, times)))
    assert np.max(np.abs(lift_classes(prep.beta, prep.target_items, classes) - dense)) <= 1e-12
    a, b, leak, _ = plane_projection_on_grid(prep, s.energy, times)
    for i, row in enumerate(dense):
        a_ref, b_ref, _ = project_reduced(prep, row)
        assert abs(a[i] - a_ref) <= 1e-12 and abs(b[i] - b_ref) <= 1e-12
    assert np.max(leak) <= 1e-12


def test_plane_projection_of_empty_grid():
    s = build_scenario(4, {1}, [({1, 2}, 1.0)])
    a, b, leak, _ = plane_projection_on_grid(weighted_superposition(s), s.energy, [])
    assert a.shape == b.shape == leak.shape == (0,)
