import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import jv

from conftest import build_scenario
from ctqsearch import (
    evolve_state,
    optimal_time,
    plane_projection_on_grid,
    reduced_basis,
    weighted_superposition,
)
from ctqsearch import fullsim
from ctqsearch.fullsim import (
    chebyshev_coefficients,
    chebyshev_order,
    evolve_blocks,
    evolve_on_grid,
    full_hamiltonian,
    project_reduced,
)
from oracles import ScenarioMode, random_scenario_suite, reduced_hamiltonian


def max_leak(scenario, prep, times):
    return float(np.max(plane_projection_on_grid(scenario, prep, times)[2]))


def test_hamiltonian_two_item_literal():
    # single covering set over both items: beta = (1, 1)/sqrt(2)
    s = build_scenario(2, {0}, [({0, 1}, 1.0)])
    h = full_hamiltonian(s, weighted_superposition(s))
    assert_allclose(h, [[1.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_hamiltonian_is_projector_sum(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(boosted_pair, prep)
    target_proj = np.zeros((8, 8))
    for t in boosted_pair.targets:
        target_proj[t, t] = 1.0
    assert_allclose(h, target_proj + np.outer(prep.beta, prep.beta), atol=1e-15)
    assert_allclose(h, h.T, atol=0)


def test_spectrum_stays_in_energy_window():
    for s in random_scenario_suite(seed=2, count=10, n_items_range=(8, 48)):
        prep = weighted_superposition(s)
        vals = np.linalg.eigvalsh(full_hamiltonian(s, prep))
        assert vals.min() >= -1e-10
        assert vals.max() <= 2 * s.energy + 1e-10


def test_restriction_to_plane_is_reduced_hamiltonian(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(boosted_pair, prep)
    w, r = reduced_basis(prep, 8)
    basis = np.column_stack([w, r])
    assert_allclose(basis.T @ h @ basis, reduced_hamiltonian(prep.y, 1.0), atol=1e-12)
    # and the plane is invariant: H maps basis vectors into the plane
    for v in (w, r):
        image = h @ v
        back = basis @ (basis.T @ image)
        assert_allclose(image, back, atol=1e-12)


def test_plane_eigenvalues(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(boosted_pair, prep)
    w, r = reduced_basis(prep, 8)
    basis = np.column_stack([w, r])
    vals = np.linalg.eigvalsh(basis.T @ h @ basis)
    expected = sorted([1.0 * (1 - prep.y), 1.0 * (1 + prep.y)])
    assert_allclose(vals, expected, atol=1e-12)


def test_full_evolve_matches_generic_exponential(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    h = full_hamiltonian(lopsided_pair, prep)
    for t in (0.0, 0.7, 3.1):
        direct = expm(-1j * t * h) @ prep.beta.astype(complex)
        assert_allclose(evolve_on_grid(h, prep.beta, [t])[0], direct, atol=1e-12)


def test_norm_and_energy_conserved(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(boosted_pair, prep)
    times = np.linspace(0.0, 12.0, 40)
    states = evolve_on_grid(h, prep.beta, times)
    e0 = prep.beta @ h @ prep.beta
    for row in states:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-10)
        assert (row.conj() @ h @ row).real == pytest.approx(e0, abs=1e-10)


def test_uncovered_items_never_acquire_amplitude(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    h = full_hamiltonian(boosted_pair, prep)
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
    h = full_hamiltonian(boosted_pair, prep)
    t_opt = optimal_time(prep.y, 1.0)
    times = np.linspace(0.0, 2 * t_opt, 64)
    states = evolve_on_grid(h, prep.beta, times)
    for t, row in zip(times, states):
        a, b, leak = project_reduced(prep, row)
        closed = evolve_state(prep, 1.0, t)
        assert abs(a - closed.a) <= 1e-12
        assert abs(b - closed.b) <= 1e-12
        assert leak <= 1e-12


def test_full_overlap_scenario_has_no_residual_axis():
    s = build_scenario(4, {1, 2}, [({1, 2}, 1.0)])
    prep = weighted_superposition(s)
    w, r = reduced_basis(prep, 4)
    assert np.all(r == 0.0)
    times = np.linspace(0.0, 4.0, 16)
    assert max_leak(s, prep, times) <= 1e-12


def test_evolve_on_grid_agrees_with_single_calls(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    h = full_hamiltonian(lopsided_pair, prep)
    times = [0.3, 1.4, 5.0]
    grid = evolve_on_grid(h, prep.beta, times)
    for t, row in zip(times, grid):
        assert_allclose(row, evolve_on_grid(h, prep.beta, [t])[0], atol=1e-13)


def test_dimension_cap_enforced():
    s = build_scenario(5000, {0}, [({0, 1}, 1.0)])
    with pytest.raises(ValueError):
        full_hamiltonian(s, weighted_superposition(s))
    # explicit cap override allows it
    h = full_hamiltonian(s, weighted_superposition(s), dim_cap=5000)
    assert h.shape == (5000, 5000)


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


@pytest.mark.parametrize("block_bytes", [fullsim.BLOCK_BYTES, 1])
def test_chebyshev_propagator_matches_dense_oracle(monkeypatch, block_bytes):
    # block_bytes=1 forces one time row per block
    monkeypatch.setattr(fullsim, "BLOCK_BYTES", block_bytes)
    for s in _small_suite():
        assert s.n_items <= 64
        prep = weighted_superposition(s)
        times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 33)
        dense = evolve_on_grid(full_hamiltonian(s, prep), prep.beta, times)
        cheb = np.vstack(list(evolve_blocks(s, prep, times)))
        assert np.max(np.abs(cheb - dense)) <= 1e-12

        a, b, leak = plane_projection_on_grid(s, prep, times)
        for i, row in enumerate(dense):
            a_ref, b_ref, leak_ref = project_reduced(prep, row)
            assert abs(a[i] - a_ref) <= 1e-12
            assert abs(b[i] - b_ref) <= 1e-12
            assert leak[i] <= 1e-12 and leak_ref <= 1e-12


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
    states = np.vstack(list(evolve_blocks(boosted_pair, prep, np.linspace(0.0, 40.0, 50))))
    assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)
    outside = sorted(set(range(8)) - set(boosted_pair.support))
    assert outside and np.max(np.abs(states[:, outside])) == 0.0


def test_chebyshev_basis_limit_refused_before_allocation(monkeypatch):
    def no_basis(*args):
        raise AssertionError("basis allocated despite the size limit")

    monkeypatch.setattr(fullsim, "_chebyshev_basis", no_basis)
    s = build_scenario(1_000_000, {0}, [({0, 1}, 1.0)])
    prep = weighted_superposition(s)
    times = np.linspace(0.0, 2.0 * optimal_time(prep.y, s.energy), 8)
    with pytest.raises(ValueError, match=r"N=1000000, K=\d+"):
        plane_projection_on_grid(s, prep, times)


def test_plane_projection_of_empty_grid():
    s = build_scenario(4, {1}, [({1, 2}, 1.0)])
    a, b, leak = plane_projection_on_grid(s, weighted_superposition(s), [])
    assert a.shape == b.shape == leak.shape == (0,)
