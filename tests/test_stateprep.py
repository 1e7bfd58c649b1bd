import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import build_scenario
from ctqsearch import (
    InformationSet,
    SearchScenario,
    reduced_basis,
    uniform_superposition,
    weighted_superposition,
)
from oracles import ScenarioMode, random_scenario_suite


def test_overlapping_sets_boost_shared_item(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    # raw amplitudes: 0.6, 0.6+0.4, 0.6, 0.4 -> nu**2 = 0.36 + 1.0 + 0.36 + 0.16
    assert prep.nu == pytest.approx(math.sqrt(1.88), abs=1e-15)
    assert_allclose(
        prep.beta,
        np.array([0.6, 1.0, 0.6, 0.4, 0, 0, 0, 0]) / math.sqrt(1.88),
        atol=1e-15,
    )
    # target mass = (0.36 + 1.0)/1.88
    assert prep.y == pytest.approx(math.sqrt(1.36 / 1.88), abs=1e-14)
    assert prep.r_count == 2
    assert prep.target_items.tolist() == [0, 1]
    _, r = reduced_basis(prep.beta, prep.target_items)
    assert np.flatnonzero(r).tolist() == [2, 3]


def test_lopsided_weights_shrink_overlap(lopsided_pair):
    prep = weighted_superposition(lopsided_pair)
    # raw: 0.2, 0.2, 0.8 -> nu**2 = 0.72; y = 0.2/sqrt(0.72) = 1/sqrt(18)
    assert prep.nu == pytest.approx(math.sqrt(0.72), abs=1e-15)
    assert prep.y == pytest.approx(1.0 / math.sqrt(18.0), abs=1e-15)
    assert prep.y == pytest.approx(0.23570226039551584, abs=1e-15)


def test_uniform_superposition_closed_form():
    s = build_scenario(16, {0, 1, 2, 3}, [({0, 1, 2, 3, 4}, 1.0)])
    prep = uniform_superposition(s)
    assert_allclose(prep.beta, np.full(16, 0.25), atol=1e-15)
    assert prep.y == pytest.approx(0.5, abs=1e-15)  # sqrt(4/16)
    assert prep.r_count == 12


def test_unit_norm_and_nonnegative(boosted_pair, lopsided_pair):
    for s in (boosted_pair, lopsided_pair):
        prep = weighted_superposition(s)
        assert np.linalg.norm(prep.beta) == pytest.approx(1.0, abs=1e-12)
        assert np.all(prep.beta >= 0)


def test_norms_are_exact_to_roundoff_at_a_million_items():
    # two overlapping ranges with five targets, y = 1.0e-3; np.linalg.norm's
    # dot drifted by 2e-13 here, and the full-space check reads that as a phase
    n = 10**6
    s = SearchScenario(
        n_items=n,
        targets=range(5),
        info_sets=(InformationSet(range(600_000), 0.3), InformationSet(range(400_000, n), 0.7)),
    )
    for prep in (weighted_superposition(s), uniform_superposition(s)):
        assert abs(math.fsum(prep.beta**2) - 1.0) <= 1e-15
        target_mass = math.fsum(prep.beta[prep.target_items] ** 2)
        assert target_mass == pytest.approx(prep.y**2, rel=1e-15)
    raw_sq = 400_000 * 0.3**2 + 200_000 * 1.0 + 400_000 * 0.7**2
    assert weighted_superposition(s).nu == pytest.approx(math.sqrt(raw_sq), rel=1e-15)


def test_amplitude_zero_outside_union(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    outside = sorted(set(range(8)) - set(boosted_pair.support))
    assert outside == [4, 5, 6, 7]
    assert np.all(prep.beta[outside] == 0.0)


def test_component_coefficients_are_unit_vectors(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    w, r = reduced_basis(prep.beta, prep.target_items)
    assert np.linalg.norm(prep.target_coeffs) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(w[prep.target_items], prep.target_coeffs, rtol=0, atol=1e-15)
    # beta reassembles from the split
    assert prep.beta[list(prep.target_items)] == pytest.approx(
        prep.y * prep.target_coeffs, abs=1e-15
    )
    resid = math.sqrt(1.0 - prep.y**2)
    assert prep.beta[[2, 3]] == pytest.approx(resid * r[[2, 3]], abs=1e-14)
    assert_allclose(prep.beta, prep.y * w + resid * r, rtol=0, atol=1e-14)


def test_target_mass_defines_y(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    mass = sum(prep.beta[t] ** 2 for t in boosted_pair.targets)
    assert prep.y == pytest.approx(math.sqrt(mass), abs=1e-15)


def test_full_overlap_gives_y_exactly_one():
    s = build_scenario(4, {1, 2}, [({1, 2}, 1.0)])
    prep = weighted_superposition(s)
    assert prep.y == 1.0
    assert prep.r_count == 0
    _, r = reduced_basis(prep.beta, prep.target_items)
    assert not r.any()


def test_disjoint_uniform_overlap_is_count_fraction():
    # 3 disjoint equally weighted sets, 3 targets, 3 extras: y**2 = 3/6
    s = build_scenario(
        8,
        {0, 1, 2},
        [({0, 3}, 1 / 3), ({1, 4}, 1 / 3), ({2, 5}, 1 / 3)],
    )
    prep = weighted_superposition(s)
    assert prep.y**2 == pytest.approx(0.5, abs=1e-14)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_overall_weight_scale_is_irrelevant(scale):
    plain = build_scenario(6, {0, 1}, [({0, 2}, 0.3), ({1, 2, 3}, 0.7)])
    scaled = build_scenario(6, {0, 1}, [({0, 2}, 0.3 * scale), ({1, 2, 3}, 0.7 * scale)])
    p1 = weighted_superposition(plain)
    p2 = weighted_superposition(scaled)
    assert p1.y == pytest.approx(p2.y, rel=1e-12)
    assert_allclose(p1.beta, p2.beta, atol=1e-12)


def test_small_weight_perturbation_moves_y_continuously():
    eps = 1e-9
    base = weighted_superposition(
        build_scenario(6, {0}, [({0, 1}, 0.5), ({0, 2, 3}, 0.5)])
    )
    bumped = weighted_superposition(
        build_scenario(6, {0}, [({0, 1}, 0.5 + eps), ({0, 2, 3}, 0.5 - eps)])
    )
    assert abs(base.y - bumped.y) < 1e-6


@given(st.permutations(list(range(7))))
def test_relabeling_items_permutes_beta(perm):
    sets = [({0, 1, 5}, 0.45), ({2, 5, 6}, 0.55)]
    targets = {0, 2}
    plain = weighted_superposition(build_scenario(7, targets, sets))
    mapped = weighted_superposition(
        build_scenario(7, {perm[t] for t in targets}, [({perm[i] for i in m}, w) for m, w in sets])
    )
    assert mapped.y == pytest.approx(plain.y, abs=1e-15)
    assert mapped.nu == pytest.approx(plain.nu, abs=1e-15)
    for i in range(7):
        assert mapped.beta[perm[i]] == pytest.approx(plain.beta[i], abs=1e-15)


def test_random_scenarios_keep_invariants():
    for s in random_scenario_suite(seed=5, count=25, mode=ScenarioMode.BASIC):
        prep = weighted_superposition(s)
        assert np.linalg.norm(prep.beta) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < prep.y <= 1.0
        assert prep.r_count == s.support_size - s.n_targets
        outside = sorted(set(range(s.n_items)) - set(s.support))
        assert np.all(prep.beta[outside] == 0.0)


def test_beta_is_read_only(boosted_pair):
    prep = weighted_superposition(boosted_pair)
    with pytest.raises(ValueError):
        prep.beta[0] = 1.0
