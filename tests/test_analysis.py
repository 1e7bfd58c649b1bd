import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, build_scenario
from ctqsearch import (
    MisplacedStructure,
    ScenarioError,
    analysis,
    basic_confidence_bound,
    check_scenario_bounds,
    compare_structured_unstructured,
    load_scenario,
    misplaced_confidence_curve,
    misplaced_structure,
    optimal_time,
    weighted_superposition,
)
from ctqsearch.analysis import OVERLAP_BOUND_TOL
from ctqsearch.scenario import scenario_to_dict
from oracles import (
    ScenarioMode,
    misplaced_scenario,
    nu_squared_lower,
    random_scenario_suite,
    weight_power_sum,
)


def manual_misplaced(l, n1, n2, n12, alpha2, energy=1.0):
    # plain-arithmetic reference for the two-set closed form
    a1 = 1.0 - alpha2
    nu = math.sqrt((n1 - n12) * a1**2 + n12 + (n2 - n12) * alpha2**2)
    y = math.sqrt(l) * a1 / nu
    return nu, y, math.pi / (2.0 * energy * y)


def test_basic_bound_formula():
    y_lo, t_hi = basic_confidence_bound(3, 12, 1.0)
    assert y_lo == pytest.approx(1 / 6, abs=1e-15)
    assert t_hi == pytest.approx(3 * math.pi, abs=1e-12)
    # doubling the energy halves the time cap
    assert basic_confidence_bound(3, 12, 2.0)[1] == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_disjoint_bound_formula():
    # pairwise-disjoint sets satisfy the basic bound of a single set
    y_lo, t_hi = basic_confidence_bound(1, 16, 1.0)
    assert y_lo == pytest.approx(0.25, abs=1e-15)
    assert t_hi == pytest.approx(2 * math.pi, abs=1e-12)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        basic_confidence_bound(0, 5, 1.0)
    with pytest.raises(ValueError):
        basic_confidence_bound(2, 0, 1.0)
    with pytest.raises(ValueError):
        basic_confidence_bound(1, 0, 1.0)


def test_guaranteed_bounds_hold_on_random_basic_suite():
    for s in random_scenario_suite(101, 40, ScenarioMode.BASIC, n_items_range=(8, 64)):
        prep = weighted_superposition(s)
        # direct-route check of the overlap guarantee
        assert prep.y >= 1 / math.sqrt(s.n_sets * s.support_size) - 1e-12
        for rep in check_scenario_bounds(s):
            assert rep.satisfied, rep


def test_guaranteed_bounds_hold_on_random_disjoint_suite():
    for s in random_scenario_suite(102, 30, ScenarioMode.DISJOINT, n_items_range=(8, 64)):
        prep = weighted_superposition(s)
        assert prep.y >= 1 / math.sqrt(s.support_size) - 1e-12
        reports = check_scenario_bounds(s)
        kinds = {r.bound_kind for r in reports}
        assert "disjoint" in kinds
        for rep in reports:
            assert rep.satisfied, rep
        # one report per bound, its values the closed forms
        assert len(reports) == len(kinds) == 2
        values = {r.bound_kind: (r.y_bound, r.time_bound) for r in reports}
        y_lo = 1.0 / math.sqrt(s.support_size)
        assert values["disjoint"] == (y_lo, optimal_time(y_lo, s.energy))
        assert values["basic_confidence"][0] == 1.0 / math.sqrt(s.n_sets * s.support_size)


SHIPPED_BOUNDS = {
    # file: (target_overlaps, pairwise_disjoint, [(bound_kind, 1 / y_bound**2, margin)])
    "library_demo.json": ((3, 3, 1), False, [("basic_confidence", 39, 0.59223)]),
    "disjoint_counting.json": (
        (1, 1, 1),
        True,
        [("basic_confidence", 18, 0.47140), ("disjoint", 6, 0.29886)],
    ),
    "misplaced_pair.json": ((1, 0), True, []),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_BOUNDS))
def test_shipped_scenario_bounds(name):
    overlaps, disjoint, expected = SHIPPED_BOUNDS[name]
    s = load_scenario(SCENARIO_DIR / name)
    assert s.target_overlaps == overlaps
    assert s.pairwise_disjoint is disjoint
    reports = check_scenario_bounds(s)
    assert [r.bound_kind for r in reports] == [kind for kind, _, _ in expected]
    for rep, (_, inverse_square, margin) in zip(reports, expected):
        assert rep.y_bound == 1.0 / math.sqrt(inverse_square)
        assert rep.margin == pytest.approx(margin, abs=5e-6)
        assert rep.satisfied


def test_misplaced_scenario_has_no_bound():
    # one set holds no target, so no bound of the paper applies; that the
    # structured prep loses to uniform is compare's finding, not a bound
    s = misplaced_scenario(1, 2, 1, 0, 0.95, n_items=16)
    assert check_scenario_bounds(s) == []


@pytest.mark.parametrize("mode", list(ScenarioMode))
def test_bounds_apply_when_every_set_holds_a_target(mode, monkeypatch):
    # the bounds read the weighted state alone; the uniform one is compare's
    def refuse(scenario):
        raise AssertionError("check_scenario_bounds built the uniform state")

    monkeypatch.setattr(analysis, "uniform_superposition", refuse)
    for s in random_scenario_suite(107, 25, mode, n_items_range=(8, 64)):
        reports = check_scenario_bounds(s)
        assert (reports == []) == (mode is ScenarioMode.MISPLACED), s


def test_report_fields_consistent():
    for s in random_scenario_suite(103, 10, ScenarioMode.BASIC, n_items_range=(8, 32)):
        prep = weighted_superposition(s)
        for rep in check_scenario_bounds(s):
            assert rep.margin == prep.y - rep.y_bound
            assert rep.satisfied == (rep.margin >= -OVERLAP_BOUND_TOL)


@pytest.mark.parametrize("mode", list(ScenarioMode))
def test_time_bound_is_the_time_at_the_overlap_bound(mode):
    # each report claims y >= y_bound; the time cap is that claim restated,
    # so outside the tolerance band the verdict is the time comparison
    for s in random_scenario_suite(106, 25, mode, n_items_range=(8, 64)):
        t = optimal_time(weighted_superposition(s).y, s.energy)
        for rep in check_scenario_bounds(s):
            assert rep.time_bound == optimal_time(rep.y_bound, s.energy)
            if abs(rep.margin) > OVERLAP_BOUND_TOL:
                assert rep.satisfied == (t <= rep.time_bound), rep


def test_nu_squared_sandwich():
    for s in random_scenario_suite(104, 40, ScenarioMode.BASIC, n_items_range=(8, 96)):
        prep = weighted_superposition(s)
        nu_sq = prep.nu**2
        assert nu_squared_lower(s) <= nu_sq + 1e-9
        assert nu_sq <= s.support_size + 1e-9
        assert weight_power_sum(s) >= 1 / s.n_sets - 1e-12


def test_nu_squared_equality_for_disjoint_sets():
    for s in random_scenario_suite(105, 25, ScenarioMode.DISJOINT, n_items_range=(8, 96)):
        prep = weighted_superposition(s)
        assert nu_squared_lower(s) == pytest.approx(prep.nu**2, rel=1e-12)
        assert prep.nu**2 <= s.support_size * weight_power_sum(s) + 1e-9


def test_misplaced_curve_frozen_points():
    (pt,) = misplaced_confidence_curve(1, 2, 1, 0, [0.5])
    assert pt.nu == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert pt.y == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-15)
    assert pt.time == pytest.approx(math.pi * math.sqrt(0.75), abs=1e-12)
    (pt,) = misplaced_confidence_curve(1, 2, 1, 0, [0.95])
    assert pt.nu**2 == pytest.approx(0.9075, abs=1e-15)


@given(
    alpha2=st.floats(min_value=0.01, max_value=0.99),
    l=st.integers(min_value=1, max_value=3),
    extra1=st.integers(min_value=0, max_value=5),
    n2=st.integers(min_value=1, max_value=6),
    n12=st.integers(min_value=0, max_value=4),
)
def test_misplaced_curve_matches_manual_formula(alpha2, l, extra1, n2, n12):
    n12 = min(n12, n2)
    n1 = l + n12 + extra1
    (pt,) = misplaced_confidence_curve(l, n1, n2, n12, [alpha2], energy=1.3)
    nu, y, t = manual_misplaced(l, n1, n2, n12, alpha2, energy=1.3)
    assert pt.nu == pytest.approx(nu, rel=1e-14)
    assert pt.y == pytest.approx(y, rel=1e-14)
    assert pt.time == pytest.approx(t, rel=1e-14)


def test_misplaced_divergence_ratio():
    lo, hi = misplaced_confidence_curve(1, 2, 1, 0, [0.5, 0.999])
    ratio = hi.time / lo.time
    assert ratio > 100
    assert ratio == pytest.approx(lo.y / hi.y, rel=1e-12)
    assert ratio == pytest.approx(576.77, abs=0.01)


def test_misplaced_curve_monotone_in_alpha2():
    grid = [0.8 + 0.199 * i / 39 for i in range(40)]
    points = misplaced_confidence_curve(1, 2, 1, 0, grid)
    times = [p.time for p in points]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_misplaced_curve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        misplaced_confidence_curve(0, 2, 1, 0, [0.5])
    with pytest.raises(ValueError):
        misplaced_confidence_curve(1, 2, 0, 0, [0.5])
    with pytest.raises(ValueError):
        misplaced_confidence_curve(1, 2, 1, 2, [0.5])  # n12 > min(n1, n2)
    with pytest.raises(ValueError):
        misplaced_confidence_curve(2, 2, 1, 1, [0.5])  # targets don't fit outside overlap
    with pytest.raises(ValueError):
        misplaced_confidence_curve(1, 2, 1, 0, [1.0])


def test_misplaced_scenario_layout():
    s = misplaced_scenario(2, 5, 3, 1, 0.7)
    assert s.n_items == 7
    assert s.targets.tolist() == [0, 1]
    first, second = s.info_sets
    assert first.members.tolist() == list(range(5))
    assert second.members.tolist() == [4, 5, 6]
    assert first.weight == pytest.approx(0.3, abs=1e-15)
    assert second.weight == pytest.approx(0.7, abs=1e-15)
    assert not all(s.target_overlaps)


def test_misplaced_scenario_agrees_with_curve():
    # the concrete scenario and the closed-form curve are independent routes
    for alpha2 in (0.3, 0.5, 0.9):
        s = misplaced_scenario(1, 2, 1, 0, alpha2, n_items=9)
        prep = weighted_superposition(s)
        (pt,) = misplaced_confidence_curve(1, 2, 1, 0, [alpha2])
        assert prep.y == pytest.approx(pt.y, abs=1e-14)
        assert prep.nu == pytest.approx(pt.nu, abs=1e-14)


def test_misplaced_scenario_size_validation():
    with pytest.raises(ValueError):
        misplaced_scenario(1, 2, 1, 0, 0.5, n_items=2)  # needs 3 covered items


def test_misplaced_structure_roundtrip():
    s = misplaced_scenario(2, 5, 3, 1, 0.7, n_items=12)
    assert misplaced_structure(s) == MisplacedStructure(l=2, n1=5, n2=3, n12=1, alpha2=0.7)


def test_misplaced_structure_detects_swapped_order():
    s = build_scenario(4, {0}, [({2, 3}, 0.8), ({0, 1}, 0.2)])
    st_ = misplaced_structure(s)
    assert (st_.l, st_.n1, st_.n2, st_.n12) == (1, 2, 2, 0)
    assert st_.alpha2 == pytest.approx(0.8, abs=1e-15)


def test_misplaced_structure_rejections():
    three = build_scenario(6, {0}, [({0, 1}, 0.5), ({2}, 0.3), ({3}, 0.2)])
    with pytest.raises(ScenarioError):
        misplaced_structure(three)
    both = build_scenario(6, {0, 1}, [({0, 2}, 0.5), ({1, 3}, 0.5)])
    with pytest.raises(ScenarioError):
        misplaced_structure(both)


def test_compare_structured_unstructured_values(boosted_pair):
    rep = compare_structured_unstructured(boosted_pair)
    assert rep.y_uniform == pytest.approx(0.5, abs=1e-15)
    assert rep.y_structured == pytest.approx(0.8505317485662419, abs=1e-14)
    assert rep.time_structured / rep.time_uniform == pytest.approx(
        rep.y_uniform / rep.y_structured, rel=1e-12)
    assert rep.speedup == pytest.approx(1.7010634971324838, rel=1e-12)
    assert rep.speedup == pytest.approx(rep.time_uniform / rep.time_structured, rel=1e-15)
    assert rep.confidence == "basic"
    assert rep.support_exponent == pytest.approx(math.log(4) / math.log(8), abs=1e-15)


def test_compare_flags_harmful_structure():
    s = misplaced_scenario(1, 2, 1, 0, 0.9, n_items=16)
    rep = compare_structured_unstructured(s)
    assert rep.time_structured > rep.time_uniform
    assert rep.speedup < 1
    assert rep.confidence == "not_basic"


def test_suite_basic_mode_properties():
    suite = random_scenario_suite(7, 20, ScenarioMode.BASIC, n_items_range=(8, 64))
    assert len(suite) == 20
    for s in suite:
        assert all(s.target_overlaps)
        assert 8 <= s.n_items <= 64
        assert 0.5 <= s.energy <= 2.0


def test_suite_disjoint_mode_properties():
    suite = random_scenario_suite(
        8,
        20,
        ScenarioMode.DISJOINT,
        n_items_range=(16, 64),
        uniform_weights=True,
        support_cap=20,
    )
    for s in suite:
        assert s.pairwise_disjoint
        assert all(s.target_overlaps)
        assert s.support_size <= 20
        w = [i.weight for i in s.info_sets]
        assert max(w) - min(w) <= 1e-12


def test_suite_misplaced_mode_properties():
    suite = random_scenario_suite(9, 20, ScenarioMode.MISPLACED)
    for s in suite:
        assert not all(s.target_overlaps)
        st_ = misplaced_structure(s)  # shape must be recoverable
        assert 0.5 <= st_.alpha2 <= 0.98


def test_suite_determinism_and_mode_separation():
    def fields(suite):  # scenarios compare by identity; compare every field instead
        return [scenario_to_dict(s) for s in suite]

    a = random_scenario_suite(42, 6, ScenarioMode.BASIC)
    b = random_scenario_suite(42, 6, ScenarioMode.BASIC)
    assert fields(a) == fields(b)
    c = random_scenario_suite(42, 6, ScenarioMode.DISJOINT)
    assert fields(a) != fields(c)  # modes draw from independent streams


def test_suite_count_validation():
    assert random_scenario_suite(1, 0) == []
    with pytest.raises(ValueError):
        random_scenario_suite(1, -1)


def test_suite_custom_energy_range():
    for s in random_scenario_suite(3, 5, ScenarioMode.BASIC, energy_range=(1.3, 1.3)):
        assert s.energy == pytest.approx(1.3, abs=1e-15)


def scalar_curve(l, n1, n2, n12, alpha2_values, energy):
    # the per-point loop the vectorised curve replaced, kept as its oracle
    points = []
    for alpha2 in map(float, alpha2_values):
        alpha1 = 1.0 - alpha2
        nu = math.sqrt((n1 - n12) * alpha1 * alpha1 + n12 + (n2 - n12) * alpha2 * alpha2)
        y = math.sqrt(l) * alpha1 / nu
        points.append((alpha2, nu, y, optimal_time(y, energy)))
    return points


@pytest.mark.parametrize("seed", range(25))
def test_misplaced_curve_bit_identical_to_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    scale = 10 ** int(rng.integers(1, 7))
    n2 = int(rng.integers(1, scale + 1))
    n12 = int(rng.integers(0, n2 + 1))
    l = int(rng.integers(1, scale + 1))
    n1 = n12 + l + int(rng.integers(0, scale + 1))
    energy = float(np.exp(rng.uniform(-5.0, 5.0)))
    edges = [5e-324, 1e-300, 1e-9, 0.5, 1.0 - 1e-9, float(np.nextafter(1.0, 0.0))]
    grid = np.concatenate([edges, np.linspace(0.05, 0.999, 494), rng.uniform(1e-12, 1.0, 500)])
    curve = misplaced_confidence_curve(l, n1, n2, n12, grid, energy=energy)
    assert curve.dtype.names == ("alpha2", "nu", "y", "time")
    assert curve.tolist() == scalar_curve(l, n1, n2, n12, grid, energy)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.0, math.nan, 1.5])
def test_misplaced_curve_rejects_grid_outside_open_interval(bad):
    grid = np.linspace(0.1, 0.9, 1000)
    grid[500] = bad
    with pytest.raises(ValueError, match=r"alpha2 must lie in \(0, 1\)"):
        misplaced_confidence_curve(1, 2, 1, 0, grid)


@pytest.mark.parametrize("energy", [1e-320, 5e-324, 1e308])
def test_misplaced_curve_refuses_a_time_out_of_range(energy):
    with pytest.raises(ValueError, match=re.escape(f"out of range for energy {energy!r} and y")):
        misplaced_confidence_curve(1, 2, 1, 0, [0.5, 0.9], energy=energy)
