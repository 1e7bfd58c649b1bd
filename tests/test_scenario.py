import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_scenario
from ctqsearch import (
    Confidence,
    InformationSet,
    ScenarioError,
    SearchScenario,
    classify_confidence,
    load_scenario,
    oracle_eval,
    scenario_from_dict,
    scenario_to_dict,
    sets_pairwise_disjoint,
)


def test_oracle_single_target():
    s = build_scenario(8, {3}, [({3, 4}, 1.0)])
    assert oracle_eval(s, 3) == 1
    assert [oracle_eval(s, i) for i in range(8)] == [0, 0, 0, 1, 0, 0, 0, 0]


def test_oracle_total_hits_equals_target_count(boosted_pair):
    assert sum(oracle_eval(boosted_pair, i) for i in range(8)) == 2


@pytest.mark.parametrize("item", [-1, 8, 100])
def test_oracle_index_out_of_range(boosted_pair, item):
    with pytest.raises(IndexError):
        oracle_eval(boosted_pair, item)


def test_empty_target_set_rejected():
    with pytest.raises(ScenarioError):
        build_scenario(4, set(), [({0}, 1.0)])


def test_target_out_of_range_rejected():
    with pytest.raises(ScenarioError):
        build_scenario(4, {4}, [({0, 4}, 1.0)])


def test_member_out_of_range_rejected():
    with pytest.raises(ScenarioError):
        build_scenario(4, {0}, [({0, 7}, 1.0)])


def test_empty_information_set_rejected():
    with pytest.raises(ScenarioError):
        InformationSet(frozenset(), 1.0)


@pytest.mark.parametrize("weight", [0.0, -0.5, float("nan"), float("inf")])
def test_bad_weight_rejected(weight):
    with pytest.raises(ScenarioError):
        InformationSet(frozenset({0}), weight)


def test_uncovered_target_rejected():
    # T = {0, 1} but the only set is {0, 2}
    with pytest.raises(ScenarioError, match="coverage invariant violated"):
        build_scenario(4, {0, 1}, [({0, 2}, 1.0)])


def test_coverage_through_union():
    # neither set alone covers T, their union does
    s = build_scenario(4, {0, 1}, [({0, 2}, 0.5), ({1, 3}, 0.5)])
    assert s.targets.tolist() == [0, 1]
    for members in ({0, 2}, {1, 3}):
        with pytest.raises(ScenarioError, match="coverage invariant violated"):
            build_scenario(4, {0, 1}, [(members, 1.0)])


def test_weights_autonormalized_with_flag():
    s = build_scenario(4, {0}, [({0}, 2.0), ({1}, 3.0)])
    assert s.weights_normalized
    assert s.weights == pytest.approx((0.4, 0.6), abs=1e-15)
    assert math.fsum(s.weights) == pytest.approx(1.0, abs=1e-12)


def test_normalized_weights_not_flagged(boosted_pair):
    assert not boosted_pair.weights_normalized
    assert boosted_pair.weights == (0.6, 0.4)


def test_all_weight_vectors_stored_normalized():
    for raw in [(1.0, 1.0, 1.0), (0.1, 0.9), (5.0,), (1e-6, 2e-6)]:
        sets = [({i}, w) for i, w in enumerate(raw)]
        s = build_scenario(len(raw), {0}, sets)
        assert abs(math.fsum(s.weights) - 1.0) <= 1e-12


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_weight_scaling_leaves_stored_weights_unchanged(scale):
    base = build_scenario(4, {0}, [({0, 1}, 0.6), ({0, 2}, 0.4)])
    scaled = build_scenario(4, {0}, [({0, 1}, 0.6 * scale), ({0, 2}, 0.4 * scale)])
    for a, b in zip(base.weights, scaled.weights):
        assert a == pytest.approx(b, rel=1e-12)


def test_classify_basic_with_overlap_counts():
    s = build_scenario(4, {0, 1}, [({0, 2}, 0.5), ({1}, 0.5)])
    report = classify_confidence(s)
    assert report.confidence is Confidence.BASIC
    assert report.target_overlaps == (1, 1)


def test_classify_not_basic(lopsided_pair):
    report = classify_confidence(lopsided_pair)
    assert report.confidence is Confidence.NOT_BASIC
    assert report.target_overlaps == (1, 0)


def test_classify_single_covering_set():
    s = build_scenario(6, {1, 2}, [({0, 1, 2, 3}, 1.0)])
    assert classify_confidence(s).confidence is Confidence.BASIC


def test_duplicate_members_collapse():
    s = InformationSet(frozenset([1, 1, 2]), 1.0)
    assert s.size == 2


def test_support_and_residual_count(boosted_pair):
    assert boosted_pair.support.tolist() == [0, 1, 2, 3]
    assert boosted_pair.support_size == 4
    assert boosted_pair.residual_count == 2


def test_pairwise_disjoint_detection():
    disjoint = build_scenario(6, {0, 1}, [({0, 2}, 0.5), ({1, 3}, 0.5)])
    overlapping = build_scenario(6, {0, 1}, [({0, 2}, 0.5), ({1, 2}, 0.5)])
    assert sets_pairwise_disjoint(disjoint.info_sets)
    assert not sets_pairwise_disjoint(overlapping.info_sets)


def test_energy_must_be_positive():
    for bad in (0.0, -1.0, float("inf")):
        with pytest.raises(ScenarioError):
            build_scenario(2, {0}, [({0}, 1.0)], energy=bad)


def test_dict_round_trip(boosted_pair):
    clone = scenario_from_dict(scenario_to_dict(boosted_pair))
    assert clone.n_items == boosted_pair.n_items
    assert clone.targets.tolist() == boosted_pair.targets.tolist()
    assert clone.energy == boosted_pair.energy
    assert [s.members.tolist() for s in clone.info_sets] == [
        s.members.tolist() for s in boosted_pair.info_sets
    ]
    assert clone.weights == pytest.approx(boosted_pair.weights, abs=1e-15)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            {
                "n_items": 5,
                "targets": [1],
                "info_sets": [{"members": [1, 2], "weight": 1.0}],
            }
        )
    )
    s = load_scenario(path)
    assert s.n_items == 5
    assert s.energy == 1.0  # default
    assert s.targets.tolist() == [1]


def test_load_scenario_with_labels(library_demo_path):
    s = load_scenario(library_demo_path)
    assert s.n_items == 20
    assert s.labels is not None
    assert dict(s.labels)[12] == "field-almanac"


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_missing_required_key_rejected():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"n_items": 4, "targets": [0]})


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError):
        scenario_from_dict(
            {
                "n_items": 4,
                "targets": [0],
                "info_sets": [{"members": [0], "weight": 1.0}],
                "bogus": 1,
            }
        )


def test_info_set_entry_shape_checked():
    with pytest.raises(ScenarioError):
        scenario_from_dict(
            {"n_items": 4, "targets": [0], "info_sets": [{"members": [0]}]}
        )


@given(st.permutations(list(range(6))))
def test_classification_invariant_under_relabeling(perm):
    base_sets = [({0, 1, 4}, 0.3), ({2, 4}, 0.7)]
    base_targets = {0, 2}
    mapped = build_scenario(
        6,
        {perm[t] for t in base_targets},
        [({perm[i] for i in m}, w) for m, w in base_sets],
    )
    plain = build_scenario(6, base_targets, base_sets)
    assert classify_confidence(mapped).confidence is classify_confidence(plain).confidence
    assert mapped.support_size == plain.support_size
