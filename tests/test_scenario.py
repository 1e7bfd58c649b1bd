import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_scenario
from ctqsearch import (
    InformationSet,
    ScenarioError,
    SearchScenario,
    load_scenario,
    scenario_from_dict,
)
import ctqsearch.scenario as scenario_module
from ctqsearch.cli import _scenario_summary
from ctqsearch.scenario import scenario_to_dict


def test_empty_target_set_rejected():
    with pytest.raises(ScenarioError):
        build_scenario(4, set(), [({0}, 1.0)])


def test_target_out_of_range_rejected():
    with pytest.raises(ScenarioError):
        build_scenario(4, {4}, [({0, 4}, 1.0)])


def test_member_out_of_range_rejected():
    with pytest.raises(ScenarioError):
        build_scenario(4, {0}, [({0, 7}, 1.0)])


def test_information_set_given_as_a_dict_rejected():
    with pytest.raises(ScenarioError, match="info_sets must contain InformationSet instances"):
        SearchScenario(n_items=4, targets=[0], info_sets=({"members": [0], "weight": 1.0},))


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


def weights(scenario):
    return [s.weight for s in scenario.info_sets]


def test_weights_autonormalized():
    s = build_scenario(4, {0}, [({0}, 2.0), ({1}, 3.0)])
    assert weights(s) == pytest.approx((0.4, 0.6), abs=1e-15)
    assert math.fsum(weights(s)) == pytest.approx(1.0, abs=1e-12)


def test_normalized_weights_not_flagged(boosted_pair):
    assert weights(boosted_pair) == [0.6, 0.4]  # kept bit for bit, not rescaled


def test_all_weight_vectors_stored_normalized():
    for raw in [(1.0, 1.0, 1.0), (0.1, 0.9), (5.0,), (1e-6, 2e-6)]:
        sets = [({i}, w) for i, w in enumerate(raw)]
        s = build_scenario(len(raw), {0}, sets)
        assert abs(math.fsum(weights(s)) - 1.0) <= 1e-12


def test_rescale_validates_each_array_once(monkeypatch):
    calls = []
    real = scenario_module._indices

    def counting(value, name):
        calls.append(name)
        return real(value, name)

    monkeypatch.setattr(scenario_module, "_indices", counting)
    given_sets = [InformationSet([0, 1], 0.5), InformationSet([2], 1.0), InformationSet([1, 3], 0.5)]
    s = SearchScenario(n_items=4, targets=[0, 2], info_sets=given_sets)
    assert len(calls) == 4  # three member arrays and the targets; 7 if the rescale re-validated
    assert weights(s) == [0.25, 0.5, 0.25]
    for stored, given_set in zip(s.info_sets, given_sets):
        assert stored.members is given_set.members
        assert stored is not given_set
    assert [g.weight for g in given_sets] == [0.5, 1.0, 0.5]  # the caller's sets are unchanged


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_weight_scaling_leaves_stored_weights_unchanged(scale):
    base = build_scenario(4, {0}, [({0, 1}, 0.6), ({0, 2}, 0.4)])
    scaled = build_scenario(4, {0}, [({0, 1}, 0.6 * scale), ({0, 2}, 0.4 * scale)])
    for a, b in zip(weights(base), weights(scaled)):
        assert a == pytest.approx(b, rel=1e-12)


def test_classify_basic_with_overlap_counts():
    s = build_scenario(4, {0, 1}, [({0, 2}, 0.5), ({1}, 0.5)])
    assert s.target_overlaps == (1, 1)
    assert all(s.target_overlaps)


def test_classify_not_basic(lopsided_pair):
    assert lopsided_pair.target_overlaps == (1, 0)
    assert not all(lopsided_pair.target_overlaps)


def test_classify_single_covering_set():
    s = build_scenario(6, {1, 2}, [({0, 1, 2, 3}, 1.0)])
    assert all(s.target_overlaps)


def test_duplicate_members_collapse():
    s = InformationSet(frozenset([1, 1, 2]), 1.0)
    assert s.size == 2


def test_support_and_residual_count(boosted_pair):
    assert boosted_pair.support.tolist() == [0, 1, 2, 3]
    assert boosted_pair.support_size == 4
    assert boosted_pair.support_size - boosted_pair.n_targets == 2


def test_pairwise_disjoint_detection():
    disjoint = build_scenario(6, {0, 1}, [({0, 2}, 0.5), ({1, 3}, 0.5)])
    overlapping = build_scenario(6, {0, 1}, [({0, 2}, 0.5), ({1, 2}, 0.5)])
    assert disjoint.pairwise_disjoint
    assert not overlapping.pairwise_disjoint


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
    assert weights(clone) == pytest.approx(weights(boosted_pair), abs=1e-15)


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
    assert all(mapped.target_overlaps) == all(plain.target_overlaps)
    assert mapped.support_size == plain.support_size


def every_array_read_as_int64():
    # short arrays go to the C decoder; these tests read every array through the int64 path
    return mock.patch.object(scenario_module, "SHORT_ARRAY_CHARS", 0)


def decodes_like_json(text):
    """The scenario decoder's value for ``text``, after checking it against json.loads.

    An int64 array compares by ``tolist()``; where json.loads refuses the
    text, the decoder itself (without its json.loads retry) must raise
    ``json.JSONDecodeError`` too.
    """
    try:
        expected = json.loads(text)
    except json.JSONDecodeError:
        with every_array_read_as_int64(), pytest.raises(json.JSONDecodeError):
            scenario_module._DECODER.decode(text)
        with every_array_read_as_int64(), pytest.raises(json.JSONDecodeError):
            scenario_module._decode(text)
        return None
    with every_array_read_as_int64():
        got = scenario_module._DECODER.decode(text)
        assert_same_value(scenario_module._decode(text), expected)
    assert_same_value(got, expected)
    return got


def assert_same_value(got, expected):
    if isinstance(got, np.ndarray):
        assert got.dtype == np.int64 and got.ndim == 1
        got = got.tolist()
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789,- \t\n\r", max_size=24))
def test_decoder_matches_json_on_any_digit_comma_text(body):
    got = decodes_like_json("[" + body + "]")
    if got is not None and not isinstance(got, np.ndarray):
        # declined: an empty array, or an item json reads that is not a digit string below 10**18
        assert got == [] or "-" in body or max(got) >= 10**18


EDGE_VALUES = [0, 9, 10, 10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 2**64, 10**25]
json_space = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def spaced_integer_arrays(draw):
    values = draw(st.lists(st.integers(0, 10**6) | st.sampled_from(EDGE_VALUES), max_size=12))
    if draw(st.booleans()):
        return json.dumps(values, indent=draw(st.integers(0, 4)),
                          separators=draw(st.sampled_from([(",", ": "), (", ", ": ")])))
    items = [draw(json_space) + draw(st.sampled_from(["", "", "", "0"])) + str(v) + draw(json_space)
             for v in values]
    return draw(json_space) + "[" + ",".join(items) + draw(json_space) + "]" + draw(json_space)


@settings(max_examples=400, deadline=None)
@given(spaced_integer_arrays())
def test_decoder_matches_json_on_spaced_integer_arrays(text):
    got = decodes_like_json(text)
    if got is not None and len(got) and max(got) < 10**18:
        assert isinstance(got, np.ndarray)  # every such array takes the int64 path


@pytest.mark.parametrize("text, int64", [
    ("[999999999999999999]", True),  # 10**18 - 1
    ("[1000000000000000000]", False),  # 10**18
    ("[9223372036854775807, 1]", False),  # 2**63 - 1
    ("[9223372036854775808]", False),  # 2**63
    ("[18446744073709551616]", False),
    ("[0]", True),
    ("[0, 10, 7]", True),
    ("[-0]", False),
    ("[-1, 2]", False),
    ("[]", False),
    ("[ \n]", False),
    ("[1.0, 2]", False),
    ("[1e2]", False),
    ("[true, 1]", False),
    ("[01]", None),
    ("[00]", None),
    ("[1, 02]", None),
    ("[1,]", None),
    ("[,1]", None),
    ("[1,,2]", None),
    ("[1 2]", None),
    ("[1, 2 3]", None),
    ("[1, 2", None),
    ("[1\x0b]", None),
])
def test_decoder_edge_arrays(text, int64):
    got = decodes_like_json(text)
    if int64 is None:
        assert got is None  # refused by json.loads and the decoder alike
    else:
        assert isinstance(got, np.ndarray) is int64


def test_short_arrays_are_left_to_the_c_decoder():
    limit = scenario_module.SHORT_ARRAY_CHARS
    short, long = " " * (limit - 2) + "7", " " * (limit - 1) + "7"
    pad = "x" * (3 * limit)  # the document's arrays are long on average
    got = scenario_module._decode(f'{{"short": [{short}], "long": [{long}], "pad": "{pad}"}}')
    assert got["short"] == [7] and type(got["short"]) is list
    assert isinstance(got["long"], np.ndarray) and got["long"].tolist() == [7]


def test_a_document_of_short_arrays_is_left_to_json():
    # one long array among many short ones: the pure-Python scan would cost more than it saves
    long = " " * scenario_module.SHORT_ARRAY_CHARS + "7"
    text = '{"sets": [' + ", ".join(f'{{"members": [{i}]}}' for i in range(20)) + f'], "long": [{long}]}}'
    got = scenario_module._decode(text)
    assert got == json.loads(text) and type(got["long"]) is list
    with every_array_read_as_int64():
        assert isinstance(scenario_module._decode(text)["long"], np.ndarray)


def test_arrays_beside_objects_decode_as_lists():
    # an array of objects is scanned item by item; an integer array among
    # its items stays the list json.loads makes
    text = '[{"members": [1, 2]}, [3, 4]]'
    with every_array_read_as_int64():
        got = scenario_module._decode(text)
    assert isinstance(got[0]["members"], np.ndarray) and got[1] == [3, 4]


def test_non_ascii_and_deep_documents_decode_as_json_does():
    # the pure-Python scanner reads any Unicode digit; the text goes to json.loads whole
    with pytest.raises(json.JSONDecodeError):
        json.loads('{"n_items": 1\u0661}')
    with every_array_read_as_int64(), pytest.raises(json.JSONDecodeError):
        scenario_module._decode('{"n_items": 1\u0661}')
    deep = '{"a": ' * 600 + "[1]" + "}" * 600  # past the pure-Python scanner's depth
    with every_array_read_as_int64():
        assert scenario_module._decode(deep) == json.loads(deep)


def seeded_scenario_document(n_items, seed):
    rng = np.random.default_rng(seed)
    sets = [np.sort(rng.choice(n_items, 5_000, replace=False)) for _ in range(6)]
    targets = np.unique(rng.choice(np.concatenate(sets), 400))
    return {"n_items": n_items, "targets": targets.tolist(),
            "info_sets": [{"members": m.tolist(), "weight": float(w)}
                          for m, w in zip(sets, rng.uniform(0.1, 1.0, len(sets)))],
            "energy": 1.5}


@pytest.mark.parametrize("form", [{"separators": (",", ":")}, {"indent": 2}],
                         ids=["compact", "indent_2"])
def test_large_scenario_loads_as_from_its_json(tmp_path, form):
    text = json.dumps(seeded_scenario_document(10**5, 2901), **form)
    path = tmp_path / "large.json"
    path.write_text(text)
    decoded = scenario_module._decode(text)
    assert isinstance(decoded["targets"], np.ndarray)
    assert all(isinstance(e["members"], np.ndarray) for e in decoded["info_sets"])
    loaded, expected = load_scenario(path), scenario_from_dict(json.loads(text))
    assert np.array_equal(loaded.targets, expected.targets)
    assert [s.members.tolist() for s in loaded.info_sets] == [
        s.members.tolist() for s in expected.info_sets]
    assert weights(loaded) == weights(expected)
    assert (loaded.n_items, loaded.energy) == (expected.n_items, expected.energy)
    assert _scenario_summary(loaded) == _scenario_summary(expected)


def outcome(build):
    try:
        return "loaded", _scenario_summary(build())
    except Exception as exc:  # noqa: BLE001 - the refusal is compared, whatever it is
        return type(exc), str(exc)


field_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
) | st.lists(st.integers(0, 70), max_size=6)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(["n_items", "targets", "info_sets", "energy", "members", "weight"]),
       value=field_values)
def test_load_scenario_refuses_as_from_its_json(tmp_path_factory, field, value):
    doc = {"n_items": 72, "targets": [0, 70],
           "info_sets": [{"members": [0, 1, 70], "weight": 0.5}, {"members": [2], "weight": 0.5}]}
    if field in ("members", "weight"):
        doc["info_sets"][0][field] = value
    else:
        doc[field] = value
    path = tmp_path_factory.mktemp("fuzz") / "s.json"
    path.write_text(json.dumps(doc))
    with every_array_read_as_int64():
        got = outcome(lambda: load_scenario(path))
    assert got == outcome(lambda: scenario_from_dict(json.loads(path.read_text())))
