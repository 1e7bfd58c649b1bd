"""Array index sets against the frozenset implementations they replaced.

Each ``oracle_*`` function below is the earlier frozenset version of a
scenario helper, kept here as an independent route: it rebuilds Python sets
from ``.tolist()`` and never touches the masks or sorted-array tricks of the
production code.
"""

import dataclasses
import json

import numpy as np
import pytest

from ctqsearch import (
    MisplacedStructure,
    ScenarioError,
    SearchScenario,
    classify_confidence,
    disjointify,
    misplaced_structure,
    scenario_from_dict,
    scenario_to_dict,
    sets_pairwise_disjoint,
)
from oracles import ScenarioMode, random_scenario_suite


def members(info_set):
    return frozenset(info_set.members.tolist())


def oracle_support(scenario):
    out = set()
    for s in scenario.info_sets:
        out |= members(s)
    return frozenset(out)


def oracle_covers(targets, info_sets):
    union = set()
    for s in info_sets:
        union |= members(s)
    return set(targets) <= union


def scenario_covers(targets, info_sets, n_items):
    # the production coverage check is the one SearchScenario runs when built
    try:
        SearchScenario(n_items=n_items, targets=targets, info_sets=info_sets)
    except ScenarioError as exc:
        assert "coverage invariant violated" in str(exc)
        return False
    return True


def oracle_overlaps(scenario):
    targets = frozenset(scenario.targets.tolist())
    return tuple(len(members(s) & targets) for s in scenario.info_sets)


def oracle_pairwise_disjoint(info_sets):
    seen = set()
    for s in info_sets:
        if members(s) & seen:
            return False
        seen |= members(s)
    return True


def oracle_disjointify(info_sets):
    seen = set()
    kept = []
    for s in info_sets:
        fresh = members(s) - seen
        if fresh:
            kept.append(sorted(fresh))
            seen |= fresh
    return [(m, 1.0 / len(kept)) for m in kept]


def oracle_misplaced_structure(scenario):
    if scenario.n_sets != 2:
        return None
    a, b = scenario.info_sets
    targets = frozenset(scenario.targets.tolist())
    if targets <= members(a) and not (targets & members(b)):
        trusted, wrong = a, b
    elif targets <= members(b) and not (targets & members(a)):
        trusted, wrong = b, a
    else:
        return None
    overlap = len(members(trusted) & members(wrong))
    if len(members(trusted)) - overlap < len(targets):
        return None
    return MisplacedStructure(
        l=len(targets),
        n1=len(members(trusted)),
        n2=len(members(wrong)),
        n12=overlap,
        alpha2=wrong.weight,
    )


SUITES = {
    mode: random_scenario_suite(606, 40, mode)
    for mode in (ScenarioMode.BASIC, ScenarioMode.DISJOINT, ScenarioMode.MISPLACED)
}
SCENARIOS = [s for suite in SUITES.values() for s in suite]


def test_suites_stay_small_and_varied():
    assert max(s.n_items for s in SCENARIOS) <= 256
    assert any(not oracle_pairwise_disjoint(s.info_sets) for s in SCENARIOS)
    assert any(oracle_misplaced_structure(s) for s in SCENARIOS)


@pytest.mark.parametrize("index", range(len(SCENARIOS)))
def test_array_helpers_agree_with_frozenset_oracles(index):
    s = SCENARIOS[index]
    for field in [s.targets, s.support, *(m.members for m in s.info_sets)]:
        assert field.dtype == np.int64 and not field.flags.writeable
        assert field.tolist() == sorted(set(field.tolist()))
    assert frozenset(s.support.tolist()) == oracle_support(s)
    assert s.support_size == len(oracle_support(s))
    assert classify_confidence(s).target_overlaps == oracle_overlaps(s)
    assert sets_pairwise_disjoint(s.info_sets) == oracle_pairwise_disjoint(s.info_sets)
    out = disjointify(s.info_sets)
    assert [(m.members.tolist(), m.weight) for m in out] == oracle_disjointify(s.info_sets)

    expected = oracle_misplaced_structure(s)
    if expected is None:
        with pytest.raises(ScenarioError):
            misplaced_structure(s)
    else:
        assert misplaced_structure(s) == expected

    rng = np.random.default_rng(index)
    for size in (1, 2, 5):
        probe = rng.choice(s.n_items, size=min(size, s.n_items), replace=False).tolist()
        assert scenario_covers(probe, s.info_sets, s.n_items) == oracle_covers(probe, s.info_sets)
    assert scenario_covers(s.targets, s.info_sets, s.n_items)


@pytest.mark.parametrize("index", range(0, len(SCENARIOS), 7))
def test_json_round_trip_keeps_every_field(index):
    s = SCENARIOS[index]
    s = dataclasses.replace(s, labels=((0, "first"), (s.n_items - 1, "last")))
    clone = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))
    assert clone.n_items == s.n_items
    assert clone.targets.tolist() == s.targets.tolist()
    assert [m.members.tolist() for m in clone.info_sets] == [
        m.members.tolist() for m in s.info_sets
    ]
    assert clone.weights == s.weights
    assert clone.energy == s.energy
    assert clone.labels == s.labels
    assert clone.support.tolist() == s.support.tolist()
