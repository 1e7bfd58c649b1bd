"""Efficiency analysis: overlap/time bounds, sweeps, and baselines.

The optimal measurement time scales as 1/y, so every statement about search
cost is a statement about the overlap ``y`` of the prepared state with the
target subspace.  This module collects the provable bounds on ``y`` for
structured preparations, the misplaced-confidence failure mode where a heavy
weight on a target-free set drives ``y`` toward zero, a comparison against
the unstructured baseline, and seeded generators for random scenario suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import _check_energy, _check_overlap, optimal_time
from .rng import make_rng
from .scenario import (
    Confidence,
    InformationSet,
    ScenarioError,
    SearchScenario,
    classify_confidence,
    sets_pairwise_disjoint,
)
from .stateprep import StatePrep, uniform_superposition, weighted_superposition

TIME_BOUND_TOL = 1e-9
OVERLAP_BOUND_TOL = 1e-12


class BoundKind(Enum):
    BASIC_CONF = "basic_confidence"
    DISJOINT = "disjoint"
    UNSTRUCTURED_BASELINE = "unstructured_baseline"


@dataclass(frozen=True)
class BoundReport:
    """One checked bound; ``bound_on`` says which side it constrains.

    For ``bound_on == "overlap"`` the claim is ``y >= bound_value``; for
    ``bound_on == "time"`` it is ``time <= bound_value``.  ``margin`` is the
    slack in the claimed direction (negative when violated).  Baseline
    reports are informational: structured preparation may legitimately lose
    to the uniform one.
    """

    y: float
    time: float
    bound_value: float
    bound_kind: BoundKind
    bound_on: str
    satisfied: bool
    margin: float


def basic_confidence_bound(n_sets: int, support_size: int, energy: float) -> tuple[float, float]:
    """Guarantees when every set holds a target: y >= 1/sqrt(n*(l+R)) and the
    corresponding time cap pi*sqrt(n*(l+R))/(2E)."""
    if n_sets < 1 or support_size < 1:
        raise ValueError("n_sets and support_size must be >= 1")
    y_lower = 1.0 / math.sqrt(n_sets * support_size)
    return y_lower, optimal_time(y_lower, energy)


def disjoint_bound(support_size: int, energy: float) -> tuple[float, float]:
    """Tighter guarantee for pairwise-disjoint sets that each hold a target:
    y >= 1/sqrt(l+R), time <= pi*sqrt(l+R)/(2E)."""
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    y_lower = 1.0 / math.sqrt(support_size)
    return y_lower, optimal_time(y_lower, energy)


def weight_power_sum(scenario: SearchScenario) -> float:
    """Sum of squared weights; at least 1/n for any normalized weight vector."""
    return math.fsum(s.weight * s.weight for s in scenario.info_sets)


def nu_squared_lower(scenario: SearchScenario) -> float:
    """Lower bound sum_j |A_j| * alpha_j**2 <= nu**2 (equality iff disjoint)."""
    return math.fsum(s.size * s.weight * s.weight for s in scenario.info_sets)


def _report(y: float, t: float, kind: BoundKind, bound_on: str, bound_value: float) -> BoundReport:
    if bound_on == "overlap":
        margin = y - bound_value
        satisfied = margin >= -OVERLAP_BOUND_TOL
    elif bound_on == "time":
        margin = bound_value - t
        satisfied = margin >= -TIME_BOUND_TOL
    else:
        raise ValueError(f"bound_on must be 'overlap' or 'time', got {bound_on!r}")
    return BoundReport(y=y, time=t, bound_value=bound_value, bound_kind=kind,
                       bound_on=bound_on, satisfied=satisfied, margin=margin)


def check_scenario_bounds(
    scenario: SearchScenario, prep: StatePrep | None = None
) -> list[BoundReport]:
    """Evaluate every bound applicable to a scenario.

    Basic-confidence bounds apply when each set holds a target; the disjoint
    refinement additionally needs pairwise-disjoint sets.  The unstructured
    baseline comparison is always reported.
    """
    if prep is None:
        prep = weighted_superposition(scenario)
    y = prep.y
    t = optimal_time(y, scenario.energy)
    basic = classify_confidence(scenario).confidence is Confidence.BASIC

    reports: list[BoundReport] = []
    if basic:
        y_lo, t_hi = basic_confidence_bound(scenario.n_sets, scenario.support_size, scenario.energy)
        reports.append(_report(y, t, BoundKind.BASIC_CONF, "overlap", y_lo))
        reports.append(_report(y, t, BoundKind.BASIC_CONF, "time", t_hi))
        if sets_pairwise_disjoint(scenario.info_sets):
            y_lo, t_hi = disjoint_bound(scenario.support_size, scenario.energy)
            reports.append(_report(y, t, BoundKind.DISJOINT, "overlap", y_lo))
            reports.append(_report(y, t, BoundKind.DISJOINT, "time", t_hi))

    t_uniform = optimal_time(uniform_superposition(scenario).y, scenario.energy)
    reports.append(_report(y, t, BoundKind.UNSTRUCTURED_BASELINE, "time", t_uniform))
    return reports


def _check_misplaced_params(l: int, n1: int, n2: int, n12: int) -> None:
    if l < 1:
        raise ValueError(f"target count must be >= 1, got {l}")
    if n2 < 1:
        raise ValueError(f"second set size must be >= 1, got {n2}")
    if n12 < 0 or n12 > min(n1, n2):
        raise ValueError(f"overlap size {n12} incompatible with set sizes {n1}, {n2}")
    if n1 - n12 < l:
        raise ValueError(
            "targets must fit in the first set outside the overlap: "
            f"n1 - n12 = {n1 - n12} < l = {l}"
        )


def misplaced_confidence_curve(
    l: int,
    n1: int,
    n2: int,
    n12: int,
    alpha2_values,
    energy: float = 1.0,
) -> np.recarray:
    """Closed-form cost curve for two sets where only the first holds targets.

    The first set has ``n1`` items (``l`` of them targets, none in the
    overlap), the second has ``n2`` items and no targets, they share ``n12``
    items, and the second carries weight ``alpha2``.  As alpha2 -> 1 the
    prepared state loses its target component and the search time diverges.
    Returns a record array ``alpha2, nu, y, time``, bit-identical to the
    scalar formula followed by :func:`optimal_time`.
    """
    _check_misplaced_params(l, n1, n2, n12)
    alpha2 = np.asarray(alpha2_values, dtype=float)
    outside = ~((alpha2 > 0.0) & (alpha2 < 1.0))
    if outside.any():
        raise ValueError(f"alpha2 must lie in (0, 1), got {alpha2[outside][0]}")
    energy = _check_energy(energy)
    alpha1 = 1.0 - alpha2
    nu = np.sqrt((n1 - n12) * alpha1 * alpha1 + n12 + (n2 - n12) * alpha2 * alpha2)
    y = math.sqrt(l) * alpha1 / nu
    outside = ~((y > 0.0) & (y <= 1.0))
    if outside.any():
        _check_overlap(y[outside][0])  # raises with the scalar path's message
    time = math.pi / (2.0 * energy * y)
    return np.rec.fromarrays([alpha2, nu, y, time], names="alpha2,nu,y,time")


def misplaced_scenario(
    l: int,
    n1: int,
    n2: int,
    n12: int,
    alpha2: float,
    *,
    n_items: int | None = None,
    energy: float = 1.0,
) -> SearchScenario:
    """Concrete scenario realizing the misplaced-confidence model.

    Items 0..l-1 are the targets; the first set is 0..n1-1, the second covers
    the last n12 items of the first plus n2-n12 fresh items.
    """
    _check_misplaced_params(l, n1, n2, n12)
    if not 0.0 < alpha2 < 1.0:
        raise ValueError(f"alpha2 must lie in (0, 1), got {alpha2}")
    span = n1 + n2 - n12
    if n_items is None:
        n_items = span
    if n_items < span:
        raise ValueError(f"n_items={n_items} cannot hold {span} covered items")
    return SearchScenario(
        n_items=n_items,
        targets=range(l),
        info_sets=(
            InformationSet(range(n1), 1.0 - alpha2),
            InformationSet(range(n1 - n12, n1 - n12 + n2), alpha2),
        ),
        energy=energy,
    )


@dataclass(frozen=True)
class MisplacedStructure:
    """Two-set misplaced shape recovered from a scenario."""

    l: int
    n1: int
    n2: int
    n12: int
    alpha2: float


def misplaced_structure(scenario: SearchScenario) -> MisplacedStructure:
    """Recognize the two-set misplaced shape (targets all in one set, none in
    the other); raises ScenarioError when the scenario does not match."""
    if scenario.n_sets != 2:
        raise ScenarioError("misplaced analysis requires exactly two information sets")
    l = scenario.n_targets
    a, b = scenario.info_sets
    in_a, in_b = (np.intersect1d(s.members, scenario.targets, assume_unique=True).size for s in (a, b))
    if (in_a, in_b) == (l, 0):
        trusted, wrong = a, b
    elif (in_a, in_b) == (0, l):
        trusted, wrong = b, a
    else:
        raise ScenarioError(
            "misplaced analysis requires all targets in one set and none in the other"
        )
    overlap = np.intersect1d(trusted.members, wrong.members, assume_unique=True).size
    if trusted.size - overlap < l:
        raise ScenarioError("targets may not sit in the overlap of the two sets")
    return MisplacedStructure(
        l=l,
        n1=trusted.size,
        n2=wrong.size,
        n12=overlap,
        alpha2=wrong.weight,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Structured vs. unstructured preparation on the same scenario."""

    y_structured: float
    y_uniform: float
    time_structured: float
    time_uniform: float
    time_ratio: float  # structured / uniform; < 1 means structure helps
    speedup: float  # uniform / structured
    confidence: Confidence
    support_exponent: float | None  # log(support) / log(n_items); None when n_items == 1


def compare_structured_unstructured(scenario: SearchScenario) -> ComparisonReport:
    """Compare search cost with and without the information sets."""
    y_s = weighted_superposition(scenario).y
    y_u = uniform_superposition(scenario).y
    t_s = optimal_time(y_s, scenario.energy)
    t_u = optimal_time(y_u, scenario.energy)
    exponent = (
        math.log(scenario.support_size) / math.log(scenario.n_items)
        if scenario.n_items > 1
        else None
    )
    return ComparisonReport(
        y_structured=y_s,
        y_uniform=y_u,
        time_structured=t_s,
        time_uniform=t_u,
        time_ratio=t_s / t_u,
        speedup=t_u / t_s,
        confidence=classify_confidence(scenario).confidence,
        support_exponent=exponent,
    )


class ScenarioMode(Enum):
    """Families the random generator can produce."""

    BASIC = "basic"
    DISJOINT = "disjoint"
    MISPLACED = "misplaced"


def _normalized_weights(rng: np.random.Generator, n_sets: int, uniform: bool) -> np.ndarray:
    if uniform:
        return np.full(n_sets, 1.0 / n_sets)
    raw = rng.uniform(0.05, 1.0, n_sets)
    return raw / raw.sum()


def _random_basic(
    rng: np.random.Generator, n_items_range, n_sets_range, uniform_weights, energy_range
) -> SearchScenario:
    n_items = int(rng.integers(n_items_range[0], n_items_range[1] + 1))
    n_sets = int(rng.integers(n_sets_range[0], n_sets_range[1] + 1))
    l = int(rng.integers(1, max(1, n_items // 8) + 1))
    targets = rng.choice(n_items, size=l, replace=False)
    members: list[set[int]] = []
    for _ in range(n_sets):
        size = int(rng.integers(0, max(2, n_items // 4)))
        base = set(int(i) for i in rng.choice(n_items, size=size, replace=False))
        base.add(int(targets[int(rng.integers(l))]))  # every set meets the targets
        members.append(base)
    for t in targets:  # every target is covered
        members[int(rng.integers(n_sets))].add(int(t))
    weights = _normalized_weights(rng, n_sets, uniform_weights)
    return SearchScenario(
        n_items=n_items,
        targets=targets,
        info_sets=tuple(InformationSet(m, w) for m, w in zip(members, weights)),
        energy=float(rng.uniform(*energy_range)),
    )


def _random_disjoint(
    rng: np.random.Generator,
    n_items_range,
    n_sets_range,
    uniform_weights,
    energy_range,
    support_cap,
) -> SearchScenario:
    n_items = int(rng.integers(n_items_range[0], n_items_range[1] + 1))
    n_sets = int(rng.integers(n_sets_range[0], n_sets_range[1] + 1))
    n_sets = min(n_sets, n_items)
    l = n_sets + int(rng.integers(0, 4))  # at least one target per set
    if support_cap is not None:
        l = min(l, support_cap)
    l = min(l, n_items)
    n_sets = min(n_sets, l)
    r_cap = (support_cap - l) if support_cap is not None else 24
    r_cap = max(0, min(r_cap, n_items - l))
    r = int(rng.integers(0, r_cap + 1))

    pool = [int(i) for i in rng.choice(n_items, size=l + r, replace=False)]
    targets, rest = pool[:l], pool[l:]
    members: list[set[int]] = [set() for _ in range(n_sets)]
    for j in range(n_sets):
        members[j].add(targets[j])
    for item in targets[n_sets:] + rest:
        members[int(rng.integers(n_sets))].add(item)
    weights = _normalized_weights(rng, n_sets, uniform_weights)
    return SearchScenario(
        n_items=n_items,
        targets=targets,
        info_sets=tuple(InformationSet(m, w) for m, w in zip(members, weights)),
        energy=float(rng.uniform(*energy_range)),
    )


def _random_misplaced(rng: np.random.Generator, energy_range) -> SearchScenario:
    l = int(rng.integers(1, 4))
    n1 = l + int(rng.integers(0, 6))
    n2 = 1 + int(rng.integers(0, 7))
    n12 = int(rng.integers(0, min(n1 - l, n2) + 1))
    alpha2 = float(rng.uniform(0.5, 0.98))
    n_items = n1 + n2 - n12 + int(rng.integers(0, 17))
    return misplaced_scenario(
        l, n1, n2, n12, alpha2, n_items=n_items, energy=float(rng.uniform(*energy_range))
    )


def random_scenario_suite(
    seed: int,
    count: int,
    mode: ScenarioMode = ScenarioMode.BASIC,
    *,
    n_items_range: tuple[int, int] = (8, 256),
    n_sets_range: tuple[int, int] = (1, 6),
    uniform_weights: bool = False,
    support_cap: int | None = None,
    energy_range: tuple[float, float] = (0.5, 2.0),
) -> list[SearchScenario]:
    """Seeded stream of random scenarios of the requested family.

    BASIC scenarios have every set intersecting the targets; DISJOINT ones
    additionally keep the sets pairwise disjoint (``support_cap`` limits the
    covered-item count, which counting-mode callers use); MISPLACED ones
    realize the two-set misplaced-confidence shape.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = make_rng(seed, f"scenario-suite/{mode.value}")
    ranges = (rng, n_items_range, n_sets_range, uniform_weights, energy_range)
    if mode is ScenarioMode.BASIC:
        return [_random_basic(*ranges) for _ in range(count)]
    if mode is ScenarioMode.DISJOINT:
        return [_random_disjoint(*ranges, support_cap) for _ in range(count)]
    return [_random_misplaced(rng, energy_range) for _ in range(count)]
