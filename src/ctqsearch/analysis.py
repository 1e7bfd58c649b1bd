"""Efficiency analysis: overlap/time bounds, sweeps, and the baseline comparison.

The optimal measurement time scales as 1/y, so every statement about search
cost is a statement about the overlap ``y`` of the prepared state with the
target subspace.  This module collects the provable bounds on ``y`` for
structured preparations and the misplaced-confidence failure mode, where a
heavy weight on a target-free set drives ``y`` toward zero.  Apart from the
bounds, it compares the structured preparation with the unstructured
baseline, the uniform state over all items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import optimal_time
from .scenario import ScenarioError, SearchScenario
from .stateprep import uniform_superposition, weighted_superposition

OVERLAP_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One checked bound: the claim ``y >= y_bound``.

    ``time_bound`` is :func:`optimal_time` of ``y_bound``, the time cap the
    claim implies, since the optimal time falls as ``y`` grows.  ``margin`` is
    ``y - y_bound``, in units of overlap (negative when violated), where ``y``
    is ``weighted_superposition(scenario).y``.
    """

    y_bound: float
    time_bound: float
    bound_kind: str  # "basic_confidence" or "disjoint"
    satisfied: bool
    margin: float


def basic_confidence_bound(n_sets: int, support_size: int, energy: float) -> tuple[float, float]:
    """Guarantees when every set holds a target: y >= 1/sqrt(n*(l+R)) and the
    corresponding time cap pi*sqrt(n*(l+R))/(2E).  Pairwise-disjoint sets that
    each hold a target satisfy the bound of one set, y >= 1/sqrt(l+R)."""
    if n_sets < 1 or support_size < 1:
        raise ValueError("n_sets and support_size must be >= 1")
    y_lower = 1.0 / math.sqrt(n_sets * support_size)
    return y_lower, optimal_time(y_lower, energy)


def check_scenario_bounds(scenario: SearchScenario) -> list[BoundReport]:
    """Evaluate the paper's bounds on ``y`` that apply to a scenario.

    Basic-confidence bounds apply when each set holds a target; the disjoint
    refinement additionally needs pairwise-disjoint sets.  Any other scenario
    has no bound, and the list is empty.
    """
    if not all(scenario.target_overlaps):
        return []
    y = weighted_superposition(scenario).y
    kinds = [("basic_confidence", scenario.n_sets)]
    if scenario.pairwise_disjoint:
        kinds.append(("disjoint", 1))
    reports = []
    for kind, n_sets in kinds:
        y_bound, time_bound = basic_confidence_bound(n_sets, scenario.support_size, scenario.energy)
        margin = y - y_bound
        reports.append(BoundReport(y_bound=y_bound, time_bound=time_bound, bound_kind=kind,
                                   satisfied=margin >= -OVERLAP_BOUND_TOL, margin=margin))
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


def _check_alpha2(alpha2: float) -> float:
    alpha2 = float(alpha2)
    if not 0.0 < alpha2 < 1.0:  # false for nan too
        raise ValueError(f"alpha2 must lie in (0, 1), got {alpha2}")
    return alpha2


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
    Returns a record array ``alpha2, nu, y, time``, ``time`` being
    :func:`optimal_time` of each ``y``.
    """
    _check_misplaced_params(l, n1, n2, n12)
    alpha2 = np.asarray(alpha2_values, dtype=float)
    outside = ~((alpha2 > 0.0) & (alpha2 < 1.0))
    if outside.any():
        _check_alpha2(alpha2[outside][0])
    alpha1 = 1.0 - alpha2
    nu = np.sqrt((n1 - n12) * alpha1 * alpha1 + n12 + (n2 - n12) * alpha2 * alpha2)
    y = math.sqrt(l) * alpha1 / nu
    return np.rec.fromarrays([alpha2, nu, y, optimal_time(y, energy)], names="alpha2,nu,y,time")


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
    in_a, in_b = scenario.target_overlaps
    if (in_a, in_b) == (l, 0):
        trusted, wrong = a, b
    elif (in_a, in_b) == (0, l):
        trusted, wrong = b, a
    else:
        raise ScenarioError(
            "misplaced analysis requires all targets in one set and none in the other"
        )
    # the support is the two sets' union; no target lies in the wrong set,
    # so none in the overlap: n1 - n12 >= l
    return MisplacedStructure(
        l=l,
        n1=trusted.size,
        n2=wrong.size,
        n12=trusted.size + wrong.size - scenario.support_size,
        alpha2=wrong.weight,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Structured vs. unstructured preparation on the same scenario."""

    y_structured: float
    y_uniform: float
    time_structured: float
    time_uniform: float
    speedup: float  # uniform / structured; > 1 means structure helps
    confidence: str  # "basic" when every set holds a target, else "not_basic"
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
        speedup=t_u / t_s,
        confidence="basic" if all(scenario.target_overlaps) else "not_basic",
        support_exponent=exponent,
    )
