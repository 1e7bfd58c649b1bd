"""Efficiency analysis: overlap/time bounds, sweeps, and baselines.

The optimal measurement time scales as 1/y, so every statement about search
cost is a statement about the overlap ``y`` of the prepared state with the
target subspace.  This module collects the provable bounds on ``y`` for
structured preparations, the misplaced-confidence failure mode where a heavy
weight on a target-free set drives ``y`` toward zero, a comparison against
the unstructured baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import _check_energy, _check_overlap, optimal_time
from .scenario import (
    Confidence,
    ScenarioError,
    SearchScenario,
    classify_confidence,
    sets_pairwise_disjoint,
)
from .stateprep import uniform_superposition, weighted_superposition

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


def check_scenario_bounds(scenario: SearchScenario) -> list[BoundReport]:
    """Evaluate every bound applicable to a scenario.

    Basic-confidence bounds apply when each set holds a target; the disjoint
    refinement additionally needs pairwise-disjoint sets.  The unstructured
    baseline comparison is always reported.
    """
    y = weighted_superposition(scenario).y
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
    with np.errstate(divide="ignore", over="ignore"):
        time = math.pi / (2.0 * energy * y)
    outside = ~((time > 0.0) & (time < math.inf))
    if outside.any():
        raise ValueError(
            f"optimal time pi/(2*E*y) is out of range for energy {energy} and y {y[outside][0]}"
        )
    return np.rec.fromarrays([alpha2, nu, y, time], names="alpha2,nu,y,time")


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
