"""Database model for search with weighted partial information.

A :class:`SearchScenario` bundles an unsorted item space ``0..n_items-1``,
the hidden target set, and the user-supplied information sets, each a subset
of items carrying a positive reliability weight.  Instances are immutable
and validated eagerly, so downstream code may assume every structural
invariant holds: indices are in range, every target is covered by at least
one information set, and the stored weights sum to one.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

WEIGHT_SUM_TOL = 1e-12


class ScenarioError(ValueError):
    """A scenario violates one of its structural invariants."""


@contextmanager
def _field(name: str):
    # a value of the wrong type or size surfaces as a ScenarioError naming it
    try:
        yield
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"scenario field '{name}': {exc}") from exc


class Confidence(Enum):
    """Whether every information set intersects the target set."""

    BASIC = "basic"
    NOT_BASIC = "not_basic"


@dataclass(frozen=True)
class InformationSet:
    """A prescribed subset of item indices with a positive reliability weight.

    The weight is a raw (unnormalized) preference; :class:`SearchScenario`
    rescales the weights of its sets so they sum to one.
    """

    members: frozenset[int]
    weight: float

    def __post_init__(self) -> None:
        with _field("members"):
            object.__setattr__(self, "members", frozenset(map(int, self.members)))
        with _field("weight"):
            object.__setattr__(self, "weight", float(self.weight))
        if not self.members:
            raise ScenarioError("information set invariant violated: members must be nonempty")
        if not math.isfinite(self.weight) or self.weight <= 0.0:
            raise ScenarioError(
                f"information set invariant violated: weight must be positive and finite, got {self.weight}"
            )

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SearchScenario:
    """Immutable search problem: item count, targets, info sets, energy scale.

    Raw reliability weights summing to any positive value are rescaled to sum
    to one; ``weights_normalized`` records that this happened.  Weights that
    are zero, negative, or non-finite are rejected outright, as are empty
    target sets, out-of-range indices, and target sets not covered by the
    union of the information sets.

    ``labels`` is optional display metadata (item index, name) and plays no
    role in any computation.
    """

    n_items: int
    targets: frozenset[int]
    info_sets: tuple[InformationSet, ...]
    energy: float = 1.0
    weights_normalized: bool = False
    labels: tuple[tuple[int, str], ...] | None = None

    def __post_init__(self) -> None:
        with _field("n_items"):
            object.__setattr__(self, "n_items", int(self.n_items))
        with _field("targets"):
            object.__setattr__(self, "targets", frozenset(map(int, self.targets)))
        object.__setattr__(self, "info_sets", tuple(self.info_sets))
        with _field("energy"):
            object.__setattr__(self, "energy", float(self.energy))
        if self.n_items < 1:
            raise ScenarioError(f"n_items must be >= 1, got {self.n_items}")
        if not self.targets:
            raise ScenarioError("target invariant violated: target set must be nonempty")
        if min(self.targets) < 0 or max(self.targets) >= self.n_items:
            raise ScenarioError("target invariant violated: target index out of range")
        if not self.info_sets:
            raise ScenarioError("information set invariant violated: at least one set required")
        for s in self.info_sets:
            if not isinstance(s, InformationSet):
                raise ScenarioError("info_sets must contain InformationSet instances")
            if min(s.members) < 0 or max(s.members) >= self.n_items:
                raise ScenarioError("information set invariant violated: member index out of range")
        if not math.isfinite(self.energy) or self.energy <= 0.0:
            raise ScenarioError(f"energy must be positive and finite, got {self.energy}")
        with _field("weight"):  # fsum overflows on weights near the float maximum
            total = math.fsum(s.weight for s in self.info_sets)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            # Positive-sum weight vectors are rescaled rather than rejected;
            # the flag lets callers surface a warning.
            rescaled = tuple(
                InformationSet(s.members, s.weight / total) for s in self.info_sets
            )
            object.__setattr__(self, "info_sets", rescaled)
            object.__setattr__(self, "weights_normalized", True)
        if not covers(self.targets, self.info_sets):
            raise ScenarioError(
                "coverage invariant violated: every target must belong to at least one information set"
            )
        if self.labels is not None:
            with _field("labels"):
                labels = tuple(sorted((int(i), str(name)) for i, name in self.labels))
            object.__setattr__(self, "labels", labels)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_sets(self) -> int:
        return len(self.info_sets)

    @property
    def support(self) -> frozenset[int]:
        """Union of all information sets (always contains the targets)."""
        out: set[int] = set()
        for s in self.info_sets:
            out |= s.members
        return frozenset(out)

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def residual_count(self) -> int:
        """Number of covered non-target items."""
        return self.support_size - self.n_targets

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(s.weight for s in self.info_sets)


@dataclass(frozen=True)
class ConfidenceReport:
    """Classification outcome plus per-set target-overlap cardinalities."""

    confidence: Confidence
    target_overlaps: tuple[int, ...]


def oracle_eval(scenario: SearchScenario, item: int) -> int:
    """Membership oracle: 1 if ``item`` is a target, else 0.

    This is the only sanctioned way for estimation and counting code to
    touch the target set.
    """
    item = int(item)
    if item < 0 or item >= scenario.n_items:
        raise IndexError(f"item index {item} out of range for {scenario.n_items} items")
    return 1 if item in scenario.targets else 0


def covers(targets: Iterable[int], info_sets: Iterable[InformationSet]) -> bool:
    """True iff every target belongs to at least one information set."""
    union: set[int] = set()
    for s in info_sets:
        union |= s.members
    return set(targets) <= union


def classify_confidence(scenario: SearchScenario) -> ConfidenceReport:
    """BASIC iff every information set contains at least one target."""
    overlaps = tuple(len(s.members & scenario.targets) for s in scenario.info_sets)
    kind = Confidence.BASIC if all(c > 0 for c in overlaps) else Confidence.NOT_BASIC
    return ConfidenceReport(confidence=kind, target_overlaps=overlaps)


def sets_pairwise_disjoint(info_sets: Iterable[InformationSet]) -> bool:
    seen: set[int] = set()
    for s in info_sets:
        if s.members & seen:
            return False
        seen |= s.members
    return True


def scenario_to_dict(scenario: SearchScenario) -> dict:
    """JSON-ready representation (canonical key order is the serializer's job)."""
    payload: dict = {
        "n_items": scenario.n_items,
        "targets": sorted(scenario.targets),
        "info_sets": [
            {"members": sorted(s.members), "weight": s.weight} for s in scenario.info_sets
        ],
        "energy": scenario.energy,
    }
    if scenario.labels is not None:
        payload["labels"] = {str(i): name for i, name in scenario.labels}
    return payload


def scenario_from_dict(payload: Mapping) -> SearchScenario:
    """Build and validate a scenario from a parsed JSON object."""
    if not isinstance(payload, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    known = {"n_items", "targets", "info_sets", "energy", "labels"}
    unknown = set(payload) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("n_items", "targets", "info_sets"):
        if key not in payload:
            raise ScenarioError(f"scenario document missing required key '{key}'")
    raw_sets = payload["info_sets"]
    if not isinstance(raw_sets, (list, tuple)):
        raise ScenarioError("'info_sets' must be an array")
    sets = []
    for entry in raw_sets:
        if not isinstance(entry, Mapping) or "members" not in entry or "weight" not in entry:
            raise ScenarioError("each info set needs 'members' and 'weight'")
        sets.append(InformationSet(entry["members"], entry["weight"]))
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, Mapping):
            raise ScenarioError("scenario field 'labels' must be an object")
        labels = tuple(labels.items())
    return SearchScenario(
        n_items=payload["n_items"],
        targets=payload["targets"],
        info_sets=tuple(sets),
        energy=payload.get("energy", 1.0),
        labels=labels,
    )


def load_scenario(path: str | Path) -> SearchScenario:
    """Load a scenario JSON file, validating structure and invariants."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario JSON in {path}: {exc}") from exc
    return scenario_from_dict(payload)
