"""Database model for search with weighted partial information.

A :class:`SearchScenario` bundles an unsorted item space ``0..n_items-1``,
the hidden target set, and the user-supplied information sets, each a subset
of items carrying a positive reliability weight.  Every index set is stored
as a sorted, duplicate-free, read-only int64 array.  Instances are immutable
and validated eagerly, so downstream code may assume every structural
invariant holds: indices are in range, every target is covered by at least
one information set, and the stored weights sum to one.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from pathlib import Path

import numpy as np

WEIGHT_SUM_TOL = 1e-12


class ScenarioError(ValueError):
    """A scenario violates one of its structural invariants."""


def _refuse(name: str, problem: str) -> ScenarioError:
    return ScenarioError(f"scenario field '{name}': {problem}")


def _scalar(value, name: str, kind, convert):
    # JSON true/false are Python ints, but neither a count nor a weight
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _refuse(name, f"expected {convert.__name__}, got {type(value).__name__}")
    try:
        return convert(value)
    except OverflowError:
        raise _refuse(name, "number out of range") from None


def _indices(value, name: str) -> np.ndarray:
    """Sorted, duplicate-free, read-only int64 array of integer item indices."""
    if isinstance(value, range):
        value = np.arange(value.start, value.stop, value.step)
    if isinstance(value, (list, tuple, Set)):
        value = list(value)
        bad = {k.__name__ for k in set(map(type, value)) if k is not int}
        if bad:
            raise _refuse(name, f"item indices must be integers, got {sorted(bad)}")
    elif not isinstance(value, np.ndarray) or value.ndim != 1 or value.dtype.kind not in "iu":
        raise _refuse(name, f"expected an array of integer item indices, got {type(value).__name__}")
    try:
        items = np.array(value, dtype=np.int64)
    except OverflowError:
        raise _refuse(name, "item index does not fit in 64 bits") from None
    if items.size > 1 and not (items[1:] > items[:-1]).all():
        items = np.unique(items)  # duplicates collapse
    items.setflags(write=False)
    return items


def _check_range(items: np.ndarray, n_items: int, name: str) -> None:
    if items[0] < 0 or items[-1] >= n_items:
        raise _refuse(name, f"item index out of range for {n_items} items")


def _union_mask(info_sets, size: int | None = None) -> np.ndarray:
    """Which items lie in any of the sets; by default sized to the largest member."""
    mask = np.zeros(size or 1 + max((s.members[-1] for s in info_sets), default=-1), dtype=bool)
    for s in info_sets:
        mask[s.members] = True
    return mask


def _labels(pairs, n_items: int) -> tuple[tuple[int, str], ...]:
    labels = []
    for key, name in pairs:
        # an int key, or a JSON object key holding one in canonical decimal form
        index = int(key) if isinstance(key, str) and key.isascii() and key.isdigit() else key
        if type(index) is not int or str(index) != str(key) or not 0 <= index < n_items:
            raise _refuse("labels", f"key {key!r} is not an item index below {n_items}")
        if not isinstance(name, str):
            raise _refuse("labels", f"the label of item {index} is not a string")
        labels.append((index, name))
    return tuple(sorted(labels))


class Confidence(Enum):
    """Whether every information set intersects the target set."""

    BASIC = "basic"
    NOT_BASIC = "not_basic"


@dataclass(frozen=True, eq=False)
class InformationSet:
    """A prescribed subset of item indices with a positive reliability weight.

    The weight is a raw (unnormalized) preference; :class:`SearchScenario`
    rescales the weights of its sets so they sum to one.
    """

    members: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", _indices(self.members, "members"))
        object.__setattr__(self, "weight", _scalar(self.weight, "weight", Real, float))
        if not self.members.size:
            raise ScenarioError("information set invariant violated: members must be nonempty")
        if not math.isfinite(self.weight) or self.weight <= 0.0:
            raise ScenarioError(
                f"information set invariant violated: weight must be positive and finite, got {self.weight}"
            )

    @property
    def size(self) -> int:
        return self.members.size


@dataclass(frozen=True, eq=False)
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
    targets: np.ndarray
    info_sets: tuple[InformationSet, ...]
    energy: float = 1.0
    weights_normalized: bool = False
    labels: tuple[tuple[int, str], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_items", _scalar(self.n_items, "n_items", int, int))
        object.__setattr__(self, "targets", _indices(self.targets, "targets"))
        object.__setattr__(self, "info_sets", tuple(self.info_sets))
        object.__setattr__(self, "energy", _scalar(self.energy, "energy", Real, float))
        if self.n_items < 1:
            raise ScenarioError(f"n_items must be >= 1, got {self.n_items}")
        if not self.targets.size:
            raise ScenarioError("target invariant violated: target set must be nonempty")
        _check_range(self.targets, self.n_items, "targets")
        if not self.info_sets:
            raise ScenarioError("information set invariant violated: at least one set required")
        for s in self.info_sets:
            if not isinstance(s, InformationSet):
                raise ScenarioError("info_sets must contain InformationSet instances")
            _check_range(s.members, self.n_items, "members")
        if not math.isfinite(self.energy) or self.energy <= 0.0:
            raise ScenarioError(f"energy must be positive and finite, got {self.energy}")
        try:
            total = math.fsum(s.weight for s in self.info_sets)
        except OverflowError:
            raise _refuse("weight", "the weights sum overflows a float") from None
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            # Positive-sum weight vectors are rescaled rather than rejected;
            # the flag lets callers surface a warning.
            rescaled = tuple(InformationSet(s.members, s.weight / total) for s in self.info_sets)
            object.__setattr__(self, "info_sets", rescaled)
            object.__setattr__(self, "weights_normalized", True)
        try:
            mask = _union_mask(self.info_sets, self.n_items)
        except (MemoryError, ValueError):  # numpy: cannot allocate / dimension too large
            raise _refuse("n_items", f"{self.n_items} items do not fit in memory") from None
        if not mask[self.targets].all():
            raise ScenarioError(
                "coverage invariant violated: every target must belong to at least one information set"
            )
        support = np.flatnonzero(mask)
        support.setflags(write=False)
        object.__setattr__(self, "_support", support)
        if self.labels is not None:
            object.__setattr__(self, "labels", _labels(self.labels, self.n_items))

    @property
    def n_targets(self) -> int:
        return self.targets.size

    @property
    def n_sets(self) -> int:
        return len(self.info_sets)

    @property
    def support(self) -> np.ndarray:
        """Union of all information sets (always contains the targets)."""
        return self._support

    @property
    def support_size(self) -> int:
        return self.support.size

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
    i = int(np.searchsorted(scenario.targets, item))
    return int(i < scenario.n_targets and scenario.targets[i] == item)


def classify_confidence(scenario: SearchScenario) -> ConfidenceReport:
    """BASIC iff every information set contains at least one target."""
    overlaps = tuple(
        np.intersect1d(s.members, scenario.targets, assume_unique=True).size
        for s in scenario.info_sets
    )
    kind = Confidence.BASIC if all(c > 0 for c in overlaps) else Confidence.NOT_BASIC
    return ConfidenceReport(confidence=kind, target_overlaps=overlaps)


def sets_pairwise_disjoint(info_sets) -> bool:
    """True iff no item belongs to two sets: their sizes sum to their union's."""
    info_sets = tuple(info_sets)
    return sum(s.size for s in info_sets) == np.count_nonzero(_union_mask(info_sets))


def scenario_to_dict(scenario: SearchScenario) -> dict:
    """JSON-ready representation (canonical key order is the serializer's job)."""
    payload: dict = {
        "n_items": scenario.n_items,
        "targets": scenario.targets.tolist(),
        "info_sets": [
            {"members": s.members.tolist(), "weight": s.weight} for s in scenario.info_sets
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
    unknown = set(payload) - {"n_items", "targets", "info_sets", "energy", "labels"}
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
        if not isinstance(entry, Mapping) or set(entry) != {"members", "weight"}:
            raise _refuse("info_sets", "each entry needs exactly the keys 'members' and 'weight'")
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
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario JSON in {path}: {exc}") from exc
    return scenario_from_dict(payload)
