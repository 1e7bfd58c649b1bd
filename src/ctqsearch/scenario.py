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

import copy
import json
import json.decoder
import json.scanner
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
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
        items = np.sort(items)  # duplicates collapse; np.unique would import numpy.ma
        items = items[np.concatenate(([True], items[1:] != items[:-1]))]
    items.setflags(write=False)
    return items


def _check_range(items: np.ndarray, n_items: int, name: str) -> None:
    if items[0] < 0 or items[-1] >= n_items:
        raise _refuse(name, f"item index out of range for {n_items} items")


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
    to one.  Weights that are zero, negative, or non-finite are rejected
    outright, as are empty target sets, out-of-range indices, and target sets
    not covered by the union of the information sets.
    """

    n_items: int
    targets: np.ndarray
    info_sets: tuple[InformationSet, ...]
    energy: float = 1.0

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
            # positive-sum weight vectors are rescaled rather than rejected;
            # each copy keeps the members array its set already validated
            rescaled = tuple(map(copy.copy, self.info_sets))
            for s in rescaled:
                object.__setattr__(s, "weight", s.weight / total)
            object.__setattr__(self, "info_sets", rescaled)
        try:
            mask = np.zeros(self.n_items, dtype=bool)
        except (MemoryError, ValueError):  # numpy: cannot allocate / dimension too large
            raise _refuse("n_items", f"{self.n_items} items do not fit in memory") from None
        for s in self.info_sets:
            mask[s.members] = True
        if not mask[self.targets].all():
            raise ScenarioError(
                "coverage invariant violated: every target must belong to at least one information set"
            )
        support = np.flatnonzero(mask)
        support.setflags(write=False)
        object.__setattr__(self, "_support", support)

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
    def target_overlaps(self) -> tuple[int, ...]:
        """How many targets each set holds; basic confidence is ``all`` of them."""
        return tuple(
            np.intersect1d(s.members, self.targets, assume_unique=True).size
            for s in self.info_sets
        )

    @property
    def pairwise_disjoint(self) -> bool:
        """True iff no item belongs to two sets: their sizes sum to the support's."""
        return sum(s.size for s in self.info_sets) == self.support_size


def scenario_to_dict(scenario: SearchScenario) -> dict:
    """JSON-ready representation (canonical key order is the serializer's job)."""
    return {
        "n_items": scenario.n_items,
        "targets": scenario.targets.tolist(),
        "info_sets": [
            {"members": s.members.tolist(), "weight": s.weight} for s in scenario.info_sets
        ],
        "energy": scenario.energy,
    }


def _json_array(value):
    # load_scenario reads a flat array of nonnegative integers as an int64
    # array; a field that holds no indices refuses it as the JSON array it was
    return value.tolist() if isinstance(value, np.ndarray) else value


def scenario_from_dict(payload: Mapping) -> SearchScenario:
    """Build and validate a scenario from a parsed JSON object."""
    if not isinstance(payload, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(payload) - {"n_items", "targets", "info_sets", "energy"}
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("n_items", "targets", "info_sets"):
        if key not in payload:
            raise ScenarioError(f"scenario document missing required key '{key}'")
    raw_sets = _json_array(payload["info_sets"])
    if not isinstance(raw_sets, (list, tuple)):
        raise ScenarioError("'info_sets' must be an array")
    sets = []
    for entry in raw_sets:
        if not isinstance(entry, Mapping) or set(entry) != {"members", "weight"}:
            raise _refuse("info_sets", "each entry needs exactly the keys 'members' and 'weight'")
        sets.append(InformationSet(entry["members"], _json_array(entry["weight"])))
    return SearchScenario(
        n_items=_json_array(payload["n_items"]),
        targets=payload["targets"],
        info_sets=tuple(sets),
        energy=_json_array(payload.get("energy", 1.0)),
    )


_JSON_SPACE = b" \t\n\r"
# 10, ..., 10**17: a value has one digit more than the powers it reaches, up
# to 18 digits, so a value of 10**18 or more is credited fewer than it has
_POWERS_OF_TEN = 10 ** np.arange(1, 18, dtype=np.int64)
# below this many characters between its brackets (some 64 items), an array
# costs less as a list from the C decoder than through numpy's calls
SHORT_ARRAY_CHARS = 512


def _int64_array(text: bytes) -> np.ndarray | None:
    """The nonnegative JSON integers between an array's brackets, as int64.

    None unless every character is accounted for: digits, commas and JSON
    whitespace only, no empty item, as many values as items, and as many
    digits as the values have, each below 10**18 (no leading zero, no digit
    left unread, no value clamped to int64).
    """
    if text.translate(None, b"0123456789," + _JSON_SPACE):
        return None
    tokens = text.translate(None, _JSON_SPACE)
    if tokens[:1] in (b"", b",") or tokens.endswith(b",") or b",," in tokens:
        return None
    try:
        values = np.fromstring(text, np.int64, sep=",")
    except ValueError:  # unmatched data (numpy 1.x warns and stops short instead)
        return None
    n = tokens.count(b",") + 1
    digits = len(tokens) - (n - 1)
    if values.size != n or n + _POWERS_OF_TEN.searchsorted(values, "right").sum() != digits:
        return None
    return values


_STDLIB_DECODER = json.JSONDecoder()


def _parse_array(s_and_end, scan_once):
    s, start = s_and_end
    if s.startswith("{", json.decoder.WHITESPACE.match(s, start).end()):
        # an array of objects: each object is scanned here, so its index arrays are int64
        items, end = json.decoder.JSONArray(s_and_end, scan_once)
        return [_json_array(item) for item in items], end
    close = s.find("]", start)
    if close - start >= SHORT_ARRAY_CHARS:  # also false when there is no "]"
        values = _int64_array(s[start:close].encode())  # s is ASCII: one byte a character
        if values is not None:
            return values, close + 1
    return _STDLIB_DECODER.raw_decode(s, start - 1)


_DECODER = json.JSONDecoder()
_DECODER.parse_array = _parse_array
_DECODER.scan_once = json.scanner.py_make_scanner(_DECODER)


def _decode(text: str):
    """``json.loads(text)``, but a flat array of nonnegative integers is int64.

    Only arrays of at least ``SHORT_ARRAY_CHARS`` characters are read this
    way; every other value is the standard library's.  A document this
    decoder refuses is decoded again by ``json.loads``, so a refusal keeps
    its message.  Two kinds of text go to ``json.loads`` whole: text that
    is not ASCII, because the pure-Python scanner would read any Unicode
    digit in a number, and text whose arrays are short on average, where
    the pure-Python scan of each object would cost more than it saves.
    """
    if text.isascii() and len(text) >= SHORT_ARRAY_CHARS * text.count("["):
        try:
            return _DECODER.decode(text)
        except (ValueError, RecursionError):
            pass
    return json.loads(text)


def load_scenario(path: str | Path) -> SearchScenario:
    """Load a scenario JSON file, validating structure and invariants."""
    try:
        payload = _decode(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ScenarioError(f"malformed scenario JSON in {path}: {exc}") from exc
    return scenario_from_dict(payload)
