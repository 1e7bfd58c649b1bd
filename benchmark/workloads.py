"""Workload definitions and the seeded scenario generator.

Every workload runs each of the six ``ctqsearch`` commands once per pass, so
each per-command metric exists on each workload; the inputs and flags decide
which layer a workload loads.  Where a workload's theme does not fit a command
(``verify`` above the dense cap, ``compare`` without a grid flag), that
command runs on a shipped scenario with default flags and acts as a start-up
control.

Inputs are made here from the benchmark seed, with numpy's PCG64 generator,
and never through ``ctqsearch``: a change under ``src/`` cannot change what a
workload feeds the program.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# One-line reason each workload exists; recorded with every result.
WHY = {
    "shipped": "README examples on the shipped scenarios: start-up and output writing, no numeric work",
    "dense_verify": "verify at N=2048: the dense eigh and grid matmul of the full-space cross-check",
    "large_items": "N=1e6 scenarios: validation, repeated support and state prep, the 2^21 register, JSON size",
    "grid_heavy": "long grids on the shipped scenarios: per-point Python loops, CSV writing, row projections",
}

COMMANDS = ("simulate", "verify", "estimate", "count", "sweep", "compare")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``ctqsearch <command> --scenario <scenario> <flags>``."""

    command: str
    scenario: str
    flags: tuple[str, ...] = ()

    def argv(self, out_dir: Path) -> list[str]:
        return [self.command, "--scenario", self.scenario, *self.flags, "--out", str(out_dir)]

    @property
    def key(self) -> str:
        return " ".join([self.command, Path(self.scenario).name, *self.flags])


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([int(seed), zlib.crc32(workload.encode())]))


def _sample(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    return pool[rng.choice(pool.size, size=size, replace=False)]


def overlapping_scenario(
    rng: np.random.Generator, n_items: int, n_sets: int, set_size: int, n_targets: int
) -> dict:
    """Basic-confidence scenario: every set holds a target, every target is
    covered, sets overlap at random, weights are random and normalised."""
    items = np.arange(n_items)
    targets = _sample(rng, items, n_targets)
    owner = rng.integers(0, n_sets, size=n_targets)
    owner[:n_sets] = np.arange(n_sets)  # each set gets at least one target
    non_targets = np.setdiff1d(items, targets, assume_unique=True)
    weights = rng.uniform(0.2, 1.0, size=n_sets)
    weights /= weights.sum()
    info_sets = []
    for j in range(n_sets):
        own = targets[owner == j]
        rest = _sample(rng, non_targets, set_size - own.size)
        members = np.sort(np.concatenate([own, rest]))
        info_sets.append({"members": members.tolist(), "weight": float(weights[j])})
    return {
        "n_items": n_items,
        "targets": np.sort(targets).tolist(),
        "info_sets": info_sets,
        "energy": 1.0,
    }


def misplaced_scenario(
    rng: np.random.Generator, n_items: int, set_size: int, n_shared: int, n_targets: int
) -> dict:
    """Two-set misplaced-confidence scenario: all targets sit in the trusted
    set outside the shared items, the heavier set holds no target."""
    order = rng.permutation(n_items)
    trusted_only = order[: set_size - n_shared]
    shared = order[set_size - n_shared : set_size]
    wrong_only = order[set_size : 2 * set_size - n_shared]
    targets = trusted_only[:n_targets]
    alpha2 = float(rng.uniform(0.6, 0.9))
    return {
        "n_items": n_items,
        "targets": np.sort(targets).tolist(),
        "info_sets": [
            {"members": np.sort(np.concatenate([trusted_only, shared])).tolist(), "weight": 1.0 - alpha2},
            {"members": np.sort(np.concatenate([wrong_only, shared])).tolist(), "weight": alpha2},
        ],
        "energy": 1.0,
    }


def _write(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document))
    return str(path)


def build(name: str, seed: int, repo: Path, work: Path) -> list[Invocation]:
    """Write the workload's input files under ``work``; return one pass."""
    rng = _rng(seed, name)
    shipped = repo / "scenarios"
    demo = str(shipped / "library_demo.json")
    disjoint = str(shipped / "disjoint_counting.json")
    pair = str(shipped / "misplaced_pair.json")
    # --seed flags of estimate/count follow the benchmark seed, except in
    # `shipped`, which keeps the README's own invocations
    cli_seed = str(int(rng.integers(0, 2**31)))

    if name == "shipped":
        return [
            Invocation("simulate", demo),
            Invocation("verify", demo),
            Invocation("estimate", demo, ("--seed", "11")),
            Invocation("count", disjoint, ("--seed", "11")),
            Invocation("sweep", pair),
            Invocation("compare", demo),
        ]
    if name == "dense_verify":
        dense = _write(work / "dense.json", overlapping_scenario(rng, 2048, 6, 256, 16))
        pair_2k = _write(work / "misplaced_2k.json", misplaced_scenario(rng, 2048, 512, 128, 16))
        return [
            Invocation("verify", dense),
            Invocation("simulate", dense),
            Invocation("estimate", dense, ("--seed", cli_seed)),
            Invocation("count", dense, ("--seed", cli_seed)),
            Invocation("sweep", pair_2k),
            Invocation("compare", dense),
        ]
    if name == "large_items":
        big = _write(work / "large.json", overlapping_scenario(rng, 10**6, 8, 50_000, 64))
        pair_1m = _write(
            work / "misplaced_1m.json", misplaced_scenario(rng, 10**6, 200_000, 50_000, 64)
        )
        return [
            Invocation("simulate", big),
            Invocation("estimate", big, ("--seed", cli_seed)),
            Invocation("count", big, ("--seed", cli_seed)),
            Invocation("compare", big),
            Invocation("sweep", pair_1m),
            Invocation("verify", demo),  # N=1e6 is above the dense cap
        ]
    if name == "grid_heavy":
        return [
            Invocation("simulate", demo, ("--points", "50000")),
            Invocation("sweep", pair, ("--alpha2-points", "50000")),
            Invocation("estimate", demo, ("--m-size", "65536", "--samples", "100000", "--seed", cli_seed)),
            Invocation("count", disjoint, ("--m-size", "65536", "--samples", "100000", "--seed", cli_seed)),
            Invocation("verify", demo, ("--grid-points", "20000")),
            Invocation("compare", demo),  # compare has no grid flag
        ]
    raise ValueError(f"unknown workload {name!r}")
