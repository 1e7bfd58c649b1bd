"""Initial-state preparation from weighted information sets.

The prepared state assigns each item an amplitude proportional to the total
reliability weight of the information sets containing it.  Items covered by
several sets are boosted; items outside every set get amplitude zero.  The
normalized amplitude vector splits into a component inside the target
subspace (norm ``y``) and a residual component (norm ``sqrt(1 - y**2)``);
the pair of unit vectors spanning those components is what the reduced
dynamics operates on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioError, SearchScenario


@dataclass(frozen=True)
class StatePrep:
    """Normalized initial amplitudes with their target/residual split.

    Attributes
    ----------
    beta:
        Length-``n_items`` array of real, nonnegative amplitudes, unit norm.
    nu:
        Euclidean norm of the raw (pre-normalization) weight-sum amplitudes.
    y:
        Overlap with the target subspace, ``y**2 = sum(beta[t]**2, t in targets)``.
    r_count:
        Number of non-target items with nonzero amplitude.
    target_items, residual_items:
        Sorted int64 index arrays giving the support of the two components.
    target_coeffs, residual_coeffs:
        Unit coefficient vectors of the state's components inside and outside
        the target subspace, aligned with the index arrays.  ``residual_coeffs``
        is empty when the state lies entirely in the target subspace (y == 1).
    """

    beta: np.ndarray
    nu: float
    y: float
    r_count: int
    target_items: np.ndarray
    residual_items: np.ndarray
    target_coeffs: np.ndarray
    residual_coeffs: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("beta", float),
            ("target_items", np.int64),
            ("residual_items", np.int64),
            ("target_coeffs", float),
            ("residual_coeffs", float),
        ):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _finalize(scenario: SearchScenario, raw: np.ndarray) -> StatePrep:
    # raw amplitudes are sums of positive weights, so support tests are exact
    nu = float(np.linalg.norm(raw))
    if nu == 0.0:
        raise ScenarioError("state preparation invariant violated: zero amplitude vector")
    beta = raw / nu

    target_items = scenario.targets
    residual = beta > 0.0
    residual[target_items] = False
    residual_items = np.flatnonzero(residual)
    r_count = int(residual_items.size)

    target_slice = beta[target_items]
    y = float(np.linalg.norm(target_slice))
    if y == 0.0:
        raise ScenarioError("state preparation invariant violated: no amplitude on targets")
    if r_count == 0:
        y = 1.0  # all mass sits on targets
        residual_coeffs = np.empty(0)
    else:
        res_slice = beta[residual_items]
        residual_coeffs = res_slice / np.linalg.norm(res_slice)
    target_coeffs = target_slice / y

    return StatePrep(
        beta=beta,
        nu=nu,
        y=y,
        r_count=r_count,
        target_items=target_items,
        residual_items=residual_items,
        target_coeffs=target_coeffs,
        residual_coeffs=residual_coeffs,
    )


def weighted_superposition(scenario: SearchScenario) -> StatePrep:
    """Prepare the weighted state: amplitude of item i is the sum of the
    weights of the information sets containing i, normalized by ``nu``."""
    raw = np.zeros(scenario.n_items)
    for s in scenario.info_sets:
        raw[s.members] += s.weight
    return _finalize(scenario, raw)


def uniform_superposition(scenario: SearchScenario) -> StatePrep:
    """Unstructured baseline: equal amplitude on every item."""
    return _finalize(scenario, np.ones(scenario.n_items))
