"""Initial-state preparation from weighted information sets.

The prepared state assigns each item an amplitude proportional to the total
reliability weight of the information sets containing it.  Items covered by
several sets are boosted; items outside every set get amplitude zero.  The
normalized amplitude vector splits into a component inside the target
subspace (norm ``y``) and a residual component (norm ``sqrt(1 - y**2)``);
the pair of unit vectors spanning those components is what the reduced
dynamics operates on.  The full-space check runs on :func:`symmetry_classes`.
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
    target_items:
        Sorted int64 index array of the targets.
    target_coeffs:
        Unit coefficient vector of the state's component inside the target
        subspace, ``beta[target_items] / y``, aligned with ``target_items``.
    """

    beta: np.ndarray
    nu: float
    y: float
    r_count: int
    target_items: np.ndarray
    target_coeffs: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("beta", float), ("target_items", np.int64), ("target_coeffs", float)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _finalize(scenario: SearchScenario, raw: np.ndarray) -> StatePrep:
    # raw amplitudes are sums of positive weights, so support tests are exact.
    # Norms sum their squares pairwise (np.sum); np.linalg.norm's BLAS dot is
    # off by ~1e-13 at 10**6 items, which verify reads as a phase drift.  The
    # squares go into the buffer that becomes beta, so no third array is held.
    beta = np.square(raw)
    nu = float(np.sqrt(np.sum(beta)))
    if nu == 0.0:
        raise ScenarioError("state preparation invariant violated: zero amplitude vector")
    np.divide(raw, nu, out=beta)

    target_items = scenario.targets
    target_slice = beta[target_items]
    r_count = int(np.count_nonzero(beta)) - int(np.count_nonzero(target_slice))
    y = float(np.sqrt(np.sum(np.square(target_slice))))
    if y == 0.0:
        raise ScenarioError("state preparation invariant violated: no amplitude on targets")
    if r_count == 0:
        y = 1.0  # all mass sits on targets
    return StatePrep(
        beta=beta,
        nu=nu,
        y=y,
        r_count=r_count,
        target_items=target_items,
        target_coeffs=target_slice / y,
    )


def symmetry_classes(prep: StatePrep) -> tuple[np.ndarray, np.ndarray]:
    """The state on its symmetry classes: amplitudes sqrt(n_c) * beta_c, is_target.

    Items with equal amplitude and target flag can be swapped without changing
    H = E * (P_target + |beta><beta|) or beta, so the evolved state is constant
    on each class, and this isometry keeps H's form (Childs and Goldstone, PRA
    70, 022314, 2004).  Items of amplitude zero never move and are left out.
    """
    signed = prep.beta.copy()
    signed[prep.target_items] *= -1.0  # targets are covered, so beta > 0 there
    values, counts = np.unique(signed, return_counts=True)
    covered = values != 0.0
    values, counts = values[covered], counts[covered]
    return np.sqrt(counts) * np.abs(values), values < 0.0


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
