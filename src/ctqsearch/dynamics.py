"""Closed-form dynamics on the two-dimensional invariant subspace.

The search Hamiltonian is the energy-weighted sum of the projector onto the
target subspace and the projector onto the prepared initial state.  It
preserves the plane spanned by the normalized target component |w> and
residual component |r> of that state, and on this plane it acts as

    H2 = E * [[1 + y**2,        y*sqrt(1-y**2)],
              [y*sqrt(1-y**2),  1 - y**2      ]]

in the (|w>, |r>) basis.  Everything downstream -- propagators, spectra,
trajectories, measurement statistics, the optimal measurement time -- has an
exact closed form in the overlap ``y`` and energy ``E``.  The N-dimensional
simulator in :mod:`ctqsearch.fullsim` exists to cross-check this module, not
to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stateprep import StatePrep


def _check_overlap(y: float) -> float:
    y = float(y)
    if not 0.0 < y <= 1.0 or not math.isfinite(y):
        raise ValueError(f"overlap y must lie in (0, 1], got {y}")
    return y


def _check_energy(energy: float) -> float:
    energy = float(energy)
    if not energy > 0.0 or not math.isfinite(energy):
        raise ValueError(f"energy must be positive and finite, got {energy}")
    return energy


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    return t


def _residual_norm(y: float) -> float:
    return math.sqrt(max(0.0, 1.0 - y * y))


@dataclass(frozen=True)
class ReducedState:
    """Coefficients (a, b) of the state a|w> + b|r> on the invariant plane."""

    a: complex
    b: complex

    @property
    def success_probability(self) -> float:
        """Probability of measuring any target item, |a|**2."""
        return abs(self.a) ** 2


def reduced_hamiltonian(y: float, energy: float) -> np.ndarray:
    """2x2 Hamiltonian block in the (|w>, |r>) basis."""
    y = _check_overlap(y)
    energy = _check_energy(energy)
    c = _residual_norm(y)
    return energy * np.array([[1.0 + y * y, y * c], [y * c, 1.0 - y * y]])


def evolution_matrix(y: float, energy: float, t: float) -> np.ndarray:
    """Propagator exp(-i*H2*t) on the invariant plane.

    H2 = E*(I + y*K) with K a reflection (K @ K = I), so the exponential
    factors into a global phase times a rotation generated by K:

        U(t) = exp(-i*E*t) * (cos(E*y*t)*I - i*sin(E*y*t)*K)
    """
    y = _check_overlap(y)
    energy = _check_energy(energy)
    t = _check_time(t)
    c = _residual_norm(y)
    theta = energy * y * t
    phase = np.exp(-1j * energy * t)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    k = np.array([[y, c], [c, -y]])
    return phase * (cos_t * np.eye(2) - 1j * sin_t * k)


def eigensystem(y: float, energy: float) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
    """Eigenpairs of the reduced Hamiltonian, top eigenvalue first.

    Returns ((x1, E*(1+y)), (x2, E*(1-y))) with real unit eigenvectors

        x1 = (sqrt(1+y), sqrt(1-y)) / sqrt(2)
        x2 = (-sqrt(1-y), sqrt(1+y)) / sqrt(2)
    """
    y = _check_overlap(y)
    energy = _check_energy(energy)
    sp = math.sqrt(1.0 + y)
    sm = math.sqrt(1.0 - y)
    x1 = np.array([sp, sm]) / math.sqrt(2.0)
    x2 = np.array([-sm, sp]) / math.sqrt(2.0)
    return (x1, energy * (1.0 + y)), (x2, energy * (1.0 - y))


def _reduced_coefficients(y: float, energy: float, times) -> tuple[np.ndarray, np.ndarray]:
    # Closed-form evolution of the initial state (a, b) = (y, sqrt(1-y**2)),
    # one entry per time.  The product phase * (y*cos - i*sin) is written out
    # in real arithmetic: numpy's complex multiply may fuse operations and
    # round differently from scalar complex math in the last bit.
    ts = np.asarray(times, dtype=float)
    c = _residual_norm(y)
    theta = energy * y * ts
    phase = np.exp(-1j * energy * ts)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    a = np.empty_like(phase)
    a.real = phase.real * (y * cos_t) + phase.imag * sin_t
    a.imag = phase.imag * (y * cos_t) - phase.real * sin_t
    b = phase * (c * cos_t)
    return a, b


def evolve_state(prep: StatePrep, energy: float, t: float) -> ReducedState:
    """Evolve the prepared state for time t; exact up to roundoff."""
    y = _check_overlap(prep.y)
    energy = _check_energy(energy)
    t = _check_time(t)
    a, b = _reduced_coefficients(y, energy, [t])
    return ReducedState(a=complex(a[0]), b=complex(b[0]))


def optimal_time(y: float, energy: float) -> float:
    """First time the state aligns with the target subspace: pi/(2*E*y)."""
    y = _check_overlap(y)
    energy = _check_energy(energy)
    return math.pi / (2.0 * energy * y)


@dataclass(frozen=True)
class SuccessDistribution:
    """Measurement statistics at a fixed time: per-target probabilities plus
    the aggregate probability of landing outside the target set."""

    target_probs: dict[int, float]
    failure: float

    @property
    def success(self) -> float:
        return math.fsum(self.target_probs.values())


def success_distribution(prep: StatePrep, energy: float, t: float) -> SuccessDistribution:
    """Exact outcome distribution after evolving for time t.

    The probability of measuring target j is |a(t)|**2 * (beta_j / y)**2;
    the remaining mass 1 - |a(t)|**2 is spread over non-target items and is
    reported in aggregate as ``failure``.
    """
    state = evolve_state(prep, energy, t)
    p_success = state.success_probability
    probs = {
        int(item): float(p_success * coeff * coeff)
        for item, coeff in zip(prep.target_items, prep.target_coeffs)
    }
    failure = max(0.0, 1.0 - math.fsum(probs.values()))
    return SuccessDistribution(target_probs=probs, failure=failure)


@dataclass(frozen=True)
class Trajectory:
    """Sampled reduced trajectory; arrays share a common time grid."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    success: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "a", "b", "success"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def trajectory(
    prep: StatePrep,
    energy: float,
    *,
    t_max: float | None = None,
    n_points: int = 256,
) -> Trajectory:
    """Closed-form trajectory on [0, t_max] (default twice the optimal time)."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    energy = _check_energy(energy)
    if t_max is None:
        t_max = 2.0 * optimal_time(prep.y, energy)
    t_max = _check_time(t_max)
    times = np.linspace(0.0, t_max, n_points)
    a, b = _reduced_coefficients(prep.y, energy, times)
    return Trajectory(times=times, a=a, b=b, success=np.abs(a) ** 2)
