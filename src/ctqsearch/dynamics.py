"""Closed-form dynamics on the two-dimensional invariant subspace.

The search Hamiltonian is the energy-weighted sum of the projector onto the
target subspace and the projector onto the prepared initial state.  It
preserves the plane spanned by the normalized target component |w> and
residual component |r> of that state, and on this plane it acts as

    H2 = E * [[1 + y**2,        y*sqrt(1-y**2)],
              [y*sqrt(1-y**2),  1 - y**2      ]]

in the (|w>, |r>) basis.  Everything downstream -- the evolved state,
trajectories, measurement statistics, the optimal measurement time -- has an
exact closed form in the overlap ``y`` and energy ``E``, so no 2x2 matrix is
built here; the matrix, its exponential and its eigensystem serve only as
test oracles.  The full-space simulator in :mod:`ctqsearch.fullsim`
exists to cross-check this module, not to replace it.
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


def _check_time(t: float, energy: float = 1.0) -> float:
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if not math.isfinite(energy * t):  # the phases e^(-iEt) need E*t in the float range
        raise ValueError(f"E*t_max overflows at energy {energy} and t_max {t}")
    return t


def _residual_norm(y: float) -> float:
    return math.sqrt(max(0.0, 1.0 - y * y))


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


def optimal_time(y, energy: float):
    """First time the state aligns with the target subspace: pi/(2*E*y), for
    each overlap in ``y``; a float for a scalar ``y``.  The first y or time
    out of range is refused."""
    ys = np.asarray(y, dtype=float)
    outside = ~((ys > 0.0) & (ys <= 1.0))
    if outside.any():
        _check_overlap(ys[outside][0])
    energy = _check_energy(energy)
    with np.errstate(divide="ignore", over="ignore"):
        # the rate 2*E*y is 0 or inf when the product leaves the float range
        time = math.pi / (2.0 * energy * ys)
    outside = ~((time > 0.0) & (time < math.inf))
    if outside.any():
        raise ValueError(
            "optimal time pi/(2*E*y) is out of range for energy "
            f"{energy} and y {float(ys[outside][0])}"
        )
    return float(time) if time.ndim == 0 else time


def success_distribution(prep: StatePrep, energy: float, t: float) -> np.ndarray:
    """Exact outcome probabilities after evolving for time t: one per target,
    in ``prep.target_items`` order, then the failure.

    The probability of measuring target j is |a(t)|**2 * (beta_j / y)**2;
    the remaining mass 1 - |a(t)|**2 is spread over non-target items and is
    reported in aggregate as the failure, the last entry.
    """
    energy = _check_energy(energy)
    a, _ = _reduced_coefficients(_check_overlap(prep.y), energy, [_check_time(t, energy)])
    p_success = abs(complex(a[0])) ** 2
    targets = p_success * prep.target_coeffs * prep.target_coeffs
    return np.append(targets, max(0.0, 1.0 - math.fsum(targets)))


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
    t_max = _check_time(t_max, energy)
    with np.errstate(over="ignore"):  # (n - 1) * step may round past the float range;
        times = np.linspace(0.0, t_max, n_points)  # linspace then sets the end to t_max
    a, b = _reduced_coefficients(prep.y, energy, times)
    return Trajectory(times=times, a=a, b=b, success=np.abs(a) ** 2)
