"""Full N-dimensional simulation, used to validate the reduced dynamics.

The search Hamiltonian H = E * (P_target + |beta><beta|) is a diagonal
projector plus one rank-one term, so ``H @ v`` costs O(N).
:func:`plane_projection_on_grid` evolves the prepared state with the
Chebyshev propagator of Tal-Ezer and Kosloff (J. Chem. Phys. 81, 3967, 1984),
which is built from such products alone, and projects every state onto the
invariant plane.  It never forms an N x N array and never uses the 2x2
closed form of :mod:`ctqsearch.dynamics`, which is what it checks; ``verify``
runs on it.  Its one size limit is the Chebyshev basis, ``(K+1) * N * 8``
bytes at most ``CHEBYSHEV_BASIS_LIMIT``.

:func:`full_hamiltonian`, :func:`evolve_on_grid` and :func:`project_reduced`
are test oracles: they build the dense matrix and diagonalise it, so their
dimension is capped at ``DEFAULT_DIM_CAP``.  They stay in this module, rather
than with the other test oracles, because the benchmark's layer tracer
instruments them by name.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .scenario import SearchScenario
from .stateprep import StatePrep

DEFAULT_DIM_CAP = 4096
HERMITIAN_TOL = 1e-12
# largest Chebyshev basis T_k(X) beta, k = 0..K, that the propagator may hold
CHEBYSHEV_BASIS_LIMIT = 256 * 2**20  # bytes
# working memory per block of time rows: their states plus their samples of
# exp(-i*a*cos(theta)); bounds the footprint on long grids
BLOCK_BYTES = 2**20


def _require_hermitian(hamiltonian: np.ndarray) -> np.ndarray:
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise ValueError("Hamiltonian must be Hermitian")
    return h


def full_hamiltonian(
    scenario: SearchScenario, prep: StatePrep, *, dim_cap: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """Dense N x N Hamiltonian: target projector plus initial-state projector."""
    n = scenario.n_items
    if n > dim_cap:
        raise ValueError(f"n_items={n} exceeds the full-simulation cap {dim_cap}")
    h = scenario.energy * np.outer(prep.beta, prep.beta)
    targets = prep.target_items
    h[targets, targets] += scenario.energy
    return h


def evolve_on_grid(
    hamiltonian: np.ndarray, initial: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Evolve one state to every time in ``times``; rows are states.

    A single eigendecomposition serves all grid points, so dense grids cost
    little more than a single evolution.
    """
    h = _require_hermitian(hamiltonian)
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"state shape {psi0.shape} does not match Hamiltonian {h.shape}")
    vals, vecs = np.linalg.eigh(h)
    amplitudes = vecs.conj().T @ psi0
    ts = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(ts, vals))
    return (phases * amplitudes) @ vecs.T


def reduced_basis(prep: StatePrep, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-space unit vectors |w> and |r> spanning the invariant plane.

    |r> is returned as the zero vector when the prepared state has no
    residual component (y == 1).
    """
    w = np.zeros(n_items)
    w[prep.target_items] = prep.target_coeffs
    r = np.zeros(n_items)
    if prep.r_count:
        r[prep.residual_items] = prep.residual_coeffs
    return w, r


def project_reduced(
    prep: StatePrep, state: np.ndarray
) -> tuple[complex, complex, float]:
    """Project a full-space state onto the invariant plane.

    Returns (a, b, leak) where a = <w|state>, b = <r|state>, and ``leak`` is
    the norm of the component outside the plane.
    """
    psi = np.asarray(state, dtype=complex)
    w, r = reduced_basis(prep, psi.shape[0])
    a = complex(w @ psi)  # basis vectors are real
    b = complex(r @ psi) if prep.r_count else 0.0 + 0.0j
    residual = psi - a * w - b * r
    return a, b, float(np.linalg.norm(residual))


def chebyshev_order(a_max: float) -> int:
    """Expansion order K that represents exp(-i*a*x) on [-1, 1] for |a| <= a_max.

    The Bessel weights J_k(a) fall off faster than exponentially once k
    exceeds a by a few multiples of a**(1/3), the width of their turning
    region; the margin puts the dropped tail far below roundoff.
    """
    a_max = abs(float(a_max))
    return math.ceil(a_max + 10.0 * a_max ** (1.0 / 3.0)) + 30


def chebyshev_coefficients(a, order: int) -> np.ndarray:
    """Coefficients g_k(a) of exp(-i*a*x) = sum_k g_k(a) * T_k(x), k <= order.

    They are g_0 = J_0(a) and g_k = 2 * (-i)**k * J_k(a), the cosine series of
    exp(-i*a*cos(theta)).  It is sampled at theta = pi*j/M for j = 0..M,
    M = order + 1, and mirrored to one period of 2M points, whose FFT gives
    the series.  Index m also collects the aliased term 2M - m >= order + 2,
    whose weight :func:`chebyshev_order` makes negligible.  One row per entry
    of ``a``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    m = int(order) + 1
    samples = np.exp(-1j * np.multiply.outer(a, np.cos(np.pi * np.arange(m + 1) / m)))
    period = np.concatenate([samples, samples[:, m - 1 : 0 : -1]], axis=1)
    coeffs = np.fft.fft(period, axis=1)[:, :m] / (2 * m)
    coeffs[:, 1:] *= 2.0
    return coeffs


def _chebyshev_basis(prep: StatePrep, order: int) -> np.ndarray:
    """Rows T_k(X) beta for k = 0..order, with X = H/E - I.

    H/E = P_target + |beta><beta| has its spectrum in [0, 2], so X's lies in
    [-1, 1].  X is applied as beta * (beta @ v) - v plus v on the targets.
    """
    beta = prep.beta
    targets = prep.target_items

    def shifted(v: np.ndarray) -> np.ndarray:
        out = beta * (beta @ v) - v
        out[targets] += v[targets]
        return out

    basis = np.empty((order + 1, beta.size))
    basis[0] = beta
    if order >= 1:
        basis[1] = shifted(beta)
    for k in range(2, order + 1):
        np.subtract(2.0 * shifted(basis[k - 1]), basis[k - 2], out=basis[k])
    return basis


def evolve_blocks(
    scenario: SearchScenario, prep: StatePrep, times
) -> Iterator[np.ndarray]:
    """Yield exp(-i*H*t) beta for consecutive blocks of ``times``; rows are states.

    With a = E*t, exp(-i*H*t) = exp(-i*a) * exp(-i*a*X), and the second factor
    is the Chebyshev series sum_k g_k(a) T_k(X) on the basis of
    :func:`_chebyshev_basis`.  The basis is built once for the largest |a|;
    each block of time rows then costs one product with it.

    Raises ``ValueError`` before allocating the basis when it would exceed
    ``CHEBYSHEV_BASIS_LIMIT``.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValueError("times must be a one-dimensional array of finite values")
    energy = scenario.energy
    n = scenario.n_items
    order = chebyshev_order(energy * float(np.max(np.abs(ts), initial=0.0)))
    need = (order + 1) * n * 8
    if need > CHEBYSHEV_BASIS_LIMIT:
        raise ValueError(
            f"full-space check needs a {need / 2**20:.0f} MiB Chebyshev basis "
            f"((K+1)*N*8 bytes for N={n}, K={order}), over the "
            f"{CHEBYSHEV_BASIS_LIMIT // 2**20} MiB limit"
        )
    basis = _chebyshev_basis(prep, order)
    rows = max(1, BLOCK_BYTES // (16 * (n + 2 * (order + 1))))
    for start in range(0, ts.size, rows):
        block = ts[start : start + rows]
        coeffs = chebyshev_coefficients(energy * block, order)
        coeffs *= np.exp(-1j * energy * block)[:, None]
        states = np.empty((block.size, n), dtype=complex)
        states.real = coeffs.real @ basis
        states.imag = coeffs.imag @ basis
        yield states


def plane_projection_on_grid(
    scenario: SearchScenario, prep: StatePrep, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve the prepared state over ``times`` and project it onto the plane.

    Returns arrays (a, b, leak) aligned with ``times``: a = <w|psi(t)>,
    b = <r|psi(t)>, and ``leak`` the norm of the component of psi(t) outside
    the invariant plane.  The states come from :func:`evolve_blocks`, one
    block of rows at a time, so the whole grid of states is never held.
    """
    ts = np.asarray(times, dtype=float)
    plane = np.column_stack(reduced_basis(prep, scenario.n_items))
    ab = np.empty((ts.size, 2), dtype=complex)
    leak = np.empty(ts.size)
    start = 0
    for states in evolve_blocks(scenario, prep, ts):
        rows = slice(start, start + len(states))
        ab[rows] = states @ plane
        states -= ab[rows] @ plane.T
        leak[rows] = np.linalg.norm(states, axis=1)
        start = rows.stop
    return ab[:, 0], ab[:, 1], leak
