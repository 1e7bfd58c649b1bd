"""Full-space simulation, used to validate the reduced dynamics.

:func:`plane_projection_on_grid` evolves the prepared state on the d symmetry
classes of the items, an exact image of the item space.  There the search
Hamiltonian H = E * (P_target + |beta><beta|) is a dense d x d matrix from
:func:`full_hamiltonian`; X = H/E - I, whose spectrum lies in [-1, 1], is
diagonalised once, and every time row is read in its eigenbasis, where no
class-basis state is rebuilt.  The check never uses the 2x2
closed form of :mod:`ctqsearch.dynamics`, which is what it checks; ``verify``
runs on it.  Its one size limit is d <= ``DEFAULT_DIM_CAP``.

:func:`evolve_on_grid` and :func:`project_reduced` are item-level test
oracles.  They stay in this module, rather than with the other test oracles,
because the benchmark's layer tracer instruments them by name.
"""

from __future__ import annotations

import numpy as np

from .stateprep import StatePrep, symmetry_classes

DEFAULT_DIM_CAP = 4096
HERMITIAN_TOL = 1e-12
# working memory per block of time rows: their phases and eigen-coordinates;
# bounds the footprint on long grids
BLOCK_BYTES = 2**20


def _require_hermitian(hamiltonian: np.ndarray) -> np.ndarray:
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise ValueError("Hamiltonian must be Hermitian")
    return h


def full_hamiltonian(beta: np.ndarray, targets, energy: float) -> np.ndarray:
    """Dense E * (P_targets + |beta><beta|) on any unit vector ``beta``: over
    items or symmetry classes, ``targets`` as indices or a mask.  Its dimension
    is refused above ``DEFAULT_DIM_CAP`` before anything is allocated."""
    d = beta.size
    if d > DEFAULT_DIM_CAP:
        raise ValueError(
            f"full-space check on d={d} dimensions is over the cap of {DEFAULT_DIM_CAP}"
        )
    h = energy * np.outer(beta, beta)
    h[targets, targets] += energy
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


def reduced_basis(beta: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors |w> and |r> spanning the invariant plane: beta on and off
    ``targets`` (indices or a mask), each normalised; |r> = 0 when y == 1."""
    w = np.zeros_like(beta)
    w[targets] = beta[targets]
    r = beta - w
    w /= np.linalg.norm(w)
    norm = np.linalg.norm(r)
    if norm:
        r /= norm
    return w, r


def project_reduced(prep: StatePrep, state: np.ndarray) -> tuple[complex, complex, float]:
    """Project a full-space state onto the invariant plane.

    Returns (a, b, leak) where a = <w|state>, b = <r|state>, and ``leak`` is
    the norm of the component outside the plane.
    """
    psi = np.asarray(state, dtype=complex)
    w, r = reduced_basis(prep.beta, prep.target_items)
    a = complex(w @ psi)  # basis vectors are real
    b = complex(r @ psi)
    residual = psi - a * w - b * r
    return a, b, float(np.linalg.norm(residual))


def plane_projection_on_grid(
    prep: StatePrep, energy: float, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Evolve the prepared state at energy E over ``times`` and project it onto the plane.

    Returns arrays (a, b, leak) aligned with ``times``: a = <w|psi(t)>,
    b = <r|psi(t)>, and ``leak`` the norm of the component of psi(t) outside
    the invariant plane, all three exact on the symmetry classes, then d, the
    number of classes the evolution ran on.

    With X = H/E - I = V diag(lam) V^T, psi(t) = V c(t) where c(t) =
    exp(-i*E*t) (exp(-i*E*t*lam) * V^T beta).  V is orthogonal, so each row is
    read from c at O(d): a = c . V^T w, b = c . V^T r and leak =
    |c - a V^T w - b V^T r|.  The common phase is factored out as the closed
    form factors it, and X's spectrum in [-1, 1] keeps the roundoff of the
    rest near eps * E * t.  One ``eigh`` serves the whole grid, which is
    walked in blocks of rows of at most ``BLOCK_BYTES``.
    """
    ts = np.asarray(times, dtype=float)
    beta, targets = symmetry_classes(prep)
    d = beta.size
    x = full_hamiltonian(beta, targets, 1.0)
    x.flat[:: d + 1] -= 1.0
    vals, vecs = np.linalg.eigh(x)
    amplitudes = vecs.T @ beta
    plane = vecs.T @ np.column_stack(reduced_basis(beta, targets))
    ab = np.empty((ts.size, 2), dtype=complex)
    leak = np.empty(ts.size)
    rows = max(1, BLOCK_BYTES // (32 * d))
    for start in range(0, ts.size, rows):
        block = ts[start : start + rows]
        coeffs = np.exp(-1j * energy * np.multiply.outer(block, vals)) * amplitudes
        coeffs *= np.exp(-1j * energy * block)[:, None]
        span = slice(start, start + block.size)
        ab[span] = coeffs @ plane
        coeffs -= ab[span] @ plane.T
        leak[span] = np.linalg.norm(coeffs, axis=1)
    return ab[:, 0], ab[:, 1], leak, d
