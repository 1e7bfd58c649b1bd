"""Full-space simulation, used to validate the reduced dynamics.

:func:`plane_projection_on_grid` evolves the prepared state on the d symmetry
classes of the items, an exact image of the item space, by Lanczos: X = H/E - I
is applied to vectors, never built, and each time row is read in the Krylov
space.  It never uses the 2x2 closed form of :mod:`ctqsearch.dynamics`, which
is what it checks; ``verify`` runs on it.

:func:`full_hamiltonian`, :func:`evolve_on_grid` and :func:`project_reduced`
are dense test oracles.  They stay in this module, rather than with the other
test oracles, because the benchmark's layer tracer instruments them by name.
"""

from __future__ import annotations

import numpy as np

from .stateprep import StatePrep, symmetry_classes

HERMITIAN_TOL = 1e-12
# a backward-stable propagator is off by about eps * E * t_max: a leak or
# deviation within this many times that floor (1.75 the worst seen) is
# roundoff, and so is a Lanczos coefficient within this many eps (|X| <= 1)
ROUNDOFF_FACTOR = 4.0
KRYLOV_MAX = 32  # X has at most four distinct eigenvalues on the classes


def _require_hermitian(hamiltonian: np.ndarray) -> np.ndarray:
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise ValueError("Hamiltonian must be Hermitian")
    return h


def full_hamiltonian(beta: np.ndarray, targets, energy: float) -> np.ndarray:
    """Dense E * (P_targets + |beta><beta|) on any unit vector ``beta``: over
    items or symmetry classes, ``targets`` as indices or a mask."""
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
    the invariant plane plus the Krylov error bound, then d, the number of
    symmetry classes the evolution ran on.

    Lanczos from beta, fully reorthogonalised, gives the Krylov rows Q of
    X = H/E - I = diag(t - 1) + beta beta^T and their tridiagonal T = S
    diag(lam) S^T; it stops at m = d, at ``KRYLOV_MAX`` rows, or once the
    next coefficient b_m is roundoff.  psi(t) = Q^T S c(t) with c(t) =
    exp(-i*E*t) (exp(-i*E*t*lam) * S^T e1), so each row costs O(m^2):
    (a, b) = c . S^T Q [w r] and leak = |R S c|, R the triangle of Q's rows
    off the plane, plus the bound E*|t|*b_m on the Krylov error (Saad, SIAM
    J. Numer. Anal. 29, 209, 1992), which stays large in an unclosed space.
    X's spectrum lies in [-1, 1] and the common phase is factored out as the
    closed form factors it, so the roundoff stays near eps * E * t.
    """
    ts = np.asarray(times, dtype=float)
    beta, targets = symmetry_classes(prep)
    d = beta.size
    rows, diagonal, off = [beta], [], []
    while True:
        v = (targets - 1.0) * rows[-1] + beta * (beta @ rows[-1])
        diagonal.append(rows[-1] @ v)
        q = np.array(rows)
        for _ in range(2):  # Gram-Schmidt twice keeps Q orthonormal to roundoff
            v -= (q @ v) @ q
        b_next = 0.0 if len(rows) == d else float(np.linalg.norm(v))
        if b_next <= ROUNDOFF_FACTOR * np.finfo(float).eps or len(rows) == KRYLOV_MAX:
            break
        off.append(b_next)
        rows.append(v / b_next)
    lam, s = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    plane = np.column_stack(reduced_basis(beta, targets))
    q_plane = q @ plane
    outside = np.linalg.qr(q.T - plane @ q_plane.T, mode="r")
    coeffs = np.exp(np.multiply.outer(ts, -1j * energy * lam)) * s[0]  # G x m
    coeffs *= np.exp(-1j * energy * ts)[:, None]
    leak = np.hypot.reduce(np.abs(coeffs @ (outside @ s).T), axis=1)
    leak += energy * np.abs(ts) * b_next
    ab = coeffs @ (s.T @ q_plane)
    return ab[:, 0], ab[:, 1], leak, d
