"""Oracles and scenario generators that only the tests use.

Nothing in the ``ctqsearch`` pipeline calls these.  They are independent
routes to what the package computes in closed form, and seeded generators for
random scenario suites:

* the 2x2 Hamiltonian of the invariant plane, its propagator and eigensystem;
* the register built from the walk itself: controlled powers of one driving
  period of the propagator, then a Fourier transform along the register, on
  the invariant plane and on the symmetry classes of a prepared state;
* the register law at full width, on every bin 0..M-1, through the one
  evaluator the sampler and the register table read on their windows;
* the branch-conditional window mass and the tail and pointwise bounds of
  Brassard, Hoyer, Mosca and Tapp (quant-ph/0005055), checked on that law;
* the matrix-free Chebyshev propagator of Tal-Ezer and Kosloff (J. Chem.
  Phys. 81, 3967, 1984), built from products ``H @ v`` alone, on items or on
  symmetry classes: the package's Lanczos route checked by a route that
  diagonalises nothing;
* the plane projection on the symmetry classes through one dense ``eigh`` of
  their d x d matrix, read in its eigenbasis: the package's Lanczos route
  checked by a route with no Krylov space;
* a plane skewed by one class, the fault both routes must read as a leak;
* states on the symmetry classes of a prepared state lifted back to items;
* the distance on the unit circle;
* the verification hit count drawn over the per-target outcomes;
* the misplaced-confidence scenario, the norm bounds on its weights, and
  random scenario suites of three families.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterator

import numpy as np
from scipy.linalg import expm

from ctqsearch import (
    InformationSet,
    SearchScenario,
    StatePrep,
    optimal_time,
    success_distribution,
)
from ctqsearch.phase_estimation import _branch_law
from ctqsearch.analysis import _check_misplaced_params
from ctqsearch.dynamics import _check_energy, _check_overlap, _check_time, _residual_norm
from ctqsearch import fullsim
from ctqsearch.rng import make_rng, sample_inverse_cdf
from ctqsearch.stateprep import symmetry_classes

# lower bound on the probability that a branch lands within 1/M of its phase
EIGHT_OVER_PI_SQ = 8.0 / math.pi**2
# largest Chebyshev basis T_k(X) beta, k = 0..K, that the propagator may hold
CHEBYSHEV_BASIS_LIMIT = 256 * 2**20  # bytes
# working memory per block of time rows of the dense propagators
BLOCK_BYTES = 2**20


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


def _walk_rows(hamiltonian: np.ndarray, start, m_size: int) -> np.ndarray:
    """Rows m = 0..M-1: Q**m applied to ``start``, over sqrt(M) for the uniform
    register, with Q = expm(-2j*pi*H) one driving period at E = 1, taken by a
    generic matrix exponential."""
    q = expm(-2j * math.pi * hamiltonian)
    state = np.empty((m_size, len(start)), dtype=complex)
    state[0] = start
    for m in range(1, m_size):
        state[m] = q @ state[m - 1]
    return state / math.sqrt(m_size)


def _register_marginal(rows: np.ndarray) -> np.ndarray:
    """The inverse Fourier transform out[k] = sum_m in[m] * exp(-2j*pi*k*m/M) / sqrt(M)
    along the register, then the system traced out."""
    register = np.fft.fft(rows, axis=0) / math.sqrt(rows.shape[0])
    return np.sum(np.abs(register) ** 2, axis=1)


def walk_register(y: float, m_size: int) -> np.ndarray:
    """Register-system state after the controlled walks of the 2x2 Hamiltonian,
    rows m = 0..M-1, from the plane state (y, sqrt(1-y**2)) in the (|w>, |r>) basis."""
    return _walk_rows(reduced_hamiltonian(y, 1.0), (y, math.sqrt(1.0 - y * y)), m_size)


def walk_register_marginal(y: float, m_size: int) -> np.ndarray:
    """Register distribution of :func:`walk_register`."""
    return _register_marginal(walk_register(y, m_size))


def class_walk_register_marginal(prep: StatePrep, m_size: int) -> np.ndarray:
    """Register distribution of the walk on the symmetry classes of ``prep``.

    The Hamiltonian is H_c = diag(is_target) + b b^T at E = 1 on the class
    amplitudes b of :func:`symmetry_classes`, and the walk starts from b; the
    plane, y and the closed forms are never used.
    """
    b, is_target = symmetry_classes(prep)
    return _register_marginal(_walk_rows(np.diag(is_target * 1.0) + np.outer(b, b), b, m_size))


def branch_law(phase: float, m_size: int) -> np.ndarray:
    """The package's register law of the branch at ``phase``, on bins 0..M-1.

    It is ``_branch_law`` over every bin, the one function that also gives
    the sampler its window, so the bounds below certify what is sampled.
    """
    return _branch_law(phase, m_size, np.arange(m_size))


def register_law(y: float, m_size: int) -> np.ndarray:
    """The observable mixture on bins 0..M-1, weighted as
    ``measurement_distribution`` weighs its windowed columns."""
    return (1.0 - y) / 2.0 * branch_law(y, m_size) + (1.0 + y) / 2.0 * branch_law(1.0 - y, m_size)


def circle_distance(a, b):
    """Distance on the unit circle: min over integers j of |a - b + j|."""
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    out = np.minimum(diff, 1.0 - diff)
    if np.ndim(out) == 0:
        return float(out)
    return out


def window_mass(phase: float, m_size: int, m: int = 1) -> float:
    """Branch-conditional probability that k/M lands within m/M of the phase
    (criterion 03: at least 8/pi**2 for m = 1), on :func:`branch_law`."""
    probs = branch_law(phase, m_size)
    d = circle_distance(phase, np.arange(m_size) / m_size)
    return float(np.sum(probs[d <= m / m_size + 1e-12]))


def tail_and_pointwise_hold(y: float, m_size: int, m_values=(2, 3, 5, 10)) -> bool:
    """Check the register's concentration guarantees on both branches of
    :func:`branch_law` (criterion 04).

    Tail windows: P(circle distance <= m/M | branch) >= 1 - 1/(2*(m-1)) for
    each m >= 2.  Pointwise: every outcome at circle distance d > 0 from the
    branch phase has probability at most 1/(2*M*d)**2.  Both within 1e-12.
    The phase-0 branch of y = 1 carries no weight and is skipped.
    """
    k = np.arange(m_size)
    for phase in (y, 1.0 - y):
        if phase == 0.0:
            continue
        probs = branch_law(phase, m_size)
        d = circle_distance(phase, k / m_size)
        far = d > 0.0
        if np.any(probs[far] > 1.0 / (2.0 * m_size * d[far]) ** 2 + 1e-12):
            return False
        for m in m_values:
            if window_mass(phase, m_size, m) < 1.0 - 1.0 / (2.0 * (m - 1)) - 1e-12:
                return False
    return True


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


def _chebyshev_basis(beta: np.ndarray, targets, order: int) -> np.ndarray:
    """Rows T_k(X) beta for k = 0..order, with X = H/E - I.

    H/E = P_target + |beta><beta| has its spectrum in [0, 2], so X's lies in
    [-1, 1].  X is applied as beta * (beta @ v) - v plus v on the targets.
    """

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


def evolve_blocks(beta: np.ndarray, targets, energy: float, times) -> Iterator[np.ndarray]:
    """Yield exp(-i*H*t) beta for consecutive blocks of ``times``; rows are states.

    H = E * (P_targets + |beta><beta|) on any unit vector ``beta``: over items
    or symmetry classes.  With a = E*t, exp(-i*H*t) = exp(-i*a) * exp(-i*a*X),
    and the second factor is the Chebyshev series sum_k g_k(a) T_k(X) on the
    basis of :func:`_chebyshev_basis`, built once for the largest |a|; each
    block of time rows then costs one product with it.

    Raises ``ValueError`` before allocating the basis when it would exceed
    ``CHEBYSHEV_BASIS_LIMIT``.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValueError("times must be a one-dimensional array of finite values")
    d = beta.size
    order = chebyshev_order(energy * float(np.max(np.abs(ts), initial=0.0)))
    need = (order + 1) * d * 8
    if need > CHEBYSHEV_BASIS_LIMIT:
        raise ValueError(
            f"full-space check needs a {need / 2**20:.0f} MiB Chebyshev basis "
            f"((K+1)*d*8 bytes for d={d}, K={order}), over the "
            f"{CHEBYSHEV_BASIS_LIMIT // 2**20} MiB limit"
        )
    basis = _chebyshev_basis(beta, targets, order)
    rows = max(1, BLOCK_BYTES // (16 * (d + 2 * (order + 1))))
    for start in range(0, ts.size, rows):
        block = ts[start : start + rows]
        coeffs = chebyshev_coefficients(energy * block, order)
        coeffs *= np.exp(-1j * energy * block)[:, None]
        states = np.empty((block.size, d), dtype=complex)
        states.real = coeffs.real @ basis
        states.imag = coeffs.imag @ basis
        yield states


def dense_plane_projection(prep: StatePrep, energy: float, times):
    """(a, b, leak, d) of ``plane_projection_on_grid`` through the dense route.

    X = H/E - I = V diag(lam) V^T on the d symmetry classes, from
    ``full_hamiltonian`` and one ``eigh``; psi(t) = V c(t) with c(t) =
    exp(-i*E*t) (exp(-i*E*t*lam) * V^T beta), so each row is read from c:
    (a, b) = c . V^T [w r] and leak = |c - (a, b) . (V^T [w r])^T|, in blocks
    of rows of at most ``BLOCK_BYTES``.  The plane is ``fullsim.reduced_basis``,
    looked up when called, so a test that replaces it moves both routes.
    """
    ts = np.asarray(times, dtype=float)
    beta, targets = symmetry_classes(prep)
    d = beta.size
    x = fullsim.full_hamiltonian(beta, targets, 1.0)
    x.flat[:: d + 1] -= 1.0
    vals, vecs = np.linalg.eigh(x)
    amplitudes = vecs.T @ beta
    plane = vecs.T @ np.column_stack(fullsim.reduced_basis(beta, targets))
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


def skewed_plane(delta: float):
    """A stand-in for ``fullsim.reduced_basis`` with a fault of size ~delta: the
    plane of beta with its last class scaled by (1 + delta) and renormalised."""
    exact = fullsim.reduced_basis

    def plane(beta: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
        skewed = beta.copy()
        skewed[-1] *= 1.0 + delta
        return exact(skewed / np.linalg.norm(skewed), targets)

    return plane


def lift_classes(beta: np.ndarray, target_items: np.ndarray, class_states) -> np.ndarray:
    """Item-level rows from rows over the symmetry classes of ``beta``.

    Each item's class is found again here, with ``return_inverse``, which the
    pipeline never needs: item i of class c (n_c items) gets c's amplitude over
    sqrt(n_c), and items of amplitude zero stay zero.
    """
    signed = beta.copy()
    signed[target_items] *= -1.0
    values, inverse, counts = np.unique(signed, return_inverse=True, return_counts=True)
    covered = values != 0.0
    column = np.cumsum(covered) - 1  # index of each covered value among the classes
    items = np.flatnonzero(covered[inverse])
    rows = np.atleast_2d(class_states)
    lifted = np.zeros((rows.shape[0], beta.size), dtype=rows.dtype)
    lifted[:, items] = rows[:, column[inverse[items]]] / np.sqrt(counts[inverse[items]])
    return lifted


def verification_hits_by_outcome(
    prep: StatePrep,
    energy: float,
    candidate: float,
    rng: np.random.Generator,
    n_draws: int,
    harmonic: int,
) -> int:
    """Verification hits drawn over the per-target outcomes: evolve to
    ``harmonic`` times the candidate's optimal time, draw ``n_draws`` outcomes
    by inverse CDF over the l target probabilities and the aggregate failure,
    and count the draws on a target bin."""
    probs = success_distribution(prep, energy, harmonic * optimal_time(candidate, energy))
    draws = sample_inverse_cdf(probs, rng, n_draws)
    return int(np.count_nonzero(draws < probs.size - 1))


def weight_power_sum(scenario: SearchScenario) -> float:
    """Sum of squared weights; at least 1/n for any normalized weight vector."""
    return math.fsum(s.weight * s.weight for s in scenario.info_sets)


def nu_squared_lower(scenario: SearchScenario) -> float:
    """Lower bound sum_j |A_j| * alpha_j**2 <= nu**2 (equality iff disjoint)."""
    return math.fsum(s.size * s.weight * s.weight for s in scenario.info_sets)


def misplaced_scenario(
    l: int,
    n1: int,
    n2: int,
    n12: int,
    alpha2: float,
    *,
    n_items: int | None = None,
    energy: float = 1.0,
) -> SearchScenario:
    """Concrete scenario realizing the misplaced-confidence model.

    Items 0..l-1 are the targets; the first set is 0..n1-1, the second covers
    the last n12 items of the first plus n2-n12 fresh items.
    """
    _check_misplaced_params(l, n1, n2, n12)
    if not 0.0 < alpha2 < 1.0:
        raise ValueError(f"alpha2 must lie in (0, 1), got {alpha2}")
    span = n1 + n2 - n12
    if n_items is None:
        n_items = span
    if n_items < span:
        raise ValueError(f"n_items={n_items} cannot hold {span} covered items")
    return SearchScenario(
        n_items=n_items,
        targets=range(l),
        info_sets=(
            InformationSet(range(n1), 1.0 - alpha2),
            InformationSet(range(n1 - n12, n1 - n12 + n2), alpha2),
        ),
        energy=energy,
    )


class ScenarioMode(Enum):
    """Families the random generator can produce."""

    BASIC = "basic"
    DISJOINT = "disjoint"
    MISPLACED = "misplaced"


def _normalized_weights(rng: np.random.Generator, n_sets: int, uniform: bool) -> np.ndarray:
    if uniform:
        return np.full(n_sets, 1.0 / n_sets)
    raw = rng.uniform(0.05, 1.0, n_sets)
    return raw / raw.sum()


def _random_basic(
    rng: np.random.Generator, n_items_range, n_sets_range, uniform_weights, energy_range
) -> SearchScenario:
    n_items = int(rng.integers(n_items_range[0], n_items_range[1] + 1))
    n_sets = int(rng.integers(n_sets_range[0], n_sets_range[1] + 1))
    l = int(rng.integers(1, max(1, n_items // 8) + 1))
    targets = rng.choice(n_items, size=l, replace=False)
    members: list[set[int]] = []
    for _ in range(n_sets):
        size = int(rng.integers(0, max(2, n_items // 4)))
        base = set(int(i) for i in rng.choice(n_items, size=size, replace=False))
        base.add(int(targets[int(rng.integers(l))]))  # every set meets the targets
        members.append(base)
    for t in targets:  # every target is covered
        members[int(rng.integers(n_sets))].add(int(t))
    weights = _normalized_weights(rng, n_sets, uniform_weights)
    return SearchScenario(
        n_items=n_items,
        targets=targets,
        info_sets=tuple(InformationSet(m, w) for m, w in zip(members, weights)),
        energy=float(rng.uniform(*energy_range)),
    )


def _random_disjoint(
    rng: np.random.Generator,
    n_items_range,
    n_sets_range,
    uniform_weights,
    energy_range,
    support_cap,
) -> SearchScenario:
    n_items = int(rng.integers(n_items_range[0], n_items_range[1] + 1))
    n_sets = int(rng.integers(n_sets_range[0], n_sets_range[1] + 1))
    n_sets = min(n_sets, n_items)
    l = n_sets + int(rng.integers(0, 4))  # at least one target per set
    if support_cap is not None:
        l = min(l, support_cap)
    l = min(l, n_items)
    n_sets = min(n_sets, l)
    r_cap = (support_cap - l) if support_cap is not None else 24
    r_cap = max(0, min(r_cap, n_items - l))
    r = int(rng.integers(0, r_cap + 1))

    pool = [int(i) for i in rng.choice(n_items, size=l + r, replace=False)]
    targets, rest = pool[:l], pool[l:]
    members: list[set[int]] = [set() for _ in range(n_sets)]
    for j in range(n_sets):
        members[j].add(targets[j])
    for item in targets[n_sets:] + rest:
        members[int(rng.integers(n_sets))].add(item)
    weights = _normalized_weights(rng, n_sets, uniform_weights)
    return SearchScenario(
        n_items=n_items,
        targets=targets,
        info_sets=tuple(InformationSet(m, w) for m, w in zip(members, weights)),
        energy=float(rng.uniform(*energy_range)),
    )


def _random_misplaced(rng: np.random.Generator, energy_range) -> SearchScenario:
    l = int(rng.integers(1, 4))
    n1 = l + int(rng.integers(0, 6))
    n2 = 1 + int(rng.integers(0, 7))
    n12 = int(rng.integers(0, min(n1 - l, n2) + 1))
    alpha2 = float(rng.uniform(0.5, 0.98))
    n_items = n1 + n2 - n12 + int(rng.integers(0, 17))
    return misplaced_scenario(
        l, n1, n2, n12, alpha2, n_items=n_items, energy=float(rng.uniform(*energy_range))
    )


def random_scenario_suite(
    seed: int,
    count: int,
    mode: ScenarioMode = ScenarioMode.BASIC,
    *,
    n_items_range: tuple[int, int] = (8, 256),
    n_sets_range: tuple[int, int] = (1, 6),
    uniform_weights: bool = False,
    support_cap: int | None = None,
    energy_range: tuple[float, float] = (0.5, 2.0),
) -> list[SearchScenario]:
    """Seeded stream of random scenarios of the requested family.

    BASIC scenarios have every set intersecting the targets; DISJOINT ones
    additionally keep the sets pairwise disjoint (``support_cap`` limits the
    covered-item count, which counting-mode callers use); MISPLACED ones
    realize the two-set misplaced-confidence shape.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = make_rng(seed, f"scenario-suite/{mode.value}")
    ranges = (rng, n_items_range, n_sets_range, uniform_weights, energy_range)
    if mode is ScenarioMode.BASIC:
        return [_random_basic(*ranges) for _ in range(count)]
    if mode is ScenarioMode.DISJOINT:
        return [_random_disjoint(*ranges, support_cap) for _ in range(count)]
    return [_random_misplaced(rng, energy_range) for _ in range(count)]
