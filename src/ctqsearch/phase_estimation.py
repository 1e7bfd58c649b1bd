"""Register measurement statistics, sampling, and overlap estimation.

The walk is the reduced propagator over one full driving period, 2*pi/E.
Its two eigenphases encode the overlap ``y`` as the pair
``(y, 1 - y)`` in units of full turns, so an M-point phase register measures
a value ``k`` whose fraction ``k/M`` clusters around one of those two phases:

* the branch with register phase ``y`` carries weight ``(1 - y)/2``;
* the branch with register phase ``1 - y`` carries weight ``(1 + y)/2``.

Estimation therefore sees a *mirror pair* of clusters ``{k, M - k}`` and must
decide which side is ``y``.  The heavier cluster belongs to the phase
``1 - y``, so the default rule reads ``y_hat = 1 - k_mode/M``.  When the two
clusters are too balanced to call, or the split is likelier under the mirror
reading (for small ``y`` both clusters hold nearly half the samples), a short
verification experiment decides: evolve to each candidate's optimal time and
count the measurements that hit a target, each with the plane's success
probability |a(t)|**2.

The register distribution here is the exact closed form of the measurement
after controlled powers of the walk and an inverse Fourier transform;
sampling it stands in for running the hardware.  The tests build that
register from the walk itself to check the closed form.

One function, :func:`_branch_law`, evaluates a branch's law at any register
bins.  :func:`sample_phase_register` draws from it on the offsets
``|j| <= REGISTER_WINDOW`` around the bin nearest ``M*phase``, and
:func:`measurement_distribution`, the CLI's ``register_distribution.csv``,
tabulates it on the union of the two branches' windows.  A branch holds at
least 8/pi**2 of its mass within one bin of its phase; the rarer tail
offsets are drawn by rejection from the envelope sin(pi*f)**2/(4*d**2).
Nothing of length M is built: a draw costs O(REGISTER_WINDOW + n), whatever M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _check_overlap, _reduced_coefficients, optimal_time
from .rng import make_rng, sample_inverse_cdf
from .scenario import InformationSet, SearchScenario
from .stateprep import StatePrep, weighted_superposition

# clusters are called ambiguous when the relative count gap falls below
# 2/sqrt(pair total), a two-sigma criterion for a fair-coin split, or when
# the heavy-side reading is not favoured by a log-likelihood ratio of at
# least AMBIGUITY_SIGMA**2/2, the same two-sigma evidence for a binomial
AMBIGUITY_SIGMA = 2.0
# verification draws per candidate, and the hit lead a candidate needs to win
N_VERIFY = 48
MIN_LEAD = 2
# register offsets |j| <= REGISTER_WINDOW around a branch peak are tabulated
# exactly, for sampling and the register table; farther ones are drawn by rejection
REGISTER_WINDOW = 64
# above 2**53, y_hat = 1 - k/M is no longer exact in float64
MAX_M_SIZE = 2**53
# tags of the random streams that register sampling and verification draw from
REGISTER_STREAM = "phase-register-window"
VERIFY_STREAM = "verify"


def _require_power_of_two(m_size: int) -> int:
    m_size = int(m_size)
    if m_size < 2 or m_size & (m_size - 1):
        raise ValueError(f"m_size must be a power of two >= 2, got {m_size}")
    if m_size > MAX_M_SIZE:
        raise ValueError(f"m_size must be at most 2**53, got {m_size}")
    return m_size


def next_power_of_two(value: int) -> int:
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return 1 << max(1, (int(value) - 1).bit_length())


@dataclass(frozen=True)
class RegisterDistribution:
    """Exact register statistics on the sorted bins ``k`` of the two branches'
    windows: the branch laws and their mixture, with weights (1 - y)/2 on the
    phase-y branch and (1 + y)/2 on its complement."""

    m_size: int
    k: np.ndarray
    branch_phase_y: np.ndarray
    branch_phase_complement: np.ndarray
    total: np.ndarray

    def __post_init__(self) -> None:
        for name in ("k", "branch_phase_y", "branch_phase_complement", "total"):
            getattr(self, name).setflags(write=False)

    @property
    def rest(self) -> tuple[float, float, float] | None:
        """Each column's mass off ``k``, max(0, 1 - sum); None when ``k`` is every bin."""
        columns = (self.total, self.branch_phase_y, self.branch_phase_complement)
        if self.k.size < self.m_size:
            return tuple(max(0.0, 1.0 - float(column.sum())) for column in columns)
        return None


def measurement_distribution(y: float, m_size: int) -> RegisterDistribution:
    """Mixture observed when measuring the register, on the bins of the branch windows:

    P(k) = (1-y)/2 * P(k | phase y) + (1+y)/2 * P(k | phase 1-y).
    """
    y = _check_overlap(y)
    m_size = _require_power_of_two(m_size)
    bins = {b for k0, _, offsets in (_window(y, m_size), _window(1.0 - y, m_size))
            for b in ((k0 + offsets) % m_size).tolist()}
    k = np.array(sorted(bins), dtype=np.int64)  # np.union1d would import numpy.ma
    b_y = _branch_law(y, m_size, k)
    b_c = _branch_law(1.0 - y, m_size, k)
    total = (1.0 - y) / 2.0 * b_y + (1.0 + y) / 2.0 * b_c
    return RegisterDistribution(m_size=m_size, k=k, branch_phase_y=b_y,
                                branch_phase_complement=b_c, total=total)


def _window(phase: float, m_size: int) -> tuple[int, float, np.ndarray]:
    """``k0``, the bin nearest ``M*phase`` (not reduced mod M), ``f = M*phase - k0``,
    and the offsets ``|j| <= REGISTER_WINDOW`` from it, clipped to ``[-M/2, M/2)``."""
    scaled = m_size * phase  # exact: M is a power of two
    k0 = round(scaled)
    half = m_size // 2
    offsets = np.arange(max(-REGISTER_WINDOW, -half), min(REGISTER_WINDOW, half - 1) + 1)
    return k0, scaled - k0, offsets


def _branch_law(phase: float, m_size: int, k) -> np.ndarray:
    """The exact law of the branch at ``phase`` on register bins ``k``:
    P(k) = sin(pi*f)**2 / (M*sin(pi*(f - j)/M))**2, and 1 where ``f - j`` is 0,
    with ``k0, f`` from :func:`_window` and ``j = (k - k0 + M/2) mod M - M/2``."""
    k0, f, _ = _window(phase, m_size)
    half = m_size // 2
    probs = ((np.asarray(k) - k0 + half) % m_size - half).astype(float)
    np.subtract(f, probs, out=probs)
    centre = probs == 0.0
    np.multiply(np.pi / m_size, probs, out=probs)
    np.sin(probs, out=probs)
    np.multiply(m_size, probs, out=probs)  # the denominator M*sin(pi*(f - j)/M)
    probs[centre] = 1.0
    np.divide(math.sin(math.pi * f), probs, out=probs)
    np.square(probs, out=probs)
    probs[centre] = 1.0
    return probs


def _tail_acceptance(d, m_size: int):
    """Probability of keeping a proposed tail offset at distance ``d`` from M*phase.

    The proposal gives offset distance ``d`` the mass of 1/x**2 over
    (d - 1, d], that is 1/(d*(d - 1)); the envelope sin(pi*f)**2/(4*d**2)
    dominates the branch law because M*sin(pi*d/M) >= 2d for d <= M/2.  The
    ratio of law to scaled proposal is therefore at most 1, and at least
    4/pi**2 * (d - 1)/d.
    """
    return 4.0 * d * (d - 1.0) / np.square(m_size * np.sin(np.pi / m_size * d))


def _draw_tail(f: float, m_size: int, rng: np.random.Generator, n_draws: int) -> np.ndarray:
    """Offsets ``j`` with ``|j| > REGISTER_WINDOW``, exactly from the branch law.

    Each side ``s`` (+1 right, -1 left) covers ``|j| = i`` for
    ``REGISTER_WINDOW < i <= floor(M/2 + s*f)``, the offsets within circular
    distance M/2 of ``M*phase``, so the two sides and the window hold every
    register bin once.  A side is chosen by its proposal mass, ``X`` is drawn
    by inverse CDF from the density 1/(x - s*f)**2 on it, ``i = ceil(X)``,
    and the draw is kept with probability :func:`_tail_acceptance`.
    """
    sides = np.array([1.0, -1.0])
    last = np.floor(m_size / 2 + sides * f)
    near = REGISTER_WINDOW - sides * f
    far = last - sides * f
    mass = (far - near) / (near * far)  # 1/near - 1/far without cancellation
    out = np.empty(0, dtype=np.int64)
    while out.size < n_draws:
        u = rng.random((3, n_draws - out.size))
        side = (u[0] * mass.sum() >= mass[0]).astype(np.intp)
        s = sides[side]
        x = s * f + 1.0 / (1.0 / near[side] - u[1] * mass[side])
        i = np.clip(np.ceil(x), REGISTER_WINDOW + 1, last[side])
        keep = u[2] < _tail_acceptance(i - s * f, m_size)
        out = np.concatenate([out, (s * i)[keep].astype(np.int64)])
    return out


def sample_phase_register(y: float, m_size: int, n_samples: int, seed: int) -> np.ndarray:
    """Draw register outcomes from the exact mixture in O(REGISTER_WINDOW + n).

    One uniform per sample picks the phase-y branch with probability
    (1 - y)/2.  The offset from that branch's nearest bin is drawn by inverse
    CDF over :func:`_branch_law` on its :func:`_window`, plus one bin holding
    the tail's mass when the window is not the whole register; a draw there is
    replaced by an exact rejection draw (:func:`_draw_tail`).
    Nothing of length M is built.
    """
    if int(n_samples) < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    y = _check_overlap(y)
    m_size = _require_power_of_two(m_size)
    rng = make_rng(seed, REGISTER_STREAM)
    on_y = rng.random(int(n_samples)) < (1.0 - y) / 2.0
    samples = np.empty(int(n_samples), dtype=np.int64)
    for phase, chosen in ((y, on_y), (1.0 - y, ~on_y)):
        k0, f, offsets = _window(phase, m_size)
        probs = _branch_law(phase, m_size, k0 + offsets)
        if offsets.size < m_size:
            # a peak on a bin (f == 0) puts all its mass there: the tail is empty
            probs = np.append(probs, max(0.0, 1.0 - float(probs.sum())) if f else 0.0)
        picks = sample_inverse_cdf(probs, rng, np.count_nonzero(chosen))
        in_tail = picks == offsets.size
        drawn = picks + offsets[0]
        drawn[in_tail] = _draw_tail(f, m_size, rng, np.count_nonzero(in_tail))
        samples[chosen] = (k0 + drawn) % m_size
    return samples


@dataclass(frozen=True)
class PhaseEstimate:
    """Outcome of cluster analysis on register samples.

    It stores what the register and verification produced.  ``k_mode`` is
    the register value read as phase 1 - y, the heavier side of the modal
    mirror pair unless :func:`disambiguate` overturned the split, and
    ``cluster_counts`` holds the sample counts at ``k_mode`` and at its
    mirror, in that order.  ``ambiguous`` flags, as :func:`estimate_y` set
    it, a split too balanced to call from counts alone; callers should then
    run :func:`disambiguate`, which leaves the flag as it is.
    ``log_likelihood_ratio`` compares the observed split under the reading
    ``y = y_hat`` against the mirror reading; it is 0 when the pair has a
    single side.  ``verification`` holds (candidate, harmonic, hits) for each
    candidate :func:`disambiguate` drew for, and is None when it drew
    nothing; ``branch_flipped`` is True when it overturned the count split.

    The rest derives from ``k_mode`` and ``m_size``: ``y_hat = 1 - k_mode/M``,
    ``y_candidates`` the mirror pair (p/M, 1 - p/M) with
    p = min(k_mode, M - k_mode), ``candidate_gap`` their distance on the
    unit circle, and ``resolution`` one register bin, 1/M.
    """

    k_mode: int
    m_size: int
    cluster_counts: tuple[int, int]
    ambiguous: bool
    log_likelihood_ratio: float
    verification: tuple[tuple[float, int, int], ...] | None = None
    branch_flipped: bool = False

    @property
    def y_hat(self) -> float:
        return 1.0 - self.k_mode / self.m_size

    @property
    def y_candidates(self) -> tuple[float, float]:
        low = min(self.k_mode, self.m_size - self.k_mode) / self.m_size
        return low, 1.0 - low

    @property
    def candidate_gap(self) -> float:
        low, high = self.y_candidates
        return min(high - low, 2.0 * low)  # the two ways round the unit circle

    @property
    def resolution(self) -> float:
        return 1.0 / self.m_size


def _mirror_log_likelihood_ratio(c: float, heavy_n: int, light_n: int) -> float:
    """Binomial log-likelihood ratio of the heavy-side reading over its mirror.

    With the heavy side at phase 1 - c, reading y = c makes it the phase 1 - y
    branch, which holds (1 + c)/2 of the pair's samples; the mirror reading
    y = 1 - c makes it the phase-y branch, which holds c/2.  Requires
    0 < c < 1.
    """
    return heavy_n * math.log((1.0 + c) / c) + light_n * math.log((1.0 - c) / (2.0 - c))


def estimate_y(samples, m_size: int) -> PhaseEstimate:
    """Estimate the overlap from register samples.

    Register values are folded into mirror pairs {k, M-k}; the modal pair
    fixes the candidate set and the count split between its two sides picks
    the branch: the heavier side estimates phase 1-y.  The estimate is
    ambiguous unless that split is both lopsided and likelier under this
    reading than under the mirror one.
    """
    m_size = _require_power_of_two(m_size)
    ks = np.asarray(samples, dtype=np.int64)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("samples must be a nonempty one-dimensional sequence")
    if np.any((ks < 0) | (ks >= m_size)):
        raise ValueError(f"register samples must lie in [0, {m_size})")

    pair_keys, counts = np.unique(np.minimum(ks, (m_size - ks) % m_size), return_counts=True)
    p = int(pair_keys[np.argmax(counts)])  # modal pair; ties resolve to the smallest key
    mirror = (m_size - p) % m_size

    n_low = int(np.sum(ks == p))
    n_high = int(np.sum(ks == mirror)) if mirror != p else 0
    if n_low > n_high:
        heavy_k, heavy_n, light_n = p, n_low, n_high
    else:
        # a dead-even split also picks the high side, whose reading is y = p/M
        heavy_k, heavy_n, light_n = mirror, n_high, n_low

    pair_total = n_low + n_high
    gap = (heavy_n - light_n) / pair_total
    # the pairs {0} and {M/2} have one side, where the ratio is undefined
    llr = (_mirror_log_likelihood_ratio(1.0 - heavy_k / m_size, heavy_n, light_n)
           if mirror != p else 0.0)
    # at p = M/2 both candidates are 1/2: nothing to disambiguate
    ambiguous = 2 * p != m_size and (
        light_n == 0
        or gap < AMBIGUITY_SIGMA / math.sqrt(pair_total)
        or llr < AMBIGUITY_SIGMA**2 / 2.0
    )
    return PhaseEstimate(k_mode=heavy_k, m_size=m_size, cluster_counts=(heavy_n, light_n),
                         ambiguous=ambiguous, log_likelihood_ratio=llr)


def _verification_harmonic(candidate: float, rival: float, energy: float) -> int:
    """The odd multiple of the candidate's peak time to verify at: 1, or the
    smallest one that separates the mirror pair, whichever gives the rival
    reading the lower predicted success |a(t)|**2.

    Success probability peaks at every odd multiple of pi/(2*E*c), so any odd
    harmonic is still "the candidate's optimal time"; harmonic k amplifies a
    relative frequency error k-fold.  Choosing k >= c/gap pushes the rival's
    prediction roughly a quarter period away, which is what makes
    nearly-mirror-symmetric pairs (y close to 1/2) distinguishable at all; for
    a well-split pair that push can land the rival on a peak of its own.
    """
    separating = max(1, math.ceil(candidate / abs(rival - candidate)))
    harmonics = (1, separating + 1 if separating % 2 == 0 else separating)
    t_peak = optimal_time(candidate, energy)
    a, _ = _reduced_coefficients(rival, energy, [h * t_peak for h in harmonics])
    return harmonics[int(np.argmin(np.abs(a)))]


def _verification_hits(
    y: float,
    energy: float,
    candidate: float,
    rng: np.random.Generator,
    n_draws: int,
    harmonic: int,
) -> int:
    """Evolve the system of overlap ``y`` to an odd-harmonic peak of the
    candidate and measure ``n_draws`` times: each draw hits a target with the
    plane's success probability |a(t)|**2 (Farhi and Gutmann, PRA 57, 2403, 1998).
    """
    a, _ = _reduced_coefficients(y, energy, [harmonic * optimal_time(candidate, energy)])
    return int(np.count_nonzero(rng.random(n_draws) < abs(complex(a[0])) ** 2))


def disambiguate(estimate: PhaseEstimate, prep: StatePrep, energy: float, *,
                 seed: int) -> PhaseEstimate:
    """Resolve an ambiguous mirror pair with verification experiments.

    Both candidates are tried: evolve the prepared state to an odd-harmonic
    peak of each (:func:`_verification_harmonic`, the one of two that better
    separates the pair) and count how many of ``N_VERIFY`` measurements hit
    a target.  A candidate must lead by at least ``MIN_LEAD`` hits to win;
    otherwise the branch the register split makes likelier stands (at
    rational phase ratios both candidates can score perfectly, and the split
    is then the best evidence available).  A clear split is returned
    unchanged; a flip reads the other side of the pair as phase 1 - y.
    The pair {0} (y near 1, or any y < 1/(2M)) stands when half the draws for y_hat = 1 hit,
    each with p >= 0.935 at y >= 1 - 1/(2M) and <= 0.20 below 1/(2M); else it is refused.
    """
    if not estimate.ambiguous:
        return estimate
    rng = make_rng(seed, VERIFY_STREAM)
    if estimate.k_mode == 0:
        hits = _verification_hits(prep.y, energy, 1.0, rng, N_VERIFY, 1)
        if 2 * hits < N_VERIFY:
            raise ValueError(f"y_hat = 1 hit {hits} of {N_VERIFY} verification draws: y is below "
                             f"1/(2M) = {0.5 / estimate.m_size:g}; raise the register size")
        return replace(estimate, verification=((1.0, 1, hits),))
    candidates = estimate.y_candidates
    harmonics = [_verification_harmonic(c, r, energy)
                 for c, r in zip(candidates, candidates[::-1])]
    hits = [_verification_hits(prep.y, energy, c, rng, N_VERIFY, h)
            for c, h in zip(candidates, harmonics)]
    verification = tuple(zip(candidates, harmonics, hits))
    if abs(hits[0] - hits[1]) >= MIN_LEAD:
        flip = candidates[int(np.argmax(hits))] != estimate.y_hat
    else:
        flip = estimate.log_likelihood_ratio < 0.0  # tie: the likelihood-preferred branch
    if not flip:
        return replace(estimate, verification=verification)
    at_mode, at_mirror = estimate.cluster_counts
    return replace(
        estimate,
        k_mode=estimate.m_size - estimate.k_mode,  # k_mode is not 0 here
        cluster_counts=(at_mirror, at_mode),
        log_likelihood_ratio=-estimate.log_likelihood_ratio,
        verification=verification,
        branch_flipped=not estimate.branch_flipped,
    )


def run_phase_estimation(
    prep: StatePrep,
    energy: float,
    *,
    m_size: int = 64,
    n_samples: int = 200,
    seed: int = 0,
) -> tuple[PhaseEstimate, np.ndarray]:
    """Sample the register for a prepared state and estimate its overlap.

    ``prep`` is a scenario's prepared state (:func:`weighted_superposition`)
    and ``energy`` its E.  Returns the (possibly verification-resolved)
    estimate together with the raw register samples.
    """
    samples = sample_phase_register(prep.y, m_size, n_samples, seed)
    return disambiguate(estimate_y(samples, m_size), prep, energy, seed=seed), samples


def counting_scenario(scenario: SearchScenario) -> SearchScenario:
    """The scenario with one information set, its support, at weight 1.0.

    With equal amplitude on every covered item the overlap obeys
    y**2 = (target count) / (support size), which is what makes the register
    estimate invertible into a count.
    """
    return replace(scenario, info_sets=(InformationSet(scenario.support, 1.0),))


def estimate_count(y_hat: float, support_size: int) -> int:
    """Invert y_hat**2 = l / support_size, clamped to [1, support_size]."""
    if int(support_size) < 1:
        raise ValueError(f"support_size must be >= 1, got {support_size}")
    raw = int(math.floor(y_hat * y_hat * int(support_size) + 0.5))
    return min(max(raw, 1), int(support_size))


def _counting_m_size(m_size: int | None, support_size: int) -> int:
    """Counting register size: at least 4 * support_size, so that the two candidate
    phases sit two bins apart; ``None`` picks the smallest such power of two >= 64."""
    if m_size is None:
        return next_power_of_two(max(64, 4 * support_size))
    m_size = _require_power_of_two(m_size)
    if m_size < 4 * support_size:
        raise ValueError(
            f"counting requires m_size >= 4 * support_size = {4 * support_size}, got {m_size}"
        )
    return m_size


def run_counting(
    scenario: SearchScenario,
    *,
    m_size: int | None = None,
    n_samples: int = 200,
    seed: int = 0,
) -> tuple[int, PhaseEstimate]:
    """Estimate the number of targets inside the covered support.

    The register runs on the uniform state over the support
    (:func:`counting_scenario`); its size is :func:`_counting_m_size`.
    Returns the count and the register estimate it inverts.
    """
    counting = counting_scenario(scenario)
    m_size = _counting_m_size(m_size, counting.support_size)
    est, _ = run_phase_estimation(weighted_superposition(counting), counting.energy,
                                  m_size=m_size, n_samples=n_samples, seed=seed)
    return estimate_count(est.y_hat, counting.support_size), est
