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
verification experiment (evolve to each candidate's optimal time and check
hits through the membership oracle) decides.

The register distribution here is the exact closed form of the measurement
after controlled powers of the walk and an inverse Fourier transform;
sampling it stands in for running the hardware.  The tests build that
register from the walk itself to check the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _check_overlap, optimal_time, success_distribution
from .rng import make_rng, sample_inverse_cdf
from .scenario import InformationSet, ScenarioError, SearchScenario, oracle_eval
from .stateprep import StatePrep, weighted_superposition

# clusters are called ambiguous when the relative count gap falls below
# 2/sqrt(pair total), a two-sigma criterion for a fair-coin split, or when
# the heavy-side reading is not favoured by a log-likelihood ratio of at
# least AMBIGUITY_SIGMA**2/2, the same two-sigma evidence for a binomial
AMBIGUITY_SIGMA = 2.0
# verification draws per candidate, and the hit lead a candidate needs to win
N_VERIFY = 48
MIN_LEAD = 2


def _require_power_of_two(m_size: int) -> int:
    m_size = int(m_size)
    if m_size < 2 or m_size & (m_size - 1):
        raise ValueError(f"m_size must be a power of two >= 2, got {m_size}")
    return m_size


def next_power_of_two(value: int) -> int:
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return 1 << max(1, (int(value) - 1).bit_length())


def circle_distance(a, b):
    """Distance on the unit circle: min over integers j of |a - b + j|."""
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    out = np.minimum(diff, 1.0 - diff)
    if np.ndim(out) == 0:
        return float(out)
    return out


def branch_distribution(phase: float, m_size: int) -> np.ndarray:
    """Register distribution conditioned on one branch.

    P(k) = sin(pi*(M*phase - k))**2 / (M * sin(pi*(phase - k/M)))**2 with the
    removable singularity P(k) = 1 when ``phase - k/M`` is an integer.
    """
    m_size = _require_power_of_two(m_size)
    phase = float(phase)
    # in place over two float buffers: at M = 2**21 each is 16 MiB
    k = np.arange(m_size, dtype=float)
    u = np.divide(k, m_size)
    np.subtract(phase, u, out=u)
    singular = np.remainder(u, 1.0) == 0.0
    den = np.multiply(np.pi, u, out=u)
    np.sin(den, out=den)
    np.multiply(m_size, den, out=den)
    den[singular] = 1.0
    num = np.subtract(m_size * phase, k, out=k)
    np.multiply(np.pi, num, out=num)
    np.sin(num, out=num)
    ratio = np.divide(num, den, out=num)
    ratio[singular] = 1.0
    return np.square(ratio, out=ratio)


@dataclass(frozen=True)
class RegisterDistribution:
    """Exact register statistics for overlap ``y``: the two branch
    distributions, their weights, and the observable mixture."""

    y: float
    m_size: int
    branch_phase_y: np.ndarray
    branch_phase_complement: np.ndarray
    weight_phase_y: float
    weight_phase_complement: float
    total: np.ndarray

    def __post_init__(self) -> None:
        for name in ("branch_phase_y", "branch_phase_complement", "total"):
            getattr(self, name).setflags(write=False)


def measurement_distribution(y: float, m_size: int) -> RegisterDistribution:
    """Mixture observed when measuring the register:

    P(k) = (1-y)/2 * P(k | phase y) + (1+y)/2 * P(k | phase 1-y).
    """
    y = _check_overlap(y)
    m_size = _require_power_of_two(m_size)
    b_y = branch_distribution(y, m_size)
    b_c = branch_distribution(1.0 - y, m_size)
    w_y = (1.0 - y) / 2.0
    w_c = (1.0 + y) / 2.0
    return RegisterDistribution(
        y=y,
        m_size=m_size,
        branch_phase_y=b_y,
        branch_phase_complement=b_c,
        weight_phase_y=w_y,
        weight_phase_complement=w_c,
        total=w_y * b_y + w_c * b_c,
    )


def sample_phase_register(y: float, m_size: int, n_samples: int, seed: int) -> np.ndarray:
    """Draw register outcomes from the exact mixture (inverse-CDF sampling)."""
    if int(n_samples) < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    dist = measurement_distribution(y, m_size)
    rng = make_rng(seed, "phase-register")
    return sample_inverse_cdf(dist.total, rng, n_samples).astype(np.int64)


@dataclass(frozen=True)
class PhaseEstimate:
    """Outcome of cluster analysis on register samples.

    ``y_candidates`` is the mirror pair (k*/M, 1 - k*/M) of the modal cluster,
    sorted ascending; ``k_mode`` is the register value read as phase 1 - y,
    so ``y_hat = 1 - k_mode/M`` always holds.  It is the heavier side unless
    :func:`disambiguate` overturned the split.  ``cluster_counts`` holds the
    sample counts at ``k_mode`` and at its mirror, in that order.
    ``ambiguous`` flags splits too balanced to call from counts alone;
    callers should then run :func:`disambiguate`.
    ``log_likelihood_ratio`` compares the observed split under the reading
    ``y = y_hat`` against the mirror reading; it is 0 when the pair has a
    single side.
    """

    k_mode: int
    y_candidates: tuple[float, float]
    y_hat: float
    resolution: float
    samples_used: int
    cluster_counts: tuple[int, int]
    ambiguous: bool
    candidate_gap: float
    log_likelihood_ratio: float


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

    pair_keys = np.minimum(ks, (m_size - ks) % m_size)
    counts = np.bincount(pair_keys, minlength=m_size)
    p = int(np.argmax(counts))  # modal pair; ties resolve to the smallest key
    mirror = (m_size - p) % m_size

    n_low = int(np.sum(ks == p))
    n_high = int(np.sum(ks == mirror)) if mirror != p else 0
    c_low, c_high = p / m_size, 1.0 - p / m_size

    if mirror == p and 2 * p == m_size:
        # both candidates coincide at 1/2: nothing to disambiguate
        return PhaseEstimate(
            k_mode=p,
            y_candidates=(0.5, 0.5),
            y_hat=0.5,
            resolution=1.0 / m_size,
            samples_used=int(ks.size),
            cluster_counts=(n_low, 0),
            ambiguous=False,
            candidate_gap=0.0,
            log_likelihood_ratio=0.0,
        )

    if n_high > n_low:
        heavy_k, heavy_n, light_n = mirror, n_high, n_low
    elif n_low > n_high:
        heavy_k, heavy_n, light_n = p, n_low, n_high
    else:
        # dead-even split: pick the high side so the default reads y_hat = c_low
        heavy_k, heavy_n, light_n = mirror, n_high, n_low

    pair_total = n_low + n_high
    gap = (heavy_n - light_n) / pair_total
    y_hat = 1.0 - heavy_k / m_size
    # with p == 0 the pair {0} has one side and the ratio is undefined
    llr = _mirror_log_likelihood_ratio(y_hat, heavy_n, light_n) if mirror != p else 0.0
    ambiguous = (
        light_n == 0
        or gap < AMBIGUITY_SIGMA / math.sqrt(pair_total)
        or llr < AMBIGUITY_SIGMA**2 / 2.0
    )

    return PhaseEstimate(
        k_mode=heavy_k,
        y_candidates=(c_low, c_high),
        y_hat=y_hat,
        resolution=1.0 / m_size,
        samples_used=int(ks.size),
        cluster_counts=(heavy_n, light_n),
        ambiguous=ambiguous,
        candidate_gap=circle_distance(c_low, c_high),
        log_likelihood_ratio=llr,
    )


def _verification_harmonic(candidate: float, gap: float) -> int:
    """Smallest odd multiple of the candidate's peak time that separates the
    mirror pair.

    Success probability peaks at every odd multiple of pi/(2*E*c), so any odd
    harmonic is still "the candidate's optimal time"; harmonic k amplifies a
    relative frequency error k-fold.  Choosing k >= c/gap pushes the other
    candidate's prediction roughly a quarter period away, which is what makes
    nearly-mirror-symmetric pairs (y close to 1/2) distinguishable at all.
    """
    harmonic = max(1, math.ceil(candidate / gap))
    return harmonic + 1 if harmonic % 2 == 0 else harmonic


def _verification_hits(
    scenario: SearchScenario,
    prep: StatePrep,
    candidate: float,
    rng: np.random.Generator,
    n_draws: int,
    harmonic: int = 1,
) -> int:
    """Evolve to an odd-harmonic peak of the candidate and count oracle hits.

    Measurement outcomes inside the target support are checked through
    :func:`oracle_eval`; the aggregate non-target outcome never hits.
    """
    t_candidate = harmonic * optimal_time(candidate, scenario.energy)
    dist = success_distribution(prep, scenario.energy, t_candidate)
    items = sorted(dist.target_probs)
    probs = [dist.target_probs[i] for i in items] + [dist.failure]
    draws = sample_inverse_cdf(probs, rng, n_draws)
    return sum(oracle_eval(scenario, items[d]) for d in draws if d < len(items))


def disambiguate(
    estimate: PhaseEstimate,
    scenario: SearchScenario,
    prep: StatePrep,
    *,
    seed: int,
    n_verify: int = N_VERIFY,
) -> PhaseEstimate:
    """Resolve an ambiguous mirror pair with verification experiments.

    Each positive candidate is tried: evolve the true system to an
    odd-harmonic peak of that candidate (the harmonic is chosen to separate
    the pair; it is 1 for well-split candidates) and count how many of
    ``n_verify`` sampled measurements the membership oracle confirms.  A
    candidate must lead by at least ``MIN_LEAD`` hits to win; otherwise the
    branch the register split makes likelier stands (at rational phase
    ratios both candidates can score perfectly, and the split is then the
    best evidence available).
    """
    if not estimate.ambiguous:
        return estimate
    c_low, c_high = estimate.y_candidates
    if c_low == c_high:
        return replace(estimate, ambiguous=False)
    candidates = [c for c in (c_low, c_high) if c > 0.0]
    if len(candidates) == 1:
        chosen = candidates[0]
    else:
        rng = make_rng(seed, "verify")
        gap = c_high - c_low
        hits = [
            _verification_hits(scenario, prep, c, rng, n_verify, _verification_harmonic(c, gap))
            for c in candidates
        ]
        if abs(hits[0] - hits[1]) >= MIN_LEAD:
            chosen = candidates[int(np.argmax(hits))]
        elif estimate.log_likelihood_ratio >= 0.0:
            chosen = estimate.y_hat  # tie: keep the likelihood-preferred branch
        else:
            chosen = c_low if estimate.y_hat == c_high else c_high
    if chosen == estimate.y_hat:
        return replace(estimate, ambiguous=False)
    # the flip reads the other side as phase 1 - y
    m_size = round(1.0 / estimate.resolution)
    at_mode, at_mirror = estimate.cluster_counts
    return replace(
        estimate,
        k_mode=round((1.0 - chosen) * m_size) % m_size,
        y_hat=chosen,
        cluster_counts=(at_mirror, at_mode),
        log_likelihood_ratio=-estimate.log_likelihood_ratio,
        ambiguous=False,
    )


def run_phase_estimation(
    scenario: SearchScenario,
    prep: StatePrep,
    *,
    m_size: int = 64,
    n_samples: int = 200,
    seed: int = 0,
) -> tuple[PhaseEstimate, np.ndarray]:
    """Sample the register for a prepared scenario and estimate its overlap.

    ``prep`` is the scenario's prepared state (:func:`weighted_superposition`).
    Returns the (possibly verification-resolved) estimate together with the
    raw register samples.  The target set is consulted only through the
    membership oracle during verification.
    """
    samples = sample_phase_register(prep.y, m_size, n_samples, seed)
    est = estimate_y(samples, m_size)
    if est.ambiguous:
        est = disambiguate(est, scenario, prep, seed=seed)
    return est, samples


def disjointify(info_sets) -> tuple[InformationSet, ...]:
    """Make information sets pairwise disjoint (first set keeps shared items).

    Sets emptied by the rewrite are dropped and the survivors get equal
    weights, the convention used by the counting pipeline.
    """
    info_sets = tuple(info_sets)
    seen = np.zeros(1 + max((s.members[-1] for s in info_sets), default=-1), dtype=bool)
    kept_members = []
    for s in info_sets:
        fresh = s.members[~seen[s.members]]
        if fresh.size:
            kept_members.append(fresh)
            seen[fresh] = True
    if not kept_members:
        raise ScenarioError("disjointify produced no nonempty sets")
    weight = 1.0 / len(kept_members)
    return tuple(InformationSet(m, weight) for m in kept_members)


def counting_scenario(scenario: SearchScenario) -> SearchScenario:
    """Rewrite a scenario for counting: disjoint sets, uniform weights.

    With equal amplitude on every covered item the overlap obeys
    y**2 = (target count) / (support size), which is what makes the register
    estimate invertible into a count.
    """
    return SearchScenario(
        n_items=scenario.n_items,
        targets=scenario.targets,
        info_sets=disjointify(scenario.info_sets),
        energy=scenario.energy,
    )


def estimate_count(y_hat: float, support_size: int) -> int:
    """Invert y_hat**2 = l / support_size, clamped to [1, support_size]."""
    if int(support_size) < 1:
        raise ValueError(f"support_size must be >= 1, got {support_size}")
    raw = int(math.floor(y_hat * y_hat * int(support_size) + 0.5))
    return min(max(raw, 1), int(support_size))


@dataclass(frozen=True)
class CountResult:
    """Counting pipeline output: the integer estimate plus its provenance."""

    count_estimate: int
    support_size: int
    m_size: int
    estimate: PhaseEstimate
    scenario: SearchScenario
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def run_counting(
    scenario: SearchScenario,
    *,
    m_size: int | None = None,
    n_samples: int = 200,
    seed: int = 0,
) -> CountResult:
    """Estimate the number of targets inside the covered support.

    The scenario is first rewritten with disjoint, uniformly weighted sets.
    The register must satisfy ``m_size >= 4 * support_size`` so that the two
    candidate phases sit at least two bins apart; by default the smallest
    adequate power of two (at least 64) is chosen.
    """
    counting = counting_scenario(scenario)
    support = counting.support_size
    if m_size is None:
        m_size = next_power_of_two(max(64, 4 * support))
    else:
        m_size = _require_power_of_two(m_size)
        if m_size < 4 * support:
            raise ValueError(
                f"counting requires m_size >= 4 * support_size = {4 * support}, got {m_size}"
            )
    est, samples = run_phase_estimation(
        counting, weighted_superposition(counting), m_size=m_size, n_samples=n_samples, seed=seed
    )
    return CountResult(
        count_estimate=estimate_count(est.y_hat, support),
        support_size=support,
        m_size=m_size,
        estimate=est,
        scenario=counting,
        samples=samples,
    )
