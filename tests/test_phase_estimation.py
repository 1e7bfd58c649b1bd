import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import build_scenario
from ctqsearch import (
    InformationSet,
    ScenarioError,
    branch_distribution,
    circle_distance,
    counting_scenario,
    disambiguate,
    disjointify,
    estimate_count,
    estimate_y,
    evolve_state,
    load_scenario,
    make_rng,
    measurement_distribution,
    next_power_of_two,
    run_counting,
    run_phase_estimation,
    sample_phase_register,
    weighted_superposition,
)
import oracles
from oracles import (
    EIGHT_OVER_PI_SQ,
    eigensystem,
    evolution_matrix,
    tail_and_pointwise_hold,
    walk_register,
    walk_register_marginal,
    window_mass,
)


def direct_alpha_sq(phase, m, k):
    # independent route: average the raw phase ramp and square
    amp = sum(cmath.exp(2j * math.pi * x * (phase - k / m)) for x in range(m)) / m
    return abs(amp) ** 2


def walk(y, energy):
    # the reduced propagator over one driving period
    return evolution_matrix(y, energy, 2.0 * math.pi / energy)


def test_walk_operator_eigenphases():
    y, energy = 0.37, 1.7
    q = walk(y, energy)
    (x1, _), (x2, _) = eigensystem(y, energy)
    assert_allclose(q @ x1, np.exp(-2j * np.pi * y) * x1, atol=1e-12)
    assert_allclose(q @ x2, np.exp(-2j * np.pi * (1 - y)) * x2, atol=1e-12)
    assert_allclose(q @ q.conj().T, np.eye(2), atol=1e-12)


def test_walk_operator_energy_independent_phases():
    # the driving period scales away the energy: same eigenphases for any E
    y = 0.61
    for energy in (0.5, 1.0, 3.0):
        q = walk(y, energy)
        (x1, _), _ = eigensystem(y, energy)
        assert_allclose(q @ x1, np.exp(-2j * np.pi * y) * x1, atol=1e-12)


def test_register_state_from_prep_matches_scalar(boosted_pair):
    # the walk-built register starts from the prepared plane state and, read
    # in the walk's eigenbasis, is the closed form the analytic mixture rests on
    prep = weighted_superposition(boosted_pair)
    y, m_size = prep.y, 8
    state = walk_register(y, m_size)
    start = evolve_state(prep, 1.0, 0.0)
    assert_allclose(state[0] * math.sqrt(m_size), [start.a, start.b], atol=1e-15)
    (x1, _), (x2, _) = eigensystem(y, 1.0)
    m = np.arange(m_size)
    closed = np.column_stack([
        math.sqrt((1 + y) / 2) * np.exp(2j * np.pi * m * (1 - y)),
        math.sqrt((1 - y) / 2) * np.exp(2j * np.pi * m * y),
    ]) / math.sqrt(m_size)
    assert_allclose(state @ np.column_stack([x1, x2]), closed, atol=1e-12)


def test_register_size_must_be_power_of_two():
    with pytest.raises(ValueError, match="m_size must be a power of two"):
        branch_distribution(0.5, 12)
    with pytest.raises(ValueError):
        measurement_distribution(0.5, 12)
    with pytest.raises(ValueError):
        measurement_distribution(0.5, 1)


def test_branch_distribution_integer_lock():
    # M*y integral: all mass on the matching register value
    probs = branch_distribution(0.25, 8)
    expected = np.zeros(8)
    expected[2] = 1.0
    assert_allclose(probs, expected, atol=1e-12)


def test_mixture_two_point_support():
    dist = measurement_distribution(0.25, 8)
    # branch weights (1-y)/2 = 0.375 at k=2 and (1+y)/2 = 0.625 at k=6
    expected = np.zeros(8)
    expected[2] = 0.375
    expected[6] = 0.625
    assert_allclose(dist.total, expected, atol=1e-14)


def test_branch_distribution_matches_direct_sum():
    for phase, m in ((0.3, 4), (0.137, 16), (0.71, 32)):
        probs = branch_distribution(phase, m)
        direct = [direct_alpha_sq(phase, m, k) for k in range(m)]
        assert_allclose(probs, direct, atol=1e-12)


def _branch_distribution_by_where(phase, m_size):
    # the expression branch_distribution replaced, kept as its bitwise oracle
    k = np.arange(m_size)
    u = phase - k / m_size
    singular = (u % 1.0) == 0.0
    num = np.sin(np.pi * (m_size * phase - k))
    den = m_size * np.sin(np.pi * u)
    ratio = np.where(singular, 1.0, num / np.where(singular, 1.0, den))
    return ratio**2


@pytest.mark.parametrize("m_size", [64, 2**21])
@pytest.mark.parametrize("phase", [0.25, 0.5, 0.0112, 0.3, 0.71, 1 - 0.0112, 1.0])
def test_branch_distribution_bit_identical_to_where_form(phase, m_size):
    probs = branch_distribution(phase, m_size)
    assert np.array_equal(probs, _branch_distribution_by_where(phase, m_size))


def test_known_off_grid_amplitude():
    # phase 0.3 on a 4-point register, nearest bin k=1
    direct = direct_alpha_sq(0.3, 4, 1)
    assert branch_distribution(0.3, 4)[1] == pytest.approx(direct, abs=1e-13)
    assert branch_distribution(0.3, 4)[1] == pytest.approx(0.8823735987409785, abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    y=st.floats(min_value=1e-3, max_value=1.0),
    m=st.sampled_from([2, 8, 16, 64]),
)
def test_distributions_normalized(y, m):
    assert np.sum(branch_distribution(y, m)) == pytest.approx(1.0, abs=1e-11)
    assert np.sum(measurement_distribution(y, m).total) == pytest.approx(1.0, abs=1e-11)


def test_mixture_is_weighted_sum_of_branches():
    dist = measurement_distribution(0.42, 32)
    assert dist.weight_phase_y == pytest.approx((1 - 0.42) / 2, abs=1e-15)
    assert dist.weight_phase_complement == pytest.approx((1 + 0.42) / 2, abs=1e-15)
    recombined = (
        dist.weight_phase_y * dist.branch_phase_y
        + dist.weight_phase_complement * dist.branch_phase_complement
    )
    assert_allclose(dist.total, recombined, atol=1e-15)


@pytest.mark.parametrize("y", [0.1, 0.25, 1 / 3, 0.5, 0.70711, 0.9])
@pytest.mark.parametrize("m", [8, 16, 64])
def test_circuit_pipeline_matches_analytic_mixture(y, m):
    marginal = walk_register_marginal(y, m)
    assert np.max(np.abs(marginal - measurement_distribution(y, m).total)) <= 1e-10


@pytest.mark.parametrize("y", [0.25, 0.5, 0.9])
def test_walk_register_catches_swapped_branch_weights(y):
    # the mutant gives phase y the weight (1+y)/2 that belongs to phase 1-y;
    # at y = 1/2 both branches sit at phase 1/2, so there the swap is a no-op
    marginal = walk_register_marginal(y, 64)
    swapped = (1 + y) / 2 * branch_distribution(y, 64) + (1 - y) / 2 * branch_distribution(1 - y, 64)
    gap = np.max(np.abs(marginal - swapped))
    assert gap <= 1e-12 if y == 0.5 else gap > 1e-3


def test_circle_distance_values():
    assert circle_distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert circle_distance(0.0, 1.0) == 0.0
    assert circle_distance(0.2, 0.7) == pytest.approx(0.5, abs=1e-15)
    assert_allclose(circle_distance(0.9, np.array([0.0, 0.5])), [0.1, 0.4], atol=1e-15)


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    c=st.floats(min_value=0.0, max_value=1.0),
)
def test_circle_distance_is_a_metric(a, b, c):
    dab = circle_distance(a, b)
    assert 0.0 <= dab <= 0.5
    assert dab == circle_distance(b, a)
    assert circle_distance(a, a) == 0.0
    assert dab <= circle_distance(a, c) + circle_distance(c, b) + 1e-12


def test_concentration_probability_lower_bound_random():
    rng = make_rng(3, "concentration")
    for _ in range(50):
        y = float(rng.uniform(0.01, 0.99))
        for m in (8, 16, 64, 256):
            assert window_mass(y, m) >= EIGHT_OVER_PI_SQ - 1e-12


def test_concentration_exact_at_register_points():
    # phase on the grid: all mass inside the window
    assert window_mass(0.25, 8) == pytest.approx(1.0, abs=1e-12)


def test_tail_windows_and_pointwise_cap():
    assert tail_and_pointwise_hold(0.37, 64)
    # the windows m = 2, 3, 5, 10 promise 1/2, 3/4, 7/8 and 17/18
    for m, bound in zip((2, 3, 5, 10), (0.5, 0.75, 0.875, 1 - 1 / 18)):
        assert window_mass(0.37, 64, m) >= bound
        assert window_mass(0.63, 64, m) >= bound
    # spot-check the cap at one outcome by hand
    probs = branch_distribution(0.37, 64)
    d = circle_distance(0.37, 10 / 64)
    assert probs[10] <= 1 / (2 * 64 * d) ** 2 + 1e-12


def test_tail_report_handles_full_overlap():
    assert tail_and_pointwise_hold(1.0, 16)


def test_tail_check_rejects_a_flat_register(monkeypatch):
    monkeypatch.setattr(oracles, "branch_distribution", lambda phase, m: np.full(m, 1.0 / m))
    assert not tail_and_pointwise_hold(0.37, 64)


def test_sampler_respects_support_and_seed():
    samples = sample_phase_register(0.25, 8, 1000, seed=5)
    assert set(np.unique(samples)) <= {2, 6}
    again = sample_phase_register(0.25, 8, 1000, seed=5)
    assert np.array_equal(samples, again)
    other = sample_phase_register(0.25, 8, 1000, seed=6)
    assert not np.array_equal(samples, other)
    frac6 = np.mean(samples == 6)
    assert frac6 == pytest.approx(0.625, abs=0.06)  # 4 sigma


def test_sampler_total_variation_small():
    y, m, n = 0.37, 32, 20000
    samples = sample_phase_register(y, m, n, seed=11)
    emp = np.bincount(samples, minlength=m) / n
    tv = 0.5 * np.sum(np.abs(emp - measurement_distribution(y, m).total))
    assert tv < 0.03


def inline_register_draws(y, m_size, n_samples, seed):
    # the sampler's own inline lookup before it moved to the shared sampler;
    # estimate.json and count.json depend on these exact draws
    cum = np.cumsum(measurement_distribution(y, m_size).total)
    cum[-1] = 1.0
    u = make_rng(seed, "phase-register").random(n_samples)
    return np.searchsorted(cum, u, side="right").astype(np.int64)


@pytest.mark.parametrize("y, m_size", [(0.25, 8), (0.37, 64), (0.0112, 2**12), (0.71, 2**21)])
def test_sampler_draws_match_inline_formula(y, m_size):
    for seed in (0, 4401):
        drawn = sample_phase_register(y, m_size, 200, seed)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, inline_register_draws(y, m_size, 200, seed))


def test_estimate_clear_split():
    est = estimate_y([2] * 90 + [6] * 10, 8)
    assert est.y_candidates == (0.25, 0.75)
    assert est.k_mode == 2
    assert est.y_hat == pytest.approx(0.75, abs=1e-15)
    assert est.cluster_counts == (90, 10)
    assert not est.ambiguous
    assert est.resolution == pytest.approx(1 / 8)


def test_estimate_mirrored_split():
    est = estimate_y([6] * 90 + [2] * 10, 8)
    assert est.k_mode == 6
    assert est.y_hat == pytest.approx(0.25, abs=1e-15)
    assert not est.ambiguous


def test_estimate_balanced_split_is_ambiguous():
    est = estimate_y([2] * 26 + [6] * 22, 8)
    assert est.ambiguous  # gap 4/48 < 2/sqrt(48)
    assert est.y_hat == pytest.approx(0.75, abs=1e-15)  # heavy-side default


def test_estimate_single_cluster_is_ambiguous():
    est = estimate_y([5] * 10, 16)
    assert est.ambiguous
    assert est.y_candidates == (5 / 16, 11 / 16)
    assert est.y_hat == pytest.approx(11 / 16, abs=1e-15)


@pytest.mark.parametrize(
    "k_heavy,heavy_n,light_n",
    [
        # register splits recorded where the heavy-side rule read the mirror
        # 1 - y: y ~ 0.011 on pair {1, 63} and y ~ 0.071 on pair {5, 59}
        (1, 92, 66),
        (1, 94, 67),
        (1, 99, 71),
        (5, 61, 34),
    ],
)
def test_estimate_never_trusts_a_split_likelier_under_the_mirror(k_heavy, heavy_n, light_n):
    est = estimate_y([k_heavy] * heavy_n + [64 - k_heavy] * light_n, 64)
    assert est.log_likelihood_ratio < 0.0
    assert est.ambiguous
    # a verification tie (no draws) keeps the likelihood-preferred branch
    s = build_scenario(8, {0}, [({0, 1}, 1.0)])
    resolved = disambiguate(est, s, weighted_superposition(s), seed=0, n_verify=0)
    assert resolved.y_hat == k_heavy / 64


def test_small_overlap_estimates_land_within_resolution():
    # y = 1/sqrt(8000) ~ 0.0112: the mirror clusters hold (1 -+ y)/2 of the
    # samples, so which one is heavier is close to a coin flip
    s = build_scenario(8000, {0}, [(set(range(8000)), 1.0)])
    prep = weighted_superposition(s)
    for seed in range(200):
        est, _ = run_phase_estimation(s, prep, m_size=64, n_samples=200, seed=seed)
        assert abs(est.y_hat - prep.y) <= est.resolution, seed


def test_estimate_midpoint_register_value():
    est = estimate_y([4] * 12, 8)
    assert est.y_candidates == (0.5, 0.5)
    assert est.y_hat == 0.5
    assert not est.ambiguous


def test_estimate_zero_register_value():
    est = estimate_y([0] * 7, 8)
    assert est.y_candidates == (0.0, 1.0)
    assert est.y_hat == 1.0  # heavy-side default: 1 - 0/8
    assert est.ambiguous


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_y([], 8)
    with pytest.raises(ValueError):
        estimate_y([8], 8)
    with pytest.raises(ValueError):
        estimate_y([0], 12)


def test_disambiguation_resolves_full_overlap_scenario():
    # sets identical to targets: y == 1, register pins k = 0
    s = build_scenario(4, {1, 2}, [({1, 2}, 1.0)])
    prep = weighted_superposition(s)
    est, samples = run_phase_estimation(s, prep, m_size=16, n_samples=50, seed=9)
    assert np.all(samples == 0)
    assert est.y_hat == 1.0
    assert not est.ambiguous


def test_disambiguation_by_verification(lopsided_pair):
    # candidates 15/64 vs 49/64 with a dead-even sample split; the true
    # overlap is ~0.2357, so evolving to the wrong candidate's peak time
    # misses often and verification settles it
    prep = weighted_superposition(lopsided_pair)
    est = estimate_y([15, 49], 64)
    assert est.ambiguous
    resolved = disambiguate(est, lopsided_pair, prep, seed=21)
    assert resolved.y_hat == pytest.approx(15 / 64, abs=1e-15)
    assert not resolved.ambiguous


def test_flipped_estimate_keeps_k_mode_on_y_hat():
    # a lone sample at k = 62 reads y_hat = 66/128; verification flips it to
    # 62/128, so the mode and the counts must move to the other side
    s = build_scenario(
        30, set(range(6)), [(set(range(13)), 0.5), (set(range(13, 26)), 0.5)]
    )
    est = estimate_y([62], 128)
    assert (est.k_mode, est.y_hat, est.cluster_counts) == (62, 66 / 128, (1, 0))
    resolved = disambiguate(est, s, weighted_superposition(s), seed=2)
    assert resolved.y_hat == 62 / 128
    assert resolved.k_mode == 66
    assert resolved.y_hat == 1.0 - resolved.k_mode / 128
    assert resolved.cluster_counts == (0, 1)
    assert resolved.log_likelihood_ratio == -est.log_likelihood_ratio
    assert resolved.y_candidates == est.y_candidates


def test_unflipped_estimate_keeps_its_mode(lopsided_pair):
    est = estimate_y([15, 49], 64)  # dead-even: the default reads 15/64
    resolved = disambiguate(est, lopsided_pair, weighted_superposition(lopsided_pair), seed=21)
    assert resolved.y_hat == est.y_hat == 15 / 64
    assert (resolved.k_mode, resolved.cluster_counts) == (est.k_mode, est.cluster_counts)


@pytest.mark.parametrize(
    "l,sample_k,expected",
    [
        (6, 62, 62 / 128),  # y = sqrt(6/26) ~ 0.480: mirror pair straddles 1/2
        (7, 66, 66 / 128),  # y = sqrt(7/26) ~ 0.519: symmetric case
    ],
)
def test_disambiguation_separates_near_mirror_candidates(l, sample_k, expected):
    # at the plain peak time both candidates of a near-1/2 pair predict ~0.99
    # success; only the amplified odd-harmonic verification can split them
    s = build_scenario(
        30, set(range(l)), [(set(range(13)), 0.5), (set(range(13, 26)), 0.5)]
    )
    prep = weighted_superposition(s)
    est = estimate_y([sample_k], 128)
    assert est.ambiguous
    assert est.y_hat != pytest.approx(expected)  # heavy default reads the mirror
    resolved = disambiguate(est, s, prep, seed=2)
    assert resolved.y_hat == pytest.approx(expected, abs=1e-15)
    assert estimate_count(resolved.y_hat, 26) == l


def test_estimate_recovers_overlap_within_resolution():
    s = build_scenario(
        12, {0, 1}, [({0, 2, 4}, 1 / 3), ({1, 3, 5}, 1 / 3), ({6, 7, 8}, 1 / 3)]
    )
    # disjoint uniform: y = sqrt(2/9) ~ 0.4714
    prep = weighted_superposition(s)
    est, _ = run_phase_estimation(s, prep, m_size=64, n_samples=200, seed=17)
    assert abs(est.y_hat - prep.y) <= est.resolution


def test_disjointify_first_set_wins():
    sets = (
        InformationSet(frozenset({0, 1}), 0.5),
        InformationSet(frozenset({1, 2}), 0.5),
    )
    out = disjointify(sets)
    assert [s.members.tolist() for s in out] == [[0, 1], [2]]
    assert [s.weight for s in out] == [0.5, 0.5]


def test_disjointify_drops_swallowed_sets():
    sets = (
        InformationSet(frozenset({0, 1, 2}), 0.9),
        InformationSet(frozenset({1, 2}), 0.1),
    )
    out = disjointify(sets)
    assert len(out) == 1
    assert out[0].weight == 1.0


def test_disjointify_preserves_union_and_is_idempotent():
    sets = (
        InformationSet(frozenset({0, 1, 4}), 0.2),
        InformationSet(frozenset({1, 2}), 0.3),
        InformationSet(frozenset({2, 3, 4}), 0.5),
    )
    once = disjointify(sets)
    union_before = set().union(*(s.members.tolist() for s in sets))
    union_after = set().union(*(s.members.tolist() for s in once))
    assert union_before == union_after
    assert [s.members.tolist() for s in disjointify(once)] == [s.members.tolist() for s in once]
    seen = set()
    for s in once:
        assert not (set(s.members.tolist()) & seen)
        seen |= set(s.members.tolist())


def test_counting_scenario_flattens_amplitudes(library_demo_path):
    s = load_scenario(library_demo_path)
    flat = counting_scenario(s)
    prep = weighted_superposition(flat)
    support = flat.support_size
    nonzero = prep.beta[prep.beta > 0]
    assert_allclose(nonzero, 1 / math.sqrt(support), atol=1e-12)
    assert prep.y == pytest.approx(math.sqrt(s.n_targets / support), abs=1e-12)


def test_estimate_count_rounding():
    assert estimate_count(11 / 16, 6) == 3  # (11/16)**2 * 6 = 2.836
    assert estimate_count(0.5, 4) == 1
    assert estimate_count(1.0, 5) == 5
    assert estimate_count(0.05, 4) == 1  # clamped up
    with pytest.raises(ValueError):
        estimate_count(0.5, 0)


def test_counting_on_disjoint_demo(counting_demo_path):
    s = load_scenario(counting_demo_path)
    result = run_counting(s, m_size=64, seed=7)
    assert result.count_estimate == 3
    assert result.support_size == 6
    assert result.m_size == 64


def test_counting_auto_register_size(library_demo_path):
    s = load_scenario(library_demo_path)
    result = run_counting(s, seed=13)
    assert result.m_size == 64  # max(64, 4 * 13) -> 64
    assert result.count_estimate == s.n_targets


def test_counting_rejects_small_register(counting_demo_path):
    s = load_scenario(counting_demo_path)
    with pytest.raises(ValueError):
        run_counting(s, m_size=16, seed=0)  # needs >= 4 * 6


def test_counting_round_trip_overlapping_sets():
    # overlap between sets must not spoil the count after disjointification
    s = build_scenario(
        10, {0, 1, 2, 3}, [({0, 1, 4, 5}, 0.6), ({1, 2, 3, 5, 6}, 0.4)]
    )
    result = run_counting(s, seed=23)
    assert result.count_estimate == 4


def test_next_power_of_two():
    assert next_power_of_two(1) == 2
    assert next_power_of_two(64) == 64
    assert next_power_of_two(65) == 128
    with pytest.raises(ValueError):
        next_power_of_two(0)
