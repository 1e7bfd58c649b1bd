import cmath
import contextlib
import csv
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from conftest import build_scenario
from ctqsearch import (
    cli,
    counting_scenario,
    disambiguate,
    estimate_count,
    estimate_y,
    load_scenario,
    make_rng,
    measurement_distribution,
    next_power_of_two,
    optimal_time,
    phase_estimation,
    run_counting,
    run_phase_estimation,
    sample_phase_register,
    trajectory,
    weighted_superposition,
)
from ctqsearch.dynamics import _reduced_coefficients
import oracles
from oracles import (
    EIGHT_OVER_PI_SQ,
    branch_law,
    circle_distance,
    class_walk_register_marginal,
    eigensystem,
    evolution_matrix,
    register_law,
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
    start = trajectory(prep, 1.0, t_max=0.0, n_points=2)
    assert_allclose(state[0] * math.sqrt(m_size), [start.a[0], start.b[0]], atol=1e-15)
    (x1, _), (x2, _) = eigensystem(y, 1.0)
    m = np.arange(m_size)
    closed = np.column_stack([
        math.sqrt((1 + y) / 2) * np.exp(2j * np.pi * m * (1 - y)),
        math.sqrt((1 - y) / 2) * np.exp(2j * np.pi * m * y),
    ]) / math.sqrt(m_size)
    assert_allclose(state @ np.column_stack([x1, x2]), closed, atol=1e-12)


@pytest.mark.parametrize("mode", list(oracles.ScenarioMode))
def test_class_walk_register_matches_the_register_law(mode):
    # the walk on the class Hamiltonian diag(is_target) + b b^T, not on the plane
    worst = 0.0
    for i, scenario in enumerate(oracles.random_scenario_suite(23, 12, mode)):
        prep = weighted_superposition(scenario)
        m_size = (8, 32, 128)[i % 3]
        dist = measurement_distribution(prep.y, m_size)
        assert dist.rest is None  # at M <= 128 the windows hold every bin
        marginal = class_walk_register_marginal(prep, m_size)
        worst = max(worst, float(np.max(np.abs(marginal[dist.k] - dist.total))))
    assert worst <= 1e-12


def test_register_size_must_be_power_of_two():
    for m_size in (12, 1):
        with pytest.raises(ValueError, match="m_size must be a power of two"):
            measurement_distribution(0.5, m_size)


def test_branch_distribution_integer_lock():
    # M*y integral: all mass on the matching register value
    probs = branch_law(0.25, 8)
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
        probs = branch_law(phase, m)
        direct = [direct_alpha_sq(phase, m, k) for k in range(m)]
        assert_allclose(probs, direct, atol=1e-12)


def _branch_distribution_by_where(phase, m_size):
    # the register table's first form, numerator sin(pi*(M*phase - k)), kept
    # as an oracle of another floating-point route to the same law
    k = np.arange(m_size)
    u = phase - k / m_size
    singular = (u % 1.0) == 0.0
    num = np.sin(np.pi * (m_size * phase - k))
    den = m_size * np.sin(np.pi * u)
    ratio = np.where(singular, 1.0, num / np.where(singular, 1.0, den))
    return ratio**2


@pytest.mark.parametrize("m_size", [64, 2**21])
@pytest.mark.parametrize("phase", [0.25, 0.5, 0.0112, 0.3, 0.71, 1 - 0.0112, 1.0])
def test_branch_table_matches_where_form(phase, m_size):
    probs = branch_law(phase, m_size)
    assert np.max(np.abs(probs - _branch_distribution_by_where(phase, m_size))) <= 2e-15


@pytest.mark.parametrize("m_size", [8, 64, 256, 2**16, 2**21])
@pytest.mark.parametrize("y", [0.0112, 0.25, 0.3, 0.4999, 0.71, 1.0])
def test_register_table_holds_the_sampled_window_bit_for_bit(y, m_size):
    # one law: the table's bins around each peak are the window the sampler draws from
    dist = measurement_distribution(y, m_size)
    for phase, table in ((y, dist.branch_phase_y), (1 - y, dist.branch_phase_complement)):
        k0, _, offsets = phase_estimation._window(phase, m_size)
        rows = np.searchsorted(dist.k, (k0 + offsets) % m_size)
        assert np.array_equal(dist.k[rows], (k0 + offsets) % m_size)
        assert np.array_equal(table[rows], phase_estimation._branch_law(phase, m_size, k0 + offsets))


WINDOWED_Y = [0.013, 0.25, 0.3, 0.49, 0.5, 1.0]


@pytest.mark.parametrize("m_size", [256, 512, 2**16, 2**21])
@pytest.mark.parametrize("y", WINDOWED_Y)
def test_windowed_table_rows_are_the_full_width_rows(y, m_size):
    dist = measurement_distribution(y, m_size)
    assert dist.k.dtype == np.int64 and np.all(np.diff(dist.k) > 0)
    assert dist.k.size <= 2 * (2 * phase_estimation.REGISTER_WINDOW + 1)
    for column, full in ((dist.total, register_law(y, m_size)),
                         (dist.branch_phase_y, branch_law(y, m_size)),
                         (dist.branch_phase_complement, branch_law(1 - y, m_size))):
        assert np.array_equal(column, full[dist.k])
    # near y = 1/2 the two windows overlap; at y = 1/4 on 256 bins they tile the register
    covered = m_size == 256 and y == 0.25
    assert (dist.k.size == m_size) == covered
    assert (dist.rest is None) == covered


@pytest.mark.parametrize("m_size", [512, 2**16, 2**21])
@pytest.mark.parametrize("y", WINDOWED_Y)
def test_rest_is_the_mass_off_the_table(y, m_size):
    dist = measurement_distribution(y, m_size)
    columns = (dist.total, dist.branch_phase_y, dist.branch_phase_complement)
    for rest, column in zip(dist.rest, columns):
        assert rest >= 0.0
        assert abs(rest - (1.0 - column.sum())) <= 1e-15


# sha256 of the register_distribution.csv bytes of y in CSV_PINNED_Y, in that
# order, and of the full-width columns (total, phase y, complement) as float64
# bytes, as the table read when it held all M bins
CSV_PINNED_Y = (0.013, 0.3, 0.49, 0.5, 1.0)
PINNED_CSV = {
    2: "53855eb8e8c355b25fe1ec69d2197c4a5bc34e615dad201e5814fe46204ce321",
    8: "d3547725aaa12e24faf448d9959e4600b18d6c758912e27cf0f7df82c92a9dfb",
    64: "b7a2ae4e0f6910e523aaede662ccc61617e97a42647e50eaab84a36b08fae534",
    128: "9b9a4e6143b57da61b8f640c6711b8d7183eb3491b9d27dea6ef7e6daa04db74",
}
PINNED_FULL_WIDTH = {
    256: "b9508a89452af8127806893b4f96470f605c0b4f8e72ecbff1faed0629c0f4c9",
    2**16: "f62ce845a80a9c85d6dafeecffcf3ad4129efd5553f8600f75c6017d4cbdec47",
}


@pytest.mark.parametrize("m_size", sorted(PINNED_CSV))
def test_small_register_table_keeps_its_bytes(tmp_path, m_size):
    digest = hashlib.sha256()
    for y in CSV_PINNED_Y:
        name, header, columns = cli._register_table(y, m_size)
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write_csv(tmp_path / name, header, columns)
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == PINNED_CSV[m_size]


@pytest.mark.parametrize("m_size", [512, 2**16, 2**21])
@pytest.mark.parametrize("y", WINDOWED_Y)
def test_register_table_with_a_rest_row_writes_csv_writer_bytes(tmp_path, y, m_size):
    # the probability columns stay float64 through the rest row, so each of
    # their cells takes the array kernel; only k's ints and its label take str
    dist = measurement_distribution(y, m_size)
    name, header, (k, *floats) = cli._register_table(y, m_size)
    assert k == [*dist.k.tolist(), "rest"]
    assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in floats)
    with contextlib.redirect_stdout(io.StringIO()):
        cli._write_csv(tmp_path / name, header, (k, *floats))
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    columns = (dist.total, dist.branch_phase_y, dist.branch_phase_complement)
    writer.writerows(zip(k, *([*c.tolist(), v] for c, v in zip(columns, dist.rest))))
    assert (tmp_path / name).read_bytes() == buffer.getvalue().encode()


@pytest.mark.parametrize("m_size", sorted(PINNED_FULL_WIDTH))
def test_full_width_oracle_keeps_the_bytes_of_the_full_table(m_size):
    digest = hashlib.sha256()
    for y in CSV_PINNED_Y:
        digest.update(np.stack([register_law(y, m_size), branch_law(y, m_size),
                                branch_law(1 - y, m_size)]).tobytes())
    assert digest.hexdigest() == PINNED_FULL_WIDTH[m_size]


def test_integer_locked_register_is_exactly_zero_off_peak():
    for m_size in 2 ** np.arange(3, 22):
        m_size = int(m_size)
        for phase, peak in ((0.25, 1), (0.75, 3)):
            expected = np.zeros(m_size)
            expected[peak * m_size // 4] = 1.0
            assert np.array_equal(branch_law(phase, m_size), expected), m_size
        # the table's rows are exact too, so nothing is left for its rest row
        dist = measurement_distribution(0.25, m_size)
        assert dist.rest is None or dist.rest == (0.0, 0.0, 0.0)


def test_register_table_peak_memory():
    measurement_distribution(0.3, 64)  # warm up imports and caches
    for m_size in (2**21, 2**53):
        tracemalloc.start()
        try:
            measurement_distribution(0.3, m_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at most 258 rows of four columns and their temporaries, whatever M
        assert peak <= 2**16, m_size


def test_known_off_grid_amplitude():
    # phase 0.3 on a 4-point register, nearest bin k=1
    direct = direct_alpha_sq(0.3, 4, 1)
    assert branch_law(0.3, 4)[1] == pytest.approx(direct, abs=1e-13)
    assert branch_law(0.3, 4)[1] == pytest.approx(0.8823735987409785, abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    y=st.floats(min_value=1e-3, max_value=1.0),
    m=st.sampled_from([2, 8, 16, 64]),
)
def test_distributions_normalized(y, m):
    assert np.sum(branch_law(y, m)) == pytest.approx(1.0, abs=1e-11)
    assert np.sum(measurement_distribution(y, m).total) == pytest.approx(1.0, abs=1e-11)


def test_mixture_is_weighted_sum_of_branches():
    dist = measurement_distribution(0.42, 32)
    recombined = (
        (1 - 0.42) / 2 * dist.branch_phase_y
        + (1 + 0.42) / 2 * dist.branch_phase_complement
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
    swapped = (1 + y) / 2 * branch_law(y, 64) + (1 - y) / 2 * branch_law(1 - y, 64)
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
    probs = branch_law(0.37, 64)
    d = circle_distance(0.37, 10 / 64)
    assert probs[10] <= 1 / (2 * 64 * d) ** 2 + 1e-12


def test_tail_report_handles_full_overlap():
    assert tail_and_pointwise_hold(1.0, 16)


def test_tail_check_rejects_a_flat_register(monkeypatch):
    monkeypatch.setattr(oracles, "branch_law", lambda phase, m: np.full(m, 1.0 / m))
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


# sha256 of the sampler's draws as little-endian int64 bytes: a change to the
# random stream or to the law it draws from has to update these on purpose
@pytest.mark.parametrize("y, m_size, n, seed, digest", [
    pytest.param(0.37, 64, 1000, 3501,
                 "3ec8d7262fdaa1f75e902a1ee6479a79610ed7f1b5952357acf89f673da74dfd",
                 id="window-is-the-register"),
    pytest.param(0.013789517164469753, 2**21, 20_000, 3502,
                 "ba98284391190c3f99b6f5752c20a8f6fcce62c16566dbb41c0abae24502280b",
                 id="large_items-count-with-tail-draws"),
    pytest.param(0.7523547938632787, 2**16, 100_000, 3503,
                 "8dc88a4126ff9b00619c90e9f4683651180f8112b96317e586b7d2c6176a600e",
                 id="grid_heavy-estimate"),
    pytest.param(0.25, 2**16, 1000, 3504,
                 "e849a240354e7cb7edafe47cb19f0701db422e79fb59533e28eb53306f55ca8a",
                 id="on-bin-peaks"),
    pytest.param(0.49, 512, 20_000, 3505,
                 "c67065222e549db50cf5658ff3db0ea4731fa417007e857c073de992896b3ada",
                 id="overlapping-windows"),
    pytest.param(0.3, 2**53, 10_000, 3506,
                 "0220ad825144ec2a03fc46527631fe3c9501775bbd730fc11e6f99a42e6b0c01",
                 id="largest-register"),
])
def test_sampler_draws_keep_their_bytes(y, m_size, n, seed, digest):
    drawn = sample_phase_register(y, m_size, n, seed)
    assert hashlib.sha256(drawn.astype("<i8").tobytes()).hexdigest() == digest
    if y == 0.25:  # f = 0 on both branches: each is one-hot, so no draw reaches the tail
        assert set(np.unique(drawn).tolist()) <= {m_size // 4, 3 * m_size // 4}


def test_sampler_total_variation_small():
    y, m, n = 0.37, 32, 20000
    samples = sample_phase_register(y, m, n, seed=11)
    emp = np.bincount(samples, minlength=m) / n
    tv = 0.5 * np.sum(np.abs(emp - measurement_distribution(y, m).total))
    assert tv < 0.03


def assembled_register_law(y, m_size):
    """The law the sampler draws from, assembled from its parts: the branch
    weights, each branch's window probabilities, and its tail mass spread
    over the tail as proposal times acceptance, normalised."""
    law = np.zeros(m_size)
    for weight, phase in (((1 - y) / 2, y), ((1 + y) / 2, 1 - y)):
        k0, f, offsets = phase_estimation._window(phase, m_size)
        probs = phase_estimation._branch_law(phase, m_size, k0 + offsets)
        law[(k0 + offsets) % m_size] += weight * probs
        if offsets.size == m_size:
            continue
        tail_j, tail_p = [], []
        for side in (1, -1):
            i = np.arange(phase_estimation.REGISTER_WINDOW + 1, math.floor(m_size / 2 + side * f) + 1)
            d = i - side * f
            accept = phase_estimation._tail_acceptance(d, m_size)
            # a valid rejection step, at least as efficient as claimed
            assert np.all(accept <= 1.0) and np.all(accept >= 4 / math.pi**2 * (d - 1) / d)
            tail_j.append(side * i)
            # proposal mass of 1/x**2 over (d - 1, d], times acceptance
            tail_p.append(accept / (d * (d - 1)))
        tail_p = np.concatenate(tail_p)
        tail_mass = max(0.0, 1.0 - float(probs.sum()))
        law[(k0 + np.concatenate(tail_j)) % m_size] += weight * tail_mass * tail_p / tail_p.sum()
    return law


@pytest.mark.parametrize("y", [0.0112, 0.25, 0.37, 0.4999, 0.5, 0.71, 1.0])
def test_sampler_parts_assemble_exact_law(y):
    # registers up to 128 bins are tabulated whole; wider ones have a tail
    for m_size in (8, 64, 128, 256, 512, 1024):
        law = assembled_register_law(y, m_size)
        assert np.max(np.abs(law - register_law(y, m_size))) <= 1e-12
    for m_size in (8, 1024, 2**21):
        drawn = sample_phase_register(y, m_size, 200, seed=4401)
        assert drawn.dtype == np.int64
        assert np.all((drawn >= 0) & (drawn < m_size))


@pytest.mark.parametrize("f", [0.37, -0.21, 0.5, -0.5, 1e-3])
def test_tail_draws_cover_the_tail_with_its_law(f):
    # the tail alone, against P(j) ~ 1/sin(pi*(f - j)/M)**2 over every offset
    # within circular distance M/2 of f that the window leaves out
    m_size, n = 1024, 200_000
    window = phase_estimation.REGISTER_WINDOW
    j = np.arange(-m_size, m_size + 1)
    j = j[(np.abs(j) > window) & (np.abs(f - j) <= m_size / 2)]
    assert j.size == m_size - 2 * window - 1
    law = 1.0 / np.sin(np.pi * (f - j) / m_size) ** 2
    law /= law.sum()
    draws = phase_estimation._draw_tail(f, m_size, make_rng(5, "tail"), n)
    values, observed = np.unique(draws, return_counts=True)
    assert np.array_equal(values, j)  # every tail offset, and nothing else
    expected = n * law
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stats.chi2.sf(stat, j.size - 1) > 1e-3


@pytest.mark.parametrize("y", [0.37, 0.71])
def test_sampler_chi_square_at_2_16(y):
    m_size, n = 2**16, 200_000
    expected = n * register_law(y, m_size)
    observed = np.bincount(sample_phase_register(y, m_size, n, seed=16), minlength=m_size)
    # bins expecting fewer than 5 draws are pooled into one
    big = expected >= 5
    assert observed[~big].sum() > 0  # the pooled tail is drawn at all
    e = np.append(expected[big], expected[~big].sum())
    o = np.append(observed[big], observed[~big].sum())
    stat = float(np.sum((o - e) ** 2 / e))
    assert stats.chi2.sf(stat, e.size - 1) > 1e-3


def near_mirror_scenarios():
    # two disjoint equal-weight sets over a support of 20-80 items, with the
    # target count putting y = sqrt(l/support) in [0.45, 0.55]
    for support in range(20, 81):
        half = support // 2
        for l in range(math.ceil(0.45**2 * support), math.floor(0.55**2 * support) + 1):
            targets = set(range(0, 2 * l, 2))
            sets = [(set(range(half)), 0.5), (set(range(half, support)), 0.5)]
            yield build_scenario(support + 3, targets, sets), l


def test_near_mirror_estimates_and_counts_are_exact():
    cases = 0
    for scenario, l in near_mirror_scenarios():
        prep = weighted_superposition(scenario)
        assert 0.45 <= prep.y <= 0.55
        for seed in range(5):
            est, _ = run_phase_estimation(prep, scenario.energy, seed=seed)
            assert abs(est.y_hat - prep.y) <= est.resolution, (l, scenario.support_size, seed)
            assert run_counting(scenario, seed=seed)[0] == l
        cases += 1
    assert cases > 300


def test_sampler_allocates_nothing_of_register_length():
    sample_phase_register(0.37, 2**24, 1000, seed=1)  # warm up imports and caches
    tracemalloc.start()
    try:
        sample_phase_register(0.37, 2**24, 1000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TableBuilt(Exception):
    pass


def test_phase_estimation_never_builds_the_register_table(monkeypatch, library_demo_path):
    # the table is measurement_distribution, or the branch law past one window
    def refuse(*args, **kwargs):
        raise TableBuilt
    law = phase_estimation._branch_law

    def window_only(phase, m_size, k):
        if np.size(k) > 2 * phase_estimation.REGISTER_WINDOW + 1:
            raise TableBuilt
        return law(phase, m_size, k)
    monkeypatch.setattr(phase_estimation, "measurement_distribution", refuse)
    monkeypatch.setattr(phase_estimation, "_branch_law", window_only)
    scenario = load_scenario(library_demo_path)
    prep = weighted_superposition(scenario)
    est, samples = run_phase_estimation(prep, scenario.energy, m_size=2**21, seed=3)
    assert samples.size == 200
    assert abs(est.y_hat - prep.y) <= est.resolution


def test_modal_pair_matches_full_histogram():
    # estimate_y counts pairs with np.unique; a full bincount is the oracle
    rng = np.random.default_rng(8)
    for m_size in (8, 64, 4096):
        for n in (1, 2, 7, 200):
            ks = rng.integers(0, m_size, n)
            counts = np.bincount(np.minimum(ks, (m_size - ks) % m_size), minlength=m_size)
            assert estimate_y(ks, m_size).y_candidates[0] == int(np.argmax(counts)) / m_size


def test_register_size_limit_names_the_field():
    with pytest.raises(ValueError, match="m_size must be at most 2\\*\\*53"):
        sample_phase_register(0.3, 2**54, 10, seed=0)
    assert sample_phase_register(0.3, 2**53, 10, seed=0).max() < 2**53


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
    assert est.candidate_gap == 6 / 16  # the short way round, 11/16 - 5/16


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
def test_estimate_never_trusts_a_split_likelier_under_the_mirror(
    k_heavy, heavy_n, light_n, monkeypatch
):
    est = estimate_y([k_heavy] * heavy_n + [64 - k_heavy] * light_n, 64)
    assert est.log_likelihood_ratio < 0.0
    assert est.ambiguous
    # a verification tie (no draws) keeps the likelihood-preferred branch
    monkeypatch.setattr(phase_estimation, "N_VERIFY", 0)
    s = build_scenario(8, {0}, [({0, 1}, 1.0)])
    resolved = disambiguate(est, weighted_superposition(s), s.energy, seed=0)
    assert resolved.y_hat == k_heavy / 64


def test_small_overlap_estimates_land_within_resolution():
    # y = 1/sqrt(8000) ~ 0.0112: the mirror clusters hold (1 -+ y)/2 of the
    # samples, so which one is heavier is close to a coin flip
    s = build_scenario(8000, {0}, [(set(range(8000)), 1.0)])
    prep = weighted_superposition(s)
    for seed in range(200):
        est, _ = run_phase_estimation(prep, s.energy, m_size=64, n_samples=200, seed=seed)
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
    assert est.candidate_gap == 0.0  # 0 and 1 are one point of the circle
    assert est.ambiguous


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_y([], 8)
    with pytest.raises(ValueError):
        estimate_y([8], 8)
    with pytest.raises(ValueError):
        estimate_y([0], 12)


def test_sampling_refuses_no_samples():
    with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
        sample_phase_register(0.3, 64, 0, 1)


def test_disambiguation_resolves_full_overlap_scenario():
    # sets identical to targets: y == 1, register pins k = 0, and y_hat = 1 is
    # verified at its first peak, where every draw hits
    s = build_scenario(4, {1, 2}, [({1, 2}, 1.0)])
    prep = weighted_superposition(s)
    est, samples = run_phase_estimation(prep, s.energy, m_size=16, n_samples=50, seed=9)
    assert np.all(samples == 0)
    assert est.y_hat == 1.0
    assert est.verification == ((1.0, 1, phase_estimation.N_VERIFY),)


def test_overlap_below_half_a_bin_is_refused():
    # one target among 40,000 items: y = 0.005 < 1/(2M) = 1/128, so both
    # branches peak at k = 0 and the pair {0} reads y_hat = 1, which verification
    # at candidate 1 hits with probability 8.7e-5
    s = build_scenario(40_000, {0}, [(set(range(40_000)), 1.0)])
    prep = weighted_superposition(s)
    assert prep.y == pytest.approx(0.005, abs=1e-15)
    for seed in range(5):
        with pytest.raises(ValueError, match=r"below 1/\(2M\) = 0.0078125; raise the register size"):
            run_phase_estimation(prep, s.energy, m_size=64, seed=seed)
    # the pair {0} itself: refused at y = 0.005, verified at y = 1
    est = estimate_y([0] * 50, 64)
    assert est.ambiguous and est.k_mode == 0
    full = build_scenario(4, {1, 2}, [({1, 2}, 1.0)])
    for seed in range(5):
        with pytest.raises(ValueError, match=r"1/\(2M\)"):
            disambiguate(est, prep, s.energy, seed=seed)
        resolved = disambiguate(est, weighted_superposition(full), full.energy, seed=seed)
        assert resolved.y_hat == 1.0 and resolved.verification == ((1.0, 1, 48),)
    # twice the register puts y above 1/(2M): one bin, no refusal
    est, _ = run_phase_estimation(prep, s.energy, m_size=128, seed=0)
    assert est.y_hat == 1 / 128


@pytest.mark.parametrize("m_size", [2, 4, 64, 2**20])
def test_candidate_one_separates_full_overlap_from_half_a_bin(m_size):
    # the pair {0} holds y >= 1 - 1/(2M) or y < 1/(2M); at candidate 1's first
    # peak the first hits at least 0.935 of the time and the second at most
    # 0.20, so half of the draws tells them apart
    def success(y):
        a, _ = _reduced_coefficients(y, 1.0, [optimal_time(1.0, 1.0)])
        return abs(complex(a[0])) ** 2

    low = np.linspace(0.0, 0.5 / m_size, 401)[1:-1]
    high = np.linspace(1.0 - 0.5 / m_size, 1.0, 401)
    assert max(map(success, low)) <= 0.20
    assert min(map(success, high)) >= 0.935


def test_disambiguation_by_verification(lopsided_pair):
    # candidates 15/64 vs 49/64 with a dead-even sample split; the true
    # overlap is ~0.2357.  The third harmonic of 49/64's peak time lands near
    # a peak of the 15/64 reading (success ~0.99), so 49/64 is tried at its
    # first harmonic, where the true system mostly misses, and the hits decide
    prep = weighted_superposition(lopsided_pair)
    est = estimate_y([15, 49], 64)
    assert est.ambiguous
    resolved = disambiguate(est, prep, lopsided_pair.energy, seed=21)
    assert resolved.y_hat == pytest.approx(15 / 64, abs=1e-15)
    # the provenance keeps what decided it
    assert resolved.ambiguous and not resolved.branch_flipped
    assert [(c, h) for c, h, _ in resolved.verification] == [(15 / 64, 1), (49 / 64, 1)]
    (_, _, hits_true), (_, _, hits_rival) = resolved.verification
    assert hits_true - hits_rival >= phase_estimation.MIN_LEAD
    assert all(0 <= n <= phase_estimation.N_VERIFY for _, _, n in resolved.verification)


def test_flipped_estimate_keeps_k_mode_on_y_hat():
    # a lone sample at k = 62 reads y_hat = 66/128; verification flips it to
    # 62/128, so the mode and the counts must move to the other side
    s = build_scenario(
        30, set(range(6)), [(set(range(13)), 0.5), (set(range(13, 26)), 0.5)]
    )
    est = estimate_y([62], 128)
    assert (est.k_mode, est.y_hat, est.cluster_counts) == (62, 66 / 128, (1, 0))
    resolved = disambiguate(est, weighted_superposition(s), s.energy, seed=2)
    assert resolved.y_hat == 62 / 128
    assert resolved.branch_flipped and not est.branch_flipped
    assert resolved.k_mode == 66
    assert resolved.y_hat == 1.0 - resolved.k_mode / 128
    assert resolved.cluster_counts == (0, 1)
    assert resolved.log_likelihood_ratio == -est.log_likelihood_ratio
    assert resolved.y_candidates == est.y_candidates


def test_flip_at_the_largest_register_reads_the_other_candidate(lopsided_pair):
    # at M = 2**53 a bin is one ulp of 1/2: a lone sample at the bin of y reads
    # the mirror 1 - y, and the flip must land on the other candidate exactly
    m_size = phase_estimation.MAX_M_SIZE
    prep = weighted_superposition(lopsided_pair)
    est = estimate_y([round(prep.y * m_size)], m_size)
    assert est.ambiguous and est.y_hat == est.y_candidates[1]
    resolved = disambiguate(est, prep, lopsided_pair.energy, seed=1)
    assert resolved.branch_flipped and resolved.ambiguous
    assert resolved.y_hat == est.y_candidates[0] == 1.0 - resolved.k_mode / m_size
    assert resolved.y_candidates == est.y_candidates
    assert resolved.cluster_counts == est.cluster_counts[::-1] == (0, 1)


def test_unflipped_estimate_keeps_its_mode(lopsided_pair):
    est = estimate_y([15, 49], 64)  # dead-even: the default reads 15/64
    resolved = disambiguate(est, weighted_superposition(lopsided_pair), lopsided_pair.energy,
                            seed=21)
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
    resolved = disambiguate(est, prep, s.energy, seed=2)
    assert resolved.y_hat == pytest.approx(expected, abs=1e-15)
    assert estimate_count(resolved.y_hat, 26) == l


def test_verification_hits_match_the_per_target_route():
    # the hit count compares each uniform with |a(t)|**2; the reference draws
    # over the l target outcomes and the failure bin.  The two can part only
    # where a uniform falls within roundoff of the success probability
    rng = make_rng(15, "verification-cases")
    suite = (oracles.random_scenario_suite(15, 200, n_items_range=(2, 64))
             + oracles.random_scenario_suite(15, 200, oracles.ScenarioMode.MISPLACED))
    hits = []
    for scenario in suite:
        prep = weighted_superposition(scenario)
        for candidate in (prep.y, *rng.uniform(1e-3, 1.0, 4)):
            harmonic = 2 * int(rng.integers(0, 8)) + 1
            seed = int(rng.integers(0, 2**31))
            args = (scenario.energy, float(candidate))
            drawn = phase_estimation._verification_hits(
                prep.y, *args, make_rng(seed, "verify"), phase_estimation.N_VERIFY, harmonic)
            reference = oracles.verification_hits_by_outcome(
                prep, *args, make_rng(seed, "verify"), phase_estimation.N_VERIFY, harmonic)
            assert drawn == reference, (scenario, candidate, harmonic, seed)
            hits.append(drawn)
    assert len(hits) == 2000
    assert min(hits) < 10 and max(hits) == phase_estimation.N_VERIFY  # both ends are reached


def test_estimate_recovers_overlap_within_resolution():
    s = build_scenario(
        12, {0, 1}, [({0, 2, 4}, 1 / 3), ({1, 3, 5}, 1 / 3), ({6, 7, 8}, 1 / 3)]
    )
    # disjoint uniform: y = sqrt(2/9) ~ 0.4714
    prep = weighted_superposition(s)
    est, _ = run_phase_estimation(prep, s.energy, m_size=64, n_samples=200, seed=17)
    assert abs(est.y_hat - prep.y) <= est.resolution


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
    count, est = run_counting(s, m_size=64, seed=7)
    assert count == 3
    assert s.support_size == 6
    assert est.m_size == 64


def test_counting_auto_register_size(library_demo_path):
    s = load_scenario(library_demo_path)
    count, est = run_counting(s, seed=13)
    assert est.m_size == 64  # max(64, 4 * 13) -> 64
    assert count == s.n_targets


def test_counting_rejects_small_register(counting_demo_path):
    s = load_scenario(counting_demo_path)
    with pytest.raises(ValueError):
        run_counting(s, m_size=16, seed=0)  # needs >= 4 * 6


def test_counting_round_trip_overlapping_sets():
    # overlap between sets must not spoil the count on the support's uniform state
    s = build_scenario(
        10, {0, 1, 2, 3}, [({0, 1, 4, 5}, 0.6), ({1, 2, 3, 5, 6}, 0.4)]
    )
    count, _ = run_counting(s, seed=23)
    assert count == 4


def test_next_power_of_two():
    assert next_power_of_two(1) == 2
    assert next_power_of_two(64) == 64
    assert next_power_of_two(65) == 128
    with pytest.raises(ValueError):
        next_power_of_two(0)
