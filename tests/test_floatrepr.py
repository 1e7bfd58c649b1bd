"""The array kernel writes ``repr``'s bytes for every float64."""

import random

import numpy as np
import pytest

from ctqsearch import floatrepr
from ctqsearch.floatrepr import repr_cells


def assert_reprs(values):
    # one cell per line, NULs dropped, against repr of each Python float
    values = np.asarray(values, dtype=np.float64).ravel()
    cells = repr_cells(values)
    lines = np.concatenate([cells, np.full((values.size, 1), ord("\n"), np.uint8)], axis=1)
    got = lines.tobytes().replace(b"\0", b"")
    expected = [repr(v) for v in values.tolist()]
    if got != ("\n".join(expected) + "\n").encode():
        wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got.decode().split("\n"), expected)
                 if g != e]
        pytest.fail(f"{len(wrong)} cells differ from repr, first (value, cell, repr): {wrong[:5]}")


def neighbours(values, ulps=3):
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    down = up = values
    with np.errstate(over="ignore"):  # the largest float's neighbour above is inf
        for _ in range(ulps):
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
            out += [down, up]
    return np.concatenate(out)


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(1234).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))


def fixed_cases():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    cases = [
        neighbours(powers_of_two, ulps=1),
        np.arange(1, 4096) * 5e-324,  # the smallest subnormals
        np.arange(2**52 - 4096, 2**52) * 5e-324,  # the largest, below the smallest normal
        neighbours([1e-4, 1e-5, 1e16, 1e17, 9.999999999999999e-05, 9999999999999998.0]),
        neighbours([0.5, 0.1, 0.3, 1e22, 1e23, 2.0**53, 1.7976931348623157e308]),
        np.ldexp(np.arange(1, 1000, dtype=np.float64), 60),  # bounds with 5**q in them
        10.0 ** np.arange(-323, 309),
        np.arange(10**5, dtype=np.float64),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
    ]
    return np.concatenate(cases)


def test_fixed_cases_match_repr():
    values = fixed_cases()
    assert_reprs(values)
    assert_reprs(-values)


def test_kernel_serves_only_negative_binary_exponents(monkeypatch):
    # subnormals and magnitudes of 2**54 and above take repr: the kernel asks
    # for Ryu's constants of e2 < 0 alone, and every cell is still repr's
    multiplier = floatrepr._multiplier
    asked = []

    def negative_only(e2):
        assert e2 < 0, e2
        asked.append(e2)
        return multiplier(e2)

    monkeypatch.setattr(floatrepr, "_multiplier", negative_only)
    values = fixed_cases()
    assert_reprs(values)
    assert_reprs(-values)
    assert min(asked) == 1 - 1077 and max(asked) == -1


def test_cells_keep_the_input_shape():
    values = np.array([[1.5, -0.0, np.nan], [1e-5, 123456789.0, -2.2250738585072014e-308]])
    cells = repr_cells(values)
    assert cells.shape[:2] == values.shape and cells.dtype == np.uint8
    assert cells.shape[2] == len("-2.2250738585072014e-308")
    assert repr_cells(np.zeros((0, 3))).shape[:2] == (0, 3)
    # strided views, as the CSV writer passes the real part of a complex column
    packed = np.array([1.5 + 2.5j, -0.25 + 1e300j])
    assert_reprs(packed.imag)


def test_multiplier_is_exact_for_each_exponent():
    # floor(mv * mul / 2**j) is the exact floor of mv * 2**e2 / 10**e10, for
    # the bounds mv - 2, mv, mv + 2 of every binary exponent the kernel serves:
    # the normal values below 2**54, whose e2 is negative
    rng = random.Random(11)
    for biased in range(1, 1077):
        e2 = biased - 1077
        _, e10, j, mul = floatrepr._multiplier(e2)
        assert 0 < j - 65 < 64  # the shift the kernel applies to bits 64.. of the product
        for m2 in (1, 2**52, 2**53 - 1, rng.randrange(1, 2**53)):
            for mv in (4 * m2 - 2, 4 * m2, 4 * m2 + 2):
                assert mv * mul >> j == (mv * 10**-e10) >> -e2, (biased, mv)


def test_import_builds_no_table():
    # the constants are computed per call for the exponents present; the
    # module holds no table beyond the 20 powers of ten
    sized = {name: len(value) for name, value in vars(floatrepr).items()
             if not name.startswith("__")
             and isinstance(value, (list, tuple, dict, set, np.ndarray))}
    assert max(sized.values(), default=0) <= 20, sized
