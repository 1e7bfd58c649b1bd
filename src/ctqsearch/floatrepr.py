"""Python's ``repr`` of float64 values, computed on whole arrays.

:func:`repr_cells` gives each value the bytes of ``repr(float(x))``: the
shortest decimal that reads back as ``x`` (the closest such when there are
several).  The digits come from the common path of Ryu's d2s (Adams, "Ryū:
fast float-to-string conversion", PLDI 2018), whose 64×128-bit products are
built here from 32-bit halves on uint64 arrays, and are written in fixed
notation.  The cells that path leaves out take Python's own ``repr``: zeros,
subnormals, magnitudes of 2**54 and above (infinities and NaN among them), the
values whose decimal bounds may end in zeros, which Ryu sends to its slow
loop, and the values ``repr`` writes in scientific notation (a decimal
exponent below -4 or above 15).

Every operand is uint64, constants included: numpy promotes a uint64 array
with an int64 one, and in numpy 1.x a uint64 scalar with a Python int, to
float64.
"""

from __future__ import annotations

import numpy as np

U = np.uint64
BITCOUNT = 125  # bits kept of 5**i, Ryu's POW5_BITCOUNT
WIDTH = 24  # the longest repr of a float64: "-2.2250738585072014e-308"
MAX_DIGITS = 17  # a float64's shortest decimal has at most 17 digits
POW10 = U(10) ** np.arange(20, dtype=U)  # every power of ten below 2**64
REPR = 20  # the shape of a cell after fixed notation's 0 to 19 (the decimal point at -3 to 16)


def _multiplier(e2: int) -> tuple[int, int, int, int]:
    """Ryu's constants for the binary exponent ``e2 < 0`` of ``m * 2**e2``:
    ``(q, e10, j, mul)`` with ``floor(m * mul / 2**j)`` close to
    ``m * 2**e2 / 10**e10``, and ``q`` the count of decimal zeros whose
    presence sends a value to Ryu's slow loop.  Computed from Python ints for
    this one exponent; there is no table."""
    q = (-e2 * 732923 >> 20) - (-e2 > 1)  # floor(-e2 log10 5), less one past -e2 = 1
    pow5 = 5 ** (-e2 - q)
    shift = pow5.bit_length() - BITCOUNT
    return q, q + e2, q - shift, pow5 >> shift if shift >= 0 else pow5 << -shift


def _product(m: np.ndarray, limbs: list) -> list:
    """``m * mul`` as three 64-bit words, lowest first, for ``m < 2**56`` and
    ``mul`` given as four 32-bit ``limbs``: schoolbook multiplication on
    32-bit halves, each partial product below 2**64."""
    low, half = U(0xFFFFFFFF), U(32)
    m0, m1 = m & low, m >> half
    t = m0 * limbs[0]
    r = [t & low]
    for limb in limbs[1:]:
        t = m0 * limb + (t >> half)
        r.append(t & low)
    r.append(t >> half)  # r[k] is the 32-bit limb k of m0 * mul
    t = m1 * limbs[0] + r[1]
    r[1] = t & low
    for k, limb in enumerate(limbs[1:], 2):
        t = m1 * limb + r[k] + (t >> half)
        r[k] = t & low
    r.append(t >> half)
    return [(r[k + 1] << half) | r[k] for k in (0, 2, 4)]


def _constants(biased: np.ndarray):
    """Per value, :func:`_multiplier`'s ``q``, ``e10``, ``j - 65`` and the four
    32-bit limbs of ``mul``, computed once for each binary exponent present."""
    exponent = np.clip(biased, U(1), U(1076)).astype(np.intp)  # e2 < 0; the rest take repr
    present = np.flatnonzero(np.bincount(exponent, minlength=1077))
    slot = np.zeros(1077, np.intp)
    slot[present] = np.arange(present.size)
    slot = slot[exponent]
    consts = [_multiplier(e - 1077) for e in present.tolist()]
    q = np.array([c[0] for c in consts], U)[slot]
    e10 = np.array([c[1] for c in consts], np.int64)[slot]
    shift = np.array([c[2] - 65 for c in consts], U)[slot]  # 53 to 60
    limbs = [np.array([c[3] >> (32 * k) & 0xFFFFFFFF for c in consts], U)[slot]
             for k in range(4)]
    return q, e10, shift, limbs


def _bounds(m2: np.ndarray, shift: np.ndarray, limbs: list):
    """Ryu's ``vr, vp, vm = floor((4 m2 + {0, 2, -2}) * mul / 2**j)``, from
    the one product ``p = 2 m2 * mul`` plus and minus ``mul``."""
    w0, w1, w2 = _product(m2 << U(1), limbs)
    mul_lo, mul_hi = (limbs[1] << U(32)) | limbs[0], (limbs[3] << U(32)) | limbs[2]
    up = U(64) - shift

    def top(hi, mid):  # floor(p / 2**(j - 1)) from bits 64 to 191 of p
        return (hi << up) | (mid >> shift)

    lo = w0 + mul_lo
    mid = w1 + mul_hi + (lo < w0)
    vp = top(w2 + (mid < w1), mid)
    lo = w0 - mul_lo
    mid = w1 - mul_hi - (lo > w0)
    return top(w2, w1), vp, top(w2 - (mid > w1), mid)


def _shortest(bits: np.ndarray):
    """Ryu's d2s common path: per value, the shortest decimal ``digits *
    10**e10`` and whether the value must take Python's repr instead."""
    biased = (bits >> U(52)) & U(0x7FF)
    frac = bits & U((1 << 52) - 1)
    m2 = frac | U(1 << 52)
    q, e10, shift, limbs = _constants(biased)
    vr, vp, vm = _bounds(m2, shift, limbs)

    # Python's repr for what the common path leaves out: zeros, subnormals,
    # e2 >= 0 (|x| >= 2**54, infinities, NaN), powers of two (whose lower bound
    # is nearer than the upper), and values whose bounds may end in zeros (Ryu's slow loop)
    fallback = (biased == U(0)) | (biased >= U(1077)) | ((frac == U(0)) & (biased != U(1)))
    mv = m2 << U(2)
    mask = (U(1) << np.minimum(q, U(63))) - U(1)  # mv * 2**e2 ends in q zeros iff 2**q divides mv
    fallback |= (q <= U(1)) | ((q < U(63)) & (mv & mask == U(0)))
    vp = np.where(fallback, vm, vp)  # nothing to remove

    # drop the most digits that leave a decimal between the bounds, rounding
    # half up on the first dropped digit; the lower bound is excluded
    removed = np.zeros(bits.size, np.intp)
    for k in range(1, 20):
        more = vp // POW10[k] > vm // POW10[k]
        if not more.any():
            break
        removed += more
    scale = POW10[removed]
    digits = vr // scale
    round_up = vr - digits * scale >= (scale + U(1)) >> U(1)
    return digits + ((digits == vm // scale) | round_up), e10 + removed, fallback


def repr_cells(values) -> np.ndarray:
    """``repr(float(x))`` for each float64 ``x`` as uint8 cells of a common
    width, shape ``values.shape + (width,)``: a cell's bytes with its NULs
    dropped are the repr.  NULs pad the end and stand where a shape has no
    byte for a value (a missing digit or sign).

    Rows are sorted by shape: fixed notation by where the decimal point falls,
    then Python's own repr.  Each fixed shape is filled by block copies of
    left-aligned digit characters.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    digits, e10, fallback = _shortest(flat.view(U))
    n_digits = np.searchsorted(POW10[:MAX_DIGITS], digits, side="right")
    point = e10 + n_digits  # value = 0.digits * 10**point
    fallback |= (point < -3) | (point > 16)  # scientific notation
    n_digits[fallback] = MAX_DIGITS
    shape = np.where(fallback, REPR, point + 3)
    order = np.argsort(shape.astype(np.uint8), kind="stable")
    shape, n_digits = shape[order], n_digits[order]

    # each value's digits as characters from the left, NUL past the last,
    # digit c of every value in row c
    v = digits[order] * POW10[MAX_DIGITS - n_digits]
    chars = np.empty((MAX_DIGITS, flat.size), np.uint8)
    for c in range(MAX_DIGITS - 1, -1, -1):
        quotient = v // U(10)
        chars[c] = v - quotient * U(10)
        v = quotient
    chars += ord("0")
    for c in range(int(n_digits.min(initial=MAX_DIGITS)), MAX_DIGITS):
        chars[c] *= n_digits > c

    cells = np.zeros((flat.size, WIDTH), np.uint8)
    cells[:, 0] = np.where(np.signbit(flat[order]), ord("-"), 0)
    width = 0
    starts = np.flatnonzero(np.diff(shape, prepend=-1)).tolist()
    for lo, hi in zip(starts, [*starts[1:], flat.size]):
        rows, d, code = cells[lo:hi], chars[:, lo:hi].T, int(shape[lo])
        if code <= 3:  # 0.000ddd
            lead = b"0." + b"0" * (3 - code)
            rows[:, 1 : 1 + len(lead)] = np.frombuffer(lead, np.uint8)
            rows[:, 1 + len(lead) : 1 + len(lead) + MAX_DIGITS] = d
            width = max(width, 1 + len(lead) + MAX_DIGITS)
        elif code < REPR:  # ddd.ddd, zeros for missing digits up to the first decimal
            p = code - 3
            rows[:, 1 : 1 + p] = np.maximum(d[:, :p], ord("0"))
            rows[:, 1 + p] = ord(".")
            rows[:, 2 + p] = np.maximum(d[:, p], ord("0"))
            rows[:, 3 + p : 2 + MAX_DIGITS] = d[:, p + 1 :]
            width = max(width, 2 + MAX_DIGITS)

    out = np.empty_like(cells)
    out.view(f"V{WIDTH}")[order] = cells.view(f"V{WIDTH}")  # whole cells, not bytes
    texts = [repr(v) for v in flat[fallback].tolist()]
    if texts:
        out[fallback] = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
        width = max(width, *map(len, texts))
    return out[:, :width].reshape(*x.shape, width)
