"""Deterministic random streams for every stochastic code path.

All sampling goes through numpy's Philox bit generator: a counter-based
generator with a published algorithm, so identical seeds give identical
draws across platforms and sessions.  Independent sub-streams are derived
by hashing ``(seed, tag)`` pairs, which lets one top-level seed drive many
subsystems without any stream overlap.  Discrete outcomes are drawn by
inverse-CDF lookup (:func:`sample_inverse_cdf`).
"""

from __future__ import annotations

import hashlib

import numpy as np

def make_rng(seed: int, tag: str = "") -> np.random.Generator:
    """Generator on a reproducible stream that is independent per tag: its
    128-bit Philox key is the first half of SHA-256 of ``"<seed>:<tag>"``."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "big")))


def sample_inverse_cdf(probs, rng: np.random.Generator, n_draws: int) -> np.ndarray:
    """Draw ``n_draws`` indices into ``probs`` by inverse-CDF lookup.

    The last cumulative bin is raised to at least 1, so roundoff in the sum
    never lets a uniform draw fall past the end.
    """
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    return np.searchsorted(cum, rng.random(int(n_draws)), side="right")
