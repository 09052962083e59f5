"""Deterministic random-number streams.

Every stochastic operation in this package draws from an RngStream, a
(master seed, path-of-indices) pair mapped onto numpy's SeedSequence spawn
mechanism. Identical (seed, path) pairs reproduce identical draws bit for
bit; distinct paths give statistically independent streams. Parallel code
hands each work unit its own child stream and merges results in a fixed
order (ordered_map), so output never depends on worker count or scheduling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import checked


@checked
class RngStream(NamedTuple):
    seed: int
    path: tuple[int, ...] = ()

    def _check(self):
        if not all(isinstance(i, int) and i >= 0 for i in self.path):
            raise ValueError("stream path must be non-negative integers")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))

    def child(self, *indices: int) -> "RngStream":
        """Substream addressed by appending indices to the path."""
        return RngStream(self.seed, self.path + indices)


def ordered_map(run, count: int, workers: int = 1) -> list:
    """[run(i) for i in range(count)], on a pool of `workers` threads when
    above 1; the results come back in index order either way."""
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(count)))
    return [run(i) for i in range(count)]


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream (fresh sequence) or a Generator (continue in place)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return rng.generator()


def open_uniform(gen: np.random.Generator, size=None):
    """Uniform draws on the open interval (0, 1).

    numpy's random() covers [0, 1); the exact 0 (probability 2^-53) is mapped
    to 2^-53 so inverse-CDF transforms never hit a support endpoint. Arrays
    are clamped in place.
    """
    u = gen.random(size)
    if size is None:
        return np.maximum(u, 2.0 ** -53)
    return np.maximum(u, 2.0 ** -53, out=u)
