"""Deterministic random-number streams.

Every stochastic operation in this package draws from an RngStream, a
(master seed, path-of-indices) pair mapped onto numpy's SeedSequence spawn
mechanism. Identical (seed, path) pairs reproduce identical draws bit for
bit; distinct paths give statistically independent streams. Parallel code
hands each work unit its own child stream, or takes each unit's draws from
one stream under a lock in unit order, and merges results in a fixed order
(ordered_map), so output never depends on worker count or scheduling.
Threads are plain threading.Threads (each_index); threading is loaded with
numpy, so running in parallel imports nothing.
"""

from __future__ import annotations

import os
import threading
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


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which `taskset`
    sets), or os.cpu_count() where the platform has no affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_workers(workers: int) -> None:
    """Refuse a worker count below 1."""
    if workers < 1:
        raise ValueError(f"need at least one worker, not {workers}")


def thread_count(count: int, workers: int) -> int:
    """The threads each_index runs count indices on: min(count, workers)."""
    check_workers(workers)
    return max(1, min(count, workers))


def each_index(run, count: int, workers: int) -> None:
    """run(slot, i) once for each i in range(count), on thread_count(count,
    workers) threads: the calling one, slot 0, and one started thread per
    further slot. Each thread takes the next index not yet taken, so which
    slot runs an index depends on timing; slot only names a thread's own
    buffers. After an error no thread takes a further index, and the first
    error is raised once every thread has ended. One slot starts no thread.
    """
    indices = iter(range(count))
    lock = threading.Lock()
    errors = []

    def work(slot: int):
        try:
            while not errors:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                run(slot, i)
        except BaseException as exc:  # raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(1, thread_count(count, workers))]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def ordered_map(run, count: int, workers: int = 1) -> list:
    """[run(i) for i in range(count)] on each_index's threads; the results
    come back in index order whatever the worker count."""
    results = [None] * count

    def put(_slot: int, i: int):
        results[i] = run(i)

    each_index(put, count, workers)
    return results


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
