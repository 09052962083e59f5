"""Deterministic random-number streams, and the one thread policy.

Every stochastic operation in this package draws from an RngStream, a
(master seed, path-of-indices) pair mapped onto numpy's SeedSequence spawn
mechanism. Identical (seed, path) pairs reproduce identical draws bit for
bit; distinct paths give statistically independent streams. Parallel code
hands each work unit its own child stream, or takes each unit's draws from
one stream under a lock in unit order, and keeps each unit's result at its
own place, so output never depends on the thread count or scheduling.

This module alone decides how many threads run: thread_count(units) is
min(units, usable_cpus()), so the process's CPU affinity, which `taskset`
sets, is the only cap. Threads are plain threading.Threads (each_item);
threading is loaded with numpy, so running in parallel imports nothing.
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


def thread_count(units: int) -> int:
    """The threads that run `units` work units: min(units, usable_cpus()),
    and at least one."""
    return max(1, min(units, usable_cpus()))


def each_item(run, items, threads: int) -> list:
    """[run(slot, item) for item in items], on `threads` threads, which
    callers take from thread_count(units): the calling one, slot 0, and one
    started thread per further slot. Each thread takes the next item under
    one lock, so an iterator that draws random numbers is read in order, runs
    it outside the lock, and keeps its result at the item's place. Which slot
    runs an item depends on timing; slot only names a thread's own buffers.
    After an error no thread takes a further item, and the first error is
    raised once every thread has ended. One thread starts no thread.
    """
    numbered = enumerate(items)
    lock = threading.Lock()
    results, errors = {}, []

    def work(slot: int):
        try:
            while not errors:
                with lock:
                    i, item = next(numbered, (None, None))
                if i is None:
                    return
                results[i] = run(slot, item)
                del item  # a drawn chunk is freed before the next one is drawn
        except BaseException as exc:  # raised in the calling thread
            errors.append(exc)

    started = [threading.Thread(target=work, args=(slot,)) for slot in range(1, threads)]
    for thread in started:
        thread.start()
    work(0)
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]
    return [results[i] for i in range(len(results))]


def open_uniform(gen: np.random.Generator, size):
    """An array of uniform draws on the open interval (0, 1).

    numpy's random() covers [0, 1); the exact 0 (probability 2^-53) is mapped
    to 2^-53, in place, so inverse-CDF transforms never hit a support endpoint.
    """
    u = gen.random(size)
    return np.maximum(u, 2.0 ** -53, out=u)
