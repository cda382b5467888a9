"""Exact integer and rational primitives, and the one process pool.

Everything downstream leans on a few kernels: the shifted remainder that
lands in {1, ..., x} instead of {0, ..., x-1} and its sums, gcd content,
subset sums, half-open rational intervals, and unions of all positive
integer dilates of such intervals. Endpoints are `fractions.Fraction`; no
float ever enters a comparison. `fractions` is imported where an interval
is built, so callers of the integer kernels alone never load it.
"""

from __future__ import annotations

import math
import os
from itertools import combinations
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, NoReturn,
                    Optional, Sequence)

if TYPE_CHECKING:
    from fractions import Fraction


def rem_pos(x: int, y: int) -> int:
    """Remainder of y modulo x shifted into {1, ..., x}.

    Identical to y % x except that multiples of x map to x rather than 0.
    Requires x >= 2; y may be any integer.
    """
    if x < 2:
        raise ValueError(f"modulus must be >= 2, got {x}")
    r = y % x
    return x if r == 0 else r


def remainder_sum(entry: int, others: Iterable[int], t: int) -> int:
    """Sum of rem_pos(entry, t*x) over x in others: the criterion's left side."""
    total = 0
    for x in others:
        r = t * x % entry
        total += r if r else entry
    return total


def content(values: Iterable[int]) -> int:
    """gcd of the absolute values; 0 for an empty collection."""
    return math.gcd(*values)


def subset_sums(values: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(positions, sum) of every nonempty subset, by size, then lexicographically."""
    m = len(values)
    for size in range(1, m + 1):
        yield from zip(combinations(range(m), size), map(sum, combinations(values, size)))


def parallel_map(fn: Callable, jobs: Sequence, threads: int = 1) -> list:
    """[fn(job) for job in jobs], in forked worker processes when threads > 1.

    threads must lie in [1, os.cpu_count()] and is checked before any worker
    starts. Above 1, k = min(threads, len(jobs)) workers are forked and worker
    w computes jobs[w::k]; where os.fork does not exist the jobs run serially
    in this process. Results keep the order of jobs, so output never depends
    on threads. A worker's exception is raised here with its type and
    message, and a worker that ends without a result (killed, out of memory)
    raises RuntimeError. Every worker is reaped before this returns.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ValueError(f"threads must lie in [1, {cpus}], got {threads}")
    if threads == 1 or not hasattr(os, "fork"):
        return [fn(job) for job in jobs]
    # Imported here so that serial runs never pay for it.
    import pickle

    k = min(threads, len(jobs))
    pids: list[int] = []
    reads: list[int] = []
    try:
        for w in range(k):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, jobs[w::k], wr)
            finally:
                os.close(wr)
            pids.append(pid)
        # Read every pipe to EOF before reaping: a worker blocks on a full pipe.
        blobs = [_read_to_eof(r) for r in reads]
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in reads:
            os.close(r)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results: list = [None] * len(jobs)
    for w, (blob, status) in enumerate(zip(blobs, statuses)):
        if not blob:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker process ended without a result (exit code {code})")
        ok, value = pickle.loads(blob)
        if not ok:
            raise value
        results[w::k] = value
    return results


def _worker(fn: Callable, jobs: Sequence, fd: int) -> NoReturn:
    """Forked worker: write one pickled (ok, results or exception) to fd, exit.

    os._exit skips the parent's atexit handlers and the flush of the stdio
    buffers the fork copied, which belong to the parent.
    """
    import pickle

    try:
        try:
            data = pickle.dumps((True, [fn(job) for job in jobs]))
        except BaseException as exc:  # not swallowed: parallel_map raises it
            data = pickle.dumps((False, exc))
        with open(fd, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


class _HalfOpenInterval(NamedTuple):
    lo: Fraction
    hi: Fraction

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


class HalfOpenInterval(_HalfOpenInterval):
    """Rational interval [lo, hi); empty exactly when hi <= lo."""

    __slots__ = ()

    def __new__(cls, lo, hi) -> "HalfOpenInterval":
        from fractions import Fraction

        return super().__new__(cls, Fraction(lo), Fraction(hi))


def ray_start(iv: HalfOpenInterval) -> Fraction:
    """Start of the infinite ray covered by the dilates of a nonempty interval.

    Consecutive dilates t*[lo, hi) and (t+1)*[lo, hi) overlap or touch once
    t*hi >= (t+1)*lo, i.e. t >= lo/(hi-lo); from the least such t0 onward the
    union of dilates is exactly [t0*lo, infinity).
    """
    if iv.is_empty:
        raise ValueError("empty interval covers no ray")
    if iv.lo <= 0:
        raise ValueError("interval must have positive lower endpoint")
    t0 = math.ceil(iv.lo / (iv.hi - iv.lo))
    return t0 * iv.lo


class RaySummary(NamedTuple):
    """Integers missed by a union of dilated intervals, plus its infinite ray.

    Every integer >= ray_start is covered by the union (ray_start is absent
    when every input interval is empty). `gaps` lists the integers in
    [1, horizon] covered by no dilate; all of them lie below ray_start.
    """

    ray_start: Optional[Fraction]
    gaps: tuple[int, ...]
    horizon: int


def scaled_union(intervals: Sequence[HalfOpenInterval], horizon: int) -> RaySummary:
    """Union of every positive integer dilate of the given intervals.

    Write a nonempty interval as [p/q, u/v). T = y*q // p is the largest t with
    t*lo <= y and t*hi grows with t, so y lies in a positive dilate exactly when
    y*v < T*u (false when T = 0). `gaps` are the y in [1, horizon] that no
    interval accepts: at most horizon * len(intervals) integer tests.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    for iv in intervals:
        if iv.lo <= 0:
            raise ValueError(f"interval {iv} must have positive lower endpoint")
    live = [iv for iv in intervals if not iv.is_empty]
    ray = min(map(ray_start, live), default=None)
    bounds = [(*iv.lo.as_integer_ratio(), *iv.hi.as_integer_ratio()) for iv in live]
    gaps = tuple(y for y in range(1, horizon + 1)
                 if not any(y * v < y * q // p * u for p, q, u, v in bounds))
    return RaySummary(ray_start=ray, gaps=gaps, horizon=horizon)
