"""The two kernels that two modules share: subset residues and the process pool.

`subset_residues` gives the residues mod m that subsets reach; `parallel_map`
is the one process pool. No float enters a comparison and no rational is
built here.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, NoReturn, Sequence


def subset_residues(values: Sequence[int], mod: int) -> Iterator[dict[int, int]]:
    """For j = m - 1 down to 0, m = len(values): {r: the least size of a
    nonempty subset of values[j:] summing to r mod `mod`}. Each table extends
    the last, to at most min(2^m, mod) residues; time O(m * min(2^m, mod)).
    """
    table: dict[int, int] = {}
    for v in reversed(values):
        rest, table = table, {**table, v % mod: 1}
        for r, size in rest.items():
            s = (r + v) % mod
            table[s] = min(table.get(s, size + 1), size + 1)
        yield table


def parallel_map(fn: Callable, jobs: Iterable, threads: int = 1) -> list:
    """[fn(job) for job in jobs], shared with forked worker processes.

    threads must lie in [1, os.cpu_count()] and is checked before jobs, any
    iterable, is listed, so a refused value builds no job. The jobs are
    split k = max(1, min(threads, len(jobs))) ways, or k = 1 where os.fork
    does not exist: this process computes jobs[0::k] and k - 1 forked
    workers compute jobs[w::k], 1 <= w < k. jobs[0] runs before any fork, so
    every worker inherits the modules fn loads lazily instead of compiling
    them again. Results keep the order of jobs, so output never depends on
    threads. An exception, here or in a worker, is raised here with its type
    and message, and a worker that ends without a result (killed, out of
    memory) raises RuntimeError. Every worker is reaped before this returns.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ValueError(f"threads must lie in [1, {cpus}], got {threads}")
    jobs = list(jobs)
    k = max(1, min(threads, len(jobs))) if hasattr(os, "fork") else 1
    own = [fn(job) for job in jobs[:1]]
    if k > 1:  # imported before the forks, so that the workers inherit it
        import pickle
    pids: list[int] = []
    reads: list[int] = []
    try:
        for w in range(1, k):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, jobs[w::k], wr, pickle.dumps)
            finally:
                os.close(wr)
            pids.append(pid)
        own += [fn(job) for job in jobs[k::k]]
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
    results[::k] = own
    for w, (blob, status) in enumerate(zip(blobs, statuses), 1):
        if not blob:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker process ended without a result (exit code {code})")
        ok, value = pickle.loads(blob)
        if not ok:
            raise value
        results[w::k] = value
    return results


def _worker(fn: Callable, jobs: Sequence, fd: int, dumps: Callable) -> NoReturn:
    """Forked worker: write one (ok, results or exception), pickled by dumps, to fd, exit.

    os._exit skips the parent's atexit handlers and the flush of the stdio
    buffers the fork copied, which belong to the parent.
    """
    try:
        try:
            data = dumps((True, [fn(job) for job in jobs]))
        except BaseException as exc:  # not swallowed: parallel_map raises it
            data = dumps((False, exc))
        with open(fd, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
