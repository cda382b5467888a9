import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import in_dilate
import hollowsimplex
from hollowsimplex.arith import parallel_map
from hollowsimplex.proscriptive import HalfOpenInterval


def test_interval_emptiness():
    assert HalfOpenInterval(Fraction(2), Fraction(2)).is_empty
    assert HalfOpenInterval(Fraction(3), Fraction(2)).is_empty
    assert not HalfOpenInterval(Fraction(2), Fraction(61, 30)).is_empty
    iv = HalfOpenInterval(Fraction(38), Fraction(44))
    assert (iv.lo, iv.hi) == (38, 44) and iv == (38, 44)
    assert str(iv) == "[38, 44)" and not iv.is_empty
    assert str(HalfOpenInterval(Fraction(29, 3), Fraction(132, 13))) == "[29/3, 132/13)"
    assert in_dilate(38, iv, 1) and in_dilate(43, iv, 1) and not in_dilate(44, iv, 1)
    assert in_dilate(76, iv, 2) and not in_dilate(88, iv, 2)


THREADS = 2


def _square_with_pid(job):
    return job * job, os.getpid()


@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_parallel_map_keeps_job_order(n, no_child_left):
    # 5 jobs over 2 processes leave a remainder; 1 job is fewer than the
    # processes. This process computes jobs[0::k], one forked worker the rest.
    out = parallel_map(_square_with_pid, list(range(n)), threads=THREADS)
    assert [sq for sq, _ in out] == [j * j for j in range(n)]
    pids = [pid for _, pid in out]
    assert all(pid == os.getpid() for pid in pids[::THREADS])
    assert len(set(pids)) == min(n, THREADS)


def test_parallel_map_checks_threads_before_it_lists_the_jobs(no_child_left):
    def jobs():
        raise AssertionError("a job was built")
        yield

    with pytest.raises(ValueError, match=r"^threads must lie in \[1, "):
        parallel_map(abs, jobs(), threads=(os.cpu_count() or 1) + 1)
    # any iterable of jobs is taken, and listed once
    assert parallel_map(abs, (-j for j in range(5)), threads=THREADS) == [0, 1, 2, 3, 4]


def test_parallel_map_without_fork_runs_every_job_here(monkeypatch, no_child_left):
    monkeypatch.delattr(os, "fork")
    out = parallel_map(_square_with_pid, list(range(5)), threads=THREADS)
    assert out == [(j * j, os.getpid()) for j in range(5)]


def test_parallel_map_workers_inherit_what_the_first_job_loaded():
    # jobs[0] runs before any fork, so a module it imports lazily is
    # already loaded in every worker; colorsys is absent from a -S start
    src = os.path.dirname(os.path.dirname(hollowsimplex.__file__))
    code = (
        "import os, sys\n"
        "from hollowsimplex.arith import parallel_map\n"
        "def job(_):\n"
        "    loaded = 'colorsys' in sys.modules\n"
        "    import colorsys\n"
        "    return os.getpid(), loaded\n"
        "assert 'colorsys' not in sys.modules\n"
        f"out = parallel_map(job, range(6), threads={THREADS})\n"
        "print(sorted({loaded for pid, loaded in out if pid != os.getpid()}))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[True]\n"


def _run_job(job):
    kind, value = job
    if kind == "value":
        raise ValueError(f"bad job {value}")
    if kind == "runtime":
        raise RuntimeError(f"job {value} could not finish")
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return value


@pytest.mark.parametrize("kind, error, message", [
    ("value", ValueError, "^bad job 3$"),
    ("runtime", RuntimeError, "^job 3 could not finish$"),
    ("kill", RuntimeError, "^worker process ended without a result"),
])
def test_parallel_map_raises_worker_failures(kind, error, message, no_child_left):
    # index 3 is a worker's; 0 runs here before any fork, 2 while a worker
    # runs. A kill here would end the test run, so it goes to the worker only.
    for index in (3,) if kind == "kill" else (3, 0, 2):
        jobs = [("ok", j) for j in range(5)]
        jobs[index] = (kind, 3)
        with pytest.raises(error, match=message):
            parallel_map(_run_job, jobs, threads=THREADS)


def test_parallel_map_workers_leave_parent_exit_alone():
    # Workers are forked with the parent's unflushed stdout buffer and its
    # atexit handlers; neither may run twice.
    src = os.path.dirname(os.path.dirname(hollowsimplex.__file__))
    code = (
        "import atexit, sys\n"
        "from hollowsimplex.arith import parallel_map\n"
        "atexit.register(print, 'atexit')\n"
        "sys.stdout.write('pending ')\n"
        f"print(parallel_map(abs, [-1, -2, -3], threads={THREADS}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**env, "PYTHONPATH": src}).stdout
    assert out == "pending [1, 2, 3]\natexit\n"
