import math
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import in_dilate
import hollowsimplex
from hollowsimplex.arith import (
    HalfOpenInterval,
    content,
    parallel_map,
    ray_start,
    rem_pos,
    scaled_union,
)


def test_rem_pos_examples():
    assert rem_pos(12, 5) == 5
    assert rem_pos(5, 10) == 5
    assert rem_pos(7, 8) == 1


def test_rem_pos_rejects_small_modulus():
    with pytest.raises(ValueError):
        rem_pos(1, 5)
    with pytest.raises(ValueError):
        rem_pos(0, 5)


def test_rem_pos_periodicity_and_range():
    for x in range(2, 40):
        for y in range(-80, 81):
            r = rem_pos(x, y)
            assert 1 <= r <= x
            assert (r - y) % x == 0
            assert rem_pos(x, y + x) == r
            assert (r == x) == (y % x == 0)


def test_content_examples():
    assert content([6, 10, 15]) == 1
    assert content([]) == 0
    assert content([4, 6]) == 2
    assert content([-4, 6]) == 2


def test_interval_emptiness():
    assert HalfOpenInterval(2, 2).is_empty
    assert HalfOpenInterval(3, 2).is_empty
    assert not HalfOpenInterval(2, Fraction(61, 30)).is_empty
    iv = HalfOpenInterval(38, 44)
    assert (iv.lo, iv.hi) == (Fraction(38), Fraction(44))
    assert in_dilate(38, iv, 1) and in_dilate(43, iv, 1) and not in_dilate(44, iv, 1)
    assert in_dilate(76, iv, 2) and not in_dilate(88, iv, 2)


def test_scaled_union_single_interval_gaps():
    summary = scaled_union([HalfOpenInterval(38, 44)], horizon=200)
    expected = (
        list(range(1, 38))
        + list(range(44, 76))
        + list(range(88, 114))
        + list(range(132, 152))
        + list(range(176, 190))
    )
    assert list(summary.gaps) == expected
    assert summary.ray_start == 38 * math.ceil(Fraction(38, 6))
    assert summary.ray_start == 266


def test_scaled_union_empty_interval():
    summary = scaled_union([HalfOpenInterval(2, 2)], horizon=25)
    assert summary.ray_start is None
    assert summary.gaps == tuple(range(1, 26))


def test_scaled_union_validation():
    with pytest.raises(ValueError):
        scaled_union([HalfOpenInterval(0, 3)], horizon=10)
    with pytest.raises(ValueError):
        scaled_union([HalfOpenInterval(-1, -2)], horizon=10)
    with pytest.raises(ValueError):
        scaled_union([HalfOpenInterval(1, 2)], horizon=0)


def _in_some_dilate(intervals, y, t_limit):
    return any(
        in_dilate(y, iv, t)
        for iv in intervals
        if not iv.is_empty
        for t in range(1, t_limit + 1)
    )


def test_scaled_union_gap_soundness():
    intervals = [
        HalfOpenInterval(Fraction(29, 3), Fraction(132, 13)),
        HalfOpenInterval(Fraction(38), Fraction(44)),
        HalfOpenInterval(Fraction(29, 2), Fraction(44, 3)),
        HalfOpenInterval(Fraction(5, 2), Fraction(5, 2)),
    ]
    # 150 lies below every ray; 300 lies past the least ray start, 580/3
    for horizon in (150, 300):
        summary = scaled_union(intervals, horizon=horizon)
        for g in summary.gaps:
            assert not _in_some_dilate(intervals, g, horizon)
        covered = set(range(1, horizon + 1)) - set(summary.gaps)
        for y in covered:
            assert _in_some_dilate(intervals, y, horizon)
        assert all(g < summary.ray_start for g in summary.gaps)


def test_scaled_union_ray_membership():
    iv = HalfOpenInterval(Fraction(29, 3), Fraction(132, 13))
    summary = scaled_union([iv], horizon=40)
    start = summary.ray_start
    assert start is not None
    base = math.ceil(start)
    for z in range(base, base + 100):
        assert _in_some_dilate([iv], z, z)


def test_ray_start_formula():
    assert ray_start(HalfOpenInterval(38, 44)) == 266
    assert ray_start(HalfOpenInterval(2, 3)) == 4
    assert ray_start(HalfOpenInterval(3, 4)) == 9
    with pytest.raises(ValueError):
        ray_start(HalfOpenInterval(2, 2))


THREADS = 2


def _square_with_pid(job):
    return job * job, os.getpid()


@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_parallel_map_keeps_job_order(n, no_child_left):
    # 5 jobs over 2 workers leave a remainder; 1 job is fewer than the workers
    out = parallel_map(_square_with_pid, list(range(n)), threads=THREADS)
    assert [sq for sq, _ in out] == [j * j for j in range(n)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) == min(n, THREADS)


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
    jobs = [("ok", 0), ("ok", 1), ("ok", 2), (kind, 3), ("ok", 4)]
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
