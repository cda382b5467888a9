import math
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import in_dilate
from oracle import ray_start
import hollowsimplex
from hollowsimplex.arith import dilate_gaps, parallel_map, rem_pos
from hollowsimplex.proscriptive import HalfOpenInterval


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


def test_interval_emptiness():
    assert HalfOpenInterval(2, 2).is_empty
    assert HalfOpenInterval(3, 2).is_empty
    assert not HalfOpenInterval(2, Fraction(61, 30)).is_empty
    iv = HalfOpenInterval(38, 44)
    assert (iv.lo, iv.hi) == (Fraction(38), Fraction(44))
    assert in_dilate(38, iv, 1) and in_dilate(43, iv, 1) and not in_dilate(44, iv, 1)
    assert in_dilate(76, iv, 2) and not in_dilate(88, iv, 2)


# The scaled union of intervals is the union of all their positive integer
# dilates; `dilate_gaps` decides it on integer bounds (p, q, u, v) of
# [p/q, u/v). These tests check it against the oracle's ray start and
# against membership in each dilate, tested one t at a time.


def test_scaled_union_single_interval_gaps():
    (num, den), gaps = dilate_gaps([(38, 1, 44, 1)])
    expected = (
        list(range(1, 38))
        + list(range(44, 76))
        + list(range(88, 114))
        + list(range(132, 152))
        + list(range(176, 190))
        + list(range(220, 228))
        + list(range(264, 266))
    )
    assert list(gaps) == expected
    assert Fraction(num, den) == ray_start(Fraction(38), Fraction(44)) == 266


def _in_some_dilate(intervals, y):
    # t*hi <= y for every t <= floor(y/hi), so only t in [floor(y/hi), floor(y/lo)]
    # can hold y; in_dilate decides each of them
    return any(
        in_dilate(y, iv, t)
        for iv in intervals
        if not iv.is_empty
        for t in range(max(math.floor(y / iv.hi), 1), math.floor(y / iv.lo) + 1)
    )


def _random_interval(rng):
    lo = Fraction(rng.randint(5, 40), rng.randint(1, 3))
    if rng.random() < 0.25:
        return HalfOpenInterval(lo, lo - Fraction(rng.randint(0, 5), rng.randint(1, 4)))
    return HalfOpenInterval(lo, lo + Fraction(rng.randint(1, 8), rng.randint(1, 4)))


def _least_ray_by_search(iv):
    # the first t whose dilate reaches the next one: t*hi >= (t+1)*lo
    t = 1
    while t * iv.hi < (t + 1) * iv.lo:
        t += 1
    return t * iv.lo


def test_scaled_union_gap_soundness():
    # the kernel takes the nonempty intervals; the reference sees them all
    rng = random.Random(2020)
    checked = 0
    for _ in range(300):
        intervals = [_random_interval(rng) for _ in range(rng.randint(1, 6))]
        live = [iv for iv in intervals if not iv.is_empty]
        if not live:
            continue
        bounds = [(*iv.lo.as_integer_ratio(), *iv.hi.as_integer_ratio()) for iv in live]
        (num, den), gaps = dilate_gaps(bounds)
        rays = [ray_start(iv.lo, iv.hi) for iv in live]
        assert rays == [_least_ray_by_search(iv) for iv in live]
        least = min(rays)
        assert Fraction(num, den) == least
        for y in range(1, math.ceil(least) + 1):
            assert _in_some_dilate(intervals, y) == (y not in gaps), (intervals, y)
        assert all(g < least for g in gaps)
        checked += 1
    assert checked > 270


def test_scaled_union_ray_membership():
    iv = HalfOpenInterval(Fraction(29, 3), Fraction(132, 13))
    (num, den), _ = dilate_gaps([(29, 3, 132, 13)])
    assert Fraction(num, den) == ray_start(iv.lo, iv.hi)
    base = -(-num // den)
    for z in range(base, base + 100):
        assert _in_some_dilate([iv], z)


def test_dilate_gaps_takes_unreduced_bounds():
    # bounds scaled by arbitrary factors, and a window [lo, hi] of the gaps
    rng, window = random.Random(15), random.Random(17)
    for _ in range(200):
        live = [iv for iv in (_random_interval(rng) for _ in range(rng.randint(1, 6)))
                if not iv.is_empty]
        if not live:
            continue
        bounds = []
        for iv in live:
            c, e = rng.randint(1, 5), rng.randint(1, 5)
            bounds.append((c * iv.lo.numerator, c * iv.lo.denominator,
                           e * iv.hi.numerator, e * iv.hi.denominator))
        (num, den), gaps = dilate_gaps(bounds)
        least = min(ray_start(iv.lo, iv.hi) for iv in live)
        horizon = math.ceil(least)
        assert Fraction(num, den) == least
        assert gaps == tuple(y for y in range(1, horizon + 1) if not _in_some_dilate(live, y))
        # the exact pair (t0*p, q) of one of the bounds, as given
        assert any(den == q and num % p == 0 for p, q, _, _ in bounds)
        lo = window.randint(1, horizon)
        hi = window.randint(lo - 1, horizon + 2)
        assert dilate_gaps(bounds, lo, hi) == ((num, den), tuple(y for y in gaps if lo <= y <= hi))


def test_ray_start_formula():
    for (p, q, u, v), ray in (((38, 1, 44, 1), 266), ((2, 1, 3, 1), 4), ((3, 1, 4, 1), 9),
                              ((29, 3, 132, 13), Fraction(580, 3))):
        (num, den), _ = dilate_gaps([(p, q, u, v)])
        assert Fraction(num, den) == ray == ray_start(Fraction(p, q), Fraction(u, v))


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
