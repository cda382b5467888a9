"""The three workloads: fixed lists of CLI invocations made from a seed.

A workload is one round of invocations. Each invocation is an `Op`; the
same seed always gives the same round. The seed picks tuples, prefixes and
exact values of d, but every slot of a round keeps its kind of input and
its order of magnitude, so the work of a round hardly depends on the seed.

Every round ends with a short tail of small invocations that reaches the
layers the workload does not otherwise call, so that every per-layer
metric is measured on every workload; each tail op costs about one
interpreter start.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import oracle

NAMES = ("classify", "kscan", "family")


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `invalid` ops must be refused with exit 2."""

    cmd: str
    opts: tuple[tuple[str, str], ...]
    invalid: bool = False

    @property
    def argv(self) -> list[str]:
        out = [self.cmd]
        for flag, value in self.opts:
            out += [f"--{flag}"] if value is None else [f"--{flag}", value]
        return out

    def opt(self, name: str, default=None):
        return dict(self.opts).get(name, default)


def op(cmd: str, invalid: bool = False, **opts) -> Op:
    """An Op from keyword options; a value of None makes a bare flag."""
    return Op(cmd, tuple((k.replace("_", "-"), None if v is None else str(v))
                         for k, v in opts.items()), invalid)


def spec(a, d) -> str:
    return ",".join(map(str, a)) + f":{d}"


def tup(a) -> str:
    return ",".join(map(str, a))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def near_prime(rng: random.Random, base: int) -> int:
    """A prime within about 2 % above base: d moves, the scan length barely."""
    return next_prime(int(base * (1 + 0.02 * rng.random())))


def pick(rng: random.Random, length: int, top: int, keep) -> tuple[int, ...]:
    """A random ascending tuple of distinct entries in [2, top] passing keep."""
    while True:
        a = tuple(sorted(rng.sample(range(2, top + 1), length)))
        if keep(a):
            return a


def witness_share(a, probe: int = 2003):
    """Height share k/d of the first interior point at a small prime d.

    The share barely moves with d past the stabilization point, so it tells
    how long the scan of a large-d simplex runs before its witness.
    """
    hit = oracle.scan(a, probe, interior_only=True, first=True)
    return hit[0][0][-1] / probe if hit else None


def nonhollow_with_share(rng, length, top, lo, hi):
    def keep(a):
        if oracle.asymptotically_hollow(a):
            return False
        share = witness_share(a)
        return share is not None and lo <= share <= hi
    return pick(rng, length, top, keep)


def hollow_tuple(rng, length, top):
    return pick(rng, length, top, oracle.asymptotically_hollow)


# --- the tail ---------------------------------------------------------------


def small_spec(rng, nonhollow: bool):
    """Two or three entries up to 6 and d up to 30: small enough to box-walk."""
    while True:
        a = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 3)))
        d = rng.randint(12, 30)
        hit = oracle.scan(a, d, interior_only=True, first=True)
        if not nonhollow or hit:
            return a, d


def tail(rng: random.Random, covered: set[str]) -> list[Op]:
    """Small invocations reaching every layer not in `covered`."""
    ops = []
    if "classify" not in covered:
        ops.append(op("classify", a_max=3, x_max=rng.randint(7, 9), check=None))
    if "kscan" not in covered:
        for cmd in ("hollow", "empty", "points", "width", "facets"):
            a, d = small_spec(rng, nonhollow=cmd == "hollow")
            ops.append(op(cmd, alpha=spec(a, d)))
    if "agree" not in covered:
        ops.append(op("agree", count=3, window=3, seed=rng.randint(0, 999)))
    if "family" not in covered:
        r = rng.randint(2, 4)
        ops.append(op("family", n=4))
        ops.append(op("sset", x=rng.randint(max(10, 2 * r), 40), r=r))
    return ops


# --- workloads --------------------------------------------------------------


def classify_ops(rng: random.Random) -> list[Op]:
    ops = [
        # Every sporadic triple has least entry <= 6 and largest entry <= 15.
        op("classify", a_max=6, x_max=15, check=None),
        op("classify", a_max=8, x_max=30, check=None),
        op("extend", tuple="29,38,66"),
        op("proscribe", tuple="29,38,66"),
    ]
    for _ in range(5):
        a = rng.randint(3, 12)
        ops.append(op("extend", tuple=tup((a, rng.randint(a + 1, 45)))))
    for _ in range(3):
        ops.append(op("extend", tuple=tup(sorted(rng.sample(range(3, 31), 3)))))
    for length in (2, 3, 3):
        b = rng.sample(range(3, 41), length)
        ops.append(op("proscribe", tuple=tup(b)))
    b = rng.sample(range(3, 41), 3)
    i = rng.randrange(3)
    ops.append(op("proscribe", tuple=tup(b), index=i, multiplier=rng.randint(1, 2 * b[i])))
    return ops + tail(rng, {"classify"})


def kscan_ops(rng: random.Random) -> list[Op]:
    ops = []
    ops.append(op("hollow", alpha=spec(hollow_tuple(rng, 3, 15), near_prime(rng, 1_200_000))))
    ops.append(op("hollow", alpha=spec(hollow_tuple(rng, 5, 11), near_prime(rng, 700_000))))
    late = nonhollow_with_share(rng, 4, 20, 0.25, 0.35)
    ops.append(op("hollow", alpha=spec(late, near_prime(rng, 1_200_000))))
    early = nonhollow_with_share(rng, 3, 20, 0.0, 0.06)
    ops.append(op("hollow", alpha=spec(early, near_prime(rng, 1_000_000))))

    ops.append(op("empty", alpha=spec(hollow_tuple(rng, 4, 12), near_prime(rng, 1_200_000))))
    unit = (1,) + tuple(sorted(rng.sample(range(2, 21), 2)))
    ops.append(op("empty", alpha=spec(unit, near_prime(rng, 300_000))))
    ops.append(op("empty", alpha=spec(nonhollow_with_share(rng, 5, 20, 0.25, 0.35),
                                      near_prime(rng, 800_000))))

    # Hollow with a few boundary points: d is a multiple of every entry.
    a = hollow_tuple(rng, 3, 15)
    lcm = math.lcm(*a)
    ops.append(op("points", alpha=spec(a, lcm * (200_000 // lcm + rng.randint(0, 2)))))
    ops.append(op("points", alpha=spec(nonhollow_with_share(rng, 3, 20, 0.1, 0.2),
                                       near_prime(rng, 200_000))))

    # phi(2p) = p - 1 keeps the unit scan near 2e5 whatever p is.
    ops.append(op("width", alpha=spec(hollow_tuple(rng, 3, 15),
                                      2 * near_prime(rng, 200_000))))
    d = near_prime(rng, 200_000)
    x = rng.randint(2, 50)
    wide = sorted(rng.sample(range(2, 60), 3)) + [x, d - x + 1]
    ops.append(op("width", alpha=spec(wide, d)))

    ops.append(op("facets", alpha=spec(hollow_tuple(rng, 4, 12), near_prime(rng, 1_000_000))))
    ops.append(op("facets", alpha=spec(rng.sample(range(2, 60), 5), 210 * rng.randint(100, 200))))

    # Small d, so the box walk checks the scan.
    a, d = small_spec(rng, nonhollow=True)
    ops.append(op("hollow", alpha=spec(a, d)))
    a, d = small_spec(rng, nonhollow=False)
    ops.append(op("points", alpha=spec(a, d)))
    d = rng.randint(12, 30)
    ops.append(op("width", alpha=spec((rng.randint(2, 6), d, rng.randint(2, 6)), d)))
    return ops + agree_ops(rng) + tail(rng, {"kscan", "agree"})


def near_miss(rng: random.Random, a) -> tuple[int, ...]:
    """A paper triple with one entry moved by one."""
    while True:
        b = list(a)
        i = rng.randrange(3)
        b[i] += rng.choice((-1, 1))
        if min(b) >= 2 and tuple(sorted(b)) != tuple(a):
            return tuple(b)


def agree_ops(rng: random.Random) -> list[Op]:
    """Short k-scans past the stabilization point, the pool path, and the
    criterion on the paper's triples and on near-misses."""
    ops = []
    for length, top in ((3, 20), (4, 16), (5, 14)):
        ops.append(op("agree", count=100, min_len=length, max_len=length, high=top,
                      window=40, seed=rng.randint(0, 10**6), threads=2))
    paper = list(oracle.SPORADIC) + [(2, x, x + 1) for x in range(2, 30)]
    chosen = rng.sample(paper, 3)
    for a in chosen:
        ops.append(op("asym", tuple=tup(a)))
    for a in chosen[:2]:
        ops.append(op("asym", tuple=tup(near_miss(rng, a))))
    for a in rng.sample(paper, 2):
        ops.append(op("thresholds", tuple=tup(near_miss(rng, a))))
    # An empty length range: the CLI must refuse it with exit 2. It does
    # not depend on the seed, so every round fails it the same way.
    ops.append(op("agree", invalid=True, min_len=5, max_len=3))
    return ops


def family_ops(rng: random.Random) -> list[Op]:
    ops = [op("family", n=n) for n in (4, 8, 12, 14, 16, 17, 18, 19)]
    ops.append(op("sset", x=9, r=2, method="both"))
    ops.append(op("sset", x=14, r=3, method="both"))
    for _ in range(3):
        r = rng.randint(2, 8)
        ops.append(op("sset", x=rng.randint(r * r, 300), r=r, method="both"))
    for r in (3, 5, 7):
        ops.append(op("sset", x=int(4000 * (1 + 0.02 * rng.random())), r=r, method="both"))
    r = rng.randint(2, 6)
    ops.append(op("sset", x=rng.randint(50, 400), r=r, variant="exempt"))
    rng.shuffle(ops)
    return ops + tail(rng, {"family"})


BUILDERS = {"classify": classify_ops, "kscan": kscan_ops, "family": family_ops}


def build(name: str, seed: int) -> list[Op]:
    """The round of workload `name` for `seed`."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"))
