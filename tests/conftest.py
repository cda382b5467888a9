"""Shared test helpers, chiefly the independent reference oracles.

The membership oracle never looks at the package's k-scan: it walks the
integer bounding box of the simplex and solves the barycentric coordinates
of each point exactly with Fractions. Slow but unarguable. The per-height
k-scan tests every height against every entry, the criterion reference
scans every multiplier with no shortcut, and the emptiness shortcut
reference collects every zero-sum subset before taking a gcd.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import combinations, product

import pytest

from hollowsimplex.arith import remainder_sum
from hollowsimplex.asymptotic import CriterionWitness


def box_lattice_points(a, d):
    """(interior, boundary) non-vertex lattice points of the simplex of (a; d)."""
    n = len(a) + 1
    vertices = {tuple([0] * n), tuple(a) + (d,)}
    for i in range(n - 1):
        e = [0] * n
        e[i] = 1
        vertices.add(tuple(e))
    interior, boundary = [], []
    ranges = [range(0, max(1, ai) + 1) for ai in a] + [range(0, d + 1)]
    for z in product(*ranges):
        lam_last = Fraction(z[-1], d)
        lams = [z[i] - lam_last * a[i] for i in range(n - 1)]
        lam0 = 1 - sum(lams) - lam_last
        if any(l < 0 for l in lams) or lam0 < 0:
            continue
        if z in vertices:
            continue
        if all(l > 0 for l in lams) and lam0 > 0 and lam_last > 0:
            interior.append(z)
        else:
            boundary.append(z)
    return interior, boundary


def heights_by_scan(spec, interior):
    """Heights k in [1, d-1] carrying a non-extreme (interior) lattice point,
    testing every k against every entry: the per-height form of the k-scan."""
    d = spec.d
    zero, bound = (d, d - 1) if interior else (0, d)
    out = []
    for k in range(1, d):
        total = k
        for ai in spec.a:
            r = k * ai % d
            total += d - r if r else zero
            if total > bound:
                break
        else:
            out.append(k)
    return out


def reference_witness(a):
    """Least failing (index, t) of the criterion, t over all of [1, a(i) - 1]
    for every entry, with no entry skipped; None when every inequality holds."""
    a = tuple(sorted(a))
    n = len(a) + 1
    for i, ai in enumerate(a):
        for t in range(1, ai):
            lhs = remainder_sum(ai, a[:i] + a[i + 1:], t)
            rhs = t + (n - 3) * ai
            if lhs > rhs:
                return CriterionWitness(index=i, entry=ai, t=t, lhs=lhs, rhs=rhs)
    return None


def empty_sufficient_by_full_union(spec):
    """The emptiness shortcuts with the gcd-union rule in its first form:
    collect the whole union of zero-sum subsets, then take its content."""
    full = spec.row
    for i, ai in enumerate(spec.a):
        if ai == 1 and math.gcd(*full[:i], *full[i + 1:]) == 1:
            return "unit-entry"
    m = len(spec.a)
    union = set()
    for size in range(1, m + 1):
        for positions in combinations(range(m), size):
            if sum(spec.a[i] for i in positions) % spec.d == 0:
                union.update(positions)
    if math.gcd(*(spec.a[i] for i in union), spec.d) == 1:
        return "gcd-union"
    return None


def datum_is_trivial_by_remainders(b, i, m):
    """Integer-only form of the proscriptive triviality test, bypassing the
    interval: the remainder-sum inequality one dimension down."""
    n = len(b) + 2
    ai = b[i]
    if ai < 2:
        return True
    return remainder_sum(ai, b[:i] + b[i + 1:], m) <= m + (n - 4) * ai


def in_dilate(y, iv, t):
    """Whether y lies in the dilate t*[lo, hi) of a half-open interval."""
    return t * iv.lo <= y < t * iv.hi


def run_cli(argv):
    """Invoke the CLI main() capturing stdout; returns (exit_code, text)."""
    import io
    import sys

    from hollowsimplex.cli import main

    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.fixture
def no_child_left():
    """Fails the test if it leaves a child process unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
