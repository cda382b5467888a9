"""Property sweeps, each run once by `test_acceptance_8_property_suites`.

Each helper returns a list of counterexamples; passing means empty. The
expected values come from `bench/oracle.py`, never from the kernel under
check; the facet sweep keeps the package's minors-gcd cross-check, and the
reflection and width sweeps check the package's own answers.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement

import oracle
from hollowsimplex import asymptotic, proscriptive, residues, simplex


def witness_reference_counterexamples():
    """The package's witness against the oracle's least failure over the full,
    shortcut-free range, all five fields, on every tuple with entries in
    [1, 30] and length 2 to 4 (46,345 tuples, entries of 1 included)."""
    bad = []
    for length in (2, 3, 4):
        for a in combinations_with_replacement(range(1, 31), length):
            got = asymptotic.criterion_witness(a)
            want = next(oracle.failures(a), None)
            if want is not None:
                i, t = want
                want = (i, a[i], t, *oracle.criterion_sides(a, i, t))
            if got != want:
                bad.append((a, got, want))
    return bad


def shortcut_soundness_counterexamples():
    """Wherever the residue-one certificate skips an entry, the inequality
    holds for every t in [1, a(i) - 1]: every triple and quadruple with
    entries in [1, 12]."""
    bad = []
    for length in (3, 4):
        for a in combinations_with_replacement(range(1, 13), length):
            for i, ai in enumerate(a):
                if not asymptotic._residue_one(a[:i] + a[i + 1:], ai):
                    continue
                for t in range(1, ai):
                    lhs, rhs = oracle.criterion_sides(a, i, t)
                    if lhs > rhs:
                        bad.append((a, i, t))
    return bad


PROSCRIPTION_PREFIXES = ((2, 2), (2, 3), (2, 4), (3, 5), (2, 5, 11), (3, 4, 9), (29, 38, 66))


def proscription_soundness_counterexamples(t_max: int = 40):
    """Integers inside any dilated proscriptive interval fail the oracle's
    full-range criterion."""
    bad = []
    for b in PROSCRIPTION_PREFIXES:
        for datum in proscriptive.nontrivial_data(b):
            iv = datum.interval
            for t in range(1, t_max + 1):
                for y in range(max(1, math.ceil(t * iv.lo)), math.ceil(t * iv.hi)):
                    if oracle.asymptotically_hollow(b + (y,)):
                        bad.append((b, datum.entry, datum.m, t, y))
    return bad


def facet_volume_counterexamples(seed: int = 7, samples: int = 120):
    """gcd formula versus the minors-gcd oracle on every facet: small specs,
    then lengths 2 to 6 with entries up to 10^15."""
    rng = random.Random(seed)
    bad = []
    specs = [simplex.SimplexSpec((3, 5, 7), 30), simplex.SimplexSpec((2, 3), 12)]
    for _ in range(samples):
        length = rng.choice((2, 3, 4))
        a = tuple(rng.randint(1, 12) for _ in range(length))
        specs.append(simplex.SimplexSpec(a, rng.randint(1, 40)))
    for _ in range(samples):
        a = tuple(rng.randint(1, 10**15) for _ in range(rng.randint(2, 6)))
        d = rng.choice((1, 2, 12, 97, 10**9 + 7, rng.randint(1, 10**15)))
        specs.append(simplex.SimplexSpec(a, d))
    for spec in specs:
        vols = simplex.facet_volumes(spec)
        oracle = tuple(
            simplex.facet_cotorsion(spec, i) for i in range(spec.dimension + 1)
        )
        if vols != oracle:
            bad.append((spec, vols, oracle))
    return bad


def reflection_counterexamples(r_max: int = 6, x_max: int = 120):
    """Strict non-membership reflects into the exempt variant both at z and
    at x - (r-1) - z, for z <= x - r coprime to x."""
    bad = []
    for r in range(2, r_max + 1):
        for x in range(2 * r, x_max + 1):
            s = set(residues.bounded_remainder_set(x, r))
            s0 = set(residues.bounded_remainder_set(x, r, residues.EXEMPT))
            if not s <= s0:
                bad.append(("containment", x, r))
            for z in range(1, x - r + 1):
                if math.gcd(x, z) == 1 and z not in s:
                    if z in s0 or (x - (r - 1) - z) in s0:
                        bad.append(("reflection", x, r, z))
    return bad


def neighbor_inequality_counterexamples():
    """rem(2t) + rem(bt) + rem(ct) <= t + 2d whenever c = b + 1 mod d,
    over 2 <= b, d <= 25, c in [2, 80], t below d/2."""
    bad = []
    for d in range(2, 26):
        for b in range(2, 26):
            for c in range(2, 81):
                if c % d != (b + 1) % d:
                    continue
                for t in range(1, (d - 1) // 2 + 1):
                    if sum(oracle.rem(d, v * t) for v in (2, b, c)) > t + 2 * d:
                        bad.append((b, c, d, t))
    return bad


def width_example_failures():
    """The two worked width examples plus the functional check."""
    bad = []
    spec_a = simplex.SimplexSpec((2, 3, 3, 3, 4), 12)
    subset = simplex.width_one(spec_a)
    if subset is None or sum(spec_a.a[i] for i in subset) % 12 != 0:
        bad.append(("width-one witness", spec_a))
    else:
        phi = simplex.width_one_functional(spec_a, subset)
        values = [sum(p * v for p, v in zip(phi, vert)) for vert in spec_a.vertices()]
        if max(values) - min(values) != 1:
            bad.append(("functional width", spec_a, phi))
    if simplex.width_upper_bound(spec_a) != 2:
        bad.append(("upper bound", spec_a))
    spec_b = simplex.SimplexSpec((2, 3, 3, 4), 12)
    if simplex.width_upper_bound(spec_b) != 1:
        bad.append(("upper bound", spec_b))
    return bad
