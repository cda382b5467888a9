"""Reference answers computed apart from the program under test.

Nothing here imports `hollowsimplex`. Every function is written from the
paper's definitions, so a check that compares the program's output with
these answers does not share code, and so cannot share a defect, with it:

- the complete triple list: the family (2, x, x+1) plus 11 sporadic triples;
- the remainder-sum criterion over the full multiplier range [1, a(i) - 1];
- barycentric membership of a lattice point, exact with `Fraction`;
- a box walk over every integer point of the bounding box, for small d;
- a ceiling scan over the height k/d, for large d;
- the doubling family and its four identities;
- the three-branch residue formula with its two pinned defects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

INTERIOR = "interior"
BOUNDARY = "facet-boundary"


class OracleError(Exception):
    """Two of the oracle's own derivations disagree: the oracle is at fault."""


# The paper's complete list of nontrivial asymptotically hollow triples,
# apart from the one-parameter family (2, x, x+1).
SPORADIC = (
    (2, 3, 5), (2, 3, 8), (2, 5, 9), (3, 4, 6), (3, 5, 7), (3, 5, 8),
    (3, 8, 10), (4, 6, 9), (4, 7, 10), (5, 8, 12), (6, 10, 15),
)

# (x, r) where the three-branch formula misses exactly one member of the
# brute-force set: the inverse of r mod x.
RESIDUE_DEFECTS = frozenset({(9, 2), (14, 3)})


def rem(x: int, y: int) -> int:
    """y mod x shifted into {1, ..., x}."""
    r = y % x
    return r if r else x


def frac_text(q: Fraction) -> str:
    """The program's exact rational serialization: "p" or "p/q"."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- the remainder-sum criterion -------------------------------------------


def criterion_sides(a: Sequence[int], i: int, t: int) -> tuple[int, int]:
    """(lhs, rhs) of sum_{j != i} rem(a(i), t a(j)) <= t + (n-3) a(i)."""
    n = len(a) + 1
    lhs = sum(rem(a[i], t * aj) for j, aj in enumerate(a) if j != i)
    return lhs, t + (n - 3) * a[i]


def failures(a: Sequence[int], half: bool = False):
    """Every failing (i, t) in index-then-t order over the ascending tuple.

    The full range is t in [1, a(i) - 1]; `half` stops at floor(a(i)/2).
    """
    a = sorted(a)
    for i, ai in enumerate(a):
        if ai < 2:
            continue
        top = ai // 2 if half else ai - 1
        for t in range(1, top + 1):
            lhs, rhs = criterion_sides(a, i, t)
            if lhs > rhs:
                yield i, t


def asymptotically_hollow(a: Sequence[int]) -> bool:
    """The criterion evaluated over the full multiplier range."""
    return next(failures(a), None) is None


def first_half_failure(a: Sequence[int]) -> Optional[tuple[int, int]]:
    """Least failing (i, t) with t <= a(i)/2, the witness the CLI reports."""
    return next(failures(a, half=True), None)


def thresholds(a: Sequence[int]) -> tuple[int, int]:
    """(m_bound, M_bound): max (a(i)-1) a(j) over i != j, (sum-1) max(a(i)-1)."""
    a = sorted(a)
    m = max((a[i] - 1) * a[j] for i in range(len(a)) for j in range(len(a)) if i != j)
    return m, (sum(a) - 1) * max(v - 1 for v in a)


def robust_point(a: Sequence[int]) -> int:
    """N past which the criterion decides hollowness, divisibility edge case
    included: max(C, (sum - 1) max a(i), max_{i != j} a(i) a(j))."""
    a = sorted(a)
    pair = max(a[i] * a[j] for i in range(len(a)) for j in range(len(a)) if i != j)
    return max(*thresholds(a), (sum(a) - 1) * max(a), pair)


def triples_in_box(a_max: int, x_max: int, min_entry: int = 2):
    """(sporadic, family_xs) by evaluating the criterion on every triple."""
    found = [
        (a, x, y)
        for a in range(max(2, min_entry), a_max + 1)
        for x in range(a, x_max + 1)
        for y in range(x, x_max + 1)
        if asymptotically_hollow((a, x, y))
    ]
    return split_family(found)


def paper_triples(a_max: int, x_max: int, min_entry: int = 2):
    """(sporadic, family_xs) of the paper's list restricted to the box."""
    lo = max(2, min_entry)
    sporadic = [t for t in SPORADIC if lo <= t[0] <= a_max and t[2] <= x_max]
    family = list(range(2, x_max)) if lo <= 2 <= a_max else []
    return sporadic, family


def split_family(triples):
    family = sorted(t[1] for t in triples if t[0] == 2 and t[2] == t[1] + 1)
    rest = sorted(t for t in triples if not (t[0] == 2 and t[2] == t[1] + 1))
    return rest, family


# --- lattice points ----------------------------------------------------------


def vertices(a: Sequence[int], d: int) -> set[tuple[int, ...]]:
    n = len(a) + 1
    out = {tuple([0] * n), tuple(a) + (d,)}
    for i in range(n - 1):
        out.add(tuple(1 if j == i else 0 for j in range(n)))
    return out


def barycentric(a: Sequence[int], d: int, z: Sequence[int]) -> list[Fraction]:
    """[lambda_0, lambda_1, ..., lambda_{n-1}, lambda_v] of the point z."""
    lam_v = Fraction(z[-1], d)
    lams = [z[i] - lam_v * a[i] for i in range(len(a))]
    return [1 - sum(lams) - lam_v] + lams + [lam_v]


def locate(a: Sequence[int], d: int, z: Sequence[int]) -> Optional[str]:
    """INTERIOR, BOUNDARY, or None for a vertex or a point outside."""
    lam = barycentric(a, d, z)
    if min(lam) < 0 or tuple(z) in vertices(a, d):
        return None
    return INTERIOR if min(lam) > 0 else BOUNDARY


def box_walk(a: Sequence[int], d: int) -> list[tuple[tuple[int, ...], str]]:
    """Every non-vertex lattice point with its tag, by ascending height.

    Walks the whole bounding box; cost is prod(a(i) + 1) * (d + 1).
    """
    ranges = [range(0, max(1, v) + 1) for v in a] + [range(0, d + 1)]
    found = []
    for z in product(*ranges):
        where = locate(a, d, z)
        if where is not None:
            found.append((z, where))
    found.sort(key=lambda p: (p[0][-1], p[0]))
    return found


def point_at(a: Sequence[int], d: int, k: int) -> Optional[tuple[tuple[int, ...], bool]]:
    """The lattice point at height k/d with least coordinate sum, if inside.

    lambda_i = z_i - k a(i)/d >= 0 forces z_i >= ceil(k a(i)/d), and the
    sum of the lambdas must stay <= 1, so the least choice decides. Returns
    (z, strictly_interior).
    """
    slack = d - k  # d * lambda_0 once every z_i sits at its ceiling
    zs = []
    strict = True
    for ai in a:
        q, r = divmod(-k * ai, d)
        zi = -q
        if r:
            slack -= r
        else:
            strict = False
        if slack < 0:
            return None
        zs.append(zi)
    return tuple(zs) + (k,), strict and slack > 0


def scan(a: Sequence[int], d: int, interior_only: bool = False, first: bool = False):
    """Non-vertex lattice points by ascending height k in [1, d-1]."""
    out = []
    for k in range(1, d):
        hit = point_at(a, d, k)
        if hit is None or (interior_only and not hit[1]):
            continue
        out.append((hit[0], INTERIOR if hit[1] else BOUNDARY))
        if first:
            break
    return out


def content(values) -> int:
    return math.gcd(*values)


def facet_volumes(a: Sequence[int], d: int) -> list[int]:
    """[1, gcd(a(i), d)..., gcd(sum(a) - 1, d)]."""
    return [1] + [math.gcd(v, d) for v in a] + [math.gcd(sum(a) - 1, d)]


def empty_reason(a: Sequence[int], d: int) -> Optional[str]:
    """The two cheap sufficient conditions for emptiness, as the CLI names them."""
    row = list(a) + [d]
    for i, v in enumerate(a):
        if v == 1 and content(row[:i] + row[i + 1:]) == 1:
            return "unit-entry"
    union = set()
    for size in range(1, len(a) + 1):
        for sub in combinations(range(len(a)), size):
            if sum(a[i] for i in sub) % d == 0:
                union.update(sub)
    if content([a[i] for i in union] + [d]) == 1:
        return "gcd-union"
    return None


def width_one_subset(a: Sequence[int], d: int) -> Optional[tuple[int, ...]]:
    """First subset, by size then lexicographically, summing to 0 or 1 mod d."""
    for size in range(1, len(a) + 1):
        for sub in combinations(range(len(a)), size):
            if sum(a[i] for i in sub) % d in (0, 1):
                return sub
    return None


def functional_width(a: Sequence[int], d: int, phi: Sequence[int]) -> int:
    values = [sum(p * c for p, c in zip(phi, v)) for v in vertices(a, d)]
    return max(values) - min(values)


def width_bound(a: Sequence[int], d: int) -> Optional[int]:
    """The unit-multiple reduced-row width bound, or None on an edge point.

    Over the units u mod d, u a(i) mod d runs through g w with g = gcd(a(i), d)
    and w a unit mod d/g, so entry i contributes exactly g. The augmented
    value 1 - u s runs through 1 - g_s w with g_s = gcd(s, d); that set is
    walked directly. A positive reduced value v contributes v, a negative
    one 1 - v.
    """
    if d == 1 or any(v % d == 0 for v in a):
        return None
    best = min(math.gcd(v, d) for v in a)
    if best == 1:
        return 1
    g = math.gcd(sum(a), d)
    m = d // g
    for w in range(1, m):
        if math.gcd(w, m) != 1:
            continue
        r = (1 - g * w) % d
        if r == 0:
            continue
        v = r if 2 * r <= d else r - d
        best = min(best, v if v > 0 else 1 - v)
    return best


def totient(d: int) -> int:
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


# --- proscriptive intervals and extensions --------------------------------


def datum(b: Sequence[int], i: int, m: int) -> dict:
    """The (i, m) proscriptive datum of prefix b, with its interval.

    g_row[j] = floor((m b(j) - 1) / b(i)), f its sum, denom = n - 3 + f with
    n = len(b) + 2, interval [b(i)/m, (sum(b) - 1)/denom).
    """
    n = len(b) + 2
    g_row = [(m * bj - 1) // b[i] for bj in b]
    f = sum(g_row)
    denom = n - 3 + f
    lo, hi = Fraction(b[i], m), Fraction(sum(b) - 1, denom)
    return {"index": i, "entry": b[i], "m": m, "g_row": g_row, "f": f,
            "denom": denom, "lo": lo, "hi": hi, "trivial": hi <= lo}


def trivial_by_remainders(b: Sequence[int], i: int, m: int) -> bool:
    """sum_{j != i} rem(b(i), m b(j)) <= m + (n-4) b(i), n = len(b) + 2."""
    n = len(b) + 2
    if b[i] < 2:
        return True
    lhs = sum(rem(b[i], m * bj) for j, bj in enumerate(b) if j != i)
    return lhs <= m + (n - 4) * b[i]


def nontrivial(b: Sequence[int]) -> list[dict]:
    """Nonempty-interval data with m in [1, b(i) - 1], index then m order.

    Each datum's emptiness is decided twice, once from the interval and
    once from the remainder sum; a disagreement is an oracle fault.
    """
    out = []
    for i, bi in enumerate(b):
        for m in range(1, bi):
            dt = datum(b, i, m)
            if dt["trivial"] != trivial_by_remainders(b, i, m):
                raise OracleError(f"oracle: triviality forms disagree at {b}, {i}, {m}")
            if not dt["trivial"]:
                out.append(dt)
    return out


def ray_start(lo: Fraction, hi: Fraction) -> Fraction:
    """Least t0 lo such that every dilate t [lo, hi) with t >= t0 overlaps the next."""
    return math.ceil(lo / (hi - lo)) * lo


def extensions(b: Sequence[int]):
    """(ray, candidates) for an ascending prefix with nontrivial data.

    Every y >= ray lies in some dilate, so the candidates are exactly the
    y in [2, ray) for which the extended tuple passes the criterion.
    """
    data = nontrivial(b)
    ray = min(ray_start(dt["lo"], dt["hi"]) for dt in data)
    cands = [y for y in range(2, math.ceil(ray)) if asymptotically_hollow(list(b) + [y])]
    return ray, cands


# --- doubling family and residue sets -------------------------------------


def doubling_family(n: int) -> list[int]:
    """2^(2n-5) -/+ 2^(n-3), 2^(2n-4) - 1, then each entry doubles the last."""
    out = [2 ** (2 * n - 5) - 2 ** (n - 3), 2 ** (2 * n - 5) + 2 ** (n - 3), 2 ** (2 * n - 4) - 1]
    while len(out) < n - 1:
        out.append(2 * out[-1])
    return out


def family_identities(a: Sequence[int]) -> dict[str, bool]:
    total = sum(a)
    return {
        "first_pair_sum": a[0] + a[1] == a[2] + 1,
        "prefix_sums": all(sum(a[:j]) == a[j] + 1 for j in range(2, len(a))),
        "complement_mod_first": (total - a[0]) % a[0] == 1,
        "complement_mod_second": (total - a[1]) % a[1] == 1,
    }


def residue_set(x: int, r: int, exempt: bool = False) -> list[int]:
    """z in [1, x] with rem(x, z t) <= x - (r-1) t for every t <= x/r.

    The exempt variant skips the t at which x divides z t.
    """
    out = []
    for z in range(1, x + 1):
        ok = True
        for t in range(1, x // r + 1):
            v = rem(x, z * t)
            if exempt and v == x:
                continue
            if v > x - (r - 1) * t:
                ok = False
                break
        if ok:
            out.append(z)
    return out


def residue_formula(x: int, r: int) -> list[int]:
    """Three branches: r does not divide x; r != 2 or x = 2 mod 4; else."""
    if x % r:
        return sorted({1, x - r, x - r + 1})
    if r != 2 or x % 4 == 2:
        return sorted({1, x - r + 1})
    return sorted({1, x // 2 - 1, x - 1})
