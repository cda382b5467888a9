"""Lattice simplices spanned by the origin, unit vectors, and one integer row.

SimplexSpec(a, d) describes the convex hull of {0, e_1, ..., e_{n-1}, v} in
R^n, where v = (a(1), ..., a(n-1), d) and n = len(a) + 1. A non-extreme
lattice point of this simplex has a unique barycentric decomposition whose
last coordinate is k/d for some k in [1, d-1], so hollowness and emptiness
reduce to an exact integer scan over k. That scan is the ground-truth oracle
for everything else in the package. It walks stretches of k on which the
charges of the entries with small residues are linear: O(those entries) per
stretch, at most sum(min(s, d - s)) + 1 stretches over their residues s, plus
O(n) per height on each stretch's half-line of candidates. The hollowness of
(a; N) at many N for one small tuple comes instead from a cell table built
once per tuple (`_hollow_by_n`), which the tests check against the scan.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import _positive_integers

if TYPE_CHECKING:
    from fractions import Fraction

INTERIOR = "interior"
FACET_BOUNDARY = "facet-boundary"


class EdgePointError(ValueError):
    """Raised when a width bound is requested but an entry reduces to 0,
    meaning some edge of the simplex carries a non-extreme lattice point."""


class _SimplexSpec(NamedTuple):
    a: tuple[int, ...]
    d: int

    @property
    def dimension(self) -> int:
        return len(self.a) + 1

    @property
    def row(self) -> tuple[int, ...]:
        """The distinguished vertex as an integer vector."""
        return self.a + (self.d,)

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """All n+1 vertices, ordered [v, e_1, ..., e_{n-1}, 0]."""
        n = self.dimension
        out = [self.row]
        for i in range(n - 1):
            e = [0] * n
            e[i] = 1
            out.append(tuple(e))
        out.append(tuple([0] * n))
        return tuple(out)


class SimplexSpec(_SimplexSpec):
    """The defining data (a(1), ..., a(n-1); d) of a lattice simplex, all whole and positive."""

    __slots__ = ()

    def __new__(cls, a, d) -> "SimplexSpec":
        row = (*a, d)
        if len(row) < 3:
            raise ValueError("need at least two entries (ambient dimension >= 3)")
        row = _positive_integers(row)
        return super().__new__(cls, row[:-1], row[-1])


class LatticePointReport(NamedTuple):
    """One non-extreme lattice point, tagged interior or facet-boundary."""

    k: int
    coords: tuple[int, ...]
    location: str
    lambda_sum: Fraction


# How many heights the per-height test can scan in the time one stretch costs
# (its half-line bounds and breakpoint updates); it sizes the slow budget.
_STRETCH_COST_RATIO = 32


def _heights(spec: SimplexSpec, interior: bool) -> Iterator[int]:
    """Ascending heights k in [1, d-1] carrying a non-extreme lattice point.

    The point at height k exists iff k + sum(d - r_i over the nonzero
    residues r_i = k*a(i) mod d) <= d, over integers after clearing d. For
    interior points a zero residue is charged d and the sum must be < d.

    With s = a(i) mod d and w = min(s, d - s), the charge of entry i is
    linear in k between breakpoints. With q = floor(k*w/d) its floor form is
    d*(1 + q) - k*w when w = s and k*w - q*d when w = d - s, breaking at
    ceil(j*d/w); with p = ceil(k*w/d) its ceiling form is d*p - k*w and
    k*w - d*(p - 1), breaking at floor(j*d/w) + 1. Both equal d - r_i when
    r_i != 0, and d - w or w at k = 1. When r_i = 0 the floor form charges
    d (w = s) or 0 (w = d - s) and the ceiling form 0 or d, so each entry
    takes the form exact at every height: ceiling for w = s on all points
    and for w = d - s on interior points, floor in the other two (sign,
    mode) cases. Entries with s != 0 and the least w, up to a total w of
    d // _STRETCH_COST_RATIO, are "slow": [1, d) is cut into stretches at
    their breakpoints, on each stretch k plus the slow charges is
    c + sigma*k, and only the heights on the half-line c + sigma*k <= bound
    get the per-height test over the remaining ("fast") entries. Cost:
    O(slow entries) per stretch, at most sum(w) + 1 stretches, plus O(n)
    per height on the half-lines.
    """
    d = spec.d
    zero, bound = (d, d - 1) if interior else (0, d)
    budget = d // _STRETCH_COST_RATIO
    fast = [ai % d for ai in spec.a]  # the residues, less each slow one below
    slow = []  # [w, change of c at a breakpoint, num, next breakpoint num // w]
    c, sigma = 0, 1
    # (w, s) for the entries with 0 < w <= budget, the only ones that can be slow
    small = [(min(s, d - s), s) for s in fast if s and (s <= budget or s >= d - budget)]
    for w, s in sorted(small):
        if w > budget:
            break
        budget -= w
        fast.remove(s)
        if w == s:
            c, sigma, step = c + d, sigma - w, d
        else:
            sigma, step = sigma + w, -d
        # num = j*d + w - 1 + ceiling for the next breakpoint j, so num // w is
        # ceil(j*d/w) in the floor form and floor(j*d/w) + 1 in the ceiling form
        num = d + w - 1 + ((w == s) != interior)
        slow.append([w, step, num, num // w])
    start = 1
    while start < d:
        end = min([entry[3] for entry in slow] + [d])
        lo, hi = start, end
        if sigma > 0:
            hi = min(hi, (bound - c) // sigma + 1)
        elif sigma < 0:
            lo = max(lo, -((c - bound) // sigma))
        elif c > bound:
            hi = lo
        if lo < hi:
            bases = range(c + sigma * lo, c + sigma * hi, sigma) if sigma else repeat(c)
            for k, total in zip(range(lo, hi), bases):
                for s in fast:
                    r = k * s % d
                    total += d - r if r else zero
                    if total > bound:
                        break
                else:
                    yield k
        for entry in slow:
            if entry[3] == end:
                c += entry[1]
                entry[2] += d
                entry[3] = entry[2] // entry[0]
        start = end


def _hollow_by_n(a: Sequence[int], big_ns: Iterable[int]) -> Iterator[bool]:
    """Whether the simplex of (a; N) is hollow, for each N of big_ns in turn.

    With S = sum(a), the point at height k in [1, N-1] is interior iff no
    k*a(i) is divisible by N and N*(sum of ceil(k*a(i)/N) - 1) < k*(S - 1):
    `_heights`'s test after clearing d. Cut (0, 1) at the fractions j/a(i),
    0 < j < a(i). On each open cell (lo, hi) every ceil(x*a(i)) is a
    constant c(i) and no residue vanishes, and the right side grows with k,
    so the cell's largest height k = ceil(hi*N) - 1 decides the cell. A cell
    with sum(c) - 1 >= hi*(S - 1) fails at every N and is dropped from the
    table. When k <= lo*N the cell holds no height, but k needs no check:
    at a breakpoint the test fails (some c(i) = k*a(i)/N + 1 there), and in
    an earlier cell, whose sum(c) is no larger, passing makes k interior.
    Breakpoints are the exact integers j*(lcm(a)/a(i)) on the scale lcm(a),
    merged lazily.

    The table is built once, in O(sum(a) log n) time and O(kept cells)
    memory, and each N costs O(kept cells). `_heights` stays the scan for
    one (a, d): its stretches need no cell per unit of an entry near d.
    """
    from heapq import merge

    scale = math.lcm(*a)
    excess = sum(a) - 1
    cells = []  # (hi on the scale, sum(c) - 1) of each kept cell
    lo, charge = 0, len(a) - 1
    steps = [scale // ai for ai in a]
    for hi in merge(*(range(step, scale, step) for step in steps), (scale,)):
        if hi > lo:
            if scale * charge < hi * excess:
                cells.append((hi, charge))
            lo = hi
        charge += 1
    for n in big_ns:
        for hi, charge in cells:
            if n * charge < (hi * n - 1) // scale * excess:
                yield False
                break
        else:
            yield True


def _reports(spec: SimplexSpec, heights: Iterable[int]) -> tuple[LatticePointReport, ...]:
    """The unique non-extreme lattice point at each height, which must carry one.

    `fractions` is imported here, once per call rather than once per point,
    so a hollow verdict never loads it.
    """
    from fractions import Fraction

    d = spec.d
    out = []
    for k in heights:
        residues = [k * ai % d for ai in spec.a]
        total = k + sum(d - r for r in residues if r)
        coords = tuple(-(-k * ai // d) for ai in spec.a) + (k,)
        strict_interior = all(residues) and total < d
        out.append(LatticePointReport(
            k=k,
            coords=coords,
            location=INTERIOR if strict_interior else FACET_BOUNDARY,
            lambda_sum=Fraction(total, d),
        ))
    return tuple(out)


def enumerate_non_extreme_points(spec: SimplexSpec) -> tuple[LatticePointReport, ...]:
    """Every lattice point of the simplex other than its vertices, by ascending k."""
    return _reports(spec, _heights(spec, interior=False))


def first_interior_point(spec: SimplexSpec) -> Optional[LatticePointReport]:
    """Interior lattice point with least k, or None when the simplex is hollow.

    Interior means every barycentric coordinate is strictly positive: all
    residues k*a(i) mod d are nonzero and the coordinate sum is strictly
    below 1.
    """
    k = next(_heights(spec, interior=True), None)
    return None if k is None else _reports(spec, (k,))[0]


def is_hollow(spec: SimplexSpec) -> bool:
    """True when the simplex has no interior lattice point."""
    return next(_heights(spec, interior=True), None) is None


def is_empty(spec: SimplexSpec) -> bool:
    """True when the only lattice points are the n+1 vertices.

    Equivalent to the k-scan finding no candidate at all: every non-vertex
    lattice point, including points on edges and faces, shows up at its
    height k.
    """
    return next(_heights(spec, interior=False), None) is None


UNIT_ENTRY = "unit-entry"
GCD_UNION = "gcd-union"


def empty_sufficient(spec: SimplexSpec) -> Optional[str]:
    """Cheap sufficient conditions for emptiness, or None when neither fires.

    unit-entry: some a(i) = 1 while the remaining entries together with d
    have content 1. gcd-union: collect every index appearing in a subset of
    the entries whose sum is divisible by d; the values at those indices,
    together with d, have content 1. A returned reason guarantees is_empty.

    One pass over the m entries maps each residue mod d reached by a
    nonempty subset to the gcd of d and the entries of all such subsets, in
    O(m * min(2^m, d)). Values only shrink, so it stops once 0 maps to 1.
    """
    full, a, d = spec.row, spec.a, spec.d
    if any(ai == 1 and math.gcd(*full[:i], *full[i + 1:]) == 1 for i, ai in enumerate(a)):
        return UNIT_ENTRY
    gcds: dict[int, int] = {}  # residue -> gcd of d and the entries of its subsets
    for v in a:
        rest, gcds[v % d] = gcds.copy(), math.gcd(gcds.get(v % d, d), v)
        for r, g in rest.items():
            s = (r + v) % d
            gcds[s] = math.gcd(gcds.get(s, d), g, v)
        if gcds.get(0) == 1:
            return GCD_UNION
    return None


def facet_volumes(spec: SimplexSpec) -> tuple[int, ...]:
    """Normalized volumes of the n+1 facets.

    Ordered [opposite v, opposite e_1, ..., opposite e_{n-1}, opposite 0]:
    always 1 for the facet opposite v, gcd(a(i), d) opposite e_i, and
    gcd(sum(a) - 1, d) opposite the origin. A facet is standard (a
    unimodular simplex) exactly when its volume is 1.
    """
    return (1,) + tuple(math.gcd(ai, spec.d) for ai in spec.a) + (
        math.gcd(sum(spec.a) - 1, spec.d),
    )


def facet_cotorsion(spec: SimplexSpec, facet: int) -> int:
    """Cotorsion of the subgroup generated by one facet's vertex differences.

    `facet` indexes the omitted vertex in the order [v, e_1, ..., e_{n-1}, 0];
    the result is the gcd of all maximal minors of the n x (n-1) matrix of
    differences, computed independently of the gcd formula in facet_volumes.
    An integer row operation is unimodular, so by Cauchy-Binet, applied both
    ways, it keeps that gcd. Euclid down each column leaves one pivot over
    zeros; the only nonzero maximal minor is then the triangular block of
    pivots, and the gcd is |their product|. As d >= 1 the n + 1 vertices are
    affinely independent, so the n - 1 differences have full rank and every
    column finds a pivot. Cost O(n^3 log) per facet.
    """
    n = spec.dimension
    if not 0 <= facet <= n:
        raise ValueError(f"facet index must lie in [0, {n}], got {facet}")
    # differences from the facet's last vertex, unit vectors first: their columns
    # take a pivot at once, so the matrix stays sparse until v's column
    *others, base = (v for j, v in enumerate(spec.vertices()) if j != facet)
    live = [[v[r] - base[r] for v in reversed(others)] for r in range(n)]
    g = 1
    for c in range(n - 1):
        while True:  # the least nonzero |entry| of column c shrinks on every pass
            live.sort(key=lambda row: (row[c] == 0, abs(row[c])))
            pivot = live[0]
            if not live[1][c]:
                break
            for row in live[1:]:
                if row[c]:
                    q = row[c] // pivot[c]
                    row[c:] = [x - q * y for x, y in zip(row[c:], pivot[c:])]
        g *= abs(pivot[c])
        live = live[1:]
    return g


def width_one(spec: SimplexSpec) -> Optional[tuple[int, ...]]:
    """Subset of entry indices witnessing width one, or None.

    The simplex has width one iff some nonempty subset of the entries sums
    to 0 or 1 mod d. The first such subset by size, then lexicographically,
    is returned (0-based indices): a walk takes each position j that a[j+1:]
    can finish at the least size, as no shorter finish exists. The empty
    set is excluded: it would induce the zero functional. At d = 1 every
    subset sums to 0, the simplex is unimodular, and the answer is (0,).
    """
    from .arith import subset_residues

    tables = [{}, *subset_residues(spec.a, spec.d)][::-1]  # tables[j]: subsets of a[j:]
    left = min((tables[0][r] for r in (0, 1) if r in tables[0]), default=0)
    need, picked = {0, 1}, []  # what the entries still to pick must sum to, mod d
    for j, aj in enumerate(spec.a):
        after = {(r - aj) % spec.d for r in need}
        if left and any(tables[j + 1].get(r) == left - 1 if left > 1 else r == 0 for r in after):
            picked.append(j)
            need, left = after, left - 1
    return tuple(picked) or None


def width_one_functional(spec: SimplexSpec, subset: tuple[int, ...]) -> tuple[int, ...]:
    """The integer functional built from a width-one subset.

    Its values on the vertex set are {0, 1}, so max - min = 1.
    """
    total = sum(spec.a[i] for i in subset)
    eps = total % spec.d
    if eps not in (0, 1):
        raise ValueError("subset does not witness width one")
    mult = (total - eps) // spec.d
    phi = [0] * spec.dimension
    for i in subset:
        phi[i] = 1
    phi[-1] = -mult
    return tuple(phi)


def width_upper_bound(spec: SimplexSpec) -> int:
    """The least reduced-row cost over the units mod d; it can fall below the lattice width.

    Despite its name this is not an upper bound on the width: only a unit
    u = 1/b(j), b(j) the coefficient of a vertex j, turns u*a into a spec of
    the same simplex, and over every unit an entry prime to d costs 1. So
    3,5,7:30 has no width-one subset, hence width at least 2, yet costs 1.

    For every unit u mod d, reduce u*a(i) and the augmented 1 - u*sum(a) mod d
    into (-d/2, d/2]; a value v costs v if v > 0 and 1 - v if v < 0, and the
    value is the least cost. A zero entry, i.e. a(i) = 0 mod d, means an edge
    carries a lattice point and raises EdgePointError; a zero augmented value
    is skipped. Over the units, u*x mod d runs through exactly the residues
    whose gcd with d is gcd(x, d), so entry i costs g = gcd(a(i), d) <= d/2
    (value g; negatives cost 1 + g or more), and with h = gcd(sum(a), d) the
    augmented 1 - x costs 1 if h = d (x = 0), h if 1 < h < d (x = h; value c
    needs h | c - 1, value 1 - c needs h | c) and 2 if h = 1 (x = -1; at
    d = 2 every entry is odd and costs 1 anyway). Cost O(n log d).
    """
    d = spec.d
    if d == 1:
        raise EdgePointError("d = 1 reduces every entry to 0")
    for ai in spec.a:
        if ai % d == 0:
            raise EdgePointError(
                f"entry {ai} reduces to 0 mod {d}; an edge contains a lattice point"
            )
    h = math.gcd(sum(spec.a), d)
    aug = 1 if h == d else h if h > 1 else 2
    return min(aug, *(math.gcd(ai, d) for ai in spec.a))
