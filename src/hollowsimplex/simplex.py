"""Lattice simplices spanned by the origin, unit vectors, and one integer row.

SimplexSpec(a, d) describes the convex hull of {0, e_1, ..., e_{n-1}, v} in
R^n, where v = (a(1), ..., a(n-1), d) and n = len(a) + 1. A non-extreme
lattice point of this simplex has a unique barycentric decomposition whose
last coordinate is k/d for some k in [1, d-1], so hollowness and emptiness
reduce to an exact integer scan over k. That scan is the ground-truth oracle
for everything else in the package. It walks stretches of k on which the
charges of the entries with small residues are linear: O(n) per stretch, at
most sum(min(s, d - s)) + 1 stretches over those entries' residues s, plus
O(n) per height on each stretch's half-line of candidates.
"""

from __future__ import annotations

import math
from itertools import combinations, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from .arith import content, subset_sums

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

    @classmethod
    def parse(cls, text: str) -> "SimplexSpec":
        """Parse the canonical 'a1,a2,...:d' form, e.g. '3,5,7:30'."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"expected 'a1,a2,...:d', got {text!r}")
        try:
            a = tuple(int(p) for p in head.split(","))
            d = int(tail)
        except ValueError as exc:
            raise ValueError(f"malformed simplex spec {text!r}") from exc
        return cls(a, d)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.a) + f":{self.d}"

    @property
    def dimension(self) -> int:
        return len(self.a) + 1

    @property
    def row(self) -> tuple[int, ...]:
        """The distinguished vertex as an integer vector."""
        return self.a + (self.d,)

    @property
    def is_normalized(self) -> bool:
        """True when 1 <= a(i) < d for all i and the full row has content 1."""
        return all(1 <= v < self.d for v in self.a) and content(self.row) == 1

    def normalized(self) -> "SimplexSpec":
        """Reduce entries mod d and drop zeros. Never applied implicitly;
        dropping a zero entry shrinks the ambient dimension."""
        reduced = tuple(v % self.d for v in self.a)
        kept = tuple(v for v in reduced if v != 0)
        if len(kept) < 2:
            raise ValueError(f"normalization of {self} leaves fewer than two entries")
        return SimplexSpec(kept, self.d)

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
    """The defining data (a(1), ..., a(n-1); d) of a lattice simplex."""

    __slots__ = ()

    def __new__(cls, a, d) -> "SimplexSpec":
        a = tuple(int(v) for v in a)
        if len(a) < 2:
            raise ValueError("need at least two entries (ambient dimension >= 3)")
        if any(v < 1 for v in a):
            raise ValueError(f"entries must be positive, got {a}")
        if d < 1:
            raise ValueError(f"last entry must be positive, got {d}")
        return super().__new__(cls, a, d)


class LatticePointReport(NamedTuple):
    """One non-extreme lattice point, tagged interior or facet-boundary."""

    k: int
    coords: tuple[int, ...]
    location: str
    lambda_sum: Fraction


# How many heights the per-height test can scan in the time one stretch costs
# (one full test plus the updates at its breakpoint); it sizes the slow budget.
_STRETCH_COST_RATIO = 32


def _heights(spec: SimplexSpec, interior: bool) -> Iterator[int]:
    """Ascending heights k in [1, d-1] carrying a non-extreme lattice point.

    The point at height k exists iff k + sum(d - r_i over the nonzero
    residues r_i = k*a(i) mod d) <= d, over integers after clearing d. For
    interior points a zero residue is charged d and the sum must be < d.

    With s = a(i) mod d and w = min(s, d - s), the charge of entry i is
    linear in k between the heights where q = floor(k*w/d) changes:
    d*(1 + q) - k*w when w = s, k*w - q*d when w = d - s. Entries with
    s != 0 and the least w, up to a total w of d // _STRETCH_COST_RATIO, are
    "slow": [1, d) is cut into stretches at their breakpoints, on each
    stretch k plus the slow charges is c + sigma*k, and only the heights on
    the half-line c + sigma*k <= bound get the per-height test over the
    remaining ("fast") entries. The first height of a stretch can carry a
    zero slow residue, so it gets the full test. Cost: O(n) per stretch,
    at most sum(w) + 1 stretches, plus O(n) per height on the half-lines.
    """
    d = spec.d
    zero, bound = (d, d - 1) if interior else (0, d)
    residues = [ai % d for ai in spec.a]
    budget = d // _STRETCH_COST_RATIO
    fast = list(residues)
    slow = []  # [w, change of c at a breakpoint, least k where floor(k*w/d) grows]
    c, sigma = 0, 1
    # (w, s) for the entries with 0 < w <= budget, the only ones that can be slow
    small = [
        (min(s, d - s), s) for s in residues if s and (s <= budget or s >= d - budget)
    ]
    for w, s in sorted(small):
        if w > budget:
            break
        budget -= w
        fast.remove(s)
        if w == s:
            c += d
            sigma -= w
            slow.append([w, d, -(-d // w)])
        else:
            sigma += w
            slow.append([w, -d, -(-d // w)])
    start = 1
    while start < d:
        end = min([nxt for _, _, nxt in slow], default=d)
        total = start
        for s in residues:
            r = start * s % d
            total += d - r if r else zero
            if total > bound:
                break
        else:
            yield start
        lo, hi = start + 1, end
        if sigma > 0:
            hi = min(hi, (bound - c) // sigma + 1)
        elif sigma < 0:
            lo = max(lo, -((c - bound) // sigma))
        elif c > bound:
            hi = lo
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
            w, step, nxt = entry
            if nxt == end:
                c += step
                entry[2] = -(-(end * w // d + 1) * d // w)
        start = end


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

    The union's content is folded in as each zero-sum subset turns up, so
    the scan stops at the first subset that brings it to 1; when none does,
    it still visits all 2^m - 1 subsets.
    """
    full = spec.row
    for i, ai in enumerate(spec.a):
        if ai == 1 and content(full[:i] + full[i + 1:]) == 1:
            return UNIT_ENTRY
    g = spec.d
    for positions, total in subset_sums(spec.a):
        if total % spec.d == 0:
            g = math.gcd(g, *(spec.a[i] for i in positions))
            if g == 1:
                return GCD_UNION
    return None


class FacetVolumes(NamedTuple):
    """Normalized volumes of the n+1 facets.

    Ordered [opposite v, opposite e_1, ..., opposite e_{n-1}, opposite 0]:
    always 1 for the facet opposite v, gcd(a(i), d) opposite e_i, and
    gcd(sum(a) - 1, d) opposite the origin.
    """

    volumes: tuple[int, ...]

    @property
    def standard_count(self) -> int:
        """How many facets are unimodular simplices."""
        return sum(1 for v in self.volumes if v == 1)


def facet_volumes(spec: SimplexSpec) -> FacetVolumes:
    vols = (1,) + tuple(math.gcd(ai, spec.d) for ai in spec.a) + (
        math.gcd(sum(spec.a) - 1, spec.d),
    )
    return FacetVolumes(vols)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [row[:] for row in rows]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(size - 1):
        if m[i][i] == 0:
            for r in range(i + 1, size):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def facet_cotorsion(spec: SimplexSpec, facet: int) -> int:
    """Cotorsion of the subgroup generated by one facet's vertex differences.

    `facet` indexes the omitted vertex in the order [v, e_1, ..., e_{n-1}, 0];
    the result is the gcd of all maximal minors of the n x (n-1) matrix of
    differences, computed independently of the gcd formula in facet_volumes.
    """
    n = spec.dimension
    if not 0 <= facet <= n:
        raise ValueError(f"facet index must lie in [0, {n}], got {facet}")
    verts = [v for j, v in enumerate(spec.vertices()) if j != facet]
    base = verts[0]
    diffs = [[v[r] - base[r] for v in verts[1:]] for r in range(n)]
    g = 0
    for rows in combinations(range(n), n - 1):
        g = math.gcd(g, _bareiss_det([diffs[r] for r in rows]))
        if g == 1:
            break
    return g


def width_one(spec: SimplexSpec) -> Optional[tuple[int, ...]]:
    """Subset of entry indices witnessing width one, or None.

    The simplex has width one iff some nonempty subset of the entries sums
    to 0 or 1 mod d. Subsets are scanned in size-then-lexicographic order
    and the first hit is returned (0-based indices). The empty set is
    excluded: it would induce the zero functional.
    """
    if spec.d <= 1:
        raise ValueError("width-one test requires d > 1")
    for positions, total in subset_sums(spec.a):
        if total % spec.d in (0, 1):
            return positions
    return None


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
    """Upper bound on the lattice width from unit-multiple reduced rows.

    For every unit u mod d, reduce u*a(i) and the augmented 1 - u*sum(a) mod d
    into (-d/2, d/2]; a value v costs v if v > 0 and 1 - v if v < 0, and the
    bound is the least cost. A zero entry, i.e. a(i) = 0 mod d, means an edge
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


class PairWitness(NamedTuple):
    """Interior point produced by the three-dimensional construction."""

    point: tuple[int, int, int]
    lambda_sum: Fraction


def pair_interior_witness(a: int, x: int, big_n: int) -> Optional[PairWitness]:
    """Interior lattice point of the simplex of (a, x; N) for large N.

    Writes N = m*x + r with 1 <= r <= x and proposes the point (1, 1, m)
    with exact coordinate sum (N - m*a + r + m)/N. The witness is returned
    only when (N - x)(a - 1) >= x^2 and the sum is strictly below 1; the
    construction can land exactly on the boundary (sum = 1), in which case
    None is returned.
    """
    if not 2 <= a <= x:
        raise ValueError(f"need 2 <= a <= x, got a={a}, x={x}")
    if big_n < 1:
        raise ValueError(f"N must be positive, got {big_n}")
    if (big_n - x) * (a - 1) < x * x:
        return None
    r = big_n % x or x
    m = (big_n - r) // x
    from fractions import Fraction

    lam = Fraction(big_n - m * a + r + m, big_n)
    if lam >= 1:
        return None
    return PairWitness(point=(1, 1, m), lambda_sum=lam)
