import math
import random
import time
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

import pytest

from hollowsimplex import simplex
from hollowsimplex.asymptotic import robust_stability_point, sample_tuples
from hollowsimplex.simplex import (
    FACET_BOUNDARY,
    GCD_UNION,
    INTERIOR,
    UNIT_ENTRY,
    EdgePointError,
    SimplexSpec,
    _STRETCH_COST_RATIO,
    _heights,
    _hollow_by_n,
    empty_sufficient,
    enumerate_non_extreme_points,
    facet_cotorsion,
    facet_volumes,
    first_interior_point,
    is_empty,
    is_hollow,
    width_one,
    width_one_functional,
    width_upper_bound,
)

from conftest import heights_by_scan
from oracle import box_walk, empty_reason, width_one_subset


def test_spec_validation():
    with pytest.raises(ValueError):
        SimplexSpec((3,), 5)
    with pytest.raises(ValueError):
        SimplexSpec((0, 2), 5)
    with pytest.raises(ValueError):
        SimplexSpec((1, 2), 0)


def test_enumeration_2_3_12():
    pts = enumerate_non_extreme_points(SimplexSpec((2, 3), 12))
    by_k = {p.k: p for p in pts}
    assert set(by_k) == {3, 4, 6}
    assert by_k[3].lambda_sum == 1 and by_k[3].location == FACET_BOUNDARY
    assert by_k[4].coords == (1, 1, 4) and by_k[4].location == FACET_BOUNDARY
    assert all(p.location == FACET_BOUNDARY for p in pts)


def test_enumeration_2_3_13_interior():
    pts = enumerate_non_extreme_points(SimplexSpec((2, 3), 13))
    interior = [p for p in pts if p.location == INTERIOR]
    assert interior and interior[0].k == 4
    assert interior[0].coords == (1, 1, 4)
    assert interior[0].lambda_sum == Fraction(10, 13)


def test_enumeration_trivial_tuple_no_interior():
    pts = enumerate_non_extreme_points(SimplexSpec((1, 1), 5))
    assert all(p.location == FACET_BOUNDARY for p in pts)


def test_enumeration_matches_box_oracle():
    cases = [((2, 3), d) for d in range(1, 19)]
    cases += [((3, 5, 7), d) for d in (29, 30, 31, 35)]
    cases += [
        (a, d)
        for a in combinations_with_replacement(range(1, 6), 2)
        for d in (2, 5, 7, 9, 12)
    ]
    for a, d in cases:
        spec = SimplexSpec(a, d)
        walk = box_walk(a, d)
        pts = enumerate_non_extreme_points(spec)
        assert [(p.coords, p.location) for p in pts] == walk, (a, d)
        hit = first_interior_point(spec)
        least = next((z for z, where in walk if where == INTERIOR), None)
        assert (None if hit is None else hit.coords) == least, (a, d)
        assert is_empty(spec) == (not walk), (a, d)


def _stretch_walk_specs():
    specs = []
    for d in range(1, 41):
        pairs = combinations_with_replacement(range(1, d + 3), 2)
        triples = combinations_with_replacement(range(1, 16), 3)
        specs += [SimplexSpec(a, d) for a in chain(pairs, triples)]
    # half the random entries are below d / 16, so some are slow at the
    # shipped ratio too
    rng = random.Random(9)
    for _ in range(100):
        d = rng.randint(1, 3000)
        tops = [rng.choice((d // 16 + 1, 2 * d + 5)) for _ in range(rng.randint(2, 6))]
        a = tuple(rng.randint(1, top) for top in tops)
        specs.append(SimplexSpec(a, d))
    # slow entries s = w and s = d - w with w | d, whose residues vanish at
    # stretch starts at the shipped ratio too; in the first two the points
    # lie only at such starts (k = 64j, and k = 128, 256, 512, 640)
    specs += [SimplexSpec(a, 1024) for a in ((16, 1008, 5), (8, 1016, 3))]
    specs += [
        SimplexSpec((w, d - w, x), d)
        for d in (720, 1024) for w in (2, 4, 8, 16) for x in (1, 3, 5, d // 2 + 1)
    ]
    return specs


@pytest.mark.parametrize("ratio", [1, _STRETCH_COST_RATIO])
def test_stretch_walk_matches_per_height_scan(monkeypatch, ratio):
    # at ratio 1 nearly every nonzero entry is slow, which exercises the
    # stretch arithmetic; at the shipped ratio no entry is slow below d = 32
    monkeypatch.setattr(simplex, "_STRETCH_COST_RATIO", ratio)
    for spec in _stretch_walk_specs():
        for interior in (False, True):
            assert list(_heights(spec, interior)) == heights_by_scan(spec, interior), (
                spec, interior,
            )


def test_cell_table_matches_stretch_walk():
    # every tuple of length 2-4 with entries in [1, 8] and every N in
    # [1, 120], entries >= N and N = 1 included: 58,320 verdicts
    ns = range(1, 121)
    for length in (2, 3, 4):
        for a in combinations_with_replacement(range(1, 9), length):
            walked = [is_hollow(SimplexSpec(a, n)) for n in ns]
            assert list(_hollow_by_n(a, ns)) == walked, a
    # the table cuts at the breakpoints in any entry order
    assert list(_hollow_by_n((7, 2, 5), ns)) == list(_hollow_by_n((2, 5, 7), ns))


@pytest.mark.parametrize("length, high, seed", [
    (3, 20, 501065), (4, 16, 240279), (5, 14, 998691),
])
def test_cell_table_matches_stretch_walk_on_sweep_windows(length, high, seed):
    # the windows `agree` sweeps: 40 N past the robust stabilization point
    for a in sample_tuples(100, lengths=(length,), high=high, seed=seed):
        start = robust_stability_point(a)
        ns = range(start + 1, start + 41)
        walked = [is_hollow(SimplexSpec(a, n)) for n in ns]
        assert list(_hollow_by_n(a, ns)) == walked, a


def test_hollow_examples():
    assert is_hollow(SimplexSpec((3, 5, 7), 30))
    assert not is_hollow(SimplexSpec((2, 3), 13))
    assert first_interior_point(SimplexSpec((2, 3), 13)).k == 4
    assert is_hollow(SimplexSpec((1, 7), 9))


def test_empty_examples():
    assert is_empty(SimplexSpec((3, 5, 7), 31))
    assert not is_empty(SimplexSpec((3, 5, 7), 35))
    assert is_empty(SimplexSpec((1, 1), 1))


def test_empty_implies_hollow():
    for a in combinations_with_replacement(range(1, 7), 2):
        for d in range(1, 25):
            spec = SimplexSpec(a, d)
            if is_empty(spec):
                assert is_hollow(spec), spec


def test_empty_sufficient_examples():
    assert empty_sufficient(SimplexSpec((1, 2), 5)) == UNIT_ENTRY
    assert empty_sufficient(SimplexSpec((3, 5, 7), 31)) is None
    assert empty_sufficient(SimplexSpec((2, 4), 6)) is None
    assert not is_empty(SimplexSpec((2, 4), 6))


def test_empty_sufficient_gcd_union_fires():
    # subset {3, 5} sums to 8 = d, values (3, 5) plus d have content 1
    spec = SimplexSpec((3, 5, 6), 8)
    assert empty_sufficient(spec) == GCD_UNION
    assert is_empty(spec)
    # no single zero-sum subset has content 1 with d = 18: {2, 4, 12} leaves
    # 2 and {3, 3, 12} leaves 3, only their union reaches 1
    spec = SimplexSpec((2, 3, 3, 4, 12), 18)
    assert empty_sufficient(spec) == GCD_UNION
    assert is_empty(spec)


def test_empty_sufficient_matches_full_union_rule():
    for m in (2, 3, 4):
        for a in combinations_with_replacement(range(1, 13), m):
            for d in range(1, 16):
                spec = SimplexSpec(a, d)
                assert empty_sufficient(spec) == empty_reason(a, d), spec


def test_empty_sufficient_stops_at_content_one():
    # 24 threes mod 7: the seventh three brings residue 0 into the table,
    # mapped to gcd(7, 3) = 1, and the pass stops there
    spec = SimplexSpec((3,) * 24, 7)
    started = time.perf_counter()
    assert empty_sufficient(spec) == GCD_UNION
    assert time.perf_counter() - started < 2


def test_subset_rules_match_enumeration():
    # every order of 2-3 entries and every multiset of 4-5, entries in [1, 9]
    tuples = chain(
        product(range(1, 10), repeat=2),
        product(range(1, 10), repeat=3),
        combinations_with_replacement(range(1, 10), 4),
        combinations_with_replacement(range(1, 10), 5),
    )
    for a in tuples:
        for d in range(2, 14):
            spec = SimplexSpec(a, d)
            assert width_one(spec) == width_one_subset(a, d), spec
            assert empty_sufficient(spec) == empty_reason(a, d), spec


@pytest.mark.parametrize(
    "a, d, subset, reason",
    [
        ((2,) * 22, 41, tuple(range(21)), None),
        ((2,) * 40, 1009, None, None),
        ((3,) * 24, 7, tuple(range(5)), GCD_UNION),
    ],
)
def test_subset_rules_on_long_tuples(a, d, subset, reason):
    # 2^22 - 1 subsets and more, out of an enumeration's reach
    spec = SimplexSpec(a, d)
    assert (width_one(spec), empty_sufficient(spec)) == (subset, reason)


def test_empty_sufficient_on_long_random_tuples():
    # 19 entries mod a prime: only the last entry completes a subset summing to 0
    rng = random.Random(29)
    spec = SimplexSpec(tuple(rng.randint(2, 10**6) for _ in range(19)), 1000003)
    assert empty_sufficient(spec) == GCD_UNION
    # every value is even, so no gcd ever falls below 2 and the pass runs to the end
    rng = random.Random(40)
    spec = SimplexSpec(tuple(2 * rng.randint(1, 50020) for _ in range(40)), 100042)
    assert empty_sufficient(spec) is None


def test_empty_sufficient_never_contradicts_oracle():
    for a in combinations_with_replacement(range(1, 8), 2):
        for d in range(2, 22):
            spec = SimplexSpec(a, d)
            if empty_sufficient(spec) is not None:
                assert is_empty(spec), spec


def test_divisibility_of_k_through_zero_sum_subsets():
    # every enumerated point's k is a multiple of d / content(V + (d,)),
    # V the values indexed by the union of zero-sum subsets
    for a in combinations_with_replacement(range(1, 9), 3):
        for d in (6, 8, 9, 10, 12):
            spec = SimplexSpec(a, d)
            union = set()
            m = len(a)
            for mask in range(1, 1 << m):
                total = sum(a[i] for i in range(m) if mask >> i & 1)
                if total % d == 0:
                    union.update(i for i in range(m) if mask >> i & 1)
            if not union:
                continue
            values = [a[i] for i in sorted(union)] + [d]
            step = d // math.gcd(*values)
            for p in enumerate_non_extreme_points(spec):
                assert p.k % step == 0, (spec, p.k)


def test_prefix_extension_preserves_emptiness():
    # appending entries in front never creates new lattice points
    import random

    rng = random.Random(3)
    base = [
        (a, d)
        for a in combinations_with_replacement(range(1, 7), 2)
        for d in range(1, 20)
        if is_empty(SimplexSpec(a, d))
    ]
    for a, d in base[:60]:
        prefix = tuple(rng.randint(1, 9) for _ in range(rng.choice((1, 2))))
        assert is_empty(SimplexSpec(prefix + a, d)), (prefix, a, d)


def test_hollow_plus_coprime_facets_implies_empty():
    for a in combinations_with_replacement(range(1, 7), 3):
        for d in range(2, 26):
            spec = SimplexSpec(a, d)
            coprime = all(math.gcd(ai, d) == 1 for ai in a) and math.gcd(sum(a) - 1, d) == 1
            if coprime and is_hollow(spec):
                assert is_empty(spec), spec


def test_facet_volumes_examples():
    assert facet_volumes(SimplexSpec((3, 5, 7), 30)) == (1, 3, 5, 1, 2)
    assert facet_volumes(SimplexSpec((1, 1), 1)) == (1, 1, 1, 1)


def test_facet_cotorsion_examples():
    spec = SimplexSpec((3, 5, 7), 30)
    assert facet_cotorsion(spec, 0) == 1
    assert facet_cotorsion(spec, 1) == 3
    assert facet_cotorsion(spec, spec.dimension) == 2
    with pytest.raises(ValueError):
        facet_cotorsion(spec, 9)


def test_width_one_examples():
    spec = SimplexSpec((2, 3, 3, 3, 4), 12)
    subset = width_one(spec)
    assert subset is not None
    assert sorted(spec.a[i] for i in subset) == [2, 3, 3, 4]
    assert sum(spec.a[i] for i in subset) % 12 == 0
    assert width_one(SimplexSpec((1, 5), 7)) == (0,)
    assert width_one(SimplexSpec((2, 2), 5)) is None
    with pytest.raises(ValueError):
        width_one(SimplexSpec((2, 2), 1))


def test_width_one_functional_has_width_one():
    spec = SimplexSpec((2, 3, 3, 3, 4), 12)
    subset = width_one(spec)
    phi = width_one_functional(spec, subset)
    values = [sum(p * v for p, v in zip(phi, vert)) for vert in spec.vertices()]
    assert max(values) - min(values) == 1
    # a(0) = 2 alone is neither 0 nor 1 mod 7
    with pytest.raises(ValueError, match="^subset does not witness width one$"):
        width_one_functional(SimplexSpec((2, 3), 7), (0,))


def test_width_upper_bound_examples():
    assert width_upper_bound(SimplexSpec((2, 3, 3, 3, 4), 12)) == 2
    assert width_upper_bound(SimplexSpec((2, 3, 3, 4), 12)) == 1
    assert width_upper_bound(SimplexSpec((1, 1), 3)) == 1


def test_width_upper_bound_zero_entry_error():
    with pytest.raises(EdgePointError):
        width_upper_bound(SimplexSpec((4, 2), 4))
    with pytest.raises(EdgePointError):
        width_upper_bound(SimplexSpec((1, 1), 1))


def test_width_upper_bound_can_fall_below_the_width():
    # a pinned caveat: no width-one subset, so the width is at least 2, yet
    # the least reduced-row cost over the units mod d is 1
    for a, d in (((3, 5, 7), 30), ((2, 2, 2), 7), ((6, 14, 17), 101), ((2, 3), 1000000007)):
        spec = SimplexSpec(a, d)
        assert width_one(spec) is None, spec
        assert width_upper_bound(spec) == 1, spec


def _unit_scan_width_bound(spec):
    """Reference: the bound collected over every unit u mod d, O(phi(d) * n)."""
    d = spec.d
    if d == 1:
        raise EdgePointError("d = 1 reduces every entry to 0")
    s = sum(spec.a)

    def reduce(v: int) -> int:
        r = v % d
        return r if 2 * r <= d else r - d

    values: set[int] = set()
    for u in range(1, d):
        if math.gcd(u, d) != 1:
            continue
        for ai in spec.a:
            e = reduce(u * ai)
            if e == 0:
                raise EdgePointError(
                    f"entry {ai} reduces to 0 mod {d}; an edge contains a lattice point"
                )
            values.add(e)
        aug = reduce(1 - u * s)
        if aug != 0:
            values.add(aug)
    candidates = [v for v in values if v > 0] + [1 - v for v in values if v < 0]
    return min(candidates)


def test_width_upper_bound_matches_unit_scan():
    specs = [
        SimplexSpec(a, d)
        for d in range(1, 41)
        for a in product(range(1, d + 2), repeat=2)
    ]
    specs += [
        SimplexSpec(a, d)
        for d in range(1, 17)
        for a in combinations_with_replacement(range(1, d + 2), 3)
    ]
    for d in (720, 840, 2520):
        shared = [2, 3, 4, 6, 8, 12, d // 3, d // 2, 1, 7, d + 6]
        specs += [SimplexSpec(a, d) for a in product(shared, repeat=2)]
        specs += [SimplexSpec((g, g, d - 1), d) for g in shared]
    for spec in specs:
        try:
            expected = _unit_scan_width_bound(spec)
        except EdgePointError as exc:
            with pytest.raises(EdgePointError) as got:
                width_upper_bound(spec)
            assert str(got.value) == str(exc), spec
        else:
            assert width_upper_bound(spec) == expected, spec


def _pair_construction(a, x, n):
    """The dimension-three construction for (a, x; N): N = m*x + r with
    1 <= r <= x, the point (1, 1, m) and its coordinate sum (N - m*a + r + m)/N."""
    r = n % x or x
    m = (n - r) // x
    return (1, 1, m), Fraction(n - m * a + r + m, n)


def test_pair_witness_examples():
    point, lam = _pair_construction(2, 3, 13)
    assert point == (1, 1, 4) and lam == Fraction(10, 13)
    # the k-scan finds the same point at height k = m
    assert first_interior_point(SimplexSpec((2, 3), 13)) == (4, point, INTERIOR, lam)
    assert _pair_construction(2, 3, 12)[1] == 1  # lands exactly on the boundary


def test_pair_witness_coverage():
    # whenever (N - x)(a - 1) >= x^2, either the simplex is non-hollow or the
    # constructed point sits exactly on the boundary (coordinate sum 1)
    for a in range(2, 9):
        for x in range(a, 9):
            for n in range(1, 151):
                if (n - x) * (a - 1) < x * x:
                    continue
                lam = _pair_construction(a, x, n)[1]
                if lam < 1:
                    assert not is_hollow(SimplexSpec((a, x), n)), (a, x, n)
                else:
                    assert lam == 1, (a, x, n)
