import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import in_dilate
from oracle import asymptotically_hollow, ray_start, rem, trivial_by_remainders

from hollowsimplex.asymptotic import is_asymptotically_hollow
from hollowsimplex.proscriptive import (
    HalfOpenInterval,
    candidate_extensions,
    extension_search,
    nontrivial_data,
    proscriptive_datum,
)


def test_datum_38_m1():
    d = proscriptive_datum((29, 38, 66), 1, 1)
    assert d.interval == HalfOpenInterval(38, 44)
    assert d.interval.hi == Fraction(132, 3)
    assert not d.trivial
    assert d.denom == 3


def test_datum_66_m1_trivial():
    d = proscriptive_datum((29, 38, 66), 2, 1)
    assert d.trivial
    assert d.interval.lo == 66 and d.interval.hi == Fraction(132, 2)


def test_datum_29_m3():
    d = proscriptive_datum((29, 38, 66), 0, 3)
    assert d.denom == 13
    assert d.interval == HalfOpenInterval(Fraction(29, 3), Fraction(132, 13))
    assert not d.trivial


def test_g_row_values():
    d = proscriptive_datum((29, 38, 66), 0, 3)
    # counts of fractions above 29/3 contributed by 29, 38, 66
    assert d.g_row == (2, 3, 6)
    assert d.f == 11
    d = proscriptive_datum((29, 38, 66), 1, 1)
    assert d.g_row == (0, 0, 1)


def test_datum_validation():
    with pytest.raises(ValueError):
        proscriptive_datum((29,), 0, 1)
    with pytest.raises(ValueError):
        proscriptive_datum((29, 38), 0, 0)
    # a negative index would silently pick an entry from the end
    for i in (-1, 2):
        with pytest.raises(ValueError, match=r"^index must lie in \[0, 1\]$"):
            proscriptive_datum((3, 5), i, 1)


def test_g_row_identity():
    # remainder sum over j != i equals m(s+1-a(i)) - (f - (m-1)) * a(i)
    for b in ((29, 38, 66), (2, 3), (2, 4), (5, 7, 11), (3, 4, 9)):
        s = sum(b) - 1
        for i, ai in enumerate(b):
            if ai < 2:
                continue
            for m in range(1, 2 * ai):
                d = proscriptive_datum(b, i, m)
                lhs = sum(rem(ai, m * aj) for j, aj in enumerate(b) if j != i)
                assert lhs == m * (s + 1 - ai) - (d.f - (m - 1)) * ai, (b, i, m)


# In the 4-entry prefixes a residue-one certificate skips an entry while
# other data stay nontrivial: in (10, 5, 4, 3) the whole complement
# certifies 3, the proper subset {5} certifies 4, and 2 data remain.
_CERTIFIED = [(10, 5, 4, 3), (11, 11, 5, 2), (9, 5, 5, 3), (10, 9, 5, 4), (12, 11, 6, 4)]
_PREFIXES = [*combinations_with_replacement(range(1, 13), 2),
             *combinations_with_replacement(range(2, 9), 3), *_CERTIFIED]
_BOTH_ORDERS = _PREFIXES + [b[::-1] for b in _PREFIXES]


def test_triviality_equivalence_both_ways():
    # nontrivial_data keeps the order of b, as proscribe passes it
    for b in _BOTH_ORDERS:
        for i, ai in enumerate(b):
            for m in range(1, max(ai, 2)):
                datum = proscriptive_datum(b, i, m)
                assert datum.trivial == trivial_by_remainders(b, i, m), (b, i, m)
        # nontrivial_data takes the package's criterion failures, with the
        # residue-one skip; the oracle sums every remainder, with none
        expected = [(i, m) for i, ai in enumerate(b) for m in range(1, ai)
                    if not trivial_by_remainders(b, i, m)]
        assert [(d.index, d.m) for d in nontrivial_data(b)] == expected, b


def test_multiplier_cap():
    # m >= a(i) forces triviality
    for b in ((2, 3), (29, 38, 66), (3, 4, 9)):
        for i, ai in enumerate(b):
            for m in range(ai, 2 * ai + 3):
                assert proscriptive_datum(b, i, m).trivial, (b, i, m)


def test_nontrivial_data_29_38_66():
    data = nontrivial_data((29, 38, 66))
    keys = sorted((d.entry, d.m) for d in data)
    assert keys == [
        (29, 2), (29, 3), (29, 6),
        (38, 1), (38, 5), (38, 9), (38, 13), (38, 17),
    ]


def test_candidate_extensions_29_38_66():
    report = candidate_extensions((29, 38, 66))
    assert not report.unbounded
    assert report.candidates == (2, 3, 11)
    assert report.s == 132
    texts = {str(d.interval) for d in report.data}
    assert "[38, 44)" in texts
    assert any(d.entry == 29 and d.m == 3 and d.denom == 13 for d in report.data)


def test_candidate_extensions_all_trivial():
    report = candidate_extensions((6, 10, 15))
    assert report.unbounded
    assert report.candidates is None and report.ray_start is None and report.gaps is None
    assert is_asymptotically_hollow((6, 10, 15))


def test_candidate_extensions_small_pairs():
    assert candidate_extensions((2, 4)).candidates == (3, 5)
    assert candidate_extensions((2, 2)).candidates == (3,)
    assert candidate_extensions((2, 3)).candidates == (2, 4, 5, 8)


def test_candidate_extensions_horizon_is_ray_start():
    report = candidate_extensions((29, 38, 66))
    assert report.horizon == 194 == math.ceil(report.ray_start)
    assert report.candidates == (2, 3, 11)


def test_candidates_lie_in_gaps_and_pass_criterion():
    for b in ((2, 3), (2, 4), (29, 38, 66)):
        report = candidate_extensions(b)
        assert set(report.candidates) <= set(report.gaps)
        for y in report.candidates:
            assert asymptotically_hollow(b + (y,))


def test_candidates_match_criterion_filter_below_ray():
    # the oracle's full criterion on every y below the ray, no interval
    # involved; (1000, 1501) has 1000 nontrivial data
    for b in ((2, 3), (2, 4), (29, 38, 66), (1000, 1501)):
        report = candidate_extensions(b)
        expected = tuple(
            y
            for y in range(2, math.ceil(report.ray_start))
            if asymptotically_hollow(b + (y,))
        )
        assert report.candidates == expected, b


def test_candidates_stay_below_every_interval_ray():
    # the finite-candidates bound, stated against the exact dilate rays
    for b in ((2, 2), (2, 3), (2, 4), (29, 38, 66)):
        report = candidate_extensions(b)
        least_ray = min(ray_start(*d.interval) for d in report.data)
        assert report.candidates
        assert max(report.candidates) < least_ray


def test_classify_search_path_matches_the_report_on_a_grid():
    # the integer path classify runs, against the records extend prints and
    # the rational ray starts of their intervals; windowed as classify asks,
    # it returns the full search restricted to the window
    for a in range(2, 13):
        for x in range(a, 80):
            report = candidate_extensions((a, x))
            rows, ray, gaps, candidates = extension_search((a, x))
            assert candidates == report.candidates, (a, x)
            assert [(d.index, d.m) for d in report.data] == [row[:2] for row in rows]
            assert Fraction(*ray) == report.ray_start and gaps == report.gaps
            least = min(ray_start(*d.interval) for d in report.data)
            assert report.horizon == math.ceil(least), (a, x)
            for hi in (x, x + 7, report.horizon - 1, report.horizon + 5):
                w_rows, w_ray, w_gaps, w_candidates = extension_search((a, x), x, hi)
                assert w_rows == rows and w_ray == ray, (a, x, hi)
                assert w_gaps == tuple(y for y in gaps if x <= y <= hi), (a, x, hi)
                assert w_candidates == tuple(y for y in candidates if x <= y <= hi)


def _proscribed(y, data):
    # t*hi <= y for every t <= floor(y/hi) and t*lo > y for every t >
    # floor(y/lo), so only the t in between can hold y; in_dilate decides them
    for d in data:
        lo, hi = d.interval
        for t in range(y * hi.denominator // hi.numerator + 1,
                       y * lo.denominator // lo.numerator + 1):
            if in_dilate(y, d.interval, t):
                return True
    return False


def _dilate_prefixes():
    # every pair prefix with a <= 12 and x < 80, and seeded random 3- and
    # 4-entry ones
    rng = random.Random(21)
    return [*((a, x) for a in range(1, 13) for x in range(a, 80)),
            *(tuple(sorted(rng.randint(2, 40) for _ in range(k)))
              for k in (3, 4) for _ in range(60))]


def test_search_single_row_gaps():
    # (3, 2) has the one row (0, 1, 1), the interval [3, 4): 1*y <= 3*(y mod 3)
    # keeps 1, 2, 4, 5 and 8, the open right end of the dilate [6, 8), and
    # from t = 3 on the dilates [3t, 4t) meet, so the ray starts at 9
    rows, ray, gaps, _ = extension_search((3, 2))
    assert rows == [(0, 1, 1)]
    assert proscriptive_datum((3, 2), 0, 1).interval == HalfOpenInterval(3, 4)
    assert gaps == (1, 2, 4, 5, 8)
    assert gaps == tuple(y for y in range(1, 10)
                         if not any(in_dilate(y, HalfOpenInterval(3, 4), t) for t in range(1, 4)))
    assert Fraction(*ray) == ray_start(Fraction(3), Fraction(4)) == 9


def test_search_gaps_match_the_dilates():
    # A row (i, m, e) keeps y exactly when y*e <= s*(y*m mod a(i)); against
    # the dilates of every nontrivial datum's interval, one t at a time, for
    # every y up to the horizon. Equality, y at the open right end of a
    # dilate, is common and kept.
    for b in _dilate_prefixes():
        rows, ray, gaps, _ = extension_search(b)
        data = nontrivial_data(b)
        assert [(d.index, d.m) for d in data] == [row[:2] for row in rows], b
        if ray is None:
            continue
        gaps = set(gaps)
        for y in range(1, math.ceil(Fraction(*ray)) + 1):
            assert _proscribed(y, data) == (y not in gaps), (b, y)


def test_search_ray_is_the_least_dilate_ray():
    # The exact ray is the least of the oracle's ray starts of the data, and
    # the integers from the horizon on all lie in a dilate; no ray exactly
    # when every datum is trivial and the prefix is hollow.
    for b in _dilate_prefixes():
        ray = extension_search(b)[1]
        data = nontrivial_data(b)
        if ray is None:
            assert not data and asymptotically_hollow(b), b
            continue
        assert Fraction(*ray) == min(ray_start(*d.interval) for d in data), b
        horizon = math.ceil(Fraction(*ray))
        assert all(_proscribed(z, data) for z in range(horizon, horizon + 20)), b


def test_ray_start_formula():
    # a row's ray starts at (ceil(m*s/e) - 1)*a(i)/m: from t0 = ceil(m*s/e) - 1
    # on, each dilate of [a(i)/m, s/denom) reaches the next
    for b, (i, m), ray in (((29, 38, 66), (1, 1), 266), ((2, 2), (0, 1), 4),
                           ((3, 2), (0, 1), 9), ((29, 38, 66), (0, 3), Fraction(580, 3))):
        s = sum(b) - 1
        [e] = [row[2] for row in extension_search(b)[0] if row[:2] == (i, m)]
        start = Fraction((-(-m * s // e) - 1) * b[i], m)
        assert start == ray == ray_start(*proscriptive_datum(b, i, m).interval), b
    # (3, 2) has one row and (2, 2) two equal ones: the search's ray is theirs
    assert extension_search((3, 2))[1] == (9, 1)
    assert extension_search((2, 2))[1] == (4, 1)


def test_row_excess_is_the_datum_identity():
    # a(i)*denom = m*s - e for every (i, m): positive exactly when the datum
    # is nontrivial, and for m < a(i) the criterion's lhs - rhs, which is
    # the search row's e exactly when the pair fails
    for b in _BOTH_ORDERS:
        s = sum(b) - 1
        rows = {(i, m): e for i, m, e in extension_search(b)[0]}
        for i, ai in enumerate(b):
            for m in range(1, 2 * ai + 1):
                d = proscriptive_datum(b, i, m)
                excess = m * s - ai * d.denom
                assert (excess > 0) == (not d.trivial), (b, i, m)
                if m < ai:
                    lhs = sum(rem(ai, m * aj) for j, aj in enumerate(b) if j != i)
                    assert excess == lhs - (m + (len(b) - 2) * ai), (b, i, m)
                    assert rows.get((i, m)) == (excess if excess > 0 else None), (b, i, m)


def test_all_trivial_iff_prefix_hollow():
    for length in (2, 3):
        for b in combinations_with_replacement(range(1, 21), length):
            all_trivial = not nontrivial_data(b)
            assert all_trivial == asymptotically_hollow(b), b


def test_worked_extension_narrative():
    """The hand computation for entries 29, 38, 66, step by step.

    The first nontrivial interval is [38, 44), the search's row (1, 1, 18),
    which keeps y exactly when 18*y <= 132*(y mod 38); its dilates plus the t = 1
    inequality mod 38 leave {2..11} plus {44..49} (the hand account drops
    44, which sits at the open right endpoint 132/3 of the undilated
    interval and only dies at the next step). The t = 3 inequality mod 29
    then cuts to {2, 3, 10, 11, 49}, and the dilates of [29/3, 132/13)
    remove 10 (t = 1) and 49 (t = 5), leaving exactly {2, 3, 11}.
    """
    b, first = (29, 38, 66), HalfOpenInterval(38, 44)
    s = sum(b) - 1
    [(i, m, e)] = [row for row in extension_search(b)[0] if row[:2] == (1, 1)]
    assert (b[i], m, e) == (38, 1, 18) and proscriptive_datum(b, i, m).interval == first
    ray = (-(-m * s // e) - 1) * b[i]
    assert ray == ray_start(*first) == 266
    step1 = [y for y in range(1, ray + 1) if y * e <= s * (y * m % b[i])]
    assert step1 == [*range(1, 38), *range(44, 76), *range(88, 114), *range(132, 152),
                     *range(176, 190), *range(220, 228), *range(264, 266)]
    assert step1 == [y for y in range(1, 267)
                     if not any(in_dilate(y, first, t) for t in range(1, 8))]
    survivors = [y for y in step1 if y >= 2 and rem(38, y) <= 11]
    assert survivors == list(range(2, 12)) + list(range(44, 50))

    step2 = [y for y in survivors if rem(29, 3 * y) <= 10]
    assert step2 == [2, 3, 10, 11, 49]

    third = HalfOpenInterval(Fraction(29, 3), Fraction(132, 13))
    assert in_dilate(10, third, 1) and in_dilate(49, third, 5)
    final = [y for y in step2 if not any(in_dilate(y, third, t) for t in range(1, 6))]
    assert final == [2, 3, 11]

    # 44 indeed fails the full criterion, so dropping it early was harmless
    assert not is_asymptotically_hollow((29, 38, 44, 66))
    assert [y for y in survivors if is_asymptotically_hollow(sorted((29, 38, 66, y)))] == [2, 3, 11]
