import math

import pytest

import oracle
from hollowsimplex.residues import (
    EXEMPT,
    STRICT,
    bounded_remainder_set,
    closed_form_remainder_set,
)


def test_bruteforce_examples():
    assert bounded_remainder_set(23, 3) == (1, 20, 21)
    assert bounded_remainder_set(10, 2) == (1, 9)
    assert bounded_remainder_set(12, 2) == (1, 5, 11)


def test_closed_form_examples():
    assert closed_form_remainder_set(23, 3) == (1, 20, 21)
    assert closed_form_remainder_set(10, 2) == (1, 9)
    assert closed_form_remainder_set(16, 2) == (1, 7, 15)
    assert closed_form_remainder_set(12, 3) == (1, 10)


def test_validation():
    with pytest.raises(ValueError):
        bounded_remainder_set(5, 3)  # x < 2r
    with pytest.raises(ValueError):
        bounded_remainder_set(10, 1)
    with pytest.raises(ValueError):
        closed_form_remainder_set(8, 3)  # below r^2
    with pytest.raises(ValueError):
        bounded_remainder_set(10, 2, "weird")


def test_known_formula_defects():
    # inside the nominal x >= r^2 range the formula misses the inverse of r
    # at exactly these two points
    for x, r in ((9, 2), (14, 3)):
        brute = set(bounded_remainder_set(x, r))
        closed = set(closed_form_remainder_set(x, r))
        extra = brute - closed
        assert closed <= brute
        assert len(extra) == 1
        (z,) = extra
        assert z * r % x == 1


def test_equivalence_medium_sweep():
    for r in range(2, 6):
        for x in range(r * r, 121):
            if (x, r) in ((9, 2), (14, 3)):
                continue
            assert (
                bounded_remainder_set(x, r) == closed_form_remainder_set(x, r)
            ), (x, r)


def test_strict_subset_of_exempt():
    for r in range(2, 6):
        for x in range(2 * r, 80):
            s = set(bounded_remainder_set(x, r, STRICT))
            s0 = set(bounded_remainder_set(x, r, EXEMPT))
            assert s <= s0, (x, r)


def test_large_gcd_excludes():
    for r in range(2, 6):
        for x in range(2 * r, 80):
            members = set(bounded_remainder_set(x, r))
            for z in range(1, x + 1):
                if math.gcd(z, x) >= r:
                    assert z not in members, (x, r, z)


def test_closed_form_hypothesis_is_sharp():
    # for 4 <= r <= 8 the formula holds from x = r^2 on and fails just below
    for r in range(4, 9):
        for x in range(r * r, r * r + 41):
            assert bounded_remainder_set(x, r) == closed_form_remainder_set(x, r), (x, r)
        # the gated function refuses x < r^2, so the formula comes from the oracle
        below = r * r - 1
        assert list(bounded_remainder_set(below, r)) != oracle.residue_formula(below, r), r
    # for r = 2, 3 the pinned defects are the only ones at or past r^2
    defects = [
        (x, r)
        for r in (2, 3)
        for x in range(r * r, 200)
        if bounded_remainder_set(x, r) != closed_form_remainder_set(x, r)
    ]
    assert defects == [(9, 2), (14, 3)]
