import random

import oracle
import pytest

from hollowsimplex.asymptotic import is_asymptotically_hollow
from hollowsimplex.classify import (
    SPORADIC_TRIPLES,
    TripleSet,
    classify_triples,
    doubling_family,
    family_identities,
    reference_triples,
    verify_family,
)


def test_doubling_family_values():
    assert doubling_family(4) == (6, 10, 15)
    assert doubling_family(5) == (28, 36, 63, 126)
    assert doubling_family(6) == (120, 136, 255, 510, 1020)
    with pytest.raises(ValueError):
        doubling_family(3)


def test_doubling_family_least_entry():
    for n in range(4, 10):
        a = doubling_family(n)
        assert len(a) == n - 1
        assert a[0] == min(a) == (1 << (n - 3)) * ((1 << (n - 2)) - 1)


def test_family_identities():
    for n in range(4, 10):
        assert all(family_identities(doubling_family(n)).values()), n


def test_family_is_asymptotically_hollow():
    for n in range(4, 61):
        assert is_asymptotically_hollow(doubling_family(n)), n


def prefix_tuple(first, second, length, bad=None, delta=1):
    """A tuple whose prefix-sum identity holds at every j >= 2 except at `bad`."""
    a = [first, second]
    while len(a) < length:
        a.append(sum(a) - 1 + (delta if len(a) == bad else 0))
    return tuple(a)


def test_family_identities_match_oracle():
    rng = random.Random(23)
    tuples = [tuple(rng.randint(1, 40) for _ in range(rng.randint(3, 8))) for _ in range(2000)]
    for length in (3, 4, 7):
        for bad in (None, 2, max(2, length // 2), length - 1):
            first, second = rng.randint(1, 50), rng.randint(1, 50)
            a = prefix_tuple(first, second, length, bad, rng.choice((1, 2, 5)))
            assert family_identities(a)["prefix_sums"] == (bad is None), a
            tuples.append(a)
    tuples += [doubling_family(n) for n in range(4, 12)]
    for a in tuples:
        assert family_identities(a) == oracle.family_identities(a), a


def test_verify_family_payload():
    checks = verify_family(doubling_family(5))
    assert checks["asymptotically_hollow"]
    assert checks["first_pair_sum"] and checks["prefix_sums"]
    with pytest.raises(ValueError, match="^identities need at least three entries$"):
        verify_family((3, 5))


def test_triple_set_partition():
    ts = TripleSet.from_triples([(2, 3, 4), (2, 3, 5), (6, 10, 15), (2, 2, 3)])
    assert ts.family_xs == (2, 3)
    assert ts.sporadic == ((2, 3, 5), (6, 10, 15))
    family = tuple((2, x, x + 1) for x in ts.family_xs)
    assert TripleSet.from_triples(ts.sporadic + family) == ts


def test_reference_triples_boxes():
    full = reference_triples(60, 60)
    assert full.sporadic == SPORADIC_TRIPLES
    assert full.family_xs == tuple(range(2, 60))
    small = reference_triples(10, 10)
    assert small.sporadic == (
        (2, 3, 5), (2, 3, 8), (2, 5, 9), (3, 4, 6), (3, 5, 7), (3, 5, 8),
        (3, 8, 10), (4, 6, 9), (4, 7, 10),
    )
    assert reference_triples(6, 15).sporadic[-1] == (6, 10, 15)
    assert reference_triples(2, 3).family_xs == (2,)
    assert reference_triples(2, 3).sporadic == ()
    # the least entry is capped at a_max as in classify_triples' box, so
    # (5, 8, 12) and (6, 10, 15) lie outside (4, 16)
    assert reference_triples(4, 16).sporadic == small.sporadic
    assert reference_triples(5, 16).sporadic[-1] == (5, 8, 12)
    assert reference_triples(7, 60, min_entry=6) == (((6, 10, 15),), ())


def test_classify_small_box():
    result = classify_triples(2, 5)
    assert result.sporadic == ((2, 3, 5),)
    # largest entry capped at x_max, so the family stops at x = 4
    assert result.family_xs == (2, 3, 4)


def test_classify_medium_box_matches_reference():
    assert classify_triples(6, 16) == reference_triples(6, 16)
    assert classify_triples(4, 16) == reference_triples(4, 16)


def test_classify_min_entry_six():
    result = classify_triples(7, 60, min_entry=6)
    assert result.sporadic == ((6, 10, 15),)
    assert result.family_xs == ()


def test_classify_min_entry_above_six_is_empty():
    result = classify_triples(10, 25, min_entry=7)
    assert result.sporadic == () and result.family_xs == ()


@pytest.mark.parametrize("a_max, x_max, min_entry", [(8, 30, 2), (12, 40, 2), (12, 40, 3)])
def test_classify_matches_criterion_on_every_triple(a_max, x_max, min_entry):
    # x_max cuts below many prefixes' horizons here, so the search's window
    # [x, x_max] must keep both of its ends
    sporadic, family_xs = oracle.triples_in_box(a_max, x_max, min_entry)
    result = classify_triples(a_max, x_max, min_entry)
    assert (list(result.sporadic), list(result.family_xs)) == (sporadic, family_xs)


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_triples(1, 10)
    with pytest.raises(ValueError):
        classify_triples(10, 5)
    for a_max, x_max in ((1, 10), (10, 5)):
        with pytest.raises(ValueError, match=r"^need 2 <= a_max <= x_max"):
            reference_triples(a_max, x_max)


def test_classify_threads_deterministic():
    assert classify_triples(3, 10, threads=2) == classify_triples(3, 10)


def test_every_reference_triple_passes_criterion():
    ref = reference_triples(60, 60)
    for t in ref.sporadic + tuple((2, x, x + 1) for x in ref.family_xs):
        assert is_asymptotically_hollow(t), t
