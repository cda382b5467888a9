import random
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from oracle import criterion_sides, failures, rem, robust_point, thresholds

from hollowsimplex.asymptotic import (
    CriterionWitness,
    _residue_one,
    agreement_sweep,
    ascending,
    criterion_failures,
    criterion_witness,
    entries,
    is_asymptotically_hollow,
    robust_stability_point,
    sample_tuples,
    stability_thresholds,
)
from hollowsimplex.proscriptive import candidate_extensions, nontrivial_data, proscriptive_datum
from hollowsimplex.simplex import SimplexSpec, _hollow_by_n, is_hollow


def test_criterion_inequality_examples():
    # (6,10,15) at the 10-entry, t=3: remainders 8 and 5 against 3 + 10
    assert criterion_sides((6, 10, 15), 1, 3) == (13, 13)
    # (2,3,7) at the 7-entry, t=2: remainders 4 and 6 against 2 + 7
    assert criterion_sides((2, 3, 7), 2, 2) == (10, 9)


def test_t_range_cap_is_tight():
    # at t = a(i) both sides agree exactly; beyond, the left side is periodic
    # while the right side grows
    for a in ((2, 3, 7), (6, 10, 15), (3, 29, 38, 66)):
        n = len(a) + 1
        for i, ai in enumerate(a):
            lhs_at = lambda t: sum(
                rem(ai, t * aj) for j, aj in enumerate(a) if j != i
            )
            assert lhs_at(ai) == (n - 2) * ai == ai + (n - 3) * ai
            for t in range(ai + 1, 3 * ai):
                assert lhs_at(t) == lhs_at(t - ai)
                assert lhs_at(t) <= t + (n - 3) * ai


def test_half_range_includes_even_midpoint():
    # the least failure of these tuples sits exactly at t = a(i)/2
    assert criterion_witness((4, 6, 6)) == CriterionWitness(0, 4, 2, 8, 6)
    assert criterion_witness((6, 8, 10)) == CriterionWitness(0, 6, 3, 12, 9)
    assert criterion_witness((8, 10, 14)) == CriterionWitness(0, 8, 4, 16, 12)


def test_failures_match_the_oracle_in_both_ranges():
    # every failing pair, not just the first; a residue-one skip drops no
    # failure, so the oracle, which sums every remainder, yields the same
    tuples = [*combinations_with_replacement(range(1, 14), 3),
              *combinations_with_replacement(range(2, 10), 4), (10, 5, 4, 3)]
    for a in tuples:
        a = tuple(sorted(a))
        for half in (True, False):
            expected = [(i, a[i], t, *criterion_sides(a, i, t)) for i, t in failures(a, half)]
            assert list(criterion_failures(a, half)) == expected, (a, half)


def test_is_asymptotically_hollow_examples():
    assert is_asymptotically_hollow((6, 10, 15))
    assert not is_asymptotically_hollow((3, 7, 9))
    assert is_asymptotically_hollow((2, 29, 38, 66))
    assert is_asymptotically_hollow((3, 29, 38, 66))
    assert is_asymptotically_hollow((11, 29, 38, 66))
    assert not is_asymptotically_hollow((29, 38, 49, 66))


def test_witness_is_least():
    w = criterion_witness((3, 7, 9))
    assert (w.entry, w.t, w.lhs, w.rhs) == (7, 2, 10, 9)
    assert w.index == 1
    assert criterion_witness((6, 10, 15)) is None


def test_trivial_tuples_always_pass():
    rng = random.Random(5)
    for _ in range(60):
        a = tuple(sorted([1] + [rng.randint(1, 20) for _ in range(rng.choice((1, 2, 3)))]))
        assert is_asymptotically_hollow(a), a
    for n in range(1, 40):
        assert is_hollow(SimplexSpec((1, 7), n))


def test_thresholds_examples():
    th = stability_thresholds((3, 5, 7))
    assert (th.m_bound, th.M_bound, th.C) == (30, 84, 84)
    th = stability_thresholds((2, 2))
    assert (th.m_bound, th.M_bound, th.C) == (2, 3, 3)
    th = stability_thresholds((1, 1))
    assert (th.m_bound, th.M_bound, th.C) == (0, 0, 0)


def test_thresholds_match_pairwise_oracle():
    # repeated maxima and entries equal to 1 included
    rng = random.Random(17)
    for _ in range(2000):
        a = [rng.randint(1, rng.choice((3, 20, 1000))) for _ in range(rng.randint(2, 7))]
        a += [max(a)] * rng.randint(0, 2) + [1] * rng.randint(0, 2)
        rng.shuffle(a)
        assert tuple(stability_thresholds(a)) == thresholds(a), a
        assert robust_stability_point(a) == robust_point(a), a


def test_robust_point_dominates_classical():
    for a in sample_tuples(100, seed=3):
        assert robust_stability_point(a) >= stability_thresholds(a).C


def test_classical_constant_misses_divisible_edge_case():
    # documents why the robust point exists: (3,4,5) has C = 44 but stays
    # hollow at N = 45, 50, 55 (N divisible by 5, razor-thin failing pair)
    # and loses hollowness at 60
    a = (3, 4, 5)
    assert stability_thresholds(a).C == 44
    assert not is_asymptotically_hollow(a)
    for n in (45, 50, 55):
        assert is_hollow(SimplexSpec(a, n)), n
    assert not is_hollow(SimplexSpec(a, 60))
    assert robust_stability_point(a) == 55
    for n in range(56, 106):
        assert not is_hollow(SimplexSpec(a, n)), n


STABILIZATION_EDGE_CASES = (
    (2, 2, 2), (2, 2, 5), (2, 3, 3), (2, 3, 7), (2, 3, 11),
    (2, 4, 7), (2, 7, 13), (3, 3, 4), (3, 4, 5), (4, 5, 7),
)

QUADRUPLE_EDGE_CASES = (
    (2, 2, 2, 2), (2, 2, 2, 7), (2, 2, 5, 5), (2, 3, 3, 3), (2, 3, 7, 7),
    (2, 4, 7, 7), (2, 5, 5, 8), (3, 3, 4, 4), (3, 3, 6, 7), (3, 4, 5, 5),
    (4, 4, 4, 5), (4, 5, 5, 6), (4, 5, 7, 7), (4, 6, 6, 7), (5, 5, 6, 7),
    (5, 6, 7, 8),
)


def _walk(a, ns):
    return (is_hollow(SimplexSpec(a, n)) for n in ns)


def _disagreements_past_c(tuples, hollow_by_n):
    """{a: (criterion, the N in (C, robust point + 60] where the exact
    verdict differs from it, robust point)} over the tuples that disagree."""
    out = {}
    for a in tuples:
        expected = is_asymptotically_hollow(a)
        robust = robust_stability_point(a)
        ns = range(stability_thresholds(a).C + 1, robust + 61)
        bad = [n for n, hollow in zip(ns, hollow_by_n(a, ns)) if hollow != expected]
        if bad:
            out[a] = (expected, bad, robust)
    return out


def _assert_only_divisible_edge_cases(disagreeing):
    # never asymptotically hollow, only at multiples of the largest entry,
    # and the last disagreement is the robust point itself
    for a, (expected, bad, robust) in disagreeing.items():
        assert not expected, a
        assert all(n % max(a) == 0 for n in bad), a
        assert bad[-1] == robust, a


def test_stabilization_edge_cases_are_pinned():
    # every triple in [2, 13], every N in (C, robust point + 60]: the k-scan
    # and the criterion disagree only on these ten triples, and the cell
    # table, a second exact oracle, finds the very same disagreements
    triples = list(combinations_with_replacement(range(2, 14), 3))
    disagreeing = _disagreements_past_c(triples, _walk)
    assert _disagreements_past_c(triples, _hollow_by_n) == disagreeing
    assert sorted(disagreeing) == list(STABILIZATION_EDGE_CASES)
    assert disagreeing[(3, 4, 5)][1] == [45, 50, 55]
    _assert_only_divisible_edge_cases(disagreeing)


def test_quadruple_stabilization_is_pinned():
    # every quadruple in [2, 14] (1820 tuples), every N in (C, robust point
    # + 60], decided by the cell table; in [2, 8] by the k-scan as well
    quadruples = list(combinations_with_replacement(range(2, 15), 4))
    disagreeing = _disagreements_past_c(quadruples, _hollow_by_n)
    assert len(disagreeing) == 67
    _assert_only_divisible_edge_cases(disagreeing)
    small = [a for a in quadruples if a[-1] <= 8]
    walked = _disagreements_past_c(small, _walk)
    assert sorted(walked) == list(QUADRUPLE_EDGE_CASES)
    assert walked == {a: v for a, v in disagreeing.items() if a[-1] <= 8}


def test_pairs_never_nontrivially_hollow():
    for a in range(2, 11):
        for x in range(a, 11):
            assert not is_asymptotically_hollow((a, x)), (a, x)


def test_permutation_invariance():
    for base in ((6, 10, 15), (3, 7, 9), (2, 29, 38, 66)):
        expected = is_asymptotically_hollow(base)
        for p in permutations(base):
            assert is_asymptotically_hollow(p) == expected


def test_subset_scan_matches_enumeration():
    # exact: true iff some nonempty subset of the other entries sums to 1 mod the entry
    for k in (3, 4):
        for a in combinations_with_replacement(range(1, 11), k):
            for j, aj in enumerate(a):
                others = a[:j] + a[j + 1:]
                hit = any(
                    sum(sub) % aj == 1 for size in range(1, k) for sub in combinations(others, size)
                )
                assert _residue_one(others, aj) == hit, (a, j)


def test_residue_one_examples():
    assert _residue_one((6, 10), 15)  # 6 + 10 = 16
    assert _residue_one((29, 38, 66), 11)  # 29 + 38 = 67
    assert _residue_one((1, 7), 3)  # an entry 1 certifies on its own
    assert not _residue_one((2, 3), 7)
    assert not _residue_one((3, 7), 1)


def test_agreement_sweep_smoke():
    report = agreement_sweep(sample_tuples(20, seed=11), window=12)
    assert report.ok
    assert report.tuples_checked == 20
    assert report.points_checked == 240


def test_agreement_sweep_threads_match():
    tuples = sample_tuples(8, seed=13)
    assert agreement_sweep(tuples, window=5, threads=2) == agreement_sweep(
        tuples, window=5
    )


def test_sample_tuples_deterministic():
    assert sample_tuples(10, seed=4) == sample_tuples(10, seed=4)
    assert sample_tuples(10, seed=4) != sample_tuples(10, seed=5)
    for a in sample_tuples(50):
        assert 3 <= len(a) <= 4
        assert all(2 <= v <= 12 for v in a)
        assert a == ascending(a)


def test_entries_is_the_one_tuple_rule():
    assert entries([15, 6.0, True]) == (15, 6, 1)  # ints, in the given order
    assert ascending([15, 6, 10]) == (6, 10, 15)
    takers = (entries, ascending, criterion_witness, stability_thresholds,
              robust_stability_point, nontrivial_data, candidate_extensions,
              lambda b: proscriptive_datum(b, 0, 1))
    # a value that is not whole is refused, never truncated: (6.9, 10, 15)
    # would read as the asymptotically hollow (6, 10, 15)
    for bad, message in (((5,), r"^need at least two entries, got \(5,\)$"),
                         ((3, 0), r"^entries must be positive, got \(3, 0\)$"),
                         ((6.9, 10, 15), r"^entries must be integers, got \(6\.9, 10, 15\)$"),
                         (("6", 10), r"^entries must be integers, got \('6', 10\)$"),
                         ((float("nan"), 10), r"^entries must be integers, got \(nan, 10\)$"),
                         ((None, 10), r"^entries must be integers, got \(None, 10\)$")):
        for take in takers:
            with pytest.raises(ValueError, match=message):
                take(bad)
