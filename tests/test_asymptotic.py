import random
from itertools import combinations_with_replacement, permutations

import pytest

from hollowsimplex.arith import rem_pos, subset_sums
from hollowsimplex.asymptotic import (
    FULL,
    HALF,
    RESIDUE_ONE,
    RESIDUE_ZERO_NONDIVISOR,
    _subset_scan,
    agreement_sweep,
    ascending,
    criterion_inequality,
    criterion_witness,
    is_asymptotically_hollow,
    robust_stability_point,
    sample_tuples,
    stability_thresholds,
    subset_rule_all_t,
    subset_rule_single_t,
    t_values,
)
from hollowsimplex.simplex import SimplexSpec, is_hollow


def test_criterion_inequality_examples():
    # (6,10,15) at the 10-entry, t=3: remainders 8 and 5 against 3 + 10
    chk = criterion_inequality((6, 10, 15), 1, 3)
    assert (chk.lhs, chk.rhs, chk.holds) == (13, 13, True)
    chk = criterion_inequality((2, 3, 7), 2, 2)
    assert (chk.lhs, chk.rhs, chk.holds) == (10, 9, False)


def test_criterion_inequality_validation():
    with pytest.raises(ValueError):
        criterion_inequality((2, 3, 7), 2, 0)
    with pytest.raises(ValueError):
        criterion_inequality((2, 3, 7), 2, 7)
    with pytest.raises(ValueError):
        criterion_inequality((1, 3, 7), 0, 1)  # unit entry admits no multipliers


def test_t_range_cap_is_tight():
    # at t = a(i) both sides agree exactly; beyond, the left side is periodic
    # while the right side grows
    for a in ((2, 3, 7), (6, 10, 15), (3, 29, 38, 66)):
        n = len(a) + 1
        for i, ai in enumerate(a):
            lhs_at = lambda t: sum(
                rem_pos(ai, t * aj) for j, aj in enumerate(a) if j != i
            )
            assert lhs_at(ai) == (n - 2) * ai == ai + (n - 3) * ai
            for t in range(ai + 1, 3 * ai):
                assert lhs_at(t) == lhs_at(t - ai)
                assert lhs_at(t) <= t + (n - 3) * ai


def test_half_range_includes_even_midpoint():
    assert list(t_values(10, HALF)) == [1, 2, 3, 4, 5]
    assert list(t_values(7, HALF)) == [1, 2, 3]
    assert list(t_values(2, HALF)) == [1]
    assert list(t_values(10, FULL)) == list(range(1, 10))


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


def test_stabilization_edge_cases_are_pinned():
    # every triple in [2, 13], every N in (C, robust point + 60]: the k-scan
    # and the criterion disagree only on these ten triples, only at multiples
    # of the largest entry, and never past the robust point
    disagreeing = {}
    for a in combinations_with_replacement(range(2, 14), 3):
        expected = is_asymptotically_hollow(a)
        robust = robust_stability_point(a)
        start = stability_thresholds(a).C + 1
        bad = [n for n in range(start, robust + 61)
               if is_hollow(SimplexSpec(a, n)) != expected]
        if bad:
            disagreeing[a] = (expected, bad, robust)
    assert sorted(disagreeing) == list(STABILIZATION_EDGE_CASES)
    for a, (expected, bad, robust) in disagreeing.items():
        assert not expected, a
        assert all(n % max(a) == 0 for n in bad), a
        assert bad[-1] == robust, a


def test_pairs_never_nontrivially_hollow():
    for a in range(2, 11):
        for x in range(a, 11):
            assert not is_asymptotically_hollow((a, x)), (a, x)


def test_permutation_invariance():
    for base in ((6, 10, 15), (3, 7, 9), (2, 29, 38, 66)):
        expected = is_asymptotically_hollow(base)
        for p in permutations(base):
            assert is_asymptotically_hollow(p) == expected


def test_shortcut_flag_does_not_change_verdict():
    for a in combinations_with_replacement(range(2, 11), 3):
        assert is_asymptotically_hollow(a, use_shortcuts=True) == is_asymptotically_hollow(
            a, use_shortcuts=False
        ), a


def _enumerated_scan(a, j, t):
    # (hit, zero) from subset_sums alone, in enumeration order
    aj = a[j]
    others = a[:j] + a[j + 1:]
    zero = False
    for positions, total in subset_sums(others):
        z = t * total % aj
        if 1 <= z <= t:
            return True, zero
        if z == 0 and any(others[i] % aj for i in positions):
            zero = True
    return False, zero


def test_subset_scan_matches_enumeration():
    for k in (3, 4):
        for a in combinations_with_replacement(range(2, 11), k):
            for j, aj in enumerate(a):
                hit_one, zero_one = _enumerated_scan(a, j, 1)
                if hit_one:
                    rule = RESIDUE_ONE
                elif zero_one and all(
                    criterion_inequality(a, j, t).holds for t in t_values(aj, FULL)
                ):
                    rule = RESIDUE_ZERO_NONDIVISOR
                else:
                    rule = None
                assert subset_rule_all_t(a, j) == rule, (a, j)
                for t in range(1, aj):
                    hit, zero = _enumerated_scan(a, j, t)
                    got_hit, got_zero = _subset_scan(a, j, t)
                    # zero is read only when nothing hits
                    assert got_hit == hit, (a, j, t)
                    assert hit or got_zero == zero, (a, j, t)
                    single = hit or (zero and criterion_inequality(a, j, t).holds)
                    assert subset_rule_single_t(a, j, t) == single, (a, j, t)


def test_subset_rule_all_t_examples():
    assert subset_rule_all_t((6, 10, 15), 2) == RESIDUE_ONE  # 6 + 10 = 16
    assert subset_rule_all_t((11, 29, 38, 66), 0) == RESIDUE_ONE  # 29 + 38 = 67
    assert subset_rule_all_t((2, 3, 7), 2) is None
    with pytest.raises(ValueError):
        subset_rule_all_t((1, 3, 7), 1)


def test_subset_rule_single_t_examples():
    # reduced entries mod 29 are 3, 9, 8; the value-8 entry alone gives
    # 4*8 = 32 = 3 mod 29 with 3 <= 4, and {3, 9} gives t = 5
    assert subset_rule_single_t((3, 29, 38, 66), 1, 4)
    assert subset_rule_single_t((3, 29, 38, 66), 1, 5)
    with pytest.raises(ValueError):
        subset_rule_single_t((3, 29, 38, 66), 1, 29)


def test_range_equivalence_exhaustive():
    from properties import range_equivalence_counterexamples

    assert range_equivalence_counterexamples() == []


def test_shortcut_soundness():
    from properties import shortcut_soundness_counterexamples

    assert shortcut_soundness_counterexamples() == []


def test_neighbor_inequality():
    from properties import neighbor_inequality_counterexamples

    assert neighbor_inequality_counterexamples() == []


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
