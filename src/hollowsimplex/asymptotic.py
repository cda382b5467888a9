"""The modular criterion for asymptotic hollowness of integer tuples.

A tuple a = (a(1), ..., a(n-1)) is asymptotically hollow when the simplices
of (a; N) are hollow for infinitely many N. That holds exactly when, for
every entry a(i) >= 2 and every multiplier t in [1, a(i) - 1],

    sum over j != i of rem_pos(a(i), t*a(j))  <=  t + (n-3)*a(i),

where rem_pos(x, y) is y mod x shifted into {1, ..., x}.

Past `robust_stability_point(a)` = (sum(a) - 1)*max(a) the hollowness of
(a; N) no longer depends on N, a bound proved from `simplex`'s cell table;
the classical threshold C falls short of that for ten triples with entries
in [2, 13] (see that function). `agreement_sweep` checks this against
exact lattice-point decisions on a window of N past that point: one cell
table per tuple in `simplex`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import _positive_integers
from .arith import parallel_map, subset_residues


def entries(a: Sequence[int]) -> tuple[int, ...]:
    """a as a tuple of ints in the given order: at least two entries, all positive.

    A whole value such as 6.0 or True becomes its int; any other value is
    refused. The one home of this rule for the criterion, `proscriptive` and
    the CLI's tuple commands; `SimplexSpec` shares its core for (a; d).
    """
    given = tuple(a)
    if len(given) < 2:
        raise ValueError(f"need at least two entries, got {given}")
    return _positive_integers(given)


def ascending(a: Sequence[int]) -> tuple[int, ...]:
    """Canonical ascending form; the criterion is permutation invariant."""
    return tuple(sorted(entries(a)))


class CriterionWitness(NamedTuple):
    """A failing (entry, multiplier) pair certifying non-asymptotic-hollowness."""

    index: int
    entry: int
    t: int
    lhs: int
    rhs: int


def criterion_failures(a: Sequence[int], half: bool) -> Iterator[tuple[int, ...]]:
    """(index, entry, t, lhs, rhs) of every failing pair of a as given, by index then t.

    A pair fails when lhs, the sum of rem_pos(a(i), t*a(j)) over j != i (a
    multiple of a(i) counts a(i)), exceeds rhs = t + (n-3)*a(i) with
    n = len(a) + 1. t runs over [1, a(i)//2] when half is set, else
    over [1, a(i) - 1]. The half range fails for the same entries: at
    t = a(i) both sides agree exactly, and for larger t the left side is
    periodic while the right side grows. A failure at some t in
    (a(i)/2, a(i)) forces a failure at 2t - a(i), which is strictly smaller
    and stays positive, so iterating lands in the half range; for even a(i)
    the midpoint a(i)/2 is a genuine fixed point of that reduction and is
    kept.

    An entry is skipped when a subset S of the other entries sums to 1 mod
    a(i): the whole complement, an O(1) test that certifies every entry of
    the doubling family, else any S that `_residue_one` finds. For every t
    the terms rem_pos(a(i), t*a(j)) over S lie in [1, a(i)] and sum to a
    number congruent to t, so at most t + (|S|-1)*a(i); the other n-2-|S|
    terms add at most a(i) each, and the inequality holds for every t.
    Entries equal to 1 count in S too.
    """
    shift, total = len(a) - 2, sum(a)
    for i, ai in enumerate(a):
        if ai < 2 or (total - ai) % ai == 1:
            continue
        others = [aj % ai for j, aj in enumerate(a) if j != i]
        if _residue_one(others, ai):
            continue
        bound = shift * ai
        for t in range(1, (ai // 2 if half else ai - 1) + 1):
            lhs = 0
            for x in others:
                r = t * x % ai
                lhs += r if r else ai
            if lhs > t + bound:
                yield i, ai, t, lhs, t + bound


def criterion_witness(a: Sequence[int]) -> Optional[CriterionWitness]:
    """The first half-range criterion failure of the ascending form of a, or None.

    The full range would double the scan of every entry that passes.
    """
    first = next(criterion_failures(ascending(a), half=True), None)
    return None if first is None else CriterionWitness(*first)


def is_asymptotically_hollow(a: Sequence[int]) -> bool:
    return criterion_witness(a) is None


def _residue_one(others: Sequence[int], entry: int) -> bool:
    """Whether some nonempty subset of others sums to 1 mod entry."""
    return any(1 in t for t in subset_residues(others, entry))


class StabilityThresholds(NamedTuple):
    """Bounds on N above which the criterion decides hollowness of (a; N).

    m_bound = max (a(i) - 1)*a(j) over i != j makes the criterion
    sufficient, M_bound = (sum(a) - 1)*max(a(i) - 1) also necessary, and
    C = max of the two is the classical constant. It is always M_bound, as
    both maxima sit at the two largest entries and S - 1 >= a[-2] for S =
    sum(a). It is not a stabilization point: ten triples with entries in
    [2, 13] stay hollow past it (see `robust_stability_point`).
    """

    m_bound: int
    M_bound: int

    @property
    def C(self) -> int:
        return self.M_bound


def stability_thresholds(a: Sequence[int]) -> StabilityThresholds:
    a = ascending(a)  # both maxima sit at the two largest entries
    return StabilityThresholds((a[-1] - 1) * a[-2], (sum(a) - 1) * (a[-1] - 1))


def robust_stability_point(a: Sequence[int]) -> int:
    """(S - 1)*max(a), S = sum(a), past which (a; N) is hollow for every N or for none.

    The proof reads `simplex._hollow_by_n`'s table. With L = lcm(a), a kept
    cell (hi, c), hi on the scale L and c the sum of its ceilings minus 1,
    has D = hi*(S - 1) - c*L > 0. Its largest height k = ceil(hi*N/L) - 1
    is at least (hi*N - L)/L, so N*c < k*(S - 1), and (a; N) is not hollow,
    once N*D > L*(S - 1). The breakpoint hi that ends the cell is L or a
    multiple of L/a(i) for some i; L is one too, so D is a positive multiple
    of L/a(i), and L*(S - 1)/D <= a(i)*(S - 1) <= (S - 1)*max(a). An empty
    table means hollow at every N.

    The classical C = M_bound = (S - 1)*(max(a) - 1) falls short when a
    failing pair is razor-thin and max(a) divides N: (3, 4, 5) has C = 44
    yet is hollow at N = 45, 50, 55, and this point is 55. The tests pin
    the ten triples with entries in [2, 13] and the 67 quadruples in
    [2, 14] that stay hollow past C.
    """
    a = entries(a)
    return (sum(a) - 1) * max(a)


def sample_tuples(
    count: int,
    lengths: Sequence[int] = (3, 4),
    low: int = 2,
    high: int = 12,
    seed: int = 0,
) -> tuple[tuple[int, ...], ...]:
    """Deterministic pseudo-random nontrivial tuples for sweeps."""
    lengths = list(lengths)
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if not lengths:
        raise ValueError("no tuple lengths to sample from")
    if min(lengths) < 2:
        raise ValueError(f"tuple lengths must be at least 2, got {min(lengths)}")
    if not 1 <= low <= high:
        raise ValueError(f"need 1 <= low <= high, got low={low}, high={high}")
    import random  # only sampling needs it; asym and classify never load it

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.choice(lengths)
        out.append(tuple(sorted(rng.randint(low, high) for _ in range(length))))
    return tuple(out)


class AgreementMismatch(NamedTuple):
    a: tuple[int, ...]
    big_n: int
    criterion: bool
    brute_force: bool


class AgreementReport(NamedTuple):
    tuples_checked: int
    points_checked: int
    mismatches: tuple[AgreementMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _check_agreement(args: tuple[tuple[int, ...], int]) -> list[AgreementMismatch]:
    # Imported on use: only the sweep needs the exact hollowness test, and
    # the criterion's callers (asym, extend, classify, family) never load it.
    from .simplex import _hollow_by_n

    a, window = args
    expected = is_asymptotically_hollow(a)
    start = robust_stability_point(a)
    big_ns = range(start + 1, start + window + 1)
    return [
        AgreementMismatch(a=a, big_n=big_n, criterion=expected, brute_force=actual)
        for big_n, actual in zip(big_ns, _hollow_by_n(a, big_ns))
        if actual != expected
    ]


def agreement_sweep(
    tuples: Iterable[Sequence[int]],
    window: int = 50,
    threads: int = 1,
) -> AgreementReport:
    """Criterion versus brute force for every N in a window past stabilization.

    The window starts at robust_stability_point(a), not at the classical C:
    see that function for the divisibility edge case that makes C alone too
    small. Every N in the window is checked, so agreement doubles as a
    constancy check of the hollowness status. Each tuple's window is decided
    exactly from one cell table (`simplex._hollow_by_n`), built once, not
    by one k-scan per N.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    jobs = ((ascending(a), window) for a in tuples)  # listed once threads is checked
    results = parallel_map(_check_agreement, jobs, threads)
    return AgreementReport(
        tuples_checked=len(results), points_checked=len(results) * window,
        mismatches=tuple(m for bad in results for m in bad),
    )
