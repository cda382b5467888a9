"""Finite classification searches and the doubling family.

classify_triples sweeps every prefix pair inside a box, lets the
proscriptive machinery produce a provably finite list of extension
candidates for each, and keeps the ones the criterion certifies. The result
splits into the one-parameter family (2, x, x+1) and a short sporadic list;
reference_triples holds the known complete answer for cross-checking.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

from .arith import parallel_map
from .asymptotic import is_asymptotically_hollow

Triple = tuple[int, int, int]

# The complete nontrivial list, besides the family (2, x, x+1).
SPORADIC_TRIPLES: tuple[Triple, ...] = (
    (2, 3, 5),
    (2, 3, 8),
    (2, 5, 9),
    (3, 4, 6),
    (3, 5, 7),
    (3, 5, 8),
    (3, 8, 10),
    (4, 6, 9),
    (4, 7, 10),
    (5, 8, 12),
    (6, 10, 15),
)


class TripleSet(NamedTuple):
    """Ascending, duplicate-free classification output.

    family_xs holds every x with (2, x, x+1) present; sporadic holds the
    rest.
    """

    sporadic: tuple[Triple, ...]
    family_xs: tuple[int, ...]

    @classmethod
    def from_triples(cls, triples: Sequence[Triple]) -> "TripleSet":
        family = sorted({t[1] for t in triples if t[0] == 2 and t[2] == t[1] + 1})
        rest = sorted({t for t in triples if not (t[0] == 2 and t[2] == t[1] + 1)})
        return cls(sporadic=tuple(rest), family_xs=tuple(family))


def _check_box(a_max: int, x_max: int) -> None:
    if a_max < 2 or x_max < a_max:
        raise ValueError(f"need 2 <= a_max <= x_max, got ({a_max}, {x_max})")


def _search_prefix(args: tuple[int, int, int]) -> list[Triple]:
    # Imported on use: the doubling family never needs the extension search.
    from .proscriptive import extension_search

    a, x, x_max = args
    candidates = extension_search((a, x), x, x_max)[3]
    if candidates is None:
        raise RuntimeError(f"prefix ({a}, {x}) admits unbounded extensions; a nontrivial "
                           "pair should never be asymptotically hollow")
    return [(a, x, y) for y in candidates]


def classify_triples(
    a_max: int,
    x_max: int,
    min_entry: int = 2,
    threads: int = 1,
) -> TripleSet:
    """All nontrivial asymptotically hollow triples with entries in the box.

    Scans prefixes (a, x) with min_entry <= a <= min(a_max, x) and
    a <= x <= x_max and asks the extension search for y in [x, x_max] only,
    so the output is exactly the ascending triples whose largest entry stays
    within x_max. min_entry > 2 probes for large least entries.
    """
    _check_box(a_max, x_max)
    lo = max(2, min_entry)
    jobs = ((a, x, x_max) for a in range(lo, a_max + 1) for x in range(a, x_max + 1))
    batches = parallel_map(_search_prefix, jobs, threads)
    return TripleSet.from_triples([t for batch in batches for t in batch])


def reference_triples(a_max: int, x_max: int, min_entry: int = 2) -> TripleSet:
    """The known complete triple list in the box of classify_triples: least entry
    in [min_entry, a_max], every entry <= x_max."""
    _check_box(a_max, x_max)
    sporadic = tuple(
        t for t in SPORADIC_TRIPLES if min_entry <= t[0] <= a_max and t[2] <= x_max
    )
    family = tuple(range(2, x_max)) if min_entry <= 2 else ()
    return TripleSet(sporadic=sporadic, family_xs=family)


def doubling_family(n: int) -> tuple[int, ...]:
    """The (n-1)-tuple with the largest known least entry, for ambient n >= 4.

    First two entries 2**(2n-5) -/+ 2**(n-3), third 2**(2n-4) - 1, and every
    later entry doubles its predecessor. The least entry is
    2**(n-3) * (2**(n-2) - 1), which is a perfect number whenever
    2**(n-2) - 1 is a Mersenne prime.
    """
    if n < 4:
        raise ValueError(f"family starts at n = 4, got {n}")
    base = 1 << (2 * n - 5)
    off = 1 << (n - 3)
    entries = [base - off, base + off, 2 * base - 1]
    while len(entries) < n - 1:
        entries.append(2 * entries[-1])
    return tuple(entries)


def family_identities(a: Sequence[int]) -> dict[str, bool]:
    """The four congruence identities behind the doubling family.

    first_pair_sum: a(1) + a(2) = a(3) + 1. prefix_sums: the sum of all
    entries before a(j) equals a(j) + 1 for every j >= 3. complements: the
    other entries sum to 1 mod a(1) and mod a(2).
    """
    a = tuple(a)
    if len(a) < 3:
        raise ValueError("identities need at least three entries")
    *prefix, total = accumulate(a)  # prefix[j - 1] = a[0] + ... + a[j - 1]
    return {
        "first_pair_sum": a[0] + a[1] == a[2] + 1,
        "prefix_sums": all(prefix[j - 1] == a[j] + 1 for j in range(2, len(a))),
        "complement_mod_first": (total - a[0]) % a[0] == 1,
        "complement_mod_second": (total - a[1]) % a[1] == 1,
    }


def verify_family(a: Sequence[int]) -> dict[str, bool]:
    """Congruence identities plus the criterion for a family tuple a."""
    return {**family_identities(a), "asymptotically_hollow": is_asymptotically_hollow(a)}
