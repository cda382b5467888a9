"""Proscriptive intervals: where an extension entry can never live.

Fix a prefix b = (a(1), ..., a(n-2)) with at least two entries and ask which
integers y make (b, y) asymptotically hollow. For every entry index i and
multiplier m the data below produce a rational interval whose positive
integer dilates are all forbidden to y. Only finitely many (i, m) give a
nonempty interval, and each nonempty interval's dilates swallow an infinite
ray, so the surviving y form a finite, explicitly computable set which the
full criterion then filters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .arith import HalfOpenInterval, RaySummary, remainder_sum, scaled_union
from .asymptotic import ascending, is_asymptotically_hollow


class ProscriptiveDatum(NamedTuple):
    """Interval data for one (entry index, multiplier) pair of a prefix.

    g_row[j] counts the fractions a(j)/k strictly above a(i)/m, i.e.
    floor((m*a(j) - 1)/a(i)); f is its sum over j and denom = n - 3 + f with
    n the ambient dimension once the extension entry is appended. The base
    interval is [a(i)/m, s/denom) with s = sum(b) - 1, and it is trivial
    (empty) exactly when

        sum over j != i of rem_pos(a(i), m*a(j))  <=  m + (n-4)*a(i).
    """

    index: int
    entry: int
    m: int
    g_row: tuple[int, ...]
    f: int
    denom: int
    interval: HalfOpenInterval

    @property
    def trivial(self) -> bool:
        return self.interval.is_empty


def _validate_prefix(b: Sequence[int]) -> tuple[int, ...]:
    b = tuple(int(v) for v in b)
    if len(b) < 2:
        raise ValueError("prefix needs at least two entries")
    if any(v < 1 for v in b):
        raise ValueError(f"prefix entries must be positive, got {b}")
    return b


def proscriptive_datum(b: Sequence[int], i: int, m: int) -> ProscriptiveDatum:
    """The (i, m) datum of prefix b; i is 0-based and m any positive integer."""
    b = _validate_prefix(b)
    n = len(b) + 2
    if not 0 <= i < len(b):
        raise ValueError(f"index must lie in [0, {len(b) - 1}]")
    if m < 1:
        raise ValueError(f"multiplier must be positive, got {m}")
    ai = b[i]
    s = sum(b) - 1
    g_row = tuple((m * aj - 1) // ai for aj in b)
    f = sum(g_row)
    denom = n - 3 + f
    iv = HalfOpenInterval(Fraction(ai, m), Fraction(s, denom))
    return ProscriptiveDatum(
        index=i, entry=ai, m=m, g_row=g_row, f=f, denom=denom, interval=iv
    )


def nontrivial_data(b: Sequence[int]) -> tuple[ProscriptiveDatum, ...]:
    """All nonempty-interval data, with m capped at a(i) - 1 per entry.

    For m >= a(i) triviality is automatic: the remainder sum over the other
    n - 3 entries is at most (n-3)*a(i) <= m + (n-4)*a(i). That inequality
    (s*m <= a(i)*denom rearranged) decides triviality before any interval.
    """
    b = _validate_prefix(b)
    n = len(b) + 2
    out = []
    for i, ai in enumerate(b):
        others = b[:i] + b[i + 1:]
        for m in range(1, ai):
            if remainder_sum(ai, others, m) > m + (n - 4) * ai:
                out.append(proscriptive_datum(b, i, m))
    return tuple(out)


class PrefixReport(NamedTuple):
    """Outcome of the extension search for one prefix.

    When every datum is trivial the prefix itself is asymptotically hollow
    and arbitrarily large extensions work: unbounded is True and union and
    candidates are absent. Otherwise candidates lists every y >= 2 that
    escapes all dilated intervals and passes the full criterion; trivial
    y = 1 extensions are excluded since the search targets nontrivial
    tuples.
    """

    b: tuple[int, ...]
    s: int
    data: tuple[ProscriptiveDatum, ...]
    unbounded: bool
    horizon: Optional[int]
    union: Optional[RaySummary]
    candidates: Optional[tuple[int, ...]]


def candidate_extensions(b: Sequence[int]) -> PrefixReport:
    """Every nontrivial y such that (b, y) is asymptotically hollow.

    The search horizon is the union's: every integer at or beyond the least
    ray start over the nontrivial data lies in a dilate of that datum's
    interval and is proscribed, so no candidate is missed.
    """
    b = ascending(b)
    s = sum(b) - 1
    data = nontrivial_data(b)
    if not data:
        return PrefixReport(
            b=b, s=s, data=(), unbounded=True, horizon=None, union=None, candidates=None
        )
    union = scaled_union([d.interval for d in data])
    candidates = tuple(
        y
        for y in union.gaps
        if y >= 2 and is_asymptotically_hollow(sorted(b + (y,)))
    )
    return PrefixReport(
        b=b,
        s=s,
        data=data,
        unbounded=False,
        horizon=union.horizon,
        union=union,
        candidates=candidates,
    )
