"""Proscriptive intervals: where an extension entry can never live.

Fix a prefix b = (a(1), ..., a(n-2)) with at least two entries and ask which
integers y make (b, y) asymptotically hollow. For every entry index i and
multiplier m the data below produce a rational interval whose positive
integer dilates are all forbidden to y. Only finitely many (i, m) give a
nonempty interval, and each nonempty interval's dilates swallow an infinite
ray, so the surviving y form a finite, explicitly computable set which the
full criterion then filters.

The search runs on integers: a nontrivial datum (i, m) is a criterion
failure of b at entry a(i) with multiplier m, kept as a row (i, m, e) with
e = lhs - rhs > 0, and it proscribes y exactly when
y*e > s*(y*m mod a(i)). `fractions` is loaded only for the records built
here, each rational once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .asymptotic import ascending, criterion_failures, entries, is_asymptotically_hollow

if TYPE_CHECKING:
    from fractions import Fraction


class HalfOpenInterval(NamedTuple):
    """Rational interval [lo, hi); empty exactly when hi <= lo."""

    lo: Fraction
    hi: Fraction

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


class ProscriptiveDatum(NamedTuple):
    """Interval data for one (entry index, multiplier) pair of a prefix.

    g_row[j] counts the fractions a(j)/k strictly above a(i)/m, i.e.
    floor((m*a(j) - 1)/a(i)); f is its sum over j and denom = n - 3 + f with
    n the ambient dimension once the extension entry is appended. The base
    interval is [a(i)/m, s/denom) with s = sum(b) - 1; it is nonempty
    exactly when b fails the criterion at entry a(i) with multiplier m.
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


def _datum(b: tuple[int, ...], i: int, m: int) -> ProscriptiveDatum:
    from fractions import Fraction

    g_row = tuple((m * aj - 1) // b[i] for aj in b)
    f = sum(g_row)
    denom = len(b) - 1 + f
    iv = HalfOpenInterval(Fraction(b[i], m), Fraction(sum(b) - 1, denom))
    return ProscriptiveDatum(i, b[i], m, g_row, f, denom, iv)


def proscriptive_datum(b: Sequence[int], i: int, m: int) -> ProscriptiveDatum:
    """The (i, m) datum of prefix b; i is 0-based and m any positive integer."""
    b = entries(b)
    if not 0 <= i < len(b):
        raise ValueError(f"index must lie in [0, {len(b) - 1}]")
    if m < 1:
        raise ValueError(f"multiplier must be positive, got {m}")
    return _datum(b, i, m)


def nontrivial_data(b: Sequence[int]) -> tuple[ProscriptiveDatum, ...]:
    """All nonempty-interval data, in the order of b and then of m < a(i)."""
    b = entries(b)
    return tuple(_datum(b, i, m) for i, _, m, _, _ in criterion_failures(b, half=False))


def extension_search(b: tuple[int, ...], lo: int = 1, hi: float = math.inf) -> tuple:
    """(rows, ray, gaps, candidates) of a tuple b of positive entries.

    rows: (i, m, e) of each criterion failure of b with m < a(i), e = lhs -
    rhs: the nontrivial data. ray: their least ray start as the exact pair
    ((ceil(m*s/e) - 1)*a(i), m), compared by cross-multiplication. gaps:
    the integers in the window [lo, min(ceil(ray), hi)] that no row
    proscribes (every gap by default). candidates: the gaps y >= 2 with
    (b, y) asymptotically hollow. All but rows are None when b has no
    failure (b itself is hollow).

    A row proscribes y exactly when y*e > s*(y*m mod a(i)). Proof: the
    dilates t*[a(i)/m, s/denom) grow with t at both ends, so y lies in one
    exactly when it lies in that of T = y*m // a(i), the largest t with
    t*a(i)/m <= y: when y*denom < T*s. As m*a(j) = a(i)*g_row[j] +
    rem_pos(a(i), m*a(j)) for every j and g_row[i] = m - 1, a(i)*denom =
    m*s - e for every (i, m), so e > 0 exactly for the nontrivial data.
    With r = y*m mod a(i) = y*m - T*a(i), y*denom < T*s times a(i) reads
    y*(m*s - e) < (y*m - r)*s, that is y*e > r*s. T = 0 needs no case: then
    r = y*m, and e < m*s proscribes nothing. The dilate of t reaches the
    next one, t*s/denom >= (t+1)*a(i)/m, exactly when t*e >= a(i)*denom,
    so from t0 = ceil(a(i)*denom/e) = ceil(m*s/e) - 1 on they cover the
    ray [t0*a(i)/m, oo).
    """
    rows = [(i, m, lhs - rhs) for i, _, m, lhs, rhs in criterion_failures(b, half=False)]
    if not rows:
        return rows, None, None, None
    s = sum(b) - 1
    num, den = 1, 0  # +oo: the first row's ray replaces it
    for i, m, e in rows:
        if (ray := (-(-m * s // e) - 1) * b[i]) * den < num * m:
            num, den = ray, m
    gaps = range(lo, min(-(-num // den), hi) + 1)
    for i, m, e in rows:
        ai = b[i]
        gaps = [y for y in gaps if y * e <= s * (y * m % ai)]
    hollow = [y for y in gaps if y >= 2 and is_asymptotically_hollow(sorted(b + (y,)))]
    return rows, (num, den), tuple(gaps), tuple(hollow)


class PrefixReport(NamedTuple):
    """Outcome of the extension search for one prefix.

    When every datum is trivial the prefix itself is asymptotically hollow
    and arbitrarily large extensions work: unbounded is True and horizon,
    ray_start, gaps and candidates are None. Otherwise every integer from
    ray_start on lies in a dilate, horizon = ceil(ray_start) is the last
    integer searched, gaps are the integers in [1, horizon] that no dilate
    covers, and candidates lists every gap y >= 2 that passes the full
    criterion; trivial y = 1 extensions are excluded since the search
    targets nontrivial tuples.
    """

    b: tuple[int, ...]
    s: int
    data: tuple[ProscriptiveDatum, ...]
    unbounded: bool
    horizon: Optional[int]
    ray_start: Optional[Fraction]
    gaps: Optional[tuple[int, ...]]
    candidates: Optional[tuple[int, ...]]


def candidate_extensions(b: Sequence[int]) -> PrefixReport:
    """Every nontrivial y such that (b, y) is asymptotically hollow.

    The search horizon is the least ray start over the nontrivial data:
    every integer at or beyond it lies in a dilate of that datum's interval
    and is proscribed, so no candidate is missed.
    """
    from fractions import Fraction

    b = ascending(b)
    rows, ray, gaps, candidates = extension_search(b)
    return PrefixReport(
        b=b, s=sum(b) - 1, data=tuple(_datum(b, i, m) for i, m, _ in rows),
        unbounded=ray is None, horizon=None if ray is None else -(-ray[0] // ray[1]),
        ray_start=None if ray is None else Fraction(*ray), gaps=gaps, candidates=candidates,
    )
