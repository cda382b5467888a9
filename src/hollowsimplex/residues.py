"""Residues whose multiples keep small shifted remainders.

For integers x, r > 1 the set collects the z in {1, ..., x} with

    rem_pos(x, z*t) <= x - (r-1)*t   for every t <= x/r,

where rem_pos(x, y) is y mod x shifted into {1, ..., x}.

The exempt variant ignores multipliers t at which z*t is divisible by x.
Once x >= r*r the strict set collapses to a three-branch closed form; the
brute force, [1, x] filtered once per multiplier t, checks it over that range.
"""

from __future__ import annotations

STRICT = "strict"
EXEMPT = "exempt"


def _validate(x: int, r: int) -> None:
    if r < 2:
        raise ValueError(f"r must exceed 1, got {r}")
    if x < 2 * r:
        raise ValueError(f"x must be at least 2r = {2 * r}, got {x}")


def bounded_remainder_set(x: int, r: int, variant: str = STRICT) -> tuple[int, ...]:
    """The members, ascending: [1, x] filtered once per multiplier t <= x/r.

    A multiple of x is charged x in the strict variant (so it fails, r >= 2)
    and 0 in the exempt one (so it passes). Until the first multipliers thin
    them out the filter holds O(x) candidates, not just the members (19 MB
    against 14 MB at x = 100000, r = 2), so an unbudgeted huge x fills memory.
    """
    _validate(x, r)
    if variant not in (STRICT, EXEMPT):
        raise ValueError(f"unknown variant {variant!r}")
    zero = x if variant == STRICT else 0
    members = range(1, x + 1)
    for t in range(1, x // r + 1):
        bound = x - (r - 1) * t
        members = [z for z in members if (z * t % x or zero) <= bound]
    return tuple(members)


def closed_form_remainder_set(x: int, r: int) -> tuple[int, ...]:
    """Closed form of the strict set's members under the nominal hypothesis x >= r*r.

    Known defect of the formula inside that range: at (x, r) = (9, 2) and
    (14, 3) the brute-force set carries one extra member, the inverse of r
    mod x (5 in both cases). Exhaustive search confirms agreement at every
    other (x, r) with r <= 8 and x <= 300. The hypothesis is sharp for
    4 <= r <= 8: the formula fails at x = r^2 - 1.
    """
    _validate(x, r)
    if x < r * r:
        raise ValueError(f"closed form requires x >= r^2 = {r * r}, got {x}")
    if x % r != 0:
        return tuple(sorted({1, x - r, x - (r - 1)}))
    if r != 2 or x % 4 == 2:
        return tuple(sorted({1, x - (r - 1)}))
    return tuple(sorted({1, x // 2 - 1, x - 1}))
