"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every check is exact (zero tolerance); expected single-threaded
runtimes are noted per test.
"""

import json
import math
import time
from fractions import Fraction

import oracle
from conftest import run_cli

from hollowsimplex.asymptotic import (
    is_asymptotically_hollow,
    sample_tuples,
    agreement_sweep,
)
from hollowsimplex.classify import (
    classify_triples,
    doubling_family,
    family_identities,
)
from hollowsimplex.residues import bounded_remainder_set, closed_form_remainder_set
from hollowsimplex.simplex import SimplexSpec, is_empty, is_hollow


def _report(num: int, name: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"ACCEPTANCE {num} [{name}]: {status} ({elapsed:.1f}s) {detail}".rstrip())
    assert ok, f"acceptance {num} ({name}) failed {detail}"


def test_acceptance_1_classification():
    """Box (a_max=10, x_max=60) reproduces the paper's triple list exactly."""
    started = time.time()
    got = classify_triples(10, 60)
    sporadic, family_xs = oracle.paper_triples(10, 60)
    ok = list(got.sporadic) == sporadic and list(got.family_xs) == family_xs
    detail = f"sporadic={len(got.sporadic)} family_xs={len(got.family_xs)}"
    _report(1, "classification box (10, 60)", ok, started, detail)


def test_acceptance_2_residue_sets():
    """Brute force equals the closed form for r in [2,8], x in [r^2, 300],
    except the two pinned formula defects (9,2) and (14,3), where the brute
    set carries exactly one extra member, the inverse of r mod x."""
    started = time.time()
    known_defects = {(9, 2), (14, 3)}
    disagreements = {}
    for r in range(2, 9):
        for x in range(r * r, 301):
            brute = bounded_remainder_set(x, r)
            closed = closed_form_remainder_set(x, r)
            if brute != closed:
                disagreements[(x, r)] = (brute, closed)
    ok = set(disagreements) == known_defects
    for (x, r), (brute, closed) in disagreements.items():
        extra = set(brute) - set(closed)
        ok = ok and set(closed) <= set(brute) and len(extra) == 1
        ok = ok and all(z * r % x == 1 for z in extra)
    _report(2, "residue-set closed form sweep", ok, started,
            f"disagreements={sorted(disagreements)} (expected exactly those)")


def test_acceptance_3_criterion_oracle_agreement():
    """200 pseudo-random nontrivial tuples: brute-force hollowness equals the
    criterion, and stays constant, for every N in a 50-wide window past the
    divisibility-robust stabilization point."""
    started = time.time()
    tuples = sample_tuples(200, lengths=(3, 4), low=2, high=12, seed=0)
    report = agreement_sweep(tuples, window=50)
    ok = report.ok and report.tuples_checked == 200 and report.points_checked == 10000
    _report(3, "criterion vs brute force", ok, started,
            f"points={report.points_checked} mismatches={len(report.mismatches)}")


def test_acceptance_4_worked_extension():
    """extend --tuple 29,38,66 returns exactly {2, 3, 11} and the report
    shows the interval [38, 44) and the denominator 13 at (29, m=3)."""
    started = time.time()
    code, out = run_cli(["extend", "--tuple", "29,38,66"])
    doc = json.loads(out)["payload"]
    ok = code == 0 and doc["candidates"] == [2, 3, 11]
    ok = ok and "[38, 44)" in out
    ok = ok and any(
        d["entry"] == 29 and d["m"] == 3 and d["denom"] == 13 for d in doc["data"]
    )
    _report(4, "extension search for 29,38,66", ok, started,
            f"candidates={doc['candidates']}")


def test_acceptance_5_doubling_family():
    """Family members for n = 4..9 pass the criterion and satisfy the four
    congruence identities exactly."""
    started = time.time()
    ok = True
    for n in range(4, 10):
        a = doubling_family(n)
        ok = ok and all(family_identities(a).values())
        ok = ok and is_asymptotically_hollow(a)
    _report(5, "doubling family n=4..9", ok, started)


def test_acceptance_6_hollow_instance():
    """(3,5,7;N) is hollow for every N in [1, 200] and empty whenever N is
    coprime to 3, 5, 7, and 14."""
    started = time.time()
    ok = True
    for n in range(1, 201):
        spec = SimplexSpec((3, 5, 7), n)
        ok = ok and is_hollow(spec)
        coprime = all(math.gcd(n, v) == 1 for v in (3, 5, 7, 14))
        if coprime:
            ok = ok and is_empty(spec)
    _report(6, "hollow family (3,5,7;N)", ok, started)


def test_acceptance_7_pairs():
    """No nontrivial pair passes the criterion, and brute force finds an
    interior point within the guaranteed window."""
    started = time.time()
    ok = True
    for a in range(2, 11):
        for x in range(a, 11):
            ok = ok and not is_asymptotically_hollow((a, x))
            bound = math.ceil(x + Fraction(x * x, a - 1) + x + 1)
            found = any(
                not is_hollow(SimplexSpec((a, x), n)) for n in range(1, bound + 1)
            )
            ok = ok and found
    _report(7, "pairs are never nontrivially hollow", ok, started)


def test_acceptance_8_property_suites():
    """Witness against the full-range reference, shortcut soundness,
    proscription soundness, facet formula vs minors oracle, reflection, the
    neighbor inequality, and the worked width examples: zero
    counterexamples."""
    started = time.time()
    import properties

    failures = {}
    for name, fn in (
        ("witness-reference", properties.witness_reference_counterexamples),
        ("shortcut-soundness", properties.shortcut_soundness_counterexamples),
        ("proscription-soundness", properties.proscription_soundness_counterexamples),
        ("facet-volumes", properties.facet_volume_counterexamples),
        ("reflection", properties.reflection_counterexamples),
        ("neighbor-inequality", properties.neighbor_inequality_counterexamples),
        ("width-examples", properties.width_example_failures),
    ):
        bad = fn()
        if bad:
            failures[name] = bad[:3]
    _report(8, "property suites", not failures, started, f"failures={failures}")


def test_acceptance_oracle_spotcheck():
    """Not a numbered criterion: the k-scan agrees with the box-walking
    membership oracle on the simplices the other criteria lean on."""
    started = time.time()
    ok = True
    for a, d in (((3, 4, 5), 45), ((3, 4, 5), 60), ((3, 5, 7), 30), ((2, 3), 13)):
        interior = [z for z, where in oracle.box_walk(a, d) if where == oracle.INTERIOR]
        ok = ok and (not interior) == is_hollow(SimplexSpec(a, d))
    _report(0, "independent oracle spot check", ok, started)
