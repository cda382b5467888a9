"""Checks of one invocation's exit code and output against `oracle`.

`Checker.verify` sorts an invocation's outcome three ways:

- failed: the program gave no result, i.e. no JSON document, an exit code
  other than 0 or 1, or, for an op marked invalid, anything but exit 2
  with a one-line diagnostic;
- wrong: a result that disagrees with the oracle (a `Mismatch`);
- right.

Exit 1 means "computed, negative verdict"; it is right whenever the
oracle's verdict is negative too. The oracle's answers are computed once
per distinct op and kept, and an output already verified for an op is not
verified again, so later rounds cost almost nothing to check.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import oracle
from oracle import OracleError, frac_text

BOX_LIMIT = 60_000  # largest bounding box walked point by point


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


def need(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def parse_spec(text: str) -> tuple[list[int], int]:
    head, _, tail = text.partition(":")
    return [int(v) for v in head.split(",")], int(tail)


def parse_tuple(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def verdict_code(ok: bool) -> int:
    return 0 if ok else 1


# --- expected answers ---------------------------------------------------------


def lattice_points(a, d, interior_only=False, first=False):
    """Non-vertex points by height: box walk when small, else ceiling scan.

    For small boxes both are computed and must agree.
    """
    box = math.prod(max(1, v) + 1 for v in a) * (d + 1)
    scanned = oracle.scan(a, d, interior_only, first)
    if box <= BOX_LIMIT:
        walked = [p for p in oracle.box_walk(a, d)
                  if not interior_only or p[1] == oracle.INTERIOR]
        if first:
            walked = walked[:1]
        if walked != scanned:
            raise OracleError(f"oracle: box walk and scan disagree on {a}:{d}")
    return scanned


def criterion_applies(a, d) -> bool:
    """Past the robust point, with content 1 and no entry 1, the criterion decides."""
    return min(a) >= 2 and d > oracle.robust_point(a) and oracle.content(list(a) + [d]) == 1


def expect_hollow(op):
    a, d = parse_spec(op.opt("alpha"))
    if criterion_applies(a, d) and oracle.asymptotically_hollow(a):
        return None
    hits = lattice_points(a, d, interior_only=True, first=True)
    if criterion_applies(a, d) and not hits:
        raise OracleError(f"oracle: criterion fails for {a} but {d} scans hollow")
    return hits[0][0] if hits else None


def expect_empty(op):
    """A hollow simplex whose facets all have normalized volume 1 is empty:
    a non-vertex boundary point would lie in a unimodular facet. Otherwise
    the points are searched."""
    a, d = parse_spec(op.opt("alpha"))
    if (criterion_applies(a, d) and oracle.asymptotically_hollow(a)
            and set(oracle.facet_volumes(a, d)) == {1}):
        empty = True
    else:
        empty = not lattice_points(a, d, first=True)
    return empty, oracle.empty_reason(a, d)


def expect_points(op):
    a, d = parse_spec(op.opt("alpha"))
    return lattice_points(a, d)


def expect_extend(op):
    b = sorted(parse_tuple(op.opt("tuple")))
    data = oracle.nontrivial(b)
    if not data:
        return b, data, None, None
    ray, cands = oracle.extensions(b)
    return b, data, ray, cands


def expect_classify(op):
    box = (int(op.opt("a-max")), int(op.opt("x-max")), int(op.opt("min-entry", 2)))
    found = oracle.triples_in_box(*box)
    if found != oracle.paper_triples(*box):
        raise OracleError(f"oracle: criterion and the paper's list disagree in {box}")
    return found


def expect_sset(op):
    x, r = int(op.opt("x")), int(op.opt("r"))
    return oracle.residue_set(x, r, op.opt("variant") == "exempt"), oracle.residue_formula(x, r)


EXPECT = {
    "hollow": expect_hollow,
    "empty": expect_empty,
    "points": expect_points,
    "extend": expect_extend,
    "classify": expect_classify,
    "sset": expect_sset,
}


# --- comparisons --------------------------------------------------------------


def check_point(a, d, doc, expected):
    """One point document, verified by exact barycentric coordinates."""
    z, where = expected
    need(doc["coords"] == list(z), f"point {doc['coords']} expected {list(z)}")
    need(doc["k"] == z[-1], f"point height k={doc['k']} for {z}")
    lam = oracle.barycentric(a, d, z)
    need(oracle.locate(a, d, z) == where == doc["location"],
         f"point {z} tagged {doc['location']}, is {where}")
    need(doc["lambda_sum"] == frac_text(1 - lam[0]), f"lambda_sum of {z}")


def check_hollow(op, exp, p, rc):
    a, d = parse_spec(op.opt("alpha"))
    need(p["hollow"] == (exp is None), f"hollow={p['hollow']}")
    need(rc == verdict_code(exp is None), f"exit {rc}")
    if exp is None:
        need(p["witness"] is None, "witness on a hollow simplex")
    else:
        need(p["witness"] is not None, "no witness")
        check_point(a, d, p["witness"], (exp, oracle.INTERIOR))


def check_empty(op, exp, p, rc):
    empty, reason = exp
    need(p["empty"] is empty, f"empty={p['empty']}")
    need(p["sufficient_reason"] == reason, f"sufficient_reason={p['sufficient_reason']}")
    need(rc == verdict_code(empty), f"exit {rc}")


def check_points(op, exp, p, rc):
    a, d = parse_spec(op.opt("alpha"))
    need(rc == 0, f"exit {rc}")
    need(p["count"] == len(exp) == len(p["points"]), f"count {p['count']} != {len(exp)}")
    need(p["interior_count"] == sum(w == oracle.INTERIOR for _, w in exp), "interior_count")
    for doc, e in zip(p["points"], exp):
        check_point(a, d, doc, e)


def check_facets(op, exp, p, rc):
    a, d = parse_spec(op.opt("alpha"))
    vols = oracle.facet_volumes(a, d)
    need(rc == 0 and p["volumes"] == vols, f"volumes {p['volumes']} != {vols}")
    need(p["cotorsion_oracle"] == vols and p["agrees"] is True, "cotorsion")
    need(p["standard_count"] == vols.count(1), "standard_count")


def check_width(op, exp, p, rc):
    a, d = parse_spec(op.opt("alpha"))
    need(rc == 0, f"exit {rc}")
    sub = oracle.width_one_subset(a, d)
    if sub is None:
        need(p["width_one_subset"] is None and p["functional"] is None, "width-one subset")
    else:
        need(p["width_one_subset"] == list(sub), f"subset {p['width_one_subset']} != {sub}")
        need(sum(a[i] for i in sub) % d in (0, 1), "subset sum")
        need(p["width_one_values"] == [a[i] for i in sub], "width_one_values")
        phi = p["functional"]
        need(len(phi) == len(a) + 1 and oracle.functional_width(a, d, phi) == 1,
             f"functional {phi} has width != 1")
    bound = oracle.width_bound(a, d)
    need(p["upper_bound"] == bound, f"upper_bound {p['upper_bound']} != {bound}")
    need((p["upper_bound_error"] is None) == (bound is not None), "upper_bound_error")


def check_asym(op, exp, p, rc):
    a = sorted(parse_tuple(op.opt("tuple")))
    hollow = oracle.asymptotically_hollow(a)
    half = oracle.first_half_failure(a)
    if (half is None) != hollow:
        raise OracleError(f"oracle: half and full ranges disagree on {a}")
    need(p["tuple"] == a, "tuple")
    need(p["asymptotically_hollow"] is hollow, f"verdict {p['asymptotically_hollow']}")
    need(rc == verdict_code(hollow), f"exit {rc}")
    w = p["witness"]
    if hollow:
        need(w is None, "witness on a hollow tuple")
        return
    i, t = half
    lhs, rhs = oracle.criterion_sides(a, i, t)
    need(w == {"index": i, "entry": a[i], "t": t, "lhs": lhs, "rhs": rhs},
         f"witness {w} expected (i={i}, t={t})")
    need(1 <= w["t"] <= w["entry"] // 2 and lhs > rhs, "witness does not fail")


def check_thresholds(op, exp, p, rc):
    m, big_m = oracle.thresholds(parse_tuple(op.opt("tuple")))
    need(rc == 0 and (p["m_bound"], p["M_bound"], p["C"]) == (m, big_m, max(m, big_m)),
         f"thresholds {p}")


def datum_doc(dt) -> dict:
    return {
        "index": dt["index"], "entry": dt["entry"], "m": dt["m"], "g_row": dt["g_row"],
        "f": dt["f"], "denom": dt["denom"],
        "interval": {"lo": frac_text(dt["lo"]), "hi": frac_text(dt["hi"]),
                     "text": f"[{dt['lo']}, {dt['hi']})"},
        "trivial": dt["trivial"],
    }


def check_data(got, data):
    need(len(got) == len(data), f"{len(got)} data, expected {len(data)}")
    for doc, dt in zip(got, data):
        need(doc == datum_doc(dt), f"datum {doc} expected {datum_doc(dt)}")


def check_proscribe(op, exp, p, rc):
    b = parse_tuple(op.opt("tuple"))
    need(rc == 0 and p["s"] == sum(b) - 1, "s")
    if op.opt("index") is not None:
        i, m = int(op.opt("index")), int(op.opt("multiplier"))
        dt = oracle.datum(b, i, m)
        if dt["trivial"] != oracle.trivial_by_remainders(b, i, m):
            raise OracleError(f"oracle: triviality forms disagree at {b}, {i}, {m}")
        check_data(p["data"], [dt])
    else:
        data = oracle.nontrivial(b)
        need(p["nontrivial_count"] == len(data), "nontrivial_count")
        check_data(p["data"], data)


def check_extend(op, exp, p, rc):
    # The `horizon` field is deliberately not checked: any horizon at or past
    # the ray start is correct, and a better search shrinks it.
    b, data, ray, cands = exp
    need(rc == 0 and p["prefix"] == b and p["s"] == sum(b) - 1, "prefix")
    check_data(p["data"], data)
    need(p["unbounded"] is (not data), f"unbounded={p['unbounded']}")
    if not data:
        need(p["candidates"] is None and p["ray_start"] is None, "unbounded prefix")
        return
    need(p["ray_start"] == frac_text(ray), f"ray_start {p['ray_start']} != {ray}")
    got = p["candidates"]
    for y in got:
        need(2 <= y < ray and oracle.asymptotically_hollow(b + [y]), f"candidate {y} fails")
    need(got == cands, f"candidates {got} != {cands}")


def check_classify(op, exp, p, rc):
    sporadic, family = exp
    need(p["sporadic"] == [list(t) for t in sporadic], "sporadic triples")
    need(p["family_xs"] == family, "family_xs")
    need(p["matches_reference"] is True and rc == 0, "matches_reference")


def check_family(op, exp, p, rc):
    n = int(op.opt("n"))
    a = oracle.doubling_family(n)
    ids = oracle.family_identities(a)
    need(all(ids.values()), f"oracle: identities fail at n={n}")
    need(p["tuple"] == a, f"tuple {p['tuple']}")
    need({k: p[k] for k in ids} == ids, "identities")
    need(p["asymptotically_hollow"] is True and rc == 0, "asymptotically_hollow")
    if n <= 9 and not oracle.asymptotically_hollow(a):
        raise OracleError(f"oracle: criterion fails on the family at n={n}")


def check_sset(op, exp, p, rc):
    x, r = int(op.opt("x")), int(op.opt("r"))
    brute, closed = exp
    method = op.opt("method", "brute")
    need(p["members"] == (closed if method == "closed" else brute), "members")
    if method != "both":
        need(rc == 0, f"exit {rc}")
        return
    agrees = brute == closed
    need(p["closed_form"] == closed and p["agrees"] is agrees, "closed_form")
    need(rc == verdict_code(agrees), f"exit {rc}")
    if (x, r) in oracle.RESIDUE_DEFECTS:
        extra = set(brute) - set(closed)
        need(set(closed) <= set(brute) and len(extra) == 1
             and extra.pop() * r % x == 1, "pinned defect")
    else:
        need(agrees, f"closed form disagrees at ({x}, {r})")


def check_agree(op, exp, p, rc):
    count, window = int(op.opt("count", 200)), int(op.opt("window", 50))
    need(p["ok"] is True and p["mismatches"] == [] and rc == 0, "criterion mismatch")
    need(p["tuples_checked"] == count, "tuples_checked")
    need(p["points_checked"] == count * window, "points_checked")


CHECKS = {
    "hollow": check_hollow, "empty": check_empty, "points": check_points,
    "facets": check_facets, "width": check_width, "asym": check_asym,
    "thresholds": check_thresholds, "proscribe": check_proscribe,
    "extend": check_extend, "classify": check_classify, "family": check_family,
    "sset": check_sset, "agree": check_agree,
}


class Checker:
    """Verifies outcomes, keeping expected answers and verified outputs."""

    def __init__(self) -> None:
        self._expected: dict = {}
        self._verified: set = set()

    def expected(self, op):
        if op not in self._expected:
            fn = EXPECT.get(op.cmd)
            self._expected[op] = fn(op) if fn else None
        return self._expected[op]

    def verify(self, op, rc: int, out: str, err: str) -> tuple[bool, Optional[str]]:
        """(failed, problem); problem is None when the output is right."""
        if op.invalid:
            lines = err.strip().splitlines()
            refused = rc == 2 and not out.strip() and len(lines) == 1
            return not refused, None
        key = (op, rc, out)
        if key in self._verified:
            return False, None
        try:
            doc = json.loads(out)
        except ValueError:
            return True, None
        if rc not in (0, 1) or not isinstance(doc, dict) or "payload" not in doc:
            return True, None
        try:
            need(doc.get("command") == op.cmd, "command")
            CHECKS[op.cmd](op, self.expected(op), doc["payload"], rc)
        except (Mismatch, OracleError) as exc:
            return False, f"{' '.join(op.argv)}: {exc}"
        except (KeyError, TypeError, IndexError) as exc:
            return False, f"{' '.join(op.argv)}: malformed output ({exc!r})"
        self._verified.add(key)
        return False, None


def corruptions(op, out: str):
    """(name, corrupted stdout) pairs that a correct check must reject."""
    p = json.loads(out)["payload"]
    edits = []
    if op.cmd == "classify" and p.get("sporadic"):
        edits.append(("dropped triple", lambda q: q["sporadic"].pop()))
    if op.cmd == "extend" and p.get("candidates") is not None:
        extra = next(y for y in range(2, 10**6) if y not in p["candidates"])
        edits.append(("extra candidate",
                      lambda q: q.update(candidates=sorted(q["candidates"] + [extra]))))
    if op.cmd == "hollow" and p.get("witness"):
        edits.append(("moved witness point", lambda q: move(q["witness"])))
    if op.cmd == "points" and p.get("points"):
        edits.append(("moved witness point", lambda q: move(q["points"][0])))
    flips = [k for k in ("hollow", "empty", "asymptotically_hollow", "agrees", "ok",
                         "matches_reference") if isinstance(p.get(k), bool)]
    if flips:
        edits.append(("flipped verdict", lambda q: q.update({flips[0]: not q[flips[0]]})))
    found = []
    for name, edit in edits:
        doc = json.loads(out)
        edit(doc["payload"])
        found.append((name, json.dumps(doc, indent=2) + "\n"))
    return found


def move(point: dict) -> None:
    """Shift a reported lattice point by one unit in its first coordinate."""
    point["coords"][0] += 1
