"""Command-line surface: every operation, machine-readable output.

One structured document per invocation on stdout, diagnostics on stderr.
Exit codes: 0 computed, 1 computed with a negative verdict (for scripting),
2 invalid input or a computation that could not finish (out of memory,
recursion limit, internal error), with a one-line diagnostic. Output is
byte-identical across repeated invocations; rationals are printed as exact
"p/q" strings, never floats.

Each handler imports the submodules it computes with, so a launch loads
only what its subcommand runs and building the parser loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from .arith import HalfOpenInterval
    from .asymptotic import CriterionWitness
    from .proscriptive import ProscriptiveDatum
    from .simplex import LatticePointReport


def _frac(value: Fraction) -> str:
    num, den = value.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def _interval_doc(iv: HalfOpenInterval) -> dict[str, Any]:
    return {"lo": _frac(iv.lo), "hi": _frac(iv.hi), "text": str(iv)}


def parse_tuple(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed tuple {text!r}") from exc
    if len(values) < 2:
        raise ValueError(f"tuple needs at least two entries, got {text!r}")
    if any(v < 1 for v in values):
        raise ValueError(f"tuple entries must be positive, got {text!r}")
    return values


def tuple_str(a: Sequence[int]) -> str:
    return ",".join(str(v) for v in a)


def _point_doc(p: LatticePointReport) -> dict[str, Any]:
    return {
        "k": p.k,
        "coords": list(p.coords),
        "location": p.location,
        "lambda_sum": _frac(p.lambda_sum),
    }


def _witness_doc(w: CriterionWitness) -> dict[str, Any]:
    return {"index": w.index, "entry": w.entry, "t": w.t, "lhs": w.lhs, "rhs": w.rhs}


def _datum_doc(d: ProscriptiveDatum) -> dict[str, Any]:
    return {
        "index": d.index,
        "entry": d.entry,
        "m": d.m,
        "g_row": list(d.g_row),
        "f": d.f,
        "denom": d.denom,
        "interval": _interval_doc(d.interval),
        "trivial": d.trivial,
    }


def _cmd_hollow(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    hit = simplex.first_interior_point(spec)
    payload = {
        "hollow": hit is None,
        "witness": None if hit is None else _point_doc(hit),
    }
    return {"alpha": str(spec)}, payload, hit is None


def _cmd_empty(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    verdict = simplex.is_empty(spec)
    payload = {
        "empty": verdict,
        "sufficient_reason": simplex.empty_sufficient(spec),
    }
    return {"alpha": str(spec)}, payload, verdict


def _cmd_points(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    pts = simplex.enumerate_non_extreme_points(spec)
    payload = {
        "count": len(pts),
        "interior_count": sum(1 for p in pts if p.location == simplex.INTERIOR),
        "points": [_point_doc(p) for p in pts],
    }
    return {"alpha": str(spec)}, payload, None


def _cmd_facets(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    fv = simplex.facet_volumes(spec)
    cots = [simplex.facet_cotorsion(spec, i) for i in range(spec.dimension + 1)]
    payload = {
        "volumes": list(fv.volumes),
        "standard_count": fv.standard_count,
        "cotorsion_oracle": cots,
        "agrees": list(fv.volumes) == cots,
    }
    return {"alpha": str(spec)}, payload, None


def _cmd_width(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    subset = simplex.width_one(spec)
    payload: dict[str, Any] = {
        "width_one_subset": None if subset is None else list(subset),
        "width_one_values": None if subset is None else [spec.a[i] for i in subset],
        "functional": None
        if subset is None
        else list(simplex.width_one_functional(spec, subset)),
    }
    try:
        payload["upper_bound"] = simplex.width_upper_bound(spec)
        payload["upper_bound_error"] = None
    except simplex.EdgePointError as exc:
        payload["upper_bound"] = None
        payload["upper_bound_error"] = str(exc)
    return {"alpha": str(spec)}, payload, None


def _cmd_asym(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import asymptotic

    a = parse_tuple(args.tuple)
    witness = asymptotic.criterion_witness(a)
    payload = {
        "tuple": list(asymptotic.ascending(a)),
        "asymptotically_hollow": witness is None,
        "witness": None if witness is None else _witness_doc(witness),
    }
    return {"tuple": tuple_str(a)}, payload, witness is None


def _cmd_thresholds(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import asymptotic

    a = parse_tuple(args.tuple)
    th = asymptotic.stability_thresholds(a)
    payload = {"m_bound": th.m_bound, "M_bound": th.M_bound, "C": th.C}
    return {"tuple": tuple_str(a)}, payload, None


def _cmd_proscribe(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import proscriptive

    b = parse_tuple(args.tuple)
    echo = {"tuple": tuple_str(b)}
    if (args.index is None) != (args.multiplier is None):
        raise ValueError("--index and --multiplier must be given together")
    if args.index is not None:
        if not 0 <= args.index < len(b):
            raise ValueError(f"index must lie in [0, {len(b) - 1}]")
        datum = proscriptive.proscriptive_datum(b, args.index, args.multiplier)
        echo.update({"index": args.index, "multiplier": args.multiplier})
        return echo, {"s": sum(b) - 1, "data": [_datum_doc(datum)]}, None
    data = proscriptive.nontrivial_data(b)
    payload = {"s": sum(b) - 1, "nontrivial_count": len(data), "data": [_datum_doc(d) for d in data]}
    return echo, payload, None


def _cmd_extend(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import proscriptive

    b = parse_tuple(args.tuple)
    report = proscriptive.candidate_extensions(b)
    union, candidates = report.union, report.candidates
    payload = {
        "prefix": list(report.b),
        "s": report.s,
        "unbounded": report.unbounded,
        "data": [_datum_doc(d) for d in report.data],
        "horizon": report.horizon,
        "ray_start": None if union is None else _frac(union.ray_start),
        "candidates": None if candidates is None else list(candidates),
    }
    return {"tuple": tuple_str(b)}, payload, None


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import classify

    result = classify.classify_triples(
        args.a_max, args.x_max, min_entry=args.min_entry, threads=args.threads
    )
    payload: dict[str, Any] = {
        "sporadic": [list(t) for t in result.sporadic],
        "family_xs": list(result.family_xs),
    }
    verdict: Optional[bool] = None
    if args.check:
        expected = classify.reference_triples(args.x_max, min_entry=args.min_entry)
        expected_sporadic = tuple(t for t in expected.sporadic if t[0] <= args.a_max)
        verdict = (
            result.sporadic == expected_sporadic
            and result.family_xs == expected.family_xs
        )
        payload["matches_reference"] = verdict
    echo = {
        "a_max": args.a_max,
        "x_max": args.x_max,
        "min_entry": args.min_entry,
    }
    return echo, payload, verdict


def _cmd_family(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import classify

    a = classify.doubling_family(args.n)
    checks = classify.verify_family(args.n)
    payload = {"tuple": list(a), **checks}
    return {"n": args.n}, payload, all(checks.values())


def _cmd_sset(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import residues

    echo = {"x": args.x, "r": args.r, "variant": args.variant, "method": args.method}
    payload: dict[str, Any] = {}
    verdict: Optional[bool] = None
    if args.method in ("brute", "both"):
        payload["members"] = list(
            residues.bounded_remainder_set(args.x, args.r, args.variant).members
        )
    if args.method in ("closed", "both"):
        if args.variant != residues.STRICT:
            raise ValueError("closed form exists only for the strict variant")
        payload["closed_form"] = list(
            residues.closed_form_remainder_set(args.x, args.r).members
        )
    if args.method == "both":
        verdict = payload["members"] == payload["closed_form"]
        payload["agrees"] = verdict
    if args.method == "closed":
        payload["members"] = payload.pop("closed_form")
    return echo, payload, verdict


def _cmd_agree(args: argparse.Namespace) -> tuple[dict, dict, Optional[bool]]:
    from . import asymptotic

    tuples = asymptotic.sample_tuples(
        args.count,
        lengths=tuple(range(args.min_len, args.max_len + 1)),
        low=args.low,
        high=args.high,
        seed=args.seed,
    )
    report = asymptotic.agreement_sweep(tuples, window=args.window, threads=args.threads)
    payload = {
        "tuples_checked": report.tuples_checked,
        "points_checked": report.points_checked,
        "mismatches": [
            {
                "tuple": list(m.a),
                "N": m.big_n,
                "criterion": m.criterion,
                "brute_force": m.brute_force,
            }
            for m in report.mismatches
        ],
        "ok": report.ok,
    }
    echo = {
        "count": args.count,
        "min_len": args.min_len,
        "max_len": args.max_len,
        "low": args.low,
        "high": args.high,
        "window": args.window,
        "seed": args.seed,
    }
    return echo, payload, report.ok


_HANDLERS = {
    "hollow": _cmd_hollow,
    "empty": _cmd_empty,
    "points": _cmd_points,
    "facets": _cmd_facets,
    "width": _cmd_width,
    "asym": _cmd_asym,
    "thresholds": _cmd_thresholds,
    "proscribe": _cmd_proscribe,
    "extend": _cmd_extend,
    "classify": _cmd_classify,
    "family": _cmd_family,
    "sset": _cmd_sset,
    "agree": _cmd_agree,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hollowsimplex",
        description="Exact decisions about hollow lattice simplices and "
        "asymptotically hollow tuples.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "table"), default="json",
        help="output serialization (default json)",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="include elapsed_ms in the output (breaks byte-identical reruns)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text)

    p = add("hollow", "decide hollowness of a simplex a1,...:d")
    p.add_argument("--alpha", required=True, help="simplex spec, e.g. 3,5,7:30")

    p = add("empty", "decide emptiness of a simplex")
    p.add_argument("--alpha", required=True)

    p = add("points", "list all non-extreme lattice points")
    p.add_argument("--alpha", required=True)

    p = add("facets", "facet volumes plus the minors-gcd cross-check")
    p.add_argument("--alpha", required=True)

    p = add("width", "width-one witness and the reduced-row upper bound")
    p.add_argument("--alpha", required=True)

    p = add("asym", "decide asymptotic hollowness of a tuple")
    p.add_argument("--tuple", required=True, help="comma-separated entries, e.g. 6,10,15")

    p = add("thresholds", "stabilization thresholds of a tuple")
    p.add_argument("--tuple", required=True)

    p = add("proscribe", "proscriptive interval data for a prefix tuple")
    p.add_argument("--tuple", required=True)
    p.add_argument("--index", type=int, default=None, help="entry index (0-based)")
    p.add_argument("--multiplier", type=int, default=None)

    p = add("extend", "search extension values keeping a prefix asymptotically hollow")
    p.add_argument("--tuple", required=True)

    p = add("classify", "search a box for asymptotically hollow triples")
    p.add_argument("--a-max", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True)
    p.add_argument("--min-entry", type=int, default=2)
    p.add_argument("--check", action="store_true",
                   help="compare against the known reference list")
    p.add_argument("--threads", type=int, default=1)

    p = add("family", "the doubling family member for ambient dimension n")
    p.add_argument("--n", type=int, required=True)

    p = add("sset", "residues with bounded remainders under all multipliers")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    # residues.STRICT and residues.EXEMPT, spelled out so that building the
    # parser imports no compute module
    p.add_argument("--variant", choices=("strict", "exempt"), default="strict")
    p.add_argument("--method", choices=("brute", "closed", "both"), default="brute")

    p = add("agree", "criterion versus brute force over sampled tuples")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--low", type=int, default=2)
    p.add_argument("--high", type=int, default=12)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)

    return parser


def _render_csv(doc: dict[str, Any]) -> str:
    lines = ["key,value"]

    def scalar(value: Any) -> str:
        text = json.dumps(value) if not isinstance(value, str) else value
        if any(c in text for c in ",\"\n"):
            return '"' + text.replace('"', '""') + '"'
        return text

    tables: list[tuple[str, list[dict]]] = []
    for section in ("command", "input", "payload", "elapsed_ms"):
        if section not in doc:
            continue
        value = doc[section]
        if not isinstance(value, dict):
            lines.append(f"{section},{scalar(value)}")
            continue
        for key, item in value.items():
            if isinstance(item, list) and item and all(isinstance(e, dict) for e in item):
                tables.append((f"{section}.{key}", item))
            else:
                lines.append(f"{section}.{key},{scalar(item)}")
    for name, records in tables:
        lines.append("")
        lines.append(name)
        headers = list(records[0].keys())
        lines.append(",".join(headers))
        for rec in records:
            lines.append(",".join(scalar(rec.get(h)) for h in headers))
    return "\n".join(lines) + "\n"


def _render_table(doc: dict[str, Any]) -> str:
    lines = []

    def emit(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                emit(f"{prefix}.{key}" if prefix else key, item)
        elif isinstance(value, list) and value and all(isinstance(e, dict) for e in value):
            headers = list(value[0].keys())
            widths = [
                max(len(h), *(len(json.dumps(r.get(h), default=str)) for r in value))
                for h in headers
            ]
            lines.append(f"{prefix}:")
            lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for rec in value:
                lines.append(
                    "  "
                    + "  ".join(
                        json.dumps(rec.get(h), default=str).ljust(w)
                        for h, w in zip(headers, widths)
                    )
                )
        else:
            lines.append(f"{prefix}: {json.dumps(value, default=str)}")

    emit("", doc)
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    started = time.monotonic()
    try:
        echo, payload, verdict = handler(args)
    except (ValueError, MemoryError, RecursionError, RuntimeError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    doc: dict[str, Any] = {"command": args.command, "input": echo, "payload": payload}
    if args.timing:
        doc["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    elif args.format == "csv":
        sys.stdout.write(_render_csv(doc))
    else:
        sys.stdout.write(_render_table(doc))
    return 0 if verdict in (None, True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
