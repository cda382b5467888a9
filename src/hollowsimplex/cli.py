"""Command-line surface: every operation, machine-readable output.

One structured document per invocation on stdout, diagnostics on stderr.
Exit codes: 0 computed, 1 computed with a negative verdict (for scripting),
2 a usage error, invalid input or a computation that could not finish (out
of memory, recursion limit, internal error), with a one-line diagnostic.
Output is byte-identical across repeated invocations; rationals are printed
as exact "p/q" strings, never floats.

Arguments are read against the tables GLOBAL_OPTIONS and COMMANDS: global
options, the command, then its options, as `--name value` or `--name=value`;
the last of a repeated option wins and no abbreviation is accepted. Each
handler imports the submodules it computes with, so a launch loads only what
its subcommand runs and parsing loads none of them; the csv and table output
and the help text live in `render`, which a json launch does not load.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

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


def _cmd_hollow(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    hit = simplex.first_interior_point(spec)
    payload = {
        "hollow": hit is None,
        "witness": None if hit is None else _point_doc(hit),
    }
    return {"alpha": str(spec)}, payload, hit is None


def _cmd_empty(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    verdict = simplex.is_empty(spec)
    payload = {
        "empty": verdict,
        "sufficient_reason": simplex.empty_sufficient(spec),
    }
    return {"alpha": str(spec)}, payload, verdict


def _cmd_points(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
    from . import simplex

    spec = simplex.SimplexSpec.parse(args.alpha)
    pts = simplex.enumerate_non_extreme_points(spec)
    payload = {
        "count": len(pts),
        "interior_count": sum(1 for p in pts if p.location == simplex.INTERIOR),
        "points": [_point_doc(p) for p in pts],
    }
    return {"alpha": str(spec)}, payload, None


def _cmd_facets(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


def _cmd_width(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


def _cmd_asym(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
    from . import asymptotic

    a = parse_tuple(args.tuple)
    witness = asymptotic.criterion_witness(a)
    payload = {
        "tuple": list(asymptotic.ascending(a)),
        "asymptotically_hollow": witness is None,
        "witness": None if witness is None else _witness_doc(witness),
    }
    return {"tuple": tuple_str(a)}, payload, witness is None


def _cmd_thresholds(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
    from . import asymptotic

    a = parse_tuple(args.tuple)
    th = asymptotic.stability_thresholds(a)
    payload = {"m_bound": th.m_bound, "M_bound": th.M_bound, "C": th.C}
    return {"tuple": tuple_str(a)}, payload, None


def _cmd_proscribe(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


def _cmd_extend(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


def _cmd_classify(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


def _cmd_family(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
    from . import classify

    a = classify.doubling_family(args.n)
    checks = classify.verify_family(args.n)
    payload = {"tuple": list(a), **checks}
    return {"n": args.n}, payload, all(checks.values())


def _cmd_sset(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


def _cmd_agree(args: SimpleNamespace) -> tuple[dict, dict, Optional[bool]]:
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


# Each command maps to (handler, help text, options). An option is (type,
# default): the type is int, str, a tuple of choices, or bool for a flag, and
# the default REQUIRED makes the option required.
REQUIRED = object()
_SPEC = {"alpha": (str, REQUIRED)}
_TUPLE = {"tuple": (str, REQUIRED)}

GLOBAL_OPTIONS = {"format": (("json", "csv", "table"), "json"), "timing": (bool, False)}
COMMANDS = {
    "hollow": (_cmd_hollow, "decide hollowness of a simplex a1,...:d, e.g. 3,5,7:30", _SPEC),
    "empty": (_cmd_empty, "decide emptiness of a simplex", _SPEC),
    "points": (_cmd_points, "list all non-extreme lattice points", _SPEC),
    "facets": (_cmd_facets, "facet volumes plus the minors-gcd cross-check", _SPEC),
    "width": (_cmd_width, "width-one witness and the reduced-row upper bound", _SPEC),
    "asym": (_cmd_asym, "decide asymptotic hollowness of a tuple, e.g. 6,10,15", _TUPLE),
    "thresholds": (_cmd_thresholds, "stabilization thresholds of a tuple", _TUPLE),
    "proscribe": (
        _cmd_proscribe, "proscriptive interval data for a prefix tuple; --index is 0-based",
        {**_TUPLE, "index": (int, None), "multiplier": (int, None)},
    ),
    "extend": (
        _cmd_extend, "search extension values keeping a prefix asymptotically hollow", _TUPLE,
    ),
    "classify": (
        _cmd_classify, "search a box for asymptotically hollow triples; --check compares "
        "against the known reference list",
        {"a-max": (int, REQUIRED), "x-max": (int, REQUIRED), "min-entry": (int, 2),
         "check": (bool, False), "threads": (int, 1)},
    ),
    "family": (
        _cmd_family, "the doubling family member for ambient dimension n", {"n": (int, REQUIRED)},
    ),
    # the choices of --variant are residues.STRICT and residues.EXEMPT, spelled
    # out so that parsing imports no compute module
    "sset": (
        _cmd_sset, "residues with bounded remainders under all multipliers",
        {"x": (int, REQUIRED), "r": (int, REQUIRED), "variant": (("strict", "exempt"), "strict"),
         "method": (("brute", "closed", "both"), "brute")},
    ),
    "agree": (
        _cmd_agree, "criterion versus brute force over sampled tuples",
        {"count": (int, 200), "min-len": (int, 3), "max-len": (int, 4), "low": (int, 2),
         "high": (int, 12), "window": (int, 50), "seed": (int, 0), "threads": (int, 1)},
    ),
}


def _value(name: str, kind: Any, text: str) -> Any:
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"--{name}: invalid int value {text!r}") from None
    if kind is not str and text not in kind:
        raise ValueError(f"--{name}: invalid choice {text!r} (choose from {', '.join(kind)})")
    return text


def parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments read against the tables, or None when -h/--help asks for help.

    A usage error raises ValueError with a one-line message.
    """
    command, table, values = None, GLOBAL_OPTIONS, {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("--"):
            if command is not None:
                raise ValueError(f"unexpected argument {token!r}")
            if token not in COMMANDS:
                raise ValueError(f"unknown command {token!r} (choose from {', '.join(COMMANDS)})")
            command, table = token, COMMANDS[token][2]
            continue
        name, given, text = token[2:].partition("=")
        if name not in table:
            where = f"for command {command}" if command else "before the command"
            raise ValueError(f"unknown option --{name} {where}")
        kind = table[name][0]
        if kind is bool:
            if given:
                raise ValueError(f"--{name} takes no value")
            values[name] = True
            continue
        if not given:
            text = next(tokens, "--")
            if text.startswith("--"):
                raise ValueError(f"--{name} needs a value")
        values[name] = _value(name, kind, text)
    if command is None:
        raise ValueError(f"no command given (choose from {', '.join(COMMANDS)})")
    for name, (kind, default) in {**GLOBAL_OPTIONS, **COMMANDS[command][2]}.items():
        if name not in values:
            if default is REQUIRED:
                raise ValueError(f"command {command} needs --{name}")
            values[name] = default
    return SimpleNamespace(command=command,
                           **{name.replace("-", "_"): v for name, v in values.items()})


def build_parser():
    """The argument parser: parse_args, with nothing to build, as the tables are its state."""
    return parse_args


def _render_json(doc: dict[str, Any]) -> Iterator[str]:
    yield from json.JSONEncoder(indent=2).iterencode(doc)
    yield "\n"


_BATCH = 1 << 16


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout in batches of at most _BATCH bytes, each in full.

    The bytes go to the binary layer, when stdout has one, and a short write
    is continued: the write-through text layer of an unbuffered stdout drops
    the rest of a short write, so a closed pipe would pass unseen. The text
    is never held whole.
    """
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:  # an in-memory text stream takes any length whole
        out.writelines(pieces)
        return
    out.flush()

    def send(text: str) -> None:
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[binary.write(data[:_BATCH]):]

    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            send("".join(batch))
            batch, size = [], 0
    send("".join(batch))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            from .render import help_text

            _write(help_text())
            return 0
        started = time.monotonic()
        echo, payload, verdict = COMMANDS[args.command][0](args)
    except (ValueError, MemoryError, RecursionError, RuntimeError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    doc: dict[str, Any] = {"command": args.command, "input": echo, "payload": payload}
    if args.timing:
        doc["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "json":
        _write(_render_json(doc))
    else:
        from . import render

        _write(render.csv(doc) if args.format == "csv" else render.table(doc))
    return 0 if verdict in (None, True) else 1
