"""Command-line surface: every operation, machine-readable output.

One structured document per invocation on stdout, diagnostics on stderr.
Exit codes: 0 computed, 1 computed with a negative verdict (for scripting),
2 a usage error, invalid input or a computation that could not finish (out
of memory, recursion limit, internal error), with a one-line diagnostic.
Output is byte-identical across repeated invocations; rationals are printed
as exact "p/q" strings, never floats.

Arguments are read against the tables GLOBAL_OPTIONS and COMMANDS: global
options, the command, then its options, as `--name value` or `--name=value`;
the last of a repeated option wins and no abbreviation is accepted. Each value
is converted once, when it is read: to an int, a choice, a `SimplexSpec` or
an entry tuple. Every integer, alone or a piece of a tuple or spec, is read by
one rule, `_integer`: ASCII digits after an optional '-', with optional
whitespace around. A spec's text form 'a1,...:d' is read (`parse_spec`) and
written (`_echo`) only here; the library neither parses nor prints it. A
handler takes the converted values and returns only its payload and verdict;
the document's `input` echoes the options by one rule, `_echo`. Each handler
imports the submodules it computes with, so a launch loads only what its
subcommand runs, and parsing loads none of them but `simplex`, for a spec; the
csv and table output and the help text live in `render`, which a json launch
does not load.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .proscriptive import ProscriptiveDatum
    from .simplex import LatticePointReport, SimplexSpec


def _integer(text: str) -> int:
    """The integer written as ASCII digits after an optional '-', with optional whitespace
    around; ValueError for any other text, such as '1_0', '+3' or '３', which int() takes."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_tuple(text: str) -> tuple[int, ...]:
    """The integers of 'a1,a2,...'; the kernel each tuple command calls checks the entries."""
    try:
        return tuple(map(_integer, text.split(",")))
    except ValueError as exc:
        raise ValueError(f"malformed tuple {text!r}") from exc


def parse_spec(text: str) -> SimplexSpec:
    """The simplex spec 'a1,a2,...:d', checked; `simplex` loads only when a spec is given."""
    from .simplex import SimplexSpec

    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'a1,a2,...:d', got {text!r}")
    try:
        a, d = tuple(map(_integer, head.split(","))), _integer(tail)
    except ValueError as exc:
        raise ValueError(f"malformed simplex spec {text!r}") from exc
    return SimplexSpec(a, d)


def _point_doc(p: LatticePointReport) -> dict[str, Any]:
    return {"k": p.k, "coords": list(p.coords), "location": p.location,
            "lambda_sum": str(p.lambda_sum)}


def _datum_doc(d: ProscriptiveDatum) -> dict[str, Any]:
    # the fields in order, then trivial; a replaced value keeps its place
    iv = d.interval
    interval = {"lo": str(iv.lo), "hi": str(iv.hi), "text": str(iv)}
    return {**d._asdict(), "g_row": list(d.g_row), "interval": interval, "trivial": d.trivial}


def _cmd_hollow(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import simplex

    hit = simplex.first_interior_point(args.alpha)
    payload = {"hollow": hit is None, "witness": None if hit is None else _point_doc(hit)}
    return payload, hit is None


def _cmd_empty(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import simplex

    verdict = simplex.is_empty(args.alpha)
    return {"empty": verdict, "sufficient_reason": simplex.empty_sufficient(args.alpha)}, verdict


def _cmd_points(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import simplex

    pts = simplex.enumerate_non_extreme_points(args.alpha)
    payload = {
        "count": len(pts),
        "interior_count": sum(1 for p in pts if p.location == simplex.INTERIOR),
        "points": [_point_doc(p) for p in pts],
    }
    return payload, None


def _cmd_facets(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import simplex

    spec = args.alpha
    volumes = list(simplex.facet_volumes(spec))
    cots = [simplex.facet_cotorsion(spec, i) for i in range(spec.dimension + 1)]
    payload = {
        "volumes": volumes,
        "standard_count": volumes.count(1),
        "cotorsion_oracle": cots,
        "agrees": volumes == cots,
    }
    return payload, None


def _cmd_width(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import simplex

    spec = args.alpha
    subset = simplex.width_one(spec)
    payload: dict[str, Any] = {
        "width_one_subset": None if subset is None else list(subset),
        "width_one_values": None if subset is None else [spec.a[i] for i in subset],
        "functional": None if subset is None else list(simplex.width_one_functional(spec, subset)),
    }
    try:
        payload["upper_bound"] = simplex.width_upper_bound(spec)
        payload["upper_bound_error"] = None
    except simplex.EdgePointError as exc:
        payload["upper_bound"] = None
        payload["upper_bound_error"] = str(exc)
    return payload, None


def _cmd_asym(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import asymptotic

    witness = asymptotic.criterion_witness(args.tuple)
    payload = {
        "tuple": list(asymptotic.ascending(args.tuple)),
        "asymptotically_hollow": witness is None,
        "witness": None if witness is None else witness._asdict(),
    }
    return payload, witness is None


def _cmd_thresholds(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import asymptotic

    th = asymptotic.stability_thresholds(args.tuple)
    return {"m_bound": th.m_bound, "M_bound": th.M_bound, "C": th.C}, None


def _cmd_proscribe(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import proscriptive

    b = args.tuple
    if (args.index is None) != (args.multiplier is None):
        raise ValueError("--index and --multiplier must be given together")
    if args.index is not None:
        datum = proscriptive.proscriptive_datum(b, args.index, args.multiplier)
        return {"s": sum(b) - 1, "data": [_datum_doc(datum)]}, None
    data = proscriptive.nontrivial_data(b)
    payload = {"s": sum(b) - 1, "nontrivial_count": len(data), "data": [_datum_doc(d) for d in data]}
    return payload, None


def _cmd_extend(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import proscriptive

    report = proscriptive.candidate_extensions(args.tuple)
    payload = {
        "prefix": list(report.b),
        "s": report.s,
        "unbounded": report.unbounded,
        "data": [_datum_doc(d) for d in report.data],
        "horizon": report.horizon,
        "ray_start": None if report.ray_start is None else str(report.ray_start),
        "candidates": None if report.candidates is None else list(report.candidates),
    }
    return payload, None


def _cmd_classify(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
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
        verdict = result == classify.reference_triples(args.a_max, args.x_max, args.min_entry)
        payload["matches_reference"] = verdict
    return payload, verdict


def _cmd_family(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import classify

    a = classify.doubling_family(args.n)
    checks = classify.verify_family(a)
    return {"tuple": list(a), **checks}, all(checks.values())


def _cmd_sset(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import residues

    if args.method == "brute":
        return {"members": list(residues.bounded_remainder_set(args.x, args.r, args.variant))}, None
    # the O(1) closed form first, so that its checks refuse before the brute force runs
    if args.variant != residues.STRICT:
        raise ValueError("closed form exists only for the strict variant")
    closed = list(residues.closed_form_remainder_set(args.x, args.r))
    if args.method == "closed":
        return {"members": closed}, None
    members = list(residues.bounded_remainder_set(args.x, args.r, args.variant))
    agrees = members == closed
    return {"members": members, "closed_form": closed, "agrees": agrees}, agrees


def _cmd_agree(args: SimpleNamespace) -> tuple[dict, Optional[bool]]:
    from . import asymptotic

    def sample() -> Iterator[tuple[int, ...]]:  # drawn once the sweep has checked its options
        yield from asymptotic.sample_tuples(
            args.count,
            lengths=tuple(range(args.min_len, args.max_len + 1)),
            low=args.low,
            high=args.high,
            seed=args.seed,
        )

    report = asymptotic.agreement_sweep(sample(), window=args.window, threads=args.threads)
    payload = {
        "tuples_checked": report.tuples_checked,
        "points_checked": report.points_checked,
        "mismatches": [{"tuple": list(m.a), "N": m.big_n, "criterion": m.criterion,
                        "brute_force": m.brute_force} for m in report.mismatches],
        "ok": report.ok,
    }
    return payload, report.ok


# Each command maps to (handler, help text, options). An option is (kind,
# default): the kind is int (read by _integer), parse_spec, parse_tuple, a
# tuple of choices, or bool for a flag, and the default REQUIRED makes the
# option required.
REQUIRED = object()
_SPEC = {"alpha": (parse_spec, REQUIRED)}
_TUPLE = {"tuple": (parse_tuple, REQUIRED)}

GLOBAL_OPTIONS = {"format": (("json", "csv", "table"), "json")}
COMMANDS = {
    "hollow": (_cmd_hollow, "decide hollowness of a simplex a1,...:d, e.g. 3,5,7:30", _SPEC),
    "empty": (_cmd_empty, "decide emptiness of a simplex", _SPEC),
    "points": (_cmd_points, "list all non-extreme lattice points", _SPEC),
    "facets": (_cmd_facets, "facet volumes plus the minors-gcd cross-check", _SPEC),
    "width": (_cmd_width, "width-one witness, least reduced-row cost over the units mod d", _SPEC),
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
            return _integer(text)
        except ValueError:
            raise ValueError(f"--{name}: invalid int value {text!r}") from None
    if not isinstance(kind, tuple):
        return kind(text)  # parse_spec or parse_tuple, whose errors name the text
    if text not in kind:
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


def _echo(args: SimpleNamespace) -> dict[str, Any]:
    """The document's input: each option of the command in table order, but no flag,
    no --threads and no option left at None; a spec or tuple in its canonical form."""
    echo = {}
    for name, (kind, _) in COMMANDS[args.command][2].items():
        key = name.replace("-", "_")
        value = getattr(args, key)
        if kind is bool or name == "threads" or value is None:
            continue
        if kind is parse_spec:
            value = f"{','.join(map(str, value.a))}:{value.d}"
        elif kind is parse_tuple:
            value = ",".join(map(str, value))
        echo[key] = value
    return echo


def build_parser():
    """parse_args under its old name. bench/run.py's PROBE calls it at set-up, so removing it
    fails every benchmark run; it goes once the probe calls parse_args itself."""
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
    # exact integers print whole; Python 3.10.0-3.10.6 have no digit limit to lift
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            from .render import help_text

            _write(help_text())
            return 0
        payload, verdict = COMMANDS[args.command][0](args)
    except (ValueError, OverflowError, MemoryError, RecursionError, RuntimeError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    else:
        doc: dict[str, Any] = {"command": args.command, "input": _echo(args), "payload": payload}
        if args.format == "json":
            _write(_render_json(doc))
        else:
            from . import render

            _write(render.csv(doc) if args.format == "csv" else render.table(doc))
        return 0 if verdict in (None, True) else 1
    finally:
        set_digits(digits)
