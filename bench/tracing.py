"""In-process tracing of the program's layers, from the benchmark's side.

The traced run imports `hollowsimplex` from the checkout's `src/` and calls
`cli.main` directly, one invocation at a time, in one process and with one
worker, because a wrapper does not cross a process boundary. Before the
run it replaces each traced public function by a wrapper in every module
that binds the function's name (`proscriptive` binds `scaled_union`,
`classify` binds `candidate_extensions`, and so on), so calls made inside
the package are traced too. The source is not touched.

A wrapper records a span (name, start, end, parent, invocation) and, after
the span has closed, updates the layer's work counters. Spans stay in
memory; a layer's self time is its span minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

# Traced public functions by module. Functions the CLI calls directly are
# listed even when no metric reads them, so that cli.main's self time is
# only argument parsing, dispatch and rendering.
TRACED = {
    "cli": ("main",),
    "arith": ("scaled_union",),
    "simplex": ("first_interior_point", "is_empty", "enumerate_non_extreme_points",
                "width_upper_bound", "empty_sufficient", "width_one",
                "width_one_functional", "facet_volumes", "facet_cotorsion"),
    "asymptotic": ("criterion_witness", "agreement_sweep", "stability_thresholds",
                   "sample_tuples"),
    "proscriptive": ("nontrivial_data", "candidate_extensions", "proscriptive_datum"),
    "classify": ("classify_triples", "verify_family", "doubling_family",
                 "reference_triples"),
    "residues": ("bounded_remainder_set", "closed_form_remainder_set"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    invocation: int


@functools.lru_cache(maxsize=None)
def first_point_height(a: tuple[int, ...], d: int) -> int:
    """Height k of the first non-vertex lattice point: where is_empty stops."""
    hit = oracle.scan(a, d, first=True)
    return hit[0][0][-1] if hit else d - 1


# Work counters by traced function: (bound arguments, result) -> increments.
# Each is read from the inputs or the result, never from inside the program.


def count_scaled_union(args, result):
    horizon = args["horizon"]
    dilates = sum(math.floor(horizon / iv.lo) for iv in args["intervals"] if iv.hi > iv.lo)
    ray = 0 if result.ray_start is None else math.ceil(result.ray_start)
    return {"dilates": dilates, "horizon": horizon, "rays": ray}


def count_candidates(args, result):
    if result.unbounded:
        return {}
    return {"gaps_tested": sum(1 for y in result.union.gaps if y >= 2),
            "candidates": len(result.candidates)}


def count_prefixes(args, result):
    lo = max(2, args["min_entry"])
    return {"prefixes": sum(args["x_max"] - a + 1 for a in range(lo, args["a_max"] + 1))}


def count_is_empty(args, result):
    spec = args["spec"]
    return {"k_scanned": spec.d - 1 if result else first_point_height(tuple(spec.a), spec.d)}


COUNTERS: dict[str, Callable] = {
    "arith.scaled_union": count_scaled_union,
    "proscriptive.nontrivial_data": lambda args, r: {"data": len(r)},
    "proscriptive.candidate_extensions": count_candidates,
    "classify.classify_triples": count_prefixes,
    "simplex.first_interior_point":
        lambda args, r: {"k_scanned": args["spec"].d - 1 if r is None else r.k},
    "simplex.is_empty": count_is_empty,
    "simplex.enumerate_non_extreme_points": lambda args, r: {"points": len(r)},
    "simplex.width_upper_bound": lambda args, r: {"units": oracle.totient(args["spec"].d)},
    "asymptotic.agreement_sweep": lambda args, r: {"points": r.points_checked},
    "asymptotic.criterion_witness": lambda args, r: {"calls": 1},
    "residues.bounded_remainder_set":
        lambda args, r: {"pairs": args["x"] * (args["x"] // args["r"])},
}


class Tracer:
    """Wraps the traced functions and keeps spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.invocation = 0
        self.broken: set[str] = set()  # counters that no longer fit the program
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"hollowsimplex.{m}") for m in TRACED}
        package = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "hollowsimplex"
                                           or name.startswith("hollowsimplex."))]
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(modules[mod_name], fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.invocation)
            if counter is not None and name not in self.broken:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result).items():
                        self.counts[f"{name}.{key}"] += value
                except (AttributeError, TypeError, KeyError):
                    self.broken.add(name)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds of self time by layer over the spans recorded so far."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child):
            out[span.name] += span.end - span.start - covered
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def call_main(self, argv: list[str]) -> tuple[int, str, str]:
        """cli.main(argv) in-process: (exit code, stdout, stderr).

        An uncaught exception becomes exit 1 with its traceback on stderr,
        as it would at the interpreter's top level.
        """
        cli = sys.modules["hollowsimplex.cli"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # the CLI's own crash, reported as the interpreter would
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), err.getvalue()

    def dump(self, path) -> None:
        """Write the spans held in memory, one JSON array per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.invocation]) + "\n")
