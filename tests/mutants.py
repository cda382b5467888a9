"""Mutation gate: each mutant below must make the test suite fail.

An entry is (file under src/hollowsimplex, anchor, replacement, defect). The
anchor must occur in its file exactly once; a missing or repeated anchor is
an error, never a skip, so a refactor that moves one updates it here on
purpose. For each entry the script copies src/ to a temporary directory,
applies the one replacement there, and runs `python -m pytest -x -q` on
tests/ with PYTHONPATH on the copy. The mutant is killed when pytest exits
1 (a test failed); any other outcome, a timeout included, fails the gate.

    python tests/mutants.py

It assumes the unmutated suite passes, which the tier-1 run checks first.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

MUTANTS = (
    ("asymptotic.py", "lhs += r if r else ai", "lhs += r",
     "the criterion's remainder sum counts a multiple of the entry as 0"),
    ("proscriptive.py", "min(-(-num // den), hi) + 1)", "min(-(-num // den), hi))",
     "the extension search's window excludes its upper end"),
    ("proscriptive.py", "y * e <= s * (y * m % ai)", "y * e < s * (y * m % ai)",
     "the gap test proscribes y at y*e == s*(y*m mod a(i))"),
    ("asymptotic.py", "ai // 2 if half", "ai // 2 - 1 if half",
     "the witness's half range stops at a(i)//2 - 1"),
    ("asymptotic.py", "(total - ai) % ai == 1:", "(total - ai) % ai in (1, 2):",
     "the whole-complement certificate accepts residue 2"),
    ("simplex.py", "(d, d - 1) if interior", "(d, d) if interior",
     "the stretch walk's interior bound admits boundary points"),
    ("residues.py", "if r != 2 or x % 4 == 2:", "if True:",
     "closed_form_remainder_set loses its r = 2 branch"),
    ("arith.py", "jobs[k::k]]", "jobs[k:-1:k]]",
     "parallel_map drops the last job of the calling process's share"),
    ("arith.py", "cpus = os.cpu_count() or 1", "jobs = list(jobs)\n    cpus = os.cpu_count() or 1",
     "parallel_map lists the jobs before it checks threads"),
    ("simplex.py", "((w == s) != interior)", "((w == s) == interior)",
     "the stretch walk charges each slow entry in the form that is wrong at a zero residue"),
    ("simplex.py", "slow.append([w, step, num, num // w])",
     "slow.append([w, step, num, -(-d // w)])",
     "the ceiling form's first breakpoint is taken as ceil(d/w)"),
    ("simplex.py", "scale * charge < hi * excess:", "scale * charge < hi * excess - 1:",
     "_hollow_by_n drops a cell that can hold an interior point"),
    ("__init__.py", "if any(v < 1 for v in row):", "if any(v < 0 for v in row):",
     "the whole-number rule of entry tuples and specs accepts 0"),
    ("cli.py", 'or name == "threads" or', "or",
     "the document's input echoes --threads"),
    ("cli.py", "    closed = list(residues.closed_form_remainder_set(",
     "    list(residues.bounded_remainder_set(args.x, args.r, args.variant))\n"
     "    closed = list(residues.closed_form_remainder_set(",
     "sset --method both runs the brute force before the closed form's checks"),
    ("cli.py", "digits.isascii() and digits.isdigit()", "True",
     "the integer rule accepts anything int() accepts, such as '1_0'"),
    ("proscriptive.py", "-(-ray[0] // ray[1])", "ray[0] // ray[1]",
     "the extension report's horizon rounds the ray start down"),
    ("classify.py", "min_entry <= t[0] <= a_max and", "min_entry <= t[0] and",
     "reference_triples ignores a_max"),
    ("arith.py", "table[s] = min(", "table[s] = max(",
     "subset_residues keeps a larger size for a residue it has already reached"),
    ("simplex.py", "need, picked = {0, 1}, []", "need, picked = {0}, []",
     "width_one's walk accepts only the target 0"),
    ("simplex.py", "math.gcd(gcds.get(s, d), g, v)", "math.gcd(gcds.get(s, d), g)",
     "empty_sufficient's gcd table drops the entry that extends a subset"),
    ("asymptotic.py", "(a[-1] - 1) * a[-2]", "(a[-2] - 1) * a[-1]",
     "m_bound takes (a(i) - 1)*a(j) at the wrong pair of largest entries"),
    ("asymptotic.py", "(sum(a) - 1) * max(a)", "(sum(a) - 1) * (max(a) - 1)",
     "the robust point falls back to the classical C"),
    ("classify.py", "prefix[j - 1] == a[j] + 1", "prefix[j] == a[j] + 1",
     "the prefix sums are off by one entry"),
    ("asymptotic.py", "        if _residue_one(others, ai):", "        if 1 in others:",
     "the criterion certifies an entry only by a single other entry"),
    ("asymptotic.py", "return self.M_bound", "return self.m_bound",
     "C reads m_bound"),
    ("simplex.py", "g *= abs(pivot[c])", "g *= pivot[c]",
     "facet_cotorsion keeps the sign of a negative pivot"),
    ("residues.py", "zero = x if", "zero = 0 if",
     "the strict residue set charges a multiple of x as 0"),
    ("residues.py", "(z * t % x or zero) <= bound", "(z * t % x or zero) < bound",
     "the residue set's filter drops a z whose remainder meets the bound"),
)


def anchor_errors() -> list[str]:
    """One line for each anchor that does not occur exactly once in its file."""
    errors = []
    for file, anchor, _, _ in MUTANTS:
        found = (ROOT / "src" / "hollowsimplex" / file).read_text().count(anchor)
        if found != 1:
            errors.append(f"anchor {anchor!r} occurs {found} times in {file}, not once")
    return errors


def run(file: str, anchor: str, replacement: str) -> tuple[bool, str]:
    """(killed, outcome) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "hollowsimplex" / file
        path.write_text(path.read_text().replace(anchor, replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    if code == 1:
        return True, "killed"
    return False, "survived" if code == 0 else f"pytest exit code {code}"


def main() -> int:
    errors = anchor_errors()  # all checked before any mutant runs
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    if errors:
        return 2
    failed = 0
    for file, anchor, replacement, defect in MUTANTS:
        started = time.monotonic()
        killed, outcome = run(file, anchor, replacement)
        failed += not killed
        print(f"{outcome} in {time.monotonic() - started:.1f} s: {file}: {defect}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
