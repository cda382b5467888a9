"""Shared test helpers; the independent references live in `bench/oracle.py`.

That module imports nothing from the package, so a test that compares the
package with it cannot share a defect with the kernel it checks. This file
puts `bench/` on the import path for it and keeps the tests' own forms:
the per-height k-scan, which tests every height against every entry, and
membership in a dilated interval. Neither it nor the oracle imports the
package at module level.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))


def heights_by_scan(spec, interior):
    """Heights k in [1, d-1] carrying a non-extreme (interior) lattice point,
    testing every k against every entry: the per-height form of the k-scan."""
    d = spec.d
    zero, bound = (d, d - 1) if interior else (0, d)
    out = []
    for k in range(1, d):
        total = k
        for ai in spec.a:
            r = k * ai % d
            total += d - r if r else zero
            if total > bound:
                break
        else:
            out.append(k)
    return out


def in_dilate(y, iv, t):
    """Whether y lies in the dilate t*[lo, hi) of a half-open interval."""
    return t * iv.lo <= y < t * iv.hi


def run_cli(argv):
    """Invoke the CLI main() capturing stdout; returns (exit_code, text)."""
    import io

    from hollowsimplex.cli import main

    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.fixture
def no_child_left():
    """Fails the test if it leaves a child process unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
