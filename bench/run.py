"""Benchmark of the hollowsimplex CLI: one workload per run.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run repeats whole rounds of its workload (see workloads.py) until
--seconds have passed. Untraced, every invocation is a fresh
`python -m hollowsimplex` process on the checkout's own src/, launched one
at a time from this process (a closed loop with one client), and the run
reports the end-to-end metrics. Traced (--trace 1), the same invocations run
in-process through `cli.main` with per-layer spans and counters
(tracing.py), and the run reports the per-layer metrics.

Every output is checked against answers computed in oracle.py; after the
first round each check is also handed corrupted outputs that it must
reject. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 11  # at least this many set-up launches per run
SETUP_EVERY = 4  # one set-up launch after every fourth invocation
MIN_ROUNDS = 3
OP_TIMEOUT_S = 60
# Clock readings are CLOCK_MONOTONIC, which parent and child share.
PROBE = (
    "import time\n"
    "t0 = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "import hollowsimplex, hollowsimplex.cli as cli\n"
    "t1 = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "cli.build_parser()\n"
    "t2 = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "print(hollowsimplex.__file__, t0, t1, t2)\n"
)

# The layers each workload was chosen to stress, as shares of traced wall time.
TARGETS = {
    "classify": ("arith.scaled_union",),
    "kscan": ("simplex.first_interior_point", "simplex.is_empty",
              "simplex.enumerate_non_extreme_points", "simplex.width_upper_bound"),
    "family": ("asymptotic.criterion_witness",),
}

SELF_MS = (
    "cli.main", "arith.scaled_union", "proscriptive.nontrivial_data",
    "proscriptive.candidate_extensions", "simplex.first_interior_point",
    "simplex.is_empty", "simplex.enumerate_non_extreme_points",
    "simplex.width_upper_bound", "simplex.empty_sufficient", "simplex.width_one",
    "simplex.facet_cotorsion", "asymptotic.agreement_sweep",
    "asymptotic.criterion_witness", "classify.verify_family",
    "residues.bounded_remainder_set",
)
COUNTS = (
    "arith.scaled_union.dilates", "proscriptive.nontrivial_data.data",
    "proscriptive.candidate_extensions.gaps_tested", "classify.classify_triples.prefixes",
    "simplex.first_interior_point.k_scanned", "simplex.is_empty.k_scanned",
    "simplex.enumerate_non_extreme_points.points", "simplex.width_upper_bound.units",
    "asymptotic.agreement_sweep.points", "asymptotic.criterion_witness.calls",
    "residues.bounded_remainder_set.pairs",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked: no program, or the wrong one."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_setup() -> tuple[float, float]:
    """(setup seconds, import ms) of one fresh interpreter.

    Set-up runs from launch until hollowsimplex.cli is imported and its
    parser is built; no decision is computed.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"cannot import hollowsimplex from {SRC}: {proc.stderr.strip()}")
    path, t0, t1, t2 = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise SetupError(f"hollowsimplex imported from {path}, not from {SRC}")
    return float(t2) - start, (float(t1) - float(t0)) * 1000


def median_import_ms() -> float:
    """Median import time of hollowsimplex.cli over fresh interpreters."""
    probe_setup()  # the first launch may compile the package's bytecode
    return statistics.median(probe_setup()[1] for _ in range(SETUP_LAUNCHES))


def children_usage() -> tuple[float, float]:
    """(user + system CPU seconds, peak RSS in MB) of every reaped child."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def launch(op) -> tuple[int, str, str, float, float]:
    """One invocation as its own process: (rc, stdout, stderr, wall s, CPU s).

    Invocations run one at a time, so the growth of the children's CPU
    time is this invocation's, pool workers included.
    """
    cpu0 = children_usage()[0]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "hollowsimplex", *op.argv],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=OP_TIMEOUT_S)
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, out, err = -1, "", f"timed out after {OP_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    return rc, out, err, wall, children_usage()[0] - cpu0


class Run:
    """Rounds of one workload, their outcomes and their checks."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.ops = workloads.build(name, seed)
        self.seconds = seconds
        self.checker = checks.Checker()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, outcomes, first: bool) -> None:
        """Check one round's outcomes; after the first, check the checks."""
        for op, (rc, out, err) in zip(self.ops, outcomes):
            self.attempted += 1
            failed, problem = self.checker.verify(op, rc, out, err)
            if failed:
                self.failed += 1
                if first:
                    print(f"failed: {' '.join(op.argv)} (exit {rc}): "
                          f"{err.strip().splitlines()[-1:]}", file=sys.stderr)
            elif problem:
                self.problems.append(problem)
            elif first and not op.invalid:
                for kind, bad in checks.corruptions(op, out):
                    if self.checker.verify(op, rc, bad, err) == (False, None):
                        self.problems.append(f"self-check: {kind} accepted for "
                                             f"{' '.join(op.argv)}")

    def rounds(self, play) -> None:
        """Play whole rounds until the run's time is up.

        At least one round, and MIN_ROUNDS while they fit in three times
        the run's time, so that a much slower program still ends promptly.
        """
        start = time.perf_counter()
        played = 0
        while True:
            elapsed = time.perf_counter() - start
            if played and elapsed >= self.seconds and (
                    played >= MIN_ROUNDS or elapsed >= 3 * self.seconds):
                break
            self.judge(play(), played == 0)
            played += 1

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"wrong: {problem}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(run: Run) -> dict:
    """End-to-end metrics, robust to brief spells of a shared machine.

    Each invocation is timed in every round and keeps its median wall and
    CPU time over the rounds, so a spell that speeds up or slows down part
    of one round does not move the result. wall_s and cpu_s sum these
    medians over a round's invocations, and query_p50_ms is their median.
    Set-up launches are spread through the rounds and setup_s is their
    median. The benchmark's checks and set-up launches fall outside the
    timed spans.
    """
    probe_setup()  # the first launch may compile the package's bytecode
    setups: list[float] = []
    walls = [[] for _ in run.ops]
    cpus = [[] for _ in run.ops]

    def play():
        outcomes = []
        for i, op in enumerate(run.ops):
            rc, out, err, wall, used = launch(op)
            outcomes.append((rc, out, err))
            walls[i].append(wall)
            cpus[i].append(used)
            if i % SETUP_EVERY == 0:
                setups.append(probe_setup()[0])
        return outcomes

    run.rounds(play)
    while len(setups) < SETUP_LAUNCHES:
        setups.append(probe_setup()[0])
    op_walls = [statistics.median(w) for w in walls]
    return run.result({
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(op_walls), "s"),
        "query_p50_ms": metric(statistics.median(op_walls) * 1000, "ms"),
        "cpu_s": metric(sum(statistics.median(c) for c in cpus), "s"),
        "peak_rss_mb": metric(children_usage()[1], "MB"),
    })


def run_traced(run: Run) -> dict:
    import_ms = median_import_ms()
    sys.path.insert(0, str(SRC))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    if tracer.missing:
        print(f"note: not in the program, not traced: {tracer.missing}", file=sys.stderr)
    per_round: list[dict] = []

    def play():
        tracer.reset()
        outcomes = []
        start = time.perf_counter()
        for i, op in enumerate(run.ops):
            tracer.invocation = i
            argv = op.argv
            if "--threads" in argv:  # wrappers do not cross into pool workers
                argv[argv.index("--threads") + 1] = "1"
            outcomes.append(tracer.call_main(argv))
        wall = time.perf_counter() - start
        selfs = tracer.self_times()
        row = {f"{name}.self_ms": selfs.get(name, 0.0) * 1000 for name in SELF_MS}
        row.update({name: tracer.counts.get(name, 0) for name in COUNTS})
        union = tracer.counts.get("arith.scaled_union.horizon", 0)
        rays = tracer.counts.get("arith.scaled_union.rays", 0)
        row["arith.scaled_union.horizon_per_ray"] = union / rays if rays else 0.0
        gaps = tracer.counts.get("proscriptive.candidate_extensions.gaps_tested", 0)
        found = tracer.counts.get("proscriptive.candidate_extensions.candidates", 0)
        row["proscriptive.candidate_extensions.candidates_per_gap"] = found / gaps if gaps else 0.0
        row["trace.wall_s"] = wall
        row["target_share"] = sum(selfs.get(t, 0.0) for t in TARGETS[run.name]) / wall
        per_round.append(row)
        return outcomes

    try:
        run.rounds(play)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{run.name}.spans.jsonl")
    if tracer.broken:
        print(f"note: counters that no longer fit the program: {sorted(tracer.broken)}",
              file=sys.stderr)
    med = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    print(f"trace: {run.name} stresses {', '.join(TARGETS[run.name])}: "
          f"{100 * med.pop('target_share'):.1f} % of traced wall time", file=sys.stderr)
    units = {"trace.wall_s": "s", "arith.scaled_union.horizon_per_ray": "ratio",
             "proscriptive.candidate_extensions.candidates_per_gap": "ratio"}
    metrics = {"setup.import_ms": metric(import_ms, "ms")}
    for key, value in med.items():
        unit = units.get(key, "ms" if key.endswith("_ms") else "count")
        metrics[key] = metric(value, unit)
    return run.result(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hollowsimplex" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'hollowsimplex'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = Run(name, args.seed, args.seconds)
            results[name] = run_traced(run) if args.trace else run_untraced(run)
            if args.workload == "all":
                res = results[name]
                print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
                      f"correct {res['correct']}")
                for key, m in res["metrics"].items():
                    print(f"  {key} = {m['value']:.6g} {m['unit']}")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
