import gc
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from conftest import run_cli

import hollowsimplex
from hollowsimplex import cli
from hollowsimplex.cli import parse_tuple
from hollowsimplex.simplex import SimplexSpec


def _payload(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)["payload"]


def test_asym_true_exit_zero():
    code, out = run_cli(["asym", "--tuple", "6,10,15"])
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"tuple": "6,10,15"}
    assert doc["payload"]["asymptotically_hollow"] is True
    assert doc["payload"]["witness"] is None


def test_asym_false_exit_one_with_witness():
    code, doc = _payload(["asym", "--tuple", "3,7,9"])
    assert code == 1
    assert doc["asymptotically_hollow"] is False
    assert doc["witness"] == {"index": 1, "entry": 7, "t": 2, "lhs": 10, "rhs": 9}


def test_asym_entries_past_sys_maxsize():
    # the t-range is a range, which takes any int, and the residue-one rule
    # tabulates subsets of the other entries, never the units of the entry
    big = 10 ** 20
    code, doc = _payload(["asym", "--tuple", f"3,{big}"])
    assert code == 1
    assert doc["witness"] == {"index": 1, "entry": big, "t": 1, "lhs": 3, "rhs": 1}
    code, doc = _payload(["asym", "--tuple", f"2,{big},{big + 1}"])
    assert code == 0 and doc["asymptotically_hollow"] is True


def test_hollow_command():
    code, doc = _payload(["hollow", "--alpha", "3,5,7:30"])
    assert code == 0 and doc["hollow"] is True
    code, doc = _payload(["hollow", "--alpha", "2,3:13"])
    assert code == 1
    assert doc["witness"]["k"] == 4 and doc["witness"]["coords"] == [1, 1, 4]


def test_k_scan_at_huge_d():
    # d = 10^12: the stretch walk reaches the first interior point without
    # scanning the 2.5 * 10^11 heights below it
    code, doc = _payload(["hollow", "--alpha", "2,3:1000000000000"])
    assert code == 1
    assert doc["witness"] == {
        "k": 250000000001,
        "coords": [1, 1, 250000000001],
        "location": "interior",
        "lambda_sum": "249999999999/250000000000",
    }
    # past robust_stability_point((3, 5, 7)) = 98 hollowness follows the
    # criterion, and (3, 5, 7) is asymptotically hollow
    code, doc = _payload(["hollow", "--alpha", "3,5,7:1000000000039"])
    assert code == 0 and doc == {"hollow": True, "witness": None}
    # both entries slow, one stretch, and its half-line is empty
    code, doc = _payload(["points", "--alpha", "1,1:100000000"])
    assert code == 0 and doc == {"count": 0, "interior_count": 0, "points": []}


def test_empty_command():
    code, doc = _payload(["empty", "--alpha", "3,5,7:31"])
    assert code == 0 and doc["empty"] is True
    code, doc = _payload(["empty", "--alpha", "3,5,7:35"])
    assert code == 1 and doc["empty"] is False


def test_points_command():
    code, doc = _payload(["points", "--alpha", "2,3:12"])
    assert code == 0
    assert doc["count"] == 3 and doc["interior_count"] == 0
    assert [p["k"] for p in doc["points"]] == [3, 4, 6]
    assert doc["points"][0]["lambda_sum"] == "1"


def test_facets_command():
    code, doc = _payload(["facets", "--alpha", "3,5,7:30"])
    assert code == 0
    assert doc["volumes"] == [1, 3, 5, 1, 2]
    assert doc["standard_count"] == 2
    assert doc["cotorsion_oracle"] == [1, 3, 5, 1, 2]
    assert doc["agrees"] is True


def test_width_command():
    code, doc = _payload(["width", "--alpha", "2,3,3,3,4:12"])
    assert code == 0
    assert sorted(doc["width_one_values"]) == [2, 3, 3, 4]
    assert doc["upper_bound"] == 2
    code, doc = _payload(["width", "--alpha", "4,2:4"])
    assert doc["upper_bound"] is None and doc["upper_bound_error"]
    code, doc = _payload(["width", "--alpha", "2,3:1000000007"])
    assert code == 0
    assert doc["upper_bound"] == 1 and doc["width_one_subset"] is None
    code, doc = _payload(["width", "--alpha", "2,3:1"])
    assert code == 0 and doc["width_one_subset"] == [0] and doc["functional"] == [1, 0, -2]


def test_thresholds_command():
    code, doc = _payload(["thresholds", "--tuple", "3,5,7"])
    assert doc == {"m_bound": 30, "M_bound": 84, "C": 84}


def test_proscribe_commands():
    code, doc = _payload(["proscribe", "--tuple", "29,38,66"])
    assert code == 0 and doc["nontrivial_count"] == 8
    code, doc = _payload(
        ["proscribe", "--tuple", "29,38,66", "--index", "0", "--multiplier", "3"]
    )
    assert doc["data"][0]["denom"] == 13
    assert doc["data"][0]["interval"]["text"] == "[29/3, 132/13)"
    code, _ = run_cli(["proscribe", "--tuple", "29,38,66", "--index", "0"])
    assert code == 2


def test_extend_command_report():
    code, out = run_cli(["extend", "--tuple", "29,38,66"])
    assert code == 0
    doc = json.loads(out)["payload"]
    assert doc["candidates"] == [2, 3, 11]
    assert "[38, 44)" in out
    assert any(d["entry"] == 29 and d["m"] == 3 and d["denom"] == 13 for d in doc["data"])


def test_extend_unbounded():
    code, doc = _payload(["extend", "--tuple", "6,10,15"])
    assert code == 0
    assert doc["unbounded"] is True and doc["candidates"] is None


def test_classify_command_with_check():
    code, doc = _payload(
        ["classify", "--a-max", "6", "--x-max", "16", "--check"]
    )
    assert code == 0
    assert doc["matches_reference"] is True
    assert [2, 3, 5] in doc["sporadic"]
    # the reference is cut to the same box: (5, 8, 12) and (6, 10, 15) lie past a_max = 4
    code, doc = _payload(["classify", "--a-max", "4", "--x-max", "16", "--check"])
    assert code == 0 and doc["matches_reference"] is True
    assert doc["sporadic"][-1] == [4, 7, 10]


def test_family_command():
    code, doc = _payload(["family", "--n", "5"])
    assert code == 0
    assert doc["tuple"] == [28, 36, 63, 126]
    assert doc["asymptotically_hollow"] is True


def test_sset_commands():
    code, doc = _payload(["sset", "--x", "23", "--r", "3", "--method", "both"])
    assert code == 0
    assert doc["members"] == [1, 20, 21] and doc["agrees"] is True
    code, doc = _payload(["sset", "--x", "12", "--r", "2", "--method", "closed"])
    assert doc["members"] == [1, 5, 11]
    code, doc = _payload(["sset", "--x", "10", "--r", "2", "--variant", "exempt"])
    assert code == 0


def test_agree_command():
    code, doc = _payload(
        ["agree", "--count", "12", "--window", "8", "--seed", "2"]
    )
    assert code == 0
    assert doc["ok"] is True and doc["mismatches"] == []
    assert doc["tuples_checked"] == 12 and doc["points_checked"] == 96


def test_threads_do_not_change_output(no_child_left):
    for argv in (["classify", "--a-max", "6", "--x-max", "30", "--check"],
                 ["agree", "--count", "30", "--min-len", "4", "--max-len", "4",
                  "--window", "6"]):
        assert run_cli([*argv, "--threads", "2"]) == run_cli([*argv, "--threads", "1"])


def test_proscribe_index_out_of_range(capsys):
    for index in ("-1", "2"):
        assert cli.main(["proscribe", "--tuple", "3,5", "--index", index, "--multiplier", "1"]) == 2
        assert capsys.readouterr() == ("", "error: index must lie in [0, 1]\n")


def test_invalid_inputs_exit_two(capsys):
    assert run_cli(["asym", "--tuple", "6,x,15"])[0] == 2
    assert run_cli(["hollow", "--alpha", "3,5,7"])[0] == 2
    assert run_cli(["sset", "--x", "5", "--r", "3"])[0] == 2
    assert run_cli(["asym", "--tuple", "7"])[0] == 2
    # asym has one multiplier range and no option to choose another
    assert run_cli(["asym", "--tuple", "6,10,15", "--range", "full"])[0] == 2
    assert run_cli(["agree", "--min-len", "5", "--max-len", "3"])[0] == 2
    # a length range too long to list is refused by name, not a negative verdict
    for max_len in ("100000000000000000000", "9000000000000000000"):
        capsys.readouterr()
        assert run_cli(["agree", "--count", "1", "--min-len", "2",
                        "--max-len", max_len]) == (2, ""), max_len
        assert capsys.readouterr().err == (
            f"error: --max-len {max_len} gives too many lengths to list\n"), max_len
    # Sweeps that would check nothing, or sample from an empty range, are refused.
    for argv in (["--window", "0"], ["--window", "-3"], ["--count", "0"],
                 ["--count", "-1"], ["--low", "5", "--high", "2"]):
        assert run_cli(["agree", *argv])[0] == 2
    # Out-of-range worker counts are refused before any process starts.
    assert run_cli(["classify", "--a-max", "2", "--x-max", "5", "--threads", "-4"])[0] == 2
    assert run_cli(["agree", "--threads", "0"])[0] == 2
    too_many = str((os.cpu_count() or 1) + 1)
    assert run_cli(["agree", "--threads", too_many])[0] == 2
    # The entry-tuple rule has one home, so each tuple command refuses a
    # short or nonpositive tuple with the same line.
    for text, line in (("5", "error: need at least two entries, got (5,)\n"),
                       ("3,0", "error: entries must be positive, got (3, 0)\n")):
        for command in ("asym", "thresholds", "proscribe", "extend"):
            capsys.readouterr()
            assert run_cli([command, "--tuple", text]) == (2, ""), command
            assert capsys.readouterr().err == line, command
    # a length below 2 is refused before any tuple is sampled, by name
    assert run_cli(["agree", "--min-len", "1"]) == (2, "")
    assert capsys.readouterr().err == "error: tuple lengths must be at least 2, got 1\n"
    # An integer is ASCII digits after an optional '-'; int() alone would read
    # each of these texts as another question.
    for argv in (["asym", "--tuple", "1_0,3"], ["asym", "--tuple", "+6,10,15"],
                 ["asym", "--tuple", "\uff16,10,15"], ["hollow", "--alpha", "1_0,3:13"],
                 ["hollow", "--alpha", "2,3:1_3"], ["family", "--n", "1_0"],
                 ["classify", "--a-max", "\uff13", "--x-max", "8"]):
        capsys.readouterr()
        assert run_cli(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(argv[2]) in err, err


@pytest.mark.parametrize("argv, line", [
    (["--x", "60000", "--r", "2", "--variant", "exempt"],
     "closed form exists only for the strict variant"),
    (["--x", "10", "--r", "5"], "closed form requires x >= r^2 = 25, got 10"),
])
def test_sset_checks_the_closed_form_before_the_brute_force(argv, line, monkeypatch, capsys):
    from hollowsimplex import residues

    def brute_force(*args):
        raise AssertionError("the brute force ran before the closed form's checks")

    monkeypatch.setattr(residues, "bounded_remainder_set", brute_force)
    assert cli.main(["sset", *argv, "--method", "both"]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


_CPUS = os.cpu_count() or 1


@pytest.mark.parametrize("argv, line", [
    # about 2e10 prefix jobs
    (["classify", "--a-max", "2000", "--x-max", "10000000", "--threads", str(_CPUS + 1)],
     f"threads must lie in [1, {_CPUS}], got {_CPUS + 1}"),
    (["agree", "--count", "1000000000", "--window", "0"], "window must be positive, got 0"),
])
def test_refusal_comes_before_the_work_it_guards(argv, line):
    # Under a 400 MB address space, listing the jobs or drawing the sample
    # ends in MemoryError; a refusal that comes first builds neither.
    limit = 400 << 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from hollowsimplex.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hollowsimplex.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {line}\n")


# Each command with its required options, and every option it then parses
# to: a spec to a SimplexSpec and a tuple to its ints, each converted once.
_PARSED = [
    (["hollow", "--alpha", "3,5,7:30"], {"alpha": SimplexSpec((3, 5, 7), 30)}),
    (["empty", "--alpha", "3,5,7:31"], {"alpha": SimplexSpec((3, 5, 7), 31)}),
    (["points", "--alpha", "2,3:12"], {"alpha": SimplexSpec((2, 3), 12)}),
    (["facets", "--alpha", "3,5,7:30"], {"alpha": SimplexSpec((3, 5, 7), 30)}),
    (["width", "--alpha", "2,3:13"], {"alpha": SimplexSpec((2, 3), 13)}),
    (["asym", "--tuple", "6,10,15"], {"tuple": (6, 10, 15)}),
    (["thresholds", "--tuple", "3,5,7"], {"tuple": (3, 5, 7)}),
    (["proscribe", "--tuple", "29,38,66"],
     {"tuple": (29, 38, 66), "index": None, "multiplier": None}),
    (["extend", "--tuple", "29,38,66"], {"tuple": (29, 38, 66)}),
    (["classify", "--a-max", "6", "--x-max", "16"],
     {"a_max": 6, "x_max": 16, "min_entry": 2, "check": False, "threads": 1}),
    (["family", "--n", "5"], {"n": 5}),
    (["sset", "--x", "23", "--r", "3"],
     {"x": 23, "r": 3, "variant": "strict", "method": "brute"}),
    (["agree"], {"count": 200, "min_len": 3, "max_len": 4, "low": 2, "high": 12,
                 "window": 50, "seed": 0, "threads": 1}),
]


@pytest.mark.parametrize("argv, options", _PARSED)
def test_parsed_defaults(argv, options):
    parsed = vars(cli.build_parser()(argv))
    assert parsed == {"format": "json", "command": argv[0], **options}
    assert all(type(v) is type(options[k]) for k, v in parsed.items() if k in options)


def test_defaults_cover_every_command():
    assert [argv[0] for argv, _ in _PARSED] == list(cli.COMMANDS)


def test_parsing_rules():
    args = cli.parse_args(["--format=csv", "classify", "--a-max=3",
                           "--x-max", "9", "--x-max", "12", "--check", "--threads", "-4"])
    assert vars(args) == {"format": "csv", "command": "classify",
                          "a_max": 3, "x_max": 12, "min_entry": 2, "check": True,
                          "threads": -4}
    # a value given with = may start with dashes
    assert cli.parse_args(["asym", "--tuple=-1,2"]).tuple == (-1, 2)
    assert cli.parse_args(["agree", "--seed", "-3"]).seed == -3
    # the spec's text form is read by the command line, not by `simplex`
    assert cli.parse_spec("3,5,7:30") == SimplexSpec((3, 5, 7), 30)
    with pytest.raises(ValueError, match="expected 'a1,a2,...:d'"):
        cli.parse_spec("3,5,7")
    with pytest.raises(ValueError, match="malformed simplex spec"):
        cli.parse_spec("3,x:30")


@pytest.mark.parametrize("argv", [
    [],  # no command
    ["frobnicate"],  # unknown command
    ["hollow", "--alpha", "3,5,7:30", "--bogus", "1"],  # unknown option
    ["hollow", "--tuple", "6,10,15"],  # an option of another command
    ["asym", "--tuple", "6,10,15", "--format", "csv"],  # global option after the command
    ["classify", "--a-max", "3"],  # missing required option
    ["family", "--n"],  # missing value
    ["proscribe", "--tuple", "3,5", "--index", "--multiplier", "2"],  # missing value
    ["family", "--n", "x"],  # not an integer
    ["sset", "--x", "9", "--r", "2", "--method", "fast"],  # outside the choices
    ["--format", "xml", "family", "--n", "4"],  # outside the choices
    ["classify", "--a-m", "3", "--x-max", "9"],  # abbreviations are not accepted
    ["classify", "--a-max", "3", "--x-max", "9", "--check=yes"],  # a flag takes no value
    ["family", "--n", "4", "5"],  # stray argument
])
def test_usage_error_is_one_line_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["family", "--n", "4", "--help"]])
def test_help_lists_every_command(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    listed = [line.split()[0] for line in out.splitlines() if line[:3].strip() and
              line.startswith("  ")]
    assert listed == list(cli.COMMANDS)
    for _, _, options in cli.COMMANDS.values():
        assert all(f"--{name}" in out for name in options)


def test_failed_computation_exits_two(monkeypatch, capsys):
    # exit 1 is a computed negative verdict; a computation that dies is exit 2
    for exc in (MemoryError(), RecursionError("maximum recursion depth exceeded"),
                RuntimeError("prefix admits unbounded extensions")):
        def handler(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "family", (handler, *cli.COMMANDS["family"][1:]))
        assert cli.main(["family", "--n", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_byte_identical_reruns():
    for argv in (
        ["extend", "--tuple", "29,38,66"],
        ["--format", "csv", "points", "--alpha", "2,3:12"],
        ["--format", "table", "facets", "--alpha", "3,5,7:30"],
        ["classify", "--a-max", "2", "--x-max", "8"],
    ):
        first = run_cli(list(argv))
        second = run_cli(list(argv))
        assert first == second


def _golden_outputs():
    """(sha256, exit code, argv) rows of cli_outputs.sha256: each command's json,
    csv and table documents recorded before the option table converted specs and
    tuples, and the extend and proscribe documents recorded from the rational
    implementation of the proscriptive layer."""
    path = os.path.join(os.path.dirname(__file__), "cli_outputs.sha256")
    with open(path) as fh:
        return [tuple(line.rstrip("\n").split("  ", 2)) for line in fh if line.strip()]


_GOLDEN = _golden_outputs()


@pytest.mark.parametrize("digest, code, argv", _GOLDEN, ids=[argv for *_, argv in _GOLDEN])
def test_extension_outputs_match_recorded_bytes(digest, code, argv):
    exit_code, out = run_cli(argv.split())
    assert exit_code == int(code)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_recorded_bytes_cover_every_command():
    pinned = {argv.split()[2] for *_, argv in _GOLDEN}
    assert pinned == set(cli.COMMANDS)


# One invocation per command, with the tokens that its input does not echo:
# the flags and --threads, which do not change what is computed.
_ROUND_TRIPS = [
    (["hollow", "--alpha", " 3, 5,7 :30"], []),
    (["empty", "--alpha", "3,5,7:031"], []),
    (["points", "--alpha", "2,3:12"], []),
    (["facets", "--alpha", "3,5,7:30"], []),
    (["width", "--alpha", "2,12:6"], []),
    (["asym", "--tuple", "15, 6,10"], []),
    (["thresholds", "--tuple", "03,5,7 "], []),
    (["proscribe", "--multiplier", "3", "--tuple", "29,38,66", "--index", "0"], []),
    (["extend", "--tuple", "2,3"], []),
    (["classify", "--x-max", "16", "--check", "--min-entry", "3", "--a-max", "6"], ["--check"]),
    (["family", "--n", "5"], []),
    (["sset", "--method", "both", "--x", "23", "--r", "3"], []),
    (["agree", "--count", "6", "--threads", "2", "--window", "5", "--max-len", "3"],
     ["--threads", "2"]),
]


def test_round_trip_tuple_and_spec(no_child_left):
    assert [argv[0] for argv, _ in _ROUND_TRIPS] == list(cli.COMMANDS)
    for argv, unechoed in _ROUND_TRIPS:
        code, out = run_cli(argv)
        echoed = json.loads(out)["input"]
        rebuilt = [argv[0], *unechoed]
        for key, value in echoed.items():
            rebuilt += [f"--{key.replace('_', '-')}", str(value)]
        assert run_cli(rebuilt) == (code, out), argv
    code, out = run_cli(["asym", "--tuple", "15,6,10"])
    echoed = json.loads(out)["input"]["tuple"]
    assert parse_tuple(echoed) == (15, 6, 10)
    code, out = run_cli(["hollow", "--alpha", "3,5,7:30"])
    echoed = json.loads(out)["input"]["alpha"]
    assert cli.parse_spec(echoed) == SimplexSpec((3, 5, 7), 30)


def test_csv_and_table_formats_render():
    code, out = run_cli(["--format", "csv", "thresholds", "--tuple", "3,5,7"])
    assert code == 0
    assert "payload.C,84" in out
    code, out = run_cli(["--format", "table", "asym", "--tuple", "6,10,15"])
    assert code == 0
    assert "payload.asymptotically_hollow: true" in out


# (10^4000 + 2)(10^4000 - 1) = 10^8000 + 10^4000 - 2, past the 4300-digit
# limit on converting integers to text
_HUGE_BOUND = "1" + "0" * 4000 + "9" * 3999 + "8"


@pytest.mark.parametrize("fmt, line", [
    ("json", '"M_bound": {},\n'),
    ("csv", "payload.M_bound,{}\n"),
    ("table", "payload.M_bound: {}\n"),
], ids=["json", "csv", "table"])
def test_integers_past_the_digit_limit_print_whole(fmt, line):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out = run_cli(["--format", fmt, "thresholds", "--tuple", "3,1" + "0" * 4000])
    assert code == 0 and line.format(_HUGE_BOUND) in out
    assert limit() == before


def _launch(argv, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m hollowsimplex argv`, with buffered stdout as in a terminal
    pipeline unless `unbuffered` sets PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hollowsimplex.__file__))
    return subprocess.Popen([sys.executable, "-m", "hollowsimplex", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv, code", [
    (["asym", "--tuple", "6,10,15"], 0),
    (["asym", "--tuple", "3,7,9"], 1),
    (["agree", "--threads", "0"], 2),
])
def test_module_entry_point_matches_main(argv, code):
    out, err = _launch(argv).communicate(timeout=60)
    assert run_cli(argv) == (code, out.decode())
    assert err.decode().startswith("error: ") == (code == 2)


def test_pair_certificate_skips_a_huge_entry():
    # 10**12 + 1 is certified only by the pair {2, 10**12}, whose sum is 1 mod it:
    # no single other entry is 1 mod it, nor is their whole sum (4 mod it); without the
    # subset certificate its multipliers would take 5 * 10**11 steps to scan
    with _launch(["asym", "--tuple", "2,3,1000000000000,1000000000001"]) as proc:
        try:
            out, _ = proc.communicate(timeout=20)
        finally:
            proc.kill()
    assert proc.returncode == 0
    assert json.loads(out)["payload"]["asymptotically_hollow"] is True


def test_facets_on_sixty_entries_answers_within_seconds():
    # one row reduction per facet; a determinant per maximal minor, O(n^5) over all
    # facets, took about half a minute on this input
    alpha = ",".join(["2"] * 60) + ":1000"
    with _launch(["facets", "--alpha", alpha]) as proc:
        try:
            out, _ = proc.communicate(timeout=10)
        finally:
            proc.kill()
    assert proc.returncode == 0
    payload = json.loads(out)["payload"]
    assert payload["agrees"] is True and payload["volumes"] == [1] + [2] * 60 + [1]


def test_main_leaves_gc_unfrozen():
    # gc.freeze() belongs to the process entry point, never to main()
    before = gc.get_freeze_count()
    assert run_cli(["family", "--n", "6"])[0] == 0
    assert gc.get_freeze_count() == before


def _assert_one_error_line(proc, expected):
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == [f"error: {expected}"], err


def test_closed_output_pipe_exits_two():
    # The output is far larger than a pipe's buffer, so writing it fails.
    proc = _launch(["points", "--alpha", "2,15,20:201767"])
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _assert_one_error_line(proc, "[Errno 32] Broken pipe")


def test_closed_unbuffered_output_pipe_exits_two():
    # Unbuffered, the text layer writes straight through to the pipe and
    # drops the rest of a short write; main continues it, so the closed
    # pipe is seen.
    proc = _launch(["points", "--alpha", "2,9,18:201973"], unbuffered=True)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _assert_one_error_line(proc, "[Errno 32] Broken pipe")


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 1000 bytes per write."""

    def __init__(self):
        self.data = bytearray()
        self.asked = []

    def writable(self):
        return True

    def write(self, b):
        self.asked.append(len(b))
        self.data += bytes(b[:1000])
        return min(len(b), 1000)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_short_writes_are_continued_in_bounded_batches(monkeypatch, fmt):
    argv = ["--format", fmt, "points", "--alpha", "2,3:48007"]
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert cli.main(argv) == 0
    text = run_cli(argv)[1]
    assert len(text) > 1 << 17
    assert raw.data.decode() == text
    assert max(raw.asked) <= 1 << 16


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_device_exits_two():
    with open("/dev/full", "wb") as full:
        proc = _launch(["asym", "--tuple", "6,10,15"], stdout=full)
    _assert_one_error_line(proc, "[Errno 28] No space left on device")
