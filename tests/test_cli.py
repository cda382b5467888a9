import gc
import io
import json
import os
import subprocess
import sys

import pytest

from conftest import run_cli

import hollowsimplex
from hollowsimplex import cli
from hollowsimplex.cli import parse_tuple, tuple_str
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


def test_invalid_inputs_exit_two():
    assert run_cli(["asym", "--tuple", "6,x,15"])[0] == 2
    assert run_cli(["hollow", "--alpha", "3,5,7"])[0] == 2
    assert run_cli(["sset", "--x", "5", "--r", "3"])[0] == 2
    assert run_cli(["asym", "--tuple", "7"])[0] == 2
    # asym has one multiplier range and no option to choose another
    assert run_cli(["asym", "--tuple", "6,10,15", "--range", "full"])[0] == 2
    assert run_cli(["agree", "--min-len", "5", "--max-len", "3"])[0] == 2
    # Sweeps that would check nothing, or sample from an empty range, are refused.
    for argv in (["--window", "0"], ["--window", "-3"], ["--count", "0"],
                 ["--count", "-1"], ["--low", "5", "--high", "2"]):
        assert run_cli(["agree", *argv])[0] == 2
    # Out-of-range worker counts are refused before any process starts.
    assert run_cli(["classify", "--a-max", "2", "--x-max", "5", "--threads", "-4"])[0] == 2
    assert run_cli(["agree", "--threads", "0"])[0] == 2
    too_many = str((os.cpu_count() or 1) + 1)
    assert run_cli(["agree", "--threads", too_many])[0] == 2


# Each command with its required options, and every option it then parses
# to: the values argparse gave, written out.
_PARSED = [
    (["hollow", "--alpha", "3,5,7:30"], {"alpha": "3,5,7:30"}),
    (["empty", "--alpha", "3,5,7:31"], {"alpha": "3,5,7:31"}),
    (["points", "--alpha", "2,3:12"], {"alpha": "2,3:12"}),
    (["facets", "--alpha", "3,5,7:30"], {"alpha": "3,5,7:30"}),
    (["width", "--alpha", "2,3:13"], {"alpha": "2,3:13"}),
    (["asym", "--tuple", "6,10,15"], {"tuple": "6,10,15"}),
    (["thresholds", "--tuple", "3,5,7"], {"tuple": "3,5,7"}),
    (["proscribe", "--tuple", "29,38,66"],
     {"tuple": "29,38,66", "index": None, "multiplier": None}),
    (["extend", "--tuple", "29,38,66"], {"tuple": "29,38,66"}),
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
    assert parsed == {"format": "json", "timing": False, "command": argv[0], **options}


def test_defaults_cover_every_command():
    assert [argv[0] for argv, _ in _PARSED] == list(cli.COMMANDS)


def test_parsing_rules():
    args = cli.parse_args(["--format=csv", "--timing", "classify", "--a-max=3",
                           "--x-max", "9", "--x-max", "12", "--check", "--threads", "-4"])
    assert vars(args) == {"format": "csv", "timing": True, "command": "classify",
                          "a_max": 3, "x_max": 12, "min_entry": 2, "check": True,
                          "threads": -4}
    # a value given with = may start with dashes
    assert cli.parse_args(["asym", "--tuple=--1"]).tuple == "--1"


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


def test_round_trip_tuple_and_spec():
    code, out = run_cli(["asym", "--tuple", "15,6,10"])
    echoed = json.loads(out)["input"]["tuple"]
    assert parse_tuple(echoed) == (15, 6, 10)
    code, out = run_cli(["hollow", "--alpha", "3,5,7:30"])
    echoed = json.loads(out)["input"]["alpha"]
    assert SimplexSpec.parse(echoed) == SimplexSpec((3, 5, 7), 30)
    assert tuple_str((6, 10, 15)) == "6,10,15"


def test_csv_and_table_formats_render():
    code, out = run_cli(["--format", "csv", "thresholds", "--tuple", "3,5,7"])
    assert code == 0
    assert "payload.C,84" in out
    code, out = run_cli(["--format", "table", "asym", "--tuple", "6,10,15"])
    assert code == 0
    assert "payload.asymptotically_hollow: true" in out


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
