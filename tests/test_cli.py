import json
import os

import pytest

from conftest import run_cli

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


def test_invalid_inputs_exit_two():
    assert run_cli(["asym", "--tuple", "6,x,15"])[0] == 2
    assert run_cli(["hollow", "--alpha", "3,5,7"])[0] == 2
    assert run_cli(["sset", "--x", "5", "--r", "3"])[0] == 2
    assert run_cli(["asym", "--tuple", "7"])[0] == 2
    # asym has one multiplier range and no option to choose another
    with pytest.raises(SystemExit) as exc:
        run_cli(["asym", "--tuple", "6,10,15", "--range", "full"])
    assert exc.value.code == 2
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


def test_failed_computation_exits_two(monkeypatch, capsys):
    # exit 1 is a computed negative verdict; a computation that dies is exit 2
    from hollowsimplex import cli

    for exc in (MemoryError(), RecursionError("maximum recursion depth exceeded"),
                RuntimeError("prefix admits unbounded extensions")):
        def handler(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "family", handler)
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
