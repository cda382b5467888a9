"""The package's import surface and its records.

`import hollowsimplex` and building the CLI parser load no compute module,
every exported name resolves to its submodule's object, and the records
keep their fields, validation, pickling and the trip through worker
processes.
"""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import hollowsimplex
from hollowsimplex import arith, asymptotic, classify, proscriptive, residues, simplex

SRC = os.path.dirname(os.path.dirname(hollowsimplex.__file__))
COMPUTE = ("arith", "asymptotic", "classify", "proscriptive", "residues", "simplex")


def _loaded_after(code):
    """Names in sys.modules after running code in a fresh interpreter
    started with -S, so that nothing from site-packages is loaded."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    ).stdout
    return set(out.split())


def test_launch_loads_no_compute_module():
    loaded = _loaded_after("import hollowsimplex, hollowsimplex.cli as cli\ncli.build_parser()")
    assert "hollowsimplex.cli" in loaded
    assert not {f"hollowsimplex.{m}" for m in COMPUTE} & loaded
    # nor heavier stdlib modules that building the parser never needs
    assert not {"dataclasses", "pickle", "concurrent"} & loaded
    assert not {"argparse", "gettext", "locale", "fractions", "decimal"} & loaded


@pytest.mark.parametrize("argv, used, unused", [
    (["sset", "--x", "30", "--r", "3", "--method", "both"], "residues", ("simplex",)),
    (["family", "--n", "8"], "classify", ("simplex", "proscriptive")),
    (["asym", "--tuple", "6,10,15"], "asymptotic", ("simplex",)),
    (["agree", "--count", "3", "--window", "2"], "simplex", ("proscriptive",)),
])
def test_subcommand_loads_only_what_it_runs(argv, used, unused):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from hollowsimplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    assert f"hollowsimplex.{used}" in loaded
    assert not {f"hollowsimplex.{m}" for m in unused} & loaded
    assert "pickle" not in loaded  # loaded only where workers are forked
    assert "hollowsimplex.render" not in loaded  # json output is written by cli


@pytest.mark.parametrize("argv, builds_rationals", [
    (["asym", "--tuple", "6,10,15"], False),
    (["thresholds", "--tuple", "3,5,7"], False),
    (["family", "--n", "8"], False),
    (["sset", "--x", "30", "--r", "3", "--method", "both"], False),
    (["agree", "--count", "3", "--window", "2"], False),
    (["empty", "--alpha", "3,5,7:31"], False),
    (["width", "--alpha", "2,3,3,3,4:12"], False),
    (["facets", "--alpha", "3,5,7:30"], False),
    (["hollow", "--alpha", "3,5,7:30"], False),  # a hollow verdict has no witness
    (["points", "--alpha", "2,3:12"], True),
])
def test_fractions_load_only_where_a_rational_is_built(argv, builds_rationals):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from hollowsimplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    assert ("fractions" in loaded) == builds_rationals
    assert ("decimal" in loaded) == builds_rationals


def test_export_table_resolves_to_submodules():
    for module, names in hollowsimplex._EXPORTS.items():
        mod = importlib.import_module(f"hollowsimplex.{module}")
        for name in names:
            assert getattr(hollowsimplex, name) is getattr(mod, name), name
            assert name in dir(hollowsimplex)
        assert getattr(hollowsimplex, module) is mod
    assert set(hollowsimplex.__all__) == set(hollowsimplex._SUBMODULE)
    with pytest.raises(AttributeError):
        getattr(hollowsimplex, "no_such_name")


def _samples():
    spec = simplex.SimplexSpec((2, 3), 13)
    return {
        arith.HalfOpenInterval: arith.HalfOpenInterval(1, Fraction(3, 2)),
        arith.RaySummary: arith.RaySummary(Fraction(7, 2), (1, 2), 5),
        asymptotic.CriterionWitness: asymptotic.criterion_witness((3, 7, 9)),
        asymptotic.StabilityThresholds: asymptotic.stability_thresholds((3, 5, 7)),
        asymptotic.AgreementMismatch: asymptotic.AgreementMismatch((2, 3), 7, True, False),
        asymptotic.AgreementReport: asymptotic.agreement_sweep([(3, 5, 7)], window=3),
        classify.TripleSet: classify.reference_triples(12),
        proscriptive.ProscriptiveDatum: proscriptive.proscriptive_datum((3, 5), 1, 2),
        proscriptive.PrefixReport: proscriptive.candidate_extensions((3, 5)),
        residues.ResidueSet: residues.bounded_remainder_set(30, 3),
        simplex.SimplexSpec: spec,
        simplex.LatticePointReport: simplex.first_interior_point(spec),
        simplex.FacetVolumes: simplex.facet_volumes(spec),
        simplex.PairWitness: simplex.pair_interior_witness(2, 3, 40),
    }


def test_record_fields_keep_their_order():
    fields = {
        arith.HalfOpenInterval: ("lo", "hi"),
        arith.RaySummary: ("ray_start", "gaps", "horizon"),
        asymptotic.CriterionWitness: ("index", "entry", "t", "lhs", "rhs"),
        asymptotic.StabilityThresholds: ("m_bound", "M_bound"),
        asymptotic.AgreementMismatch: ("a", "big_n", "criterion", "brute_force"),
        asymptotic.AgreementReport: ("tuples_checked", "points_checked", "mismatches"),
        classify.TripleSet: ("sporadic", "family_xs"),
        proscriptive.ProscriptiveDatum: ("index", "entry", "m", "g_row", "f", "denom",
                                         "interval"),
        proscriptive.PrefixReport: ("b", "s", "data", "unbounded", "horizon", "union",
                                    "candidates"),
        residues.ResidueSet: ("x", "r", "members", "variant"),
        simplex.SimplexSpec: ("a", "d"),
        simplex.LatticePointReport: ("k", "coords", "location", "lambda_sum"),
        simplex.FacetVolumes: ("volumes",),
        simplex.PairWitness: ("point", "lambda_sum"),
    }
    assert set(fields) == set(_samples())
    for record, names in fields.items():
        assert record._fields == names, record


def test_records_are_immutable_tuples():
    for record, value in _samples().items():
        assert type(value) is record
        assert tuple(value) == tuple(getattr(value, f) for f in record._fields)
        with pytest.raises(AttributeError):
            setattr(value, record._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_simplex_spec_validates_and_coerces():
    spec = simplex.SimplexSpec([2.0, True], 5)
    assert spec.a == (2, 1) and all(type(v) is int for v in spec.a)
    assert simplex.SimplexSpec(a=(2, 3), d=13) == simplex.SimplexSpec((2, 3), 13)
    with pytest.raises(ValueError, match=r"^need at least two entries \(ambient dimension >= 3\)$"):
        simplex.SimplexSpec((2,), 5)
    with pytest.raises(ValueError, match=r"^entries must be positive, got \(2, 0\)$"):
        simplex.SimplexSpec((2, 0), 5)
    with pytest.raises(ValueError, match=r"^last entry must be positive, got 0$"):
        simplex.SimplexSpec((2, 3), 0)


def test_half_open_interval_coerces_to_fractions():
    iv = arith.HalfOpenInterval(1, 2)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert arith.HalfOpenInterval(hi="5/2", lo=0.5) == (Fraction(1, 2), Fraction(5, 2))
    assert str(iv) == "[1, 2)" and not iv.is_empty


def test_records_pickle_round_trip():
    for record, value in _samples().items():
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is record and back == value


def test_records_cross_worker_processes():
    # copy.copy runs in the workers: each record is pickled there and back
    samples = list(_samples().values())
    back = arith.parallel_map(copy.copy, samples, threads=2)
    assert back == samples
    assert [type(r) for r in back] == [type(r) for r in samples]
