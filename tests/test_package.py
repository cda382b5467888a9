"""The package's import surface and its records.

`import hollowsimplex` and building the CLI parser load no compute module,
every exported name resolves to its submodule's object, and the records
keep their fields, validation, pickling and the trip through worker
processes. The tests' references import no package module at load time.
"""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hollowsimplex
from hollowsimplex import arith, asymptotic, classify, proscriptive, simplex

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
    (["hollow", "--alpha", "3,5,7:30"], "simplex", ("arith",)),
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
    assert ("random" in loaded) == (argv[0] == "agree")  # only sampling loads it


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
    # the extension search runs on integers; only the records extend and
    # proscribe print hold rationals
    (["classify", "--a-max", "6", "--x-max", "15", "--check"], False),
    (["extend", "--tuple", "29,38,66"], True),
    (["proscribe", "--tuple", "29,38,66"], True),
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


@pytest.mark.parametrize("path", ["bench/oracle.py", "tests/conftest.py"])
def test_references_import_no_package_module(path):
    # only what a function body runs is skipped; a module-level import of the
    # package would let a reference share the kernel it checks
    stack = ast.parse((Path(__file__).resolve().parent.parent / path).read_text()).body
    imported = []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    assert imported
    assert not [m for m in imported if m.split(".")[0] == "hollowsimplex"], path


# The 38 exported names, pinned so that one is added or removed on purpose.
_EXPORTED = (
    "AgreementReport", "CriterionWitness", "EdgePointError", "HalfOpenInterval",
    "LatticePointReport", "PrefixReport", "ProscriptiveDatum",
    "SPORADIC_TRIPLES", "SimplexSpec", "StabilityThresholds",
    "TripleSet", "agreement_sweep", "ascending", "bounded_remainder_set",
    "candidate_extensions", "classify_triples", "closed_form_remainder_set",
    "criterion_witness", "doubling_family", "empty_sufficient",
    "enumerate_non_extreme_points", "facet_cotorsion", "facet_volumes",
    "family_identities", "first_interior_point", "is_asymptotically_hollow", "is_empty",
    "is_hollow", "nontrivial_data", "proscriptive_datum", "reference_triples",
    "robust_stability_point", "sample_tuples", "stability_thresholds", "verify_family",
    "width_one", "width_one_functional", "width_upper_bound",
)


def test_export_table_resolves_to_submodules():
    for module, names in hollowsimplex._EXPORTS.items():
        mod = importlib.import_module(f"hollowsimplex.{module}")
        for name in names:
            assert getattr(hollowsimplex, name) is getattr(mod, name), name
            assert name in dir(hollowsimplex)
        assert getattr(hollowsimplex, module) is mod
    assert set(hollowsimplex.__all__) == set(hollowsimplex._SUBMODULE)
    assert len(_EXPORTED) == 38 and sorted(hollowsimplex.__all__) == list(_EXPORTED)
    # no_such_name, the code that only the tests called, and the records that only
    # wrapped a tuple or echoed their inputs, which are gone
    for name in ("no_such_name", "rem_pos", "pair_interior_witness", "PairWitness",
                 "FacetVolumes", "ResidueSet", "RaySummary"):
        with pytest.raises(AttributeError):
            getattr(hollowsimplex, name)


def _samples():
    spec = simplex.SimplexSpec((2, 3), 13)
    return {
        asymptotic.CriterionWitness: asymptotic.criterion_witness((3, 7, 9)),
        asymptotic.StabilityThresholds: asymptotic.stability_thresholds((3, 5, 7)),
        asymptotic.AgreementMismatch: asymptotic.AgreementMismatch((2, 3), 7, True, False),
        asymptotic.AgreementReport: asymptotic.agreement_sweep([(3, 5, 7)], window=3),
        classify.TripleSet: classify.reference_triples(12, 12),
        proscriptive.ProscriptiveDatum: proscriptive.proscriptive_datum((3, 5), 1, 2),
        proscriptive.PrefixReport: proscriptive.candidate_extensions((3, 5)),
        proscriptive.HalfOpenInterval: proscriptive.HalfOpenInterval(Fraction(1), Fraction(3, 2)),
        simplex.SimplexSpec: spec,
        simplex.LatticePointReport: simplex.first_interior_point(spec),
    }


def test_record_fields_keep_their_order():
    fields = {
        asymptotic.CriterionWitness: ("index", "entry", "t", "lhs", "rhs"),
        asymptotic.StabilityThresholds: ("m_bound", "M_bound"),
        asymptotic.AgreementMismatch: ("a", "big_n", "criterion", "brute_force"),
        asymptotic.AgreementReport: ("tuples_checked", "points_checked", "mismatches"),
        classify.TripleSet: ("sporadic", "family_xs"),
        proscriptive.ProscriptiveDatum: ("index", "entry", "m", "g_row", "f", "denom",
                                         "interval"),
        proscriptive.PrefixReport: ("b", "s", "data", "unbounded", "horizon", "ray_start",
                                    "gaps", "candidates"),
        proscriptive.HalfOpenInterval: ("lo", "hi"),
        simplex.SimplexSpec: ("a", "d"),
        simplex.LatticePointReport: ("k", "coords", "location", "lambda_sum"),
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
    # the whole-number rule of entry tuples, written over the whole row (a..., d)
    with pytest.raises(ValueError, match=r"^entries must be positive, got \(2, 0, 5\)$"):
        simplex.SimplexSpec((2, 0), 5)
    with pytest.raises(ValueError, match=r"^entries must be positive, got \(2, 3, 0\)$"):
        simplex.SimplexSpec((2, 3), 0)
    spec = simplex.SimplexSpec((3, 5, 7), 30.0)  # d is coerced as the entries are
    assert type(spec.d) is int and simplex.is_hollow(spec)
    # a value that is not whole is refused, never truncated
    for a, d, shown in (((3.7, 5), 30, r"\(3\.7, 5, 30\)"),
                        ((3, 5, 7), 30.5, r"\(3, 5, 7, 30\.5\)"),
                        ((3, "5"), 30, r"\(3, '5', 30\)"),
                        ((3, 5), None, r"\(3, 5, None\)")):
        with pytest.raises(ValueError, match=rf"^entries must be integers, got {shown}$"):
            simplex.SimplexSpec(a, d)


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
