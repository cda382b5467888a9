"""Exact arithmetic for hollow and empty lattice simplices.

Decides hollowness and emptiness of the simplices spanned by the origin,
unit vectors, and an integer row; decides asymptotic hollowness of positive
integer tuples by modular inequalities; computes proscriptive intervals and
finite extension searches; reproduces the known triple classification and
the bounded-remainder residue sets.

The names below are exported lazily: each submodule is imported the first
time one of its names (or the submodule itself) is looked up here, so
`import hollowsimplex` loads nothing else.
"""

_EXPORTS = {
    "arith": (),
    "asymptotic": (
        "AgreementReport",
        "CriterionWitness",
        "StabilityThresholds",
        "agreement_sweep",
        "ascending",
        "criterion_witness",
        "is_asymptotically_hollow",
        "robust_stability_point",
        "sample_tuples",
        "stability_thresholds",
    ),
    "classify": (
        "SPORADIC_TRIPLES",
        "TripleSet",
        "classify_triples",
        "doubling_family",
        "family_identities",
        "reference_triples",
        "verify_family",
    ),
    "proscriptive": (
        "HalfOpenInterval",
        "PrefixReport",
        "ProscriptiveDatum",
        "candidate_extensions",
        "nontrivial_data",
        "proscriptive_datum",
    ),
    "residues": (
        "bounded_remainder_set",
        "closed_form_remainder_set",
    ),
    "simplex": (
        "EdgePointError",
        "LatticePointReport",
        "SimplexSpec",
        "empty_sufficient",
        "enumerate_non_extreme_points",
        "facet_cotorsion",
        "facet_volumes",
        "first_interior_point",
        "is_empty",
        "is_hollow",
        "width_one",
        "width_one_functional",
        "width_upper_bound",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def _positive_integers(given: tuple) -> tuple[int, ...]:
    """given as ints, for the entry tuples of `asymptotic.entries` and the rows of
    `simplex.SimplexSpec`: a whole value such as 6.0 or True becomes its int, and any
    other value, or one below 1, is refused. Each caller checks its own count first."""
    try:
        row = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        row = None
    if row != given:
        raise ValueError(f"entries must be integers, got {given}")
    if any(v < 1 for v in row):
        raise ValueError(f"entries must be positive, got {row}")
    return row


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULE:
        value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE) | set(_EXPORTS))
