"""Exact arithmetic for hollow and empty lattice simplices.

Decides hollowness and emptiness of the simplices spanned by the origin,
unit vectors, and an integer row; decides asymptotic hollowness of positive
integer tuples by modular inequalities; computes proscriptive intervals and
finite extension searches; reproduces the known triple classification and
the bounded-remainder residue sets.
"""

from .arith import (
    HalfOpenInterval,
    RaySummary,
    content,
    ray_start,
    rem_pos,
    scaled_union,
)
from .asymptotic import (
    AgreementReport,
    CriterionWitness,
    StabilityThresholds,
    agreement_sweep,
    ascending,
    criterion_witness,
    is_asymptotically_hollow,
    robust_stability_point,
    sample_tuples,
    stability_thresholds,
)
from .classify import (
    SPORADIC_TRIPLES,
    TripleSet,
    classify_triples,
    doubling_family,
    family_identities,
    reference_triples,
    verify_family,
)
from .proscriptive import (
    PrefixReport,
    ProscriptiveDatum,
    candidate_extensions,
    nontrivial_data,
    proscriptive_datum,
)
from .residues import (
    ResidueSet,
    bounded_remainder_set,
    closed_form_remainder_set,
)
from .simplex import (
    EdgePointError,
    FacetVolumes,
    LatticePointReport,
    PairWitness,
    SimplexSpec,
    empty_sufficient,
    enumerate_non_extreme_points,
    facet_cotorsion,
    facet_volumes,
    first_interior_point,
    is_empty,
    is_hollow,
    pair_interior_witness,
    width_one,
    width_one_functional,
    width_upper_bound,
)

__version__ = "0.1.0"
