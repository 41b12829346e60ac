"""Exact computations around Schubert polynomials, Soergel-type bimodule
filtrations, and the charge lattice of stability conditions on products of
elliptic curves.  All arithmetic is over the rationals; no floating point
appears outside test oracles.
"""

from .bimodule import (
    BimoduleElement,
    GraphTwistEntry,
    graph_twist_table,
    membership_in_gamma,
    right_multiply,
    s_basis_coordinates,
    s_element,
    verify_bimodule_closure,
    verify_filtration_identity,
    verify_triangular_injectivity,
    verify_unitriangular,
)
from .lattice import (
    ChargeParams,
    ExactComplex,
    LatticeVector,
    central_charge,
    isogeny_pullback,
    isogeny_pushforward,
    twist,
    v_of_line_bundle,
    vector_from_rank_deg,
    verify_charge_transforms,
)
from .perms import Permutation, symmetric_group
from .poly import (
    Poly,
    divided_difference,
    negate_x,
    permute_x,
    verify_demazure_relations,
)
from .schubert import (
    delta_w,
    double_delta,
    double_schubert,
    double_schubert_expansion,
    schubert_poly,
    staircase,
)
from .stability import (
    PhasePoint,
    RelationFact,
    SplitSheafP1,
    bayer_shadow_scan,
    compose_relations,
    derive_twist_chain,
    hn_split_p1,
    phase,
    replay_twist_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BimoduleElement",
    "ChargeParams",
    "ExactComplex",
    "GraphTwistEntry",
    "LatticeVector",
    "Permutation",
    "PhasePoint",
    "Poly",
    "RelationFact",
    "SplitSheafP1",
    "bayer_shadow_scan",
    "central_charge",
    "compose_relations",
    "delta_w",
    "derive_twist_chain",
    "divided_difference",
    "double_delta",
    "double_schubert",
    "double_schubert_expansion",
    "graph_twist_table",
    "hn_split_p1",
    "isogeny_pullback",
    "isogeny_pushforward",
    "membership_in_gamma",
    "negate_x",
    "permute_x",
    "phase",
    "replay_twist_chain",
    "right_multiply",
    "s_basis_coordinates",
    "s_element",
    "schubert_poly",
    "staircase",
    "symmetric_group",
    "twist",
    "v_of_line_bundle",
    "vector_from_rank_deg",
    "verify_bimodule_closure",
    "verify_charge_transforms",
    "verify_demazure_relations",
    "verify_filtration_identity",
    "verify_triangular_injectivity",
    "verify_unitriangular",
]
