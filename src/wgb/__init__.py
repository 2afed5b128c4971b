"""Groebner bases, Hilbert series and cost bounds for weighted homogeneous
polynomial systems over prime fields."""

from .field import PrimeField
from .monomial import WeightSystem, wdeg
from .order import MonomialOrder
from .poly import PolyRing, Polynomial, PolySystem, reduce_poly, spoly
from .transform import (
    dehomogenize,
    hom_w,
    hom_w_inverse,
    w_homogeneous_components,
    w_homogenize_affine,
)
from .series import (
    HilbertSeries,
    delta_semiregular_n_plus_1,
    expand_rational,
    ideal_degree,
    quotient_hilbert_series,
    truncate_semiregular,
)
from .bounds import (
    BoundsReport,
    asymptotic_dreg,
    bounds_report,
    conjectured_dreg,
    estimate_costs,
    frobenius_number,
    hermite_largest_root,
    macaulay_snp,
    macaulay_weak,
    sylvester_denumerant,
    weighted_bezout,
)
from .engine import (
    GroebnerBasis,
    buchberger,
    elimination_gb,
    gb_via_homw,
    matrix_gb_whomog,
)
from .structure import (
    StructureReport,
    froberg_sequence,
    inversion_system,
    is_noether_position,
    is_regular_sequence,
    is_reverse_chain_divisible,
    is_semiregular,
    is_snp,
    is_strongly_w_compatible,
    random_affine_system,
    random_w_homogeneous_system,
    structure_report,
)
from .fglm import fglm_lex, multiplication_matrices, staircase

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "WeightSystem",
    "wdeg",
    "MonomialOrder",
    "PolyRing",
    "Polynomial",
    "PolySystem",
    "reduce_poly",
    "spoly",
    "hom_w",
    "hom_w_inverse",
    "w_homogenize_affine",
    "dehomogenize",
    "w_homogeneous_components",
    "HilbertSeries",
    "expand_rational",
    "truncate_semiregular",
    "delta_semiregular_n_plus_1",
    "quotient_hilbert_series",
    "ideal_degree",
    "BoundsReport",
    "macaulay_weak",
    "macaulay_snp",
    "conjectured_dreg",
    "frobenius_number",
    "weighted_bezout",
    "sylvester_denumerant",
    "hermite_largest_root",
    "asymptotic_dreg",
    "estimate_costs",
    "bounds_report",
    "GroebnerBasis",
    "buchberger",
    "matrix_gb_whomog",
    "gb_via_homw",
    "elimination_gb",
    "StructureReport",
    "is_reverse_chain_divisible",
    "is_strongly_w_compatible",
    "is_regular_sequence",
    "is_noether_position",
    "is_snp",
    "is_semiregular",
    "random_w_homogeneous_system",
    "random_affine_system",
    "froberg_sequence",
    "inversion_system",
    "structure_report",
    "staircase",
    "multiplication_matrices",
    "fglm_lex",
]
