"""Minimum rank of GF(2) matrices with a freely rewritable main diagonal.

Also covers the surface application: bounding the least number of Möbius
strips that weakly realize a double-occurrence cyclic word, via its
interlacement matrix.
"""

from .generate import SplitMix64, gen_random
from .gf2 import (
    DiagonalAssignment,
    Gf2Matrix,
    MatrixFormatError,
    add,
    complete_nondegenerate,
    corner_minor,
    determinant,
    parse_matrix,
    rank,
    render_matrix,
    with_diagonal,
)
from .hieroglyph import (
    Hieroglyph,
    HieroglyphFormatError,
    canonical_form,
    genus_approx,
    genus_decide,
    overlap_matrix,
    parse_hieroglyph,
)
from .rankmin import (
    ORACLE_MAX_DIM,
    DecisionOutcome,
    OracleSizeError,
    RankBounds,
    min_rank_approx,
    min_rank_decide,
    min_rank_exact,
    min_rank_oracle,
    upper_bound_even_rows,
)

__version__ = "0.1.0"

__all__ = [
    "DecisionOutcome",
    "DiagonalAssignment",
    "Gf2Matrix",
    "Hieroglyph",
    "HieroglyphFormatError",
    "MatrixFormatError",
    "ORACLE_MAX_DIM",
    "OracleSizeError",
    "RankBounds",
    "SplitMix64",
    "add",
    "canonical_form",
    "complete_nondegenerate",
    "corner_minor",
    "determinant",
    "gen_random",
    "genus_approx",
    "genus_decide",
    "min_rank_approx",
    "min_rank_decide",
    "min_rank_exact",
    "min_rank_oracle",
    "overlap_matrix",
    "parse_hieroglyph",
    "parse_matrix",
    "rank",
    "render_matrix",
    "upper_bound_even_rows",
    "with_diagonal",
]
