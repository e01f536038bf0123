"""Exact statistics of ordered rooted trees with restricted child counts.

Given a finite set S of allowed child counts (0 always included), this
package counts the trees on n vertices exactly, computes raw, central, and
scaled (mixed) moments of the per-tree statistics X_s = "number of vertices
with s children", compares them against the matching bivariate normal
moments, guesses P-recursive recurrences for the resulting integer
sequences, and cross-checks everything with exhaustive enumeration and
exactly uniform random sampling.  All arithmetic is exact.
"""

from .childset import ChildSet
from .derived import count_range
from .engine import (
    NumeratorTable,
    count_trees,
    numerator_grid,
    numerator_grids,
    numerator_mixed,
    numerator_sequence,
)
from .errors import (
    DegenerateVariance,
    DomainError,
    EnumerationTooLarge,
    InsufficientData,
    InvalidCorrelation,
    LeadingCoefficientZero,
    NonUnitConstantTerm,
    NoTrees,
)
from .gaussref import (
    GapReport,
    GapRow,
    NormalMomentPoly,
    NormalMomentValue,
    normal_mixed_moment_eval,
    normal_mixed_moment_poly,
    normality_gap_report,
)
from .moments import (
    DEFAULT_DIGITS,
    MomentReport,
    MomentSpec,
    ScaledMoment,
    central_moment,
    correlation,
    moment_report,
    raw_moment,
    scaled_moment,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    JointCoefficient,
    MonteCarloEstimate,
    TreeSampler,
    child_count_distribution,
    enumerate_trees,
    format_code,
    is_valid_code,
    joint_gf_fixpoint,
    parse_code,
    monte_carlo_moment,
    oracle_numerator,
    sample_tree_uniform,
)
from .recurrence import (
    ExtendedSequence,
    Recurrence,
    VerifyResult,
    extend_sequence,
    guess_recurrence,
    verify_recurrence,
)
from .render import SqrtExpr, format_fraction

__version__ = "0.1.0"

__all__ = [
    "ChildSet",
    "NumeratorTable",
    "count_trees",
    "count_range",
    "numerator_grid",
    "numerator_grids",
    "numerator_mixed",
    "numerator_sequence",
    "DomainError",
    "NoTrees",
    "DegenerateVariance",
    "EnumerationTooLarge",
    "NonUnitConstantTerm",
    "InvalidCorrelation",
    "InsufficientData",
    "LeadingCoefficientZero",
    "GapReport",
    "GapRow",
    "NormalMomentPoly",
    "NormalMomentValue",
    "normal_mixed_moment_poly",
    "normal_mixed_moment_eval",
    "normality_gap_report",
    "DEFAULT_DIGITS",
    "MomentReport",
    "MomentSpec",
    "ScaledMoment",
    "raw_moment",
    "central_moment",
    "scaled_moment",
    "correlation",
    "moment_report",
    "DEFAULT_ENUMERATION_CAP",
    "JointCoefficient",
    "MonteCarloEstimate",
    "TreeSampler",
    "child_count_distribution",
    "enumerate_trees",
    "format_code",
    "parse_code",
    "is_valid_code",
    "joint_gf_fixpoint",
    "monte_carlo_moment",
    "oracle_numerator",
    "sample_tree_uniform",
    "ExtendedSequence",
    "Recurrence",
    "VerifyResult",
    "guess_recurrence",
    "verify_recurrence",
    "extend_sequence",
    "SqrtExpr",
    "format_fraction",
]
