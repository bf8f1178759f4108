"""Exact combinatorial engine for fine zonotopal tilings of 2D zonotopes.

Builds tilings of the zonotope of n generic points on a line, enumerates
the full flip graph from orientation keys, classifies regularity with exact
height-vector certificates, and measures the diameters of the quotient
skeletons that realize the higher secondary polytopes and the lifting /
reduced hypertriangulation flip graphs.
"""

from .core import (
    Circuit,
    Finding,
    HeightVector,
    NonGenericHeightError,
    OrientationVector,
    PointConfig,
    Rational,
    circuits,
    format_rational,
    make_config,
    sigma_h,
    standard_config,
    to_rational,
)
from .flipgraph import (
    Chain,
    EnumerationCapError,
    FlipGraph,
    diameter,
    enumerate_tilings,
    expected_level_census,
    graph_diameter,
    graph_to_dot,
    graph_to_json,
    level_census,
    max_chain_through,
    sample_chain,
)
from .hypertri import (
    MonotonePath,
    StrongSeparationError,
    hypertri_diameters,
    reduced_cross_section,
    strongly_separated,
)
from .oracle import OracleCount, commutation_census, reduced_word_count_formula
from .regularity import (
    RegularityCertificate,
    RegularSet,
    classify_orientation,
    regular_set,
)
from .secondary import (
    PotentialReport,
    QuotientSkeleton,
    diameter_report,
    duality_check,
    equivalence_classes,
    modified_potential,
    potential,
    sigma_k_diameter_formula,
    skeleton,
    sum_skeleton_diameter_formula,
)
from .tiling import key_offsets, tiling_to_svg

__version__ = "0.1.0"
