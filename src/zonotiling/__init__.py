"""Exact combinatorial engine for fine zonotopal tilings of 2D zonotopes.

Builds tilings of the zonotope of n generic points on a line, enumerates
the full flip graph from orientation keys, classifies regularity with exact
height-vector certificates, and measures the diameters of the quotient
skeletons that realize the higher secondary polytopes and the lifting /
reduced hypertriangulation flip graphs.
"""

from .core import Finding, PointConfig, make_config, sigma_h, standard_config
from .flipgraph import (
    FlipGraph,
    enumerate_tilings,
    expected_level_census,
    graph_diameter,
    graph_to_dot,
    graph_to_json,
    level_census,
    sample_chain,
)
from .hypertri import hypertri_diameters, reduced_cross_section
from .oracle import commutation_census, reduced_word_count_formula
from .regularity import regular_set
from .secondary import (
    diameter_report,
    equivalence_classes,
    modified_potential,
    potential,
    sigma_k_diameter_formula,
    skeleton,
    sum_skeleton_diameter_formula,
)
from .tiling import key_offsets, tiling_to_svg

__version__ = "0.1.0"
