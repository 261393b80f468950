"""Degree-distribution design workbench for accumulate-repeat-accumulate erasure codes."""

from .powerseries import (
    DegreeDistribution,
    DegreePair,
    PowerSeries,
    edge_from_node,
    node_from_edge,
    truncate_bit,
    truncate_check,
)
from .tilting import (
    chop_pair,
    complexity,
    de_residual,
    design_rate,
    stability,
    symmetry_swap,
    threshold_search,
    tilt,
    truncate_pair,
    untilt,
    untilt_node,
)
from .constructions import (
    CATALOG,
    build_catalog_pair,
    lambert_w0,
    matched_image_series,
    solve_b,
    validity_region,
)

__all__ = [
    # power series and degree distributions
    "DegreeDistribution", "DegreePair", "PowerSeries", "edge_from_node", "node_from_edge",
    "truncate_bit", "truncate_check",
    # graph reduction and density evolution
    "chop_pair", "complexity", "de_residual", "design_rate", "stability", "symmetry_swap",
    "threshold_search", "tilt", "truncate_pair", "untilt", "untilt_node",
    # constructions
    "CATALOG", "build_catalog_pair", "lambert_w0", "matched_image_series", "solve_b",
    "validity_region",
]
