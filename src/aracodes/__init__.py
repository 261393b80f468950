"""Degree-distribution design workbench for accumulate-repeat-accumulate erasure codes."""

from .powerseries import (
    DegreeDistribution,
    DegreePair,
    PowerSeries,
    edge_from_node,
    node_from_edge,
    t_operator,
    truncate_bit,
    truncate_check,
)
from .tilting import (
    DEState,
    TiltedPair,
    chop_pair,
    complexity,
    de_iterate,
    de_residual,
    design_rate,
    puncture,
    stability,
    symmetry_swap,
    threshold_search,
    tilt,
    tilt_edge,
    tilt_node,
    truncate_pair,
    untilt,
    untilt_node,
)
from .constructions import (
    CATALOG,
    build_catalog_pair,
    cmk_table,
    lambert_w0,
    matched_image_series,
    solve_b,
    solve_check_from_bit,
    validity_region,
)

__all__ = [name for name in dir() if not name.startswith("_")]
