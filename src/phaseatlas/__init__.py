"""Qualitative analysis of planar rational ODE systems.

Desingularization to polynomial fields, stationary-point classification,
quasi-homogeneous blow-ups of nilpotent points, Poincaré compactification,
vector-field indices, a sixteen-region parameter atlas, and phase-portrait
rendering on the Poincaré disc.
"""

from .atlas import REGION_IDS, FieldAnalysis, RegionSummary, classify_region, region_summary, scan_grid
from .blowup import (
    BlowupChart,
    SectorDecomposition,
    blowup_directional,
    classify_nilpotent_origin,
    divisor_stationary_points,
)
from .compact import (
    InfinitePoint,
    InfinityContinuum,
    compactify_chart,
    disc_coords,
    infinite_stationary_points,
)
from .desing import (
    PolyField,
    RationalField,
    cdk_poly_field,
    cdk_rational_field,
    desingularize,
    sprott_field,
)
from .dynamics import (
    IntegratorOptions,
    Trajectory,
    index_on_circle,
    integrate,
    omega_limit,
)
from .equilibria import (
    ClassificationKind,
    StationaryCircle,
    StationaryPoint,
    cdk_stationary_points,
    classify_linear,
    find_stationary,
    jacobian_at,
)
from .polycore import BiPoly, NewtonWeights, Rational, newton_weights, poly_gcd
from .portrait import render_portrait, render_region_map
from .sysio import SystemSpec, build_report, format_report, parse_system

__version__ = "0.1.0"
