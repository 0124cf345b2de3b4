"""Exact combinatorial circle bundles: surfaces, connections, curvature,
vector-field indices, and the winding identity that ties them together."""

from .bundle import (
    DiscreteConnection,
    FlatnessStructure,
    GaugeTransformation,
    attach_flatness,
    build_connection,
    canonical_flatness,
    face_reports,
    flat_connection,
    gauge_transform,
    net_holonomy,
    tangent_connection,
    total_flatness_winding,
)
from .complex import (
    OrientedSurface,
    build_surface,
    euler_characteristic,
)
from .errors import ValidationFailed, ValidationReport, WindexError
from .field import (
    IndexReport,
    VectorField,
    build_field,
    gauge_transform_field,
    swirl_path,
    totals,
)

SIGN_CONVENTIONS = "v1"  # see docs/conventions.md

__all__ = [
    "DiscreteConnection",
    "FlatnessStructure",
    "GaugeTransformation",
    "IndexReport",
    "OrientedSurface",
    "SIGN_CONVENTIONS",
    "ValidationFailed",
    "ValidationReport",
    "VectorField",
    "WindexError",
    "attach_flatness",
    "build_connection",
    "build_field",
    "build_surface",
    "canonical_flatness",
    "euler_characteristic",
    "face_reports",
    "flat_connection",
    "gauge_transform",
    "gauge_transform_field",
    "net_holonomy",
    "swirl_path",
    "tangent_connection",
    "total_flatness_winding",
    "totals",
]
