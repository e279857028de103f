"""Timelike meridian surfaces in Minkowski 4-space.

Library for constructing the classified timelike surfaces of the form
z(u, v) = f(u) l(v) + g(u) e4, computing their frames and differential
invariants with order-3 jets, and verifying the classification
statements and natural-PDE solutions as machine-checkable properties.
"""
from .diffkit import (
    Interval,
    Jet3,
    OdeSolution,
    SmoothFn1,
    constant_fn,
    expr_fn,
    fd_check,
    integrate_profile,
    jet_fn,
    poly_fn,
    quadrature,
    sin_offset_fn,
)
from .families import (
    FamilySpec,
    FamilyVerdict,
    build_profile,
    build_surface,
    default_directrix,
    make_cmc,
    make_constant_K,
    make_flat,
    make_minimal,
    make_parallel_H1,
    make_parallel_H2,
    make_pnmc1,
    make_pnmc2,
    verify_family,
)
from .geometry import (
    FrameAtPoint,
    InvariantReport,
    MeridianProfile,
    MeridianSurface,
    SphericalCurve,
    SurfaceJet,
    curve_from_curvature,
    great_circle,
    latitude_circle,
)
from .grids import Grid2
from .minkowski import (
    CausalClass,
    FrameReport,
    Vec4M,
    causal_character,
    minkowski_inner,
    verify_frame,
)

__version__ = "0.1.0"
