"""Isotropic reparametrization, the lightlike geometric frame, and the
natural PDE systems for surfaces with a parallel unit mean-curvature
direction.

Away from minimal points a timelike surface carries the pseudo-
orthonormal frame {x, y, n1, n2}: x, y span the two lightlike tangent
directions (<x,x> = <y,y> = 0, <x,y> = -1) and n1 is the unit normal
along H.  Writing the ambient derivatives of this frame in terms of the
frame itself produces nine scalar functions

    gamma1, gamma2, nu, lambda1, mu1, lambda2, mu2, beta1, beta2

whose integrability conditions are the natural PDE systems verified
here.  The numeric route below extracts the functions by pairing
directional derivatives of the frame fields; closed forms exist for the
two parallel-unit-H families and must agree with it.

Barred (isotropic) coordinates are never inverted numerically: all
residuals are evaluated through the chain rule

    d/d_ubar = (f d/du + d/dv) / (sqrt(2) * scale)
    d/d_vbar = (f d/du - d/dv) / (sqrt(2) * scale)

where scale = 1 reproduces the raw chart u_bar = (U(u) + v)/sqrt(2),
U' = 1/f.  Canonical isotropic coordinates require the conformal factor
to satisfy f^2 |mu| = 1; for the solution families below f^2 |mu| is the
constant sqrt(a^2 + b), so the canonical chart is the raw one rescaled
by scale = sqrt(f^2 |mu|).  The third equation of the system holds only
in the canonical scaling; the first two are scale-invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffkit import CumulativeQuadrature, SmoothFn1
from .errors import (ChartDomain, EmptyInterval, InconsistentGeometry,
                     MinimalPoint, MuVanishes, OutOfDomain, ParameterConflict)
from .geometry import MeridianSurface, _scale
from .grids import Grid2, json_safe
from .minkowski import Vec4M, minkowski_inner

__all__ = [
    "GeometricFunctions",
    "IsotropicFrame",
    "ISOTROPIC_GRAM",
    "IsotropicChart",
    "ScalarField2",
    "ResidualReport",
    "isotropic_frame",
    "geometric_functions",
    "closed_geometric_functions_pnmc1",
    "closed_geometric_functions_pnmc2",
    "solution_family",
    "transported_solution_family",
    "residual_fund",
    "residual_degenerate",
    "residual_syst1",
]

_SQRT2 = math.sqrt(2.0)

#: <H,H> at or below this counts as a minimal point for frame purposes.
MINIMAL_TOL = 1e-12

#: Target Gram matrix of the frame (x, y, n1, n2).
ISOTROPIC_GRAM = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


@dataclass(frozen=True)
class GeometricFunctions:
    """The nine scalar functions of the lightlike geometric frame."""

    gamma1: float
    gamma2: float
    nu: float
    lambda1: float
    mu1: float
    lambda2: float
    mu2: float
    beta1: float
    beta2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.gamma1, self.gamma2, self.nu, self.lambda1,
                         self.mu1, self.lambda2, self.mu2, self.beta1,
                         self.beta2])


@dataclass(frozen=True)
class IsotropicFrame:
    """Lightlike frame, one point or a batch; Gram :data:`ISOTROPIC_GRAM`."""

    x: Vec4M
    y: Vec4M
    n1: Vec4M
    n2: Vec4M

    def labeled(self):
        return [("x", self.x), ("y", self.y), ("n1", self.n1), ("n2", self.n2)]


# ---------------------------------------------------------------------------
# frame fields with first derivatives
# ---------------------------------------------------------------------------

def _frame_fields(surface: MeridianSurface, u, v, tol: float):
    """All frame fields and their ambient (u, v)-partials at the points.

    Returns a dict of (value, d_u, d_v) triples of (..., 4) arrays for
    x, y, n1, n2, plus profile scalars.  Raises :class:`MinimalPoint`
    when <H,H> <= tol anywhere in the batch.
    """
    s = surface._raw(u, v)
    h1, h2 = s.h_closed()
    if np.any(h1 ** 2 + h2 ** 2 <= tol):
        raise MinimalPoint("frame undefined where H vanishes")

    # X = z_u and Y = l' (a function of v alone)
    X, dX_u, dX_v = s.X, s.z_uu, s.z_uv
    Y, dY_u, dY_v = s.Y, np.zeros_like(s.Y), s.curve.tp

    x = (X + Y) / _SQRT2
    dx_u = (dX_u + dY_u) / _SQRT2
    dx_v = (dX_v + dY_v) / _SQRT2
    y = (X - Y) / _SQRT2
    dy_u = (dX_u - dY_u) / _SQRT2
    dy_v = (dX_v - dY_v) / _SQRT2

    N1, dN1_u, dN1_v = s.N1, s.dN1_u, s.dN1_v
    N2, dN2_u, dN2_v = s.N2, s.dN2_u, s.dN2_v

    au, bu = s.h0_jets("u")   # alpha = h1/||H||, beta = h2/||H||
    av, bv = s.h0_jets("v")
    alpha, beta = au.f, bu.f

    n1 = _scale(alpha, N1) + _scale(beta, N2)
    dn1_u = (_scale(au.d1, N1) + _scale(alpha, dN1_u)
             + _scale(bu.d1, N2) + _scale(beta, dN2_u))
    dn1_v = (_scale(av.d1, N1) + _scale(alpha, dN1_v)
             + _scale(bv.d1, N2) + _scale(beta, dN2_v))
    n2 = _scale(-beta, N1) + _scale(alpha, N2)
    dn2_u = (_scale(-bu.d1, N1) + _scale(-beta, dN1_u)
             + _scale(au.d1, N2) + _scale(alpha, dN2_u))
    dn2_v = (_scale(-bv.d1, N1) + _scale(-beta, dN1_v)
             + _scale(av.d1, N2) + _scale(alpha, dN2_v))

    return {
        "f": s.f.f,
        "x": (x, dx_u, dx_v), "y": (y, dy_u, dy_v),
        "n1": (n1, dn1_u, dn1_v), "n2": (n2, dn2_u, dn2_v),
    }


def isotropic_frame(surface: MeridianSurface, u, v,
                    tol: float = MINIMAL_TOL) -> IsotropicFrame:
    """The frame {x, y, n1, n2} at (u, v); n1 is parallel to H."""
    ff = _frame_fields(surface, u, v, tol)
    pick = lambda k: Vec4M.from_array(ff[k][0])
    return IsotropicFrame(x=pick("x"), y=pick("y"), n1=pick("n1"),
                          n2=pick("n2"))


def geometric_functions(surface: MeridianSurface, u, v,
                        tol: float = MINIMAL_TOL) -> GeometricFunctions:
    """Frame functions extracted by pairing directional derivatives.

    The derivative along x (resp. y) of an ambient field F is
    (d_u F + d_v F / f) / sqrt(2)  (resp. with a minus sign), and each
    function is an inner product of such a derivative with a frame
    vector.  This is the measurement route; closed forms must agree
    with it, not the other way around.
    """
    ff = _frame_fields(surface, u, v, tol)
    f = ff["f"]
    x, y, n1, n2 = ff["x"], ff["y"], ff["n1"], ff["n2"]

    def along_x(triple):
        _, du, dv = triple
        return (du + _scale(1.0 / f, dv)) / _SQRT2

    def along_y(triple):
        _, du, dv = triple
        return (du - _scale(1.0 / f, dv)) / _SQRT2

    nab_x_x = along_x(x)
    nab_y_y = along_y(y)
    nab_x_y = along_x(y)
    nab_x_n1 = along_x(n1)
    nab_y_n1 = along_y(n1)

    def num(a):
        return float(a) if np.ndim(a) == 0 else a

    return GeometricFunctions(
        gamma1=num(-minkowski_inner(nab_x_x, y[0])),
        gamma2=num(-minkowski_inner(nab_y_y, x[0])),
        nu=num(-minkowski_inner(nab_x_y, n1[0])),
        lambda1=num(minkowski_inner(nab_x_x, n1[0])),
        mu1=num(minkowski_inner(nab_x_x, n2[0])),
        lambda2=num(minkowski_inner(nab_y_y, n1[0])),
        mu2=num(minkowski_inner(nab_y_y, n2[0])),
        beta1=num(minkowski_inner(nab_x_n1, n2[0])),
        beta2=num(minkowski_inner(nab_y_n1, n2[0])),
    )


# ---------------------------------------------------------------------------
# closed forms for the two parallel-unit-H families
# ---------------------------------------------------------------------------

def closed_geometric_functions_pnmc1(a: float, b: float, kappa: float,
                                     u) -> GeometricFunctions:
    """Closed-form frame functions for the case-(i) family.

    gamma1 = gamma2 = f'/(sqrt(2) f) follows from the definition
    gamma_i = (directional log-derivative of the conformal factor); the
    conformal factor depends on u only, so both directional derivatives
    coincide.
    """
    u = np.asarray(u, dtype=float)
    S = -u * u + 2.0 * a * u + b
    if np.any(S <= 0):
        raise OutOfDomain("u outside the profile interval")
    if kappa == 0:
        raise ParameterConflict("kappa must be nonzero (else the surface is minimal)")
    r = math.sqrt(a * a + b)
    gamma = (a - u) / (_SQRT2 * S)
    nu = abs(kappa) / (2.0 * np.sqrt(S))
    mu = -math.copysign(1.0, kappa) * r / S
    zero = 0.0 * S
    g = lambda w: float(w) if np.ndim(u) == 0 else w
    return GeometricFunctions(gamma1=g(gamma), gamma2=g(gamma), nu=g(nu),
                              lambda1=g(nu), mu1=g(mu), lambda2=g(nu),
                              mu2=g(mu), beta1=g(zero), beta2=g(zero))


def closed_geometric_functions_pnmc2(c: float, a: float, kappa: float,
                                     f, fdot) -> GeometricFunctions:
    """Closed-form frame functions for the case-(ii) family at (f, f')."""
    if kappa == 0 or c == 0:
        raise ParameterConflict("kappa and c must be nonzero")
    if kappa * kappa == c * c:
        raise ParameterConflict("kappa^2 = c^2 is degenerate")
    f = np.asarray(f, dtype=float)
    fdot = np.asarray(fdot, dtype=float)
    root = np.sqrt(kappa * kappa + c * c)
    z = np.sqrt(fdot * fdot + 1.0)
    gamma = fdot / (_SQRT2 * f)
    nu = root / (2.0 * f)
    lam = (kappa * kappa - c * c + 2.0 * c * z) / (2.0 * f * root)
    mu = kappa * (c - z) / (f * root)
    zero = 0.0 * f
    g = lambda w: float(w) if np.ndim(f) == 0 else w
    return GeometricFunctions(gamma1=g(gamma), gamma2=g(gamma), nu=g(nu),
                              lambda1=g(lam), mu1=g(mu), lambda2=g(lam),
                              mu2=g(mu), beta1=g(zero), beta2=g(zero))


# ---------------------------------------------------------------------------
# isotropic chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotropicChart:
    """Chart (u, v) -> (ubar, vbar) = ((U(u) + v), (U(u) - v)) / sqrt(2).

    U is an antiderivative of 1/f, so the barred coordinate tangents
    z_ubar, z_vbar are lightlike with <z_ubar, z_vbar> = -f^2.  The
    optional closed-form inverse maps U-values back to u for the
    built-in profile families.
    """

    surface: MeridianSurface
    U: Callable[[np.ndarray], np.ndarray]
    u_from_U: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    @classmethod
    def for_surface(cls, surface: MeridianSurface,
                    anchor: float | None = None) -> "IsotropicChart":
        """Generic chart with U computed by quadrature of 1/f."""
        dom = surface.profile.domain
        if anchor is None:
            lo = dom.lo if math.isfinite(dom.lo) else -10.0
            hi = dom.hi if math.isfinite(dom.hi) else 10.0
            anchor = 0.5 * (lo + hi)
        inv_f = SmoothFn1(
            lambda u: surface.profile.f_eval(np.asarray(u, dtype=float)).reciprocal(),
            dom, name="1/f")
        cq = CumulativeQuadrature(inv_f, anchor, tol=1e-13)

        def U(u):
            u = np.asarray(u, dtype=float)
            if u.ndim == 0:
                return cq(float(u))
            return np.array([cq(x) for x in u.ravel()]).reshape(u.shape)

        return cls(surface=surface, U=U, name="quadrature")

    @classmethod
    def for_minimal_family(cls, surface: MeridianSurface, a: float,
                           b: float) -> "IsotropicChart":
        """Closed-form chart for profiles f = sqrt(-u^2 + 2 a u + b)."""
        r2 = a * a + b
        if r2 <= 0:
            raise EmptyInterval(f"a^2 + b = {r2} leaves no valid interval")
        r = math.sqrt(r2)

        def U(u):
            return np.arcsin((np.asarray(u, dtype=float) - a) / r)

        def u_from_U(w):
            return a + r * np.sin(np.asarray(w, dtype=float))

        return cls(surface=surface, U=U, u_from_U=u_from_U,
                   name=f"arcsin(a={a},b={b})")

    # -- maps ---------------------------------------------------------------
    def to_barred(self, u, v, scale: float = 1.0):
        Uv = self.U(u)
        v = np.asarray(v, dtype=float)
        return scale * (Uv + v) / _SQRT2, scale * (Uv - v) / _SQRT2

    def from_barred(self, ubar, vbar, scale: float = 1.0):
        if self.u_from_U is None:
            raise ChartDomain("chart has no closed-form inverse")
        ubar = np.asarray(ubar, dtype=float)
        vbar = np.asarray(vbar, dtype=float)
        w = (ubar + vbar) / (_SQRT2 * scale)
        v = (ubar - vbar) / (_SQRT2 * scale)
        return self.u_from_U(w), v

    def isotropic_tangents(self, u, v):
        """(z_ubar, z_vbar) as ambient arrays, for the chart invariants."""
        s = self.surface._raw(u, v)
        fz_u = _scale(s.f.f, s.z_u)
        return (fz_u + s.z_v) / _SQRT2, (fz_u - s.z_v) / _SQRT2

    def operator_self_test(self, u, v):
        """Apply the barred derivative operators to the chart's own
        coordinate functions; exact chain rule gives the identity matrix."""
        fj = self.surface.profile.jets(u).f
        f = fj.f
        # raw partials of ubar, vbar as functions of (u, v)
        ub_u = 1.0 / (f * _SQRT2)
        ub_v = 1.0 / _SQRT2 + 0.0 * np.asarray(v, dtype=float)
        vb_u = ub_u
        vb_v = -ub_v
        d_ub = lambda Fu, Fv: (f * Fu + Fv) / _SQRT2
        d_vb = lambda Fu, Fv: (f * Fu - Fv) / _SQRT2
        return np.array([
            [np.max(np.abs(d_ub(ub_u, ub_v) - 1.0)), np.max(np.abs(d_ub(vb_u, vb_v)))],
            [np.max(np.abs(d_vb(ub_u, ub_v))), np.max(np.abs(d_vb(vb_u, vb_v) - 1.0))],
        ])


# ---------------------------------------------------------------------------
# scalar fields with analytic partials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField2:
    """Scalar field of two variables with analytic partials to order 2.

    Partials are supplied, not differenced: the residual checkers need a
    mixed second derivative where noise from nested finite differences
    would exceed the acceptance tolerances.  A finite-difference audit
    runs at construction when an audit box is given.
    """

    value: Callable
    du: Callable
    dv: Callable
    duu: Callable
    duv: Callable
    dvv: Callable
    name: str = ""
    audit_box: tuple | None = None

    def __post_init__(self):
        if self.audit_box is not None:
            self._audit(*self.audit_box)

    def _audit(self, u0, u1, v0, v1, n: int = 3, rel_tol: float = 1e-5):
        us = np.linspace(u0, u1, n + 2)[1:-1]
        vs = np.linspace(v0, v1, n + 2)[1:-1]
        h = 1e-4 * max(u1 - u0, v1 - v0)
        V = self.value
        for u in us:
            for v in vs:
                checks = [
                    (self.du(u, v), (V(u + h, v) - V(u - h, v)) / (2 * h)),
                    (self.dv(u, v), (V(u, v + h) - V(u, v - h)) / (2 * h)),
                    (self.duu(u, v), (V(u + h, v) - 2 * V(u, v) + V(u - h, v)) / h ** 2),
                    (self.dvv(u, v), (V(u, v + h) - 2 * V(u, v) + V(u, v - h)) / h ** 2),
                    (self.duv(u, v), (V(u + h, v + h) - V(u + h, v - h)
                                      - V(u - h, v + h) + V(u - h, v - h)) / (4 * h * h)),
                ]
                for analytic, fd in checks:
                    if not abs(analytic - fd) / (1.0 + abs(analytic)) <= rel_tol:
                        raise InconsistentGeometry(
                            f"field {self.name!r}: analytic partial "
                            f"disagrees with finite differences at "
                            f"({u:.4g}, {v:.4g})")

    def partials(self, u, v) -> dict:
        return {"f": self.value(u, v), "du": self.du(u, v),
                "dv": self.dv(u, v), "duu": self.duu(u, v),
                "duv": self.duv(u, v), "dvv": self.dvv(u, v)}


def solution_family(a: float, b: float, kappa: SmoothFn1,
                    audit: bool = True) -> tuple:
    """(lambda, mu, nu) fields solving the barred system for any
    nonvanishing kappa(v):

        lambda = nu = kappa(v) / (2 sqrt(-u^2 + 2 a u + b))
        mu     = -sqrt(a^2 + b) / (-u^2 + 2 a u + b)

    The fields are functions of the surface parameters (u, v); transport
    them through the canonical chart (or use :func:`residual_syst1`) to
    check the system.
    """
    r2 = a * a + b
    if r2 <= 0:
        raise EmptyInterval(f"a^2 + b = {r2} leaves no valid interval")
    r = math.sqrt(r2)

    def S(u):
        u = np.asarray(u, dtype=float)
        return b + 2.0 * a * u - u * u

    def lam_partials():
        def value(u, v):
            return kappa.eval_jet(v).f / (2.0 * np.sqrt(S(u)))

        def du(u, v):
            return kappa.eval_jet(v).f * (u - a) / (2.0 * S(u) ** 1.5)

        def dv(u, v):
            return kappa.eval_jet(v).d1 / (2.0 * np.sqrt(S(u)))

        def duu(u, v):
            u = np.asarray(u, dtype=float)
            return kappa.eval_jet(v).f * (S(u) + 3.0 * (u - a) ** 2) / (2.0 * S(u) ** 2.5)

        def duv(u, v):
            return kappa.eval_jet(v).d1 * (u - a) / (2.0 * S(u) ** 1.5)

        def dvv(u, v):
            return kappa.eval_jet(v).d2 / (2.0 * np.sqrt(S(u)))

        return value, du, dv, duu, duv, dvv

    def mu_partials():
        def value(u, v):
            return -r / S(u) + 0.0 * np.asarray(v, dtype=float)

        def du(u, v):
            u = np.asarray(u, dtype=float)
            return 2.0 * r * (a - u) / S(u) ** 2 + 0.0 * np.asarray(v, dtype=float)

        def duu(u, v):
            u = np.asarray(u, dtype=float)
            return -2.0 * r * (S(u) + 4.0 * (a - u) ** 2) / S(u) ** 3 \
                + 0.0 * np.asarray(v, dtype=float)

        zero = lambda u, v: 0.0 * (np.asarray(u, dtype=float)
                                   + np.asarray(v, dtype=float))
        return value, du, zero, duu, zero, zero

    box = (a - 0.8 * r, a + 0.8 * r, 0.1, 0.9) if audit else None
    lv, ldu, ldv, lduu, lduv, ldvv = lam_partials()
    mv, mdu, mdv, mduu, mduv, mdvv = mu_partials()
    lam = ScalarField2(lv, ldu, ldv, lduu, lduv, ldvv,
                       name=f"lambda(a={a},b={b})", audit_box=box)
    mu = ScalarField2(mv, mdu, mdv, mduu, mduv, mdvv,
                      name=f"mu(a={a},b={b})", audit_box=box)
    nu = ScalarField2(lv, ldu, ldv, lduu, lduv, ldvv,
                      name=f"nu(a={a},b={b})", audit_box=None)
    return lam, mu, nu


def canonical_scale(a: float, b: float) -> float:
    """Scale making the family chart canonical: sqrt(f^2 |mu|).

    For the solution family f^2 |mu| = sqrt(a^2 + b) everywhere, so the
    scale is (a^2 + b)^(1/4).
    """
    r2 = a * a + b
    if r2 <= 0:
        raise EmptyInterval(f"a^2 + b = {r2} leaves no valid interval")
    return r2 ** 0.25


def transported_solution_family(a: float, b: float, kappa: SmoothFn1,
                                scale: float | None = None) -> tuple:
    """The solution family as fields of the (canonical) barred coordinates.

    Uses the closed-form chart inverse u = a + r sin((ubar + vbar) /
    (sqrt(2) scale)); partials follow from the chain rule, never from
    numerical inversion.  Returns (lambda, mu, nu, scale).
    """
    if scale is None:
        scale = canonical_scale(a, b)
    r = math.sqrt(a * a + b)
    raw = solution_family(a, b, kappa, audit=False)
    s2 = _SQRT2 * scale

    def make(fieldobj: ScalarField2) -> ScalarField2:
        def at(ub, vb):
            ub = np.asarray(ub, dtype=float)
            vb = np.asarray(vb, dtype=float)
            w = (ub + vb) / s2
            if np.any(np.abs(w) >= math.pi / 2):
                raise ChartDomain("barred point maps outside the profile")
            u = a + r * np.sin(w)
            v = (ub - vb) / s2
            f = np.sqrt(b + 2.0 * a * u - u * u)
            fdot = (a - u) / f
            return u, v, f, fdot

        def value(ub, vb):
            u, v, _, _ = at(ub, vb)
            return fieldobj.value(u, v)

        def du_b(ub, vb):
            u, v, f, _ = at(ub, vb)
            return (f * fieldobj.du(u, v) + fieldobj.dv(u, v)) / s2

        def dv_b(ub, vb):
            u, v, f, _ = at(ub, vb)
            return (f * fieldobj.du(u, v) - fieldobj.dv(u, v)) / s2

        def second(ub, vb, sgn):
            u, v, f, fdot = at(ub, vb)
            p = fieldobj.partials(u, v)
            core = f * fdot * p["du"] + f * f * p["duu"]
            cross = 2.0 * f * p["duv"]
            return (core + sgn[0] * cross + sgn[1] * p["dvv"]) / (2.0 * scale ** 2)

        return ScalarField2(
            value, du_b, dv_b,
            duu=lambda ub, vb: second(ub, vb, (1.0, 1.0)),
            duv=lambda ub, vb: second(ub, vb, (0.0, -1.0)),
            dvv=lambda ub, vb: second(ub, vb, (-1.0, 1.0)),
            name=f"{fieldobj.name}|barred(scale={scale:.6g})")

    lam, mu, nu = (make(f) for f in raw)
    return lam, mu, nu, scale


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationResidual:
    name: str
    max_abs: float
    rms: float
    gating: bool = True


@dataclass(frozen=True)
class ResidualReport:
    """Per-equation residual statistics of a candidate over a grid."""

    system: str
    equations: tuple
    tol: float
    passed: bool
    epsilon: int | None = None
    grid: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def max_residual(self) -> float:
        return max(eq.max_abs for eq in self.equations if eq.gating)

    def to_json(self) -> dict:
        return json_safe({"system": self.system, "tol": self.tol,
                          "passed": bool(self.passed), "epsilon": self.epsilon,
                          "grid": self.grid, "details": self.details,
                          "equations": [{"name": e.name, "max_abs": e.max_abs,
                                         "rms": e.rms, "gating": e.gating}
                                        for e in self.equations]})


def _grid_points(grid):
    if isinstance(grid, Grid2):
        U, V = grid.mesh()
        return U, V, grid.to_json()
    U, V = grid
    return (np.asarray(U, dtype=float), np.asarray(V, dtype=float),
            {"points": int(np.size(np.broadcast_arrays(U, V)[0]))})


def _rows(named_arrays, tol):
    eqs = []
    for name, arr, gating in named_arrays:
        arr = np.asarray(arr, dtype=float)
        eqs.append(EquationResidual(name=name,
                                    max_abs=float(np.max(np.abs(arr))),
                                    rms=float(np.sqrt(np.mean(arr ** 2))),
                                    gating=gating))
    passed = all(e.max_abs <= tol for e in eqs if e.gating)
    return tuple(eqs), passed


def _log_mu_partials(mu: ScalarField2, U, V, tol):
    m = mu.partials(U, V)
    mval = np.asarray(m["f"], dtype=float)
    if np.any(np.abs(mval) <= tol):
        raise MuVanishes("mu vanishes (to tolerance) on the grid")
    ln_u = m["du"] / mval
    ln_v = m["dv"] / mval
    ln_uu = (m["duu"] * mval - m["du"] ** 2) / mval ** 2
    ln_uv = (m["duv"] * mval - m["du"] * m["dv"]) / mval ** 2
    ln_vv = (m["dvv"] * mval - m["dv"] ** 2) / mval ** 2
    return mval, ln_u, ln_v, ln_uu, ln_uv, ln_vv


def residual_fund(lam: ScalarField2, mu: ScalarField2, nu: ScalarField2,
                  eps: int, grid, tol: float = 1e-8) -> ResidualReport:
    """Residuals of the fundamental system in the fields' own coordinates:

        nu_u + lam_v          = lam (ln|mu|)_v
        lam_u - eps nu_v      = lam (ln|mu|)_u
        |mu| (ln|mu|)_uv      = -nu^2 - eps (lam^2 + mu^2)

    The coordinates are treated as canonical; fields expressed in raw
    surface parameters generally do not satisfy eq. 3 even when their
    canonical transport does.
    """
    if eps not in (-1, 1):
        raise ValueError("eps must be +1 or -1")
    U, V, echo = _grid_points(grid)
    mval, ln_u, ln_v, _, ln_uv, _ = _log_mu_partials(mu, U, V, tol)
    lamv = lam.value(U, V)
    r1 = nu.du(U, V) + lam.dv(U, V) - lamv * ln_v
    r2 = lam.du(U, V) - eps * nu.dv(U, V) - lamv * ln_u
    r3 = np.abs(mval) * ln_uv + nu.value(U, V) ** 2 \
        + eps * (lamv ** 2 + mval ** 2)
    eqs, passed = _rows([("eq1", r1, True), ("eq2", r2, True),
                         ("eq3", r3, True)], tol)
    return ResidualReport(system="fund", equations=eqs, tol=tol,
                          passed=passed, epsilon=eps, grid=echo)


def residual_degenerate(lam: ScalarField2, mu: ScalarField2,
                        nu: ScalarField2, grid,
                        tol: float = 1e-8) -> ResidualReport:
    """Residuals of the degenerate (K - H^2 = 0) system:

        nu_u + lam_v     = lam (ln|mu|)_v
        |mu| (ln|mu|)_uv = -nu^2

    nu must depend on u only; its v-derivative is reported as a
    diagnostic row that does not gate the verdict.
    """
    U, V, echo = _grid_points(grid)
    mval, _, ln_v, _, ln_uv, _ = _log_mu_partials(mu, U, V, tol)
    lamv = lam.value(U, V)
    r1 = nu.du(U, V) + lam.dv(U, V) - lamv * ln_v
    r2 = np.abs(mval) * ln_uv + nu.value(U, V) ** 2
    diag = nu.dv(U, V) + 0.0 * mval
    eqs, passed = _rows([("eq1", r1, True), ("eq2", r2, True),
                         ("nu_v (diagnostic)", diag, False)], tol)
    return ResidualReport(system="degenerate", equations=eqs, tol=tol,
                          passed=passed, grid=echo)


def residual_syst1(lam: ScalarField2, mu: ScalarField2, nu: ScalarField2,
                   chart: IsotropicChart, grid, tol: float = 1e-8,
                   normalize: bool = True) -> ResidualReport:
    """Residuals of the barred system for fields given in surface
    parameters (u, v):

        nu_ub + lam_vb        = lam (ln|mu|)_vb
        lam_ub + nu_vb        = lam (ln|mu|)_ub
        |mu| (ln|mu|)_ub_vb   = lam^2 + mu^2 - nu^2

    Barred partials come from the chain rule through the chart; nothing
    is inverted numerically.  With ``normalize`` the chart is rescaled
    to canonical isotropic coordinates, scale = sqrt(f^2 |mu|); the
    third equation holds only in that scaling (the first two do not see
    the scale).  This is the fundamental system with eps = -1.
    """
    U, V, echo = _grid_points(grid)
    fj = chart.surface.profile.jets(U).f
    f, fdot = fj.f, fj.d1
    mval, ln_u, ln_v, ln_uu, _, ln_vv = _log_mu_partials(mu, U, V, tol)

    if normalize:
        const = np.abs(mval) * f ** 2
        scale = float(np.median(const)) ** 0.5
        spread = float(np.max(const) - np.min(const))
    else:
        scale, spread = 1.0, float("nan")

    s2 = _SQRT2 * scale

    def d_ub(Fu, Fv):
        return (f * Fu + Fv) / s2

    def d_vb(Fu, Fv):
        return (f * Fu - Fv) / s2

    lamv = lam.value(U, V)
    lam_u, lam_v = lam.du(U, V), lam.dv(U, V)
    nu_u, nu_v = nu.du(U, V), nu.dv(U, V)
    ln_ubvb = (f * fdot * ln_u + f ** 2 * ln_uu - ln_vv) / (2.0 * scale ** 2)

    r1 = d_ub(nu_u, nu_v) + d_vb(lam_u, lam_v) - lamv * d_vb(ln_u, ln_v)
    r2 = d_ub(lam_u, lam_v) + d_vb(nu_u, nu_v) - lamv * d_ub(ln_u, ln_v)
    r3 = np.abs(mval) * ln_ubvb - (lamv ** 2 + mval ** 2 - nu.value(U, V) ** 2)
    eqs, passed = _rows([("eq1", r1, True), ("eq2", r2, True),
                         ("eq3", r3, True)], tol)
    return ResidualReport(system="syst1", equations=eqs, tol=tol,
                          passed=passed, epsilon=-1, grid=echo,
                          details={"scale": scale,
                                   "conformal_mu_spread": spread})
