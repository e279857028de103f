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
directional derivatives of the frame fields, each a combination of the
factored fields of ``geometry``, over scalar grids: it builds no
(nu, nv, 4) array, and only :func:`isotropic_frame` makes the frame
ambient.  Closed forms exist for the two parallel-unit-H families and
must agree with it.

A candidate solution is a triple of :class:`ScalarField2` fields.  Each
field is one callable returning a :class:`Partials2` (value and partials
to order 2); the built-in fields are products p(u) q(v) of two jets
(:meth:`ScalarField2.separable`), so no partial is written by hand.

Barred (isotropic) coordinates are never inverted numerically: barred
partials come from the chain rule

    d/d_ubar = (f d/du + d/dv) / (sqrt(2) * scale)
    d/d_vbar = (f d/du - d/dv) / (sqrt(2) * scale)

applied once and twice in one function, where scale = 1 reproduces the
raw chart u_bar = (U(u) + v)/sqrt(2), U' = 1/f.  Canonical isotropic
coordinates require the conformal factor to satisfy f^2 |mu| = 1; for
the solution families below f^2 |mu| is the constant sqrt(a^2 + b), so
the canonical chart is the raw one rescaled by scale = sqrt(f^2 |mu|).
The third equation of the system holds only in the canonical scaling;
the first two are scale-invariant.  :func:`residual_syst1` is the
fundamental system with eps = -1 evaluated on those barred partials.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .diffkit import Jet3, SmoothFn1, constant_fn
from .errors import (ChartDomain, EmptyInterval, InconsistentGeometry,
                     MinimalPoint, MuVanishes, OutOfDomain, ParameterConflict)
from .families import _minimal_radius
from .geometry import MeridianProfile, MeridianSurface, _inner, _scale
from .grids import Grid2, json_safe, max_abs
from .minkowski import Vec4M

__all__ = [
    "GeometricFunctions",
    "IsotropicFrame",
    "ISOTROPIC_GRAM",
    "IsotropicChart",
    "Partials2",
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


class GeometricFunctions(NamedTuple):
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


class IsotropicFrame(NamedTuple):
    """Lightlike frame, one point or a batch; Gram :data:`ISOTROPIC_GRAM`."""

    x: Vec4M
    y: Vec4M
    n1: Vec4M
    n2: Vec4M

    def labeled(self):
        return [("x", self.x), ("y", self.y), ("n1", self.n1), ("n2", self.n2)]


# ---------------------------------------------------------------------------
# the frame as combinations of the factored fields
# ---------------------------------------------------------------------------

def _frame_fields(surface: MeridianSurface, u, v, tol: float):
    """The sample at the points, and the frame x, y, n1, n2 with its
    (u, v)-partials, each a tuple of terms (c, name) meaning sum c F_name
    over the sample's factored fields (``geometry._FACTORS``).

    Returns (sample, {name: (value, d_u, d_v)}).  Raises
    :class:`MinimalPoint` when <H,H> <= tol anywhere in the batch.
    """
    s = surface._raw(u, v)
    h1, h2 = s.h_closed()
    if np.any(h1 ** 2 + h2 ** 2 <= tol):
        raise MinimalPoint("frame undefined where H vanishes")
    r = 1.0 / _SQRT2

    def tangent(sign):
        """(X + sign Y) / sqrt(2), with X = z_u and Y = l' (d_u Y = 0)."""
        return (((r, "z_u"), (sign * r, "Y")), ((r, "z_uu"),),
                ((r, "z_uv"), (sign * r, "dY_v")))

    def normal(pu, qu, pv, qv):
        """p N1 + q N2, for p and q as first-order jets in u and in v
        (d_u N1 = 0)."""
        return (((pu.f, "N1"), (qu.f, "N2")),
                ((pu.d1, "N1"), (qu.d1, "N2"), (qu.f, "dN2_u")),
                ((pv.d1, "N1"), (pv.f, "dN1_v"), (qv.d1, "N2"), (qv.f, "dN2_v")))

    au, bu = s.h0_jets("u")   # alpha = h1/||H||, beta = h2/||H||
    av, bv = s.h0_jets("v")
    return s, {"x": tangent(1.0), "y": tangent(-1.0),
               "n1": normal(au, bu, av, bv), "n2": normal(-bu, au, -bv, av)}


def isotropic_frame(surface: MeridianSurface, u, v,
                    tol: float = MINIMAL_TOL) -> IsotropicFrame:
    """The frame {x, y, n1, n2} at (u, v); n1 is parallel to H.  The one
    reader that builds the lightlike frame as (..., 4) arrays."""
    s, fields = _frame_fields(surface, u, v, tol)

    def ambient(terms):
        return Vec4M.from_array(sum(_scale(c, s._factors[k].ambient())
                                    for c, k in terms))

    return IsotropicFrame(*(ambient(fields[k][0])
                            for k in ("x", "y", "n1", "n2")))


def geometric_functions(surface: MeridianSurface, u, v,
                        tol: float = MINIMAL_TOL) -> GeometricFunctions:
    """Frame functions extracted by pairing directional derivatives.

    The derivative along x (resp. y) of a frame field F is
    (d_u F + d_v F / f) / sqrt(2)  (resp. with a minus sign), and each
    function is an inner product of such a derivative with a frame
    vector: a sum of c d <F_i, G_j> over factored fields, so no (..., 4)
    array is built.  This is the measurement route; closed forms must
    agree with it, not the other way around.
    """
    s, fields = _frame_fields(surface, u, v, tol)
    fa = s._factors
    r, r_f = 1.0 / _SQRT2, 1.0 / (_SQRT2 * s.f.f)

    def along(name, sign):
        """The derivative of frame field ``name`` along x (sign 1) or y (-1)."""
        _, du, dv = fields[name]
        return (*((r * c, k) for c, k in du),
                *((sign * r_f * c, k) for c, k in dv))

    pairs = {}

    def pair(i, j):
        """<F_i, F_j>, once per unordered pair: _inner is symmetric bit for
        bit, since every product in it commutes."""
        key = (i, j) if i <= j else (j, i)
        if key not in pairs:
            pairs[key] = _inner(fa[key[0]], fa[key[1]])
        return pairs[key]

    def inner(a, b):
        val = sum(c * d * pair(i, j) for c, i in a for d, j in b)
        return float(val) if np.ndim(val) == 0 else val

    x, y, n1, n2 = (fields[k][0] for k in ("x", "y", "n1", "n2"))
    nab_x_x, nab_y_y = along("x", 1.0), along("y", -1.0)
    return GeometricFunctions(
        gamma1=-inner(nab_x_x, y),
        gamma2=-inner(nab_y_y, x),
        nu=-inner(along("y", 1.0), n1),
        lambda1=inner(nab_x_x, n1),
        mu1=inner(nab_x_x, n2),
        lambda2=inner(nab_y_y, n1),
        mu2=inner(nab_y_y, n2),
        beta1=inner(along("n1", 1.0), n2),
        beta2=inner(along("n1", -1.0), n2),
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

def _arcsin_chart(a: float, b: float) -> tuple:
    """The closed-form maps (U, u_from_U) of f = sqrt(-u^2 + 2 a u + b):
    U(u) = arcsin((u - a) / r) with U' = 1/f, which raises
    :class:`ChartDomain` unless |u - a| < r, the profile interval, and
    u = a + r sin(w), which raises it unless |w| < pi/2 (a NaN u or w
    included in either case)."""
    r = _minimal_radius(a, b)

    def U(u):
        x = np.asarray(u, dtype=float) - a
        if not np.all(np.abs(x) < r):
            raise ChartDomain("point outside the profile interval")
        return np.arcsin(x / r)

    def u_from_U(w):
        w = np.asarray(w, dtype=float)
        if not np.all(np.abs(w) < math.pi / 2):
            raise ChartDomain("barred point maps outside the profile")
        return a + r * np.sin(w)

    return U, u_from_U


class IsotropicChart(NamedTuple):
    """Chart (u, v) -> (ubar, vbar) = ((U(u) + v), (U(u) - v)) / sqrt(2).

    U is an antiderivative of 1/f, so the barred coordinate tangents
    z_ubar, z_vbar are lightlike with <z_ubar, z_vbar> = -f^2.  The
    chart is built in closed form for the minimal profiles
    f = sqrt(-u^2 + 2 a u + b) (:meth:`for_minimal_family`), which the
    case-(i) parallel-H0 surfaces share.
    """

    U: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    @classmethod
    def for_minimal_family(cls, a: float, b: float) -> "IsotropicChart":
        """Closed-form chart for profiles f = sqrt(-u^2 + 2 a u + b), with
        U(u) = arcsin((u - a) / r).  U raises :class:`ChartDomain` outside
        the profile interval |u - a| < r."""
        U, _ = _arcsin_chart(a, b)
        return cls(U=U, name=f"arcsin(a={a},b={b})")

    def to_barred(self, u, v, scale: float = 1.0):
        Uv = self.U(u)
        v = np.asarray(v, dtype=float)
        return scale * (Uv + v) / _SQRT2, scale * (Uv - v) / _SQRT2


# ---------------------------------------------------------------------------
# scalar fields with analytic partials
# ---------------------------------------------------------------------------

class Partials2(NamedTuple):
    """A scalar field of (u, v) and its partials to order 2 at some points."""

    f: "float | np.ndarray"
    du: "float | np.ndarray"
    dv: "float | np.ndarray"
    duu: "float | np.ndarray"
    duv: "float | np.ndarray"
    dvv: "float | np.ndarray"


@dataclass(frozen=True)
class ScalarField2:
    """Scalar field of two variables with analytic partials to order 2.

    ``partials(u, v)`` returns a :class:`Partials2`.  Partials are
    supplied, not differenced: the residual checkers need a mixed second
    derivative where noise from nested finite differences would exceed
    the acceptance tolerances.  A finite-difference audit runs at
    construction when an audit box is given.
    """

    partials: Callable[..., Partials2]
    name: str = ""
    audit_box: tuple | None = None

    def __post_init__(self):
        if self.audit_box is not None:
            self._audit(*self.audit_box)

    @classmethod
    def separable(cls, p, q, name: str = "",
                  audit_box: tuple | None = None) -> "ScalarField2":
        """The field p(u) q(v) from two evaluators returning :class:`Jet3`."""
        def partials(u, v):
            pj = p(np.asarray(u, dtype=float))
            qj = q(np.asarray(v, dtype=float))
            return Partials2(pj.f * qj.f, pj.d1 * qj.f, pj.f * qj.d1,
                             pj.d2 * qj.f, pj.d1 * qj.d1, pj.f * qj.d2)
        return cls(partials, name=name, audit_box=audit_box)

    def value(self, u, v):
        return self.partials(u, v).f

    def _audit(self, u0, u1, v0, v1, n: int = 3, rel_tol: float = 1e-5):
        u = np.linspace(u0, u1, n + 2)[1:-1, None]
        v = np.linspace(v0, v1, n + 2)[None, 1:-1]
        h = 1e-4 * max(u1 - u0, v1 - v0)
        p = self.partials(u, v)
        V = self.value
        up, um, vp, vm = V(u + h, v), V(u - h, v), V(u, v + h), V(u, v - h)
        fd = (
            (p.du, (up - um) / (2 * h)),
            (p.dv, (vp - vm) / (2 * h)),
            (p.duu, (up - 2 * p.f + um) / h ** 2),
            (p.dvv, (vp - 2 * p.f + vm) / h ** 2),
            (p.duv, (V(u + h, v + h) - V(u + h, v - h)
                     - V(u - h, v + h) + V(u - h, v - h)) / (4 * h * h)),
        )
        # "not dev <= tol", so that a NaN fails the audit
        bad = np.zeros((n, n), dtype=bool)
        for analytic, approx in fd:
            bad |= ~(np.abs(analytic - approx) / (1.0 + np.abs(analytic))
                     <= rel_tol)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise InconsistentGeometry(
                f"field {self.name!r}: analytic partial disagrees with "
                f"finite differences at ({u[i, 0]:.4g}, {v[0, j]:.4g})")


def _to_barred(p: Partials2, f, fdot, scale: float) -> Partials2:
    """Partials in the barred chart from (u, v)-partials, by the chain rule

        d/d_ubar = (f d/du + d/dv) / (sqrt(2) scale)
        d/d_vbar = (f d/du - d/dv) / (sqrt(2) scale)

    applied once and twice; f and fdot are the profile and its derivative.
    """
    s2 = _SQRT2 * scale
    f_du = f * p.du
    core = f * fdot * p.du + f * f * p.duu
    cross = 2.0 * f * p.duv
    s22 = 2.0 * scale ** 2
    return Partials2(p.f, (f_du + p.dv) / s2, (f_du - p.dv) / s2,
                     (core + cross + p.dvv) / s22, (core - p.dvv) / s22,
                     (core - cross + p.dvv) / s22)


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
    r = _minimal_radius(a, b)

    def S(u):
        j = Jet3.variable(u)
        return b + 2.0 * a * j - j * j

    box = (a - 0.8 * r, a + 0.8 * r, 0.1, 0.9) if audit else None
    lam = ScalarField2.separable(lambda u: 0.5 * S(u).sqrt().reciprocal(),
                                 kappa.eval_jet, name=f"lambda(a={a},b={b})",
                                 audit_box=box)
    mu = ScalarField2.separable(lambda u: -r * S(u).reciprocal(),
                                constant_fn(1.0).eval_jet,
                                name=f"mu(a={a},b={b})", audit_box=box)
    nu = ScalarField2(lam.partials, name=f"nu(a={a},b={b})")
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

    u comes from the closed-form chart inverse at U = (ubar + vbar) /
    (sqrt(2) scale), which raises :class:`ChartDomain` outside its image;
    partials follow from the chain rule, never from numerical inversion.
    Returns (lambda, mu, nu, scale).
    """
    if scale is None:
        scale = canonical_scale(a, b)
    _, u_from_U = _arcsin_chart(a, b)
    raw = solution_family(a, b, kappa, audit=False)
    s2 = _SQRT2 * scale

    def transport(raw_partials):
        def partials(ub, vb):
            ub = np.asarray(ub, dtype=float)
            vb = np.asarray(vb, dtype=float)
            u = u_from_U((ub + vb) / s2)
            f = np.sqrt(b + 2.0 * a * u - u * u)
            return _to_barred(raw_partials(u, (ub - vb) / s2),
                              f, (a - u) / f, scale)
        return partials

    lam, mu, nu = (ScalarField2(p, name=f"{f.name}|barred(scale={scale:.6g})")
                   for f, p in zip(raw, _per_callable(raw, transport)))
    return lam, mu, nu, scale


def _per_callable(fields, fn) -> list:
    """fn(field.partials) for each field, once per distinct callable: the
    solution family's nu shares lambda's."""
    done = {}
    for fieldobj in fields:
        if fieldobj.partials not in done:
            done[fieldobj.partials] = fn(fieldobj.partials)
    return [done[f.partials] for f in fields]


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

class EquationResidual(NamedTuple):
    name: str
    max_abs: float
    rms: float
    gating: bool = True


class ResidualReport(NamedTuple):
    """Per-equation residual statistics of a candidate over a grid."""

    system: str
    equations: tuple
    tol: float
    passed: bool
    epsilon: int | None = None
    grid: Mapping = MappingProxyType({})
    details: Mapping = MappingProxyType({})

    def max_residual(self) -> float:
        return max_abs(*(eq.max_abs for eq in self.equations if eq.gating))

    def to_json(self) -> dict:
        return json_safe({"system": self.system, "tol": self.tol,
                          "passed": bool(self.passed), "epsilon": self.epsilon,
                          "grid": dict(self.grid),
                          "details": dict(self.details),
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
        eqs.append(EquationResidual(name=name, max_abs=max_abs(arr),
                                    rms=float(np.sqrt(np.mean(arr ** 2))),
                                    gating=gating))
    passed = all(e.max_abs <= tol for e in eqs if e.gating)
    return tuple(eqs), passed


def _nonvanishing(m: Partials2):
    """mu's values, after checking that ln|mu| and its partials can be
    formed: mu^2 is not 0 (mu = 0, or small enough that 1/mu^2 is
    infinite).  The residual tolerance plays no part; a NaN mu is left to
    the residuals, whose verdict it fails."""
    mval = np.asarray(m.f, dtype=float)
    if np.any(mval * mval == 0.0):
        raise MuVanishes("mu vanishes on the grid: 1/mu^2 is not finite")
    return mval


def _ln_abs(m: Partials2) -> Partials2:
    """Partials of ln|mu| from those of mu."""
    mval = _nonvanishing(m)
    m2 = mval ** 2
    return Partials2(np.log(np.abs(mval)), m.du / mval, m.dv / mval,
                     (m.duu * mval - m.du ** 2) / m2,
                     (m.duv * mval - m.du * m.dv) / m2,
                     (m.dvv * mval - m.dv ** 2) / m2)


def _fund_rows(lam: Partials2, mu: Partials2, nu: Partials2, eps: int, tol):
    """Residual rows of the three equations of the fundamental system."""
    ln = _ln_abs(mu)
    r1 = nu.du + lam.dv - lam.f * ln.dv
    r2 = lam.du - eps * nu.dv - lam.f * ln.du
    r3 = np.abs(mu.f) * ln.duv + nu.f ** 2 + eps * (lam.f ** 2 + mu.f ** 2)
    return _rows([("eq1", r1, True), ("eq2", r2, True), ("eq3", r3, True)],
                 tol)


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
    fields = _per_callable((lam, mu, nu), lambda p: p(U, V))
    eqs, passed = _fund_rows(*fields, eps, tol)
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
    lam_p, mu_p, nu_p = _per_callable((lam, mu, nu), lambda p: p(U, V))
    ln = _ln_abs(mu_p)
    r1 = nu_p.du + lam_p.dv - lam_p.f * ln.dv
    r2 = np.abs(mu_p.f) * ln.duv + nu_p.f ** 2
    diag = nu_p.dv + 0.0 * mu_p.f
    eqs, passed = _rows([("eq1", r1, True), ("eq2", r2, True),
                         ("nu_v (diagnostic)", diag, False)], tol)
    return ResidualReport(system="degenerate", equations=eqs, tol=tol,
                          passed=passed, grid=echo)


def _median(x) -> float:
    """np.median of all of x, bit for bit: the mean of its middle one or
    two values, NaN if x holds one.  np.median's own NaN check imports
    numpy.ma, which costs each process about 20 ms."""
    s = np.sort(x, axis=None)
    if np.isnan(s[-1]):                 # np.sort puts NaNs last
        return math.nan
    n = s.size
    return float(np.mean(s[(n - 1) // 2:n // 2 + 1]))


def residual_syst1(lam: ScalarField2, mu: ScalarField2, nu: ScalarField2,
                   profile: MeridianProfile, grid, tol: float = 1e-8,
                   normalize: bool = True) -> ResidualReport:
    """Residuals of the barred system for fields given in surface
    parameters (u, v):

        nu_ub + lam_vb        = lam (ln|mu|)_vb
        lam_ub + nu_vb        = lam (ln|mu|)_ub
        |mu| (ln|mu|)_ub_vb   = lam^2 + mu^2 - nu^2

    This is the fundamental system with eps = -1, evaluated on barred
    partials that come from the chain rule through the isotropic chart
    of ``profile``; nothing is inverted numerically.  The chain rule
    needs only f and f' at the grid's u (U' = 1/f), so the profile is
    all it reads, and the profile's domain refuses a u outside it
    (:class:`OutOfDomain`, naming that u).  With ``normalize`` the chart
    is rescaled to canonical isotropic coordinates, scale =
    sqrt(f^2 |mu|); the third equation holds only in that scaling (the
    first two do not see the scale).
    """
    U, V, echo = _grid_points(grid)
    fj = profile.jets(U).f
    mp, lp, nup = _per_callable((mu, lam, nu), lambda p: p(U, V))
    mval = _nonvanishing(mp)

    if normalize:
        const = np.abs(mval) * fj.f ** 2
        scale = _median(const) ** 0.5
        spread = float(np.max(const) - np.min(const))
    else:
        scale, spread = 1.0, float("nan")

    def barred(p):
        return _to_barred(p, fj.f, fj.d1, scale)

    eqs, passed = _fund_rows(barred(lp), barred(mp), barred(nup), -1, tol)
    return ResidualReport(system="syst1", equations=eqs, tol=tol,
                          passed=passed, epsilon=-1, grid=echo,
                          details={"scale": scale,
                                   "conformal_mu_spread": spread})
