"""Timelike surfaces built from a profile curve swept along a spherical one.

The surface is the immersion

    z(u, v) = f(u) l(v) + g(u) e4

where (f, g) is a profile ("meridian") curve with f > 0 and the Lorentz
arc-length normalization f'^2 - g'^2 = -1, and l(v) is an arc-length
curve on the unit sphere S^2(1) inside span{e1, e2, e3}.  The induced
metric has signature (1,1): z_u is unit timelike and z_v is spacelike
with squared length f^2.

All point operations accept scalars or broadcastable numpy arrays in
(u, v).  So do the records of ambient vectors, :class:`SurfaceJet`,
:class:`FrameAtPoint` and the lightlike ``natural_pde.IsotropicFrame``:
their :class:`Vec4M` fields hold one point or a batch.  Only
:class:`InvariantReport` is for a single point.  Ambient vectors are
arrays with a trailing axis of length 4 in the basis (e1, e2, e3, e4).

Each :class:`MeridianSurface` call evaluates the profile jets and the
directrix once, as a :class:`SurfaceSample`, and derives its result
from that sample.  The sample builds each ambient array (a partial of
z, a frame field, a partial of a frame field) when it is first read,
so a call pays only for the arrays its quantity needs.

Surfaces and curves are immutable after construction; every evaluation
is pure, so grid sweeps may be parallelized freely.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .diffkit import (
    CumulativeQuadrature,
    Interval,
    Jet3,
    OdeSolution,
    SmoothFn1,
    _rk4_step,
    constant_fn,
)
from .errors import InconsistentGeometry, MinimalPoint, NonpositiveProfile, OutOfDomain
from .minkowski import CausalClass, Vec4M, causal_character, minkowski_inner

__all__ = [
    "SphericalCurve",
    "MeridianProfile",
    "MeridianSurface",
    "SurfaceSample",
    "SurfaceJet",
    "FrameAtPoint",
    "InvariantReport",
    "great_circle",
    "latitude_circle",
    "curve_from_curvature",
]

_E4 = np.array([0.0, 0.0, 0.0, 1.0])

SPHERE_TOL = 1e-10     # |<l,l>-1|, |<l',l'>-1|
FRENET_TOL = 1e-8      # Frenet closure of the directrix frame
PROFILE_TOL = 1e-10    # |f'^2 - g'^2 + 1| / (1 + f'^2)
MINIMAL_H_TOL = 1e-12  # <H,H> at or below this counts as a minimal point


def _stack4(x1, x2, x3) -> np.ndarray:
    """Ambient (..., 4) array with components (x1, x2, x3, 0)."""
    return np.stack(np.broadcast_arrays(x1, x2, x3, 0.0), axis=-1)


def _cross4(a, b) -> np.ndarray:
    """Euclidean cross product of two component triples, as _stack4."""
    return _stack4(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                   a[0] * b[1] - a[1] * b[0])


def _scale(s, vec: np.ndarray) -> np.ndarray:
    """Multiply an ambient (..., 4) array by a broadcastable scalar field."""
    return np.asarray(s)[..., None] * vec


# ===========================================================================
# directrix curves on S^2(1)
# ===========================================================================

class CurveData(NamedTuple):
    """Directrix position/derivative vectors and curvature jet at v.

    All ambient entries are (..., 4) arrays with vanishing e4 component:
    l and its first three v-derivatives (fields 0-3, so ``data[j]`` is
    the j-th derivative), plus the unit normal n = l x l' and its
    derivative n' = l x l''.
    """

    l: np.ndarray
    t: np.ndarray
    tp: np.ndarray
    tpp: np.ndarray
    n: np.ndarray
    nprime: np.ndarray
    kappa: Jet3


@dataclass(frozen=True)
class SphericalCurve:
    """Arc-length curve on the unit 2-sphere with order-3 component jets.

    ``components(v)`` returns the three coordinate functions of l(v) as
    jets; ``curvature`` is the geodesic curvature kappa(v) = <t', n>
    with n = l x t (right-handed Euclidean cross product), which fixes
    kappa's sign.
    """

    components: Callable[[np.ndarray], tuple[Jet3, Jet3, Jet3]]
    curvature: SmoothFn1
    domain: Interval = field(default_factory=Interval)
    name: str = ""

    def __post_init__(self):
        self._validate()

    def data(self, v) -> CurveData:
        v = np.asarray(v, dtype=float)
        if not self.domain.contains(v):
            raise OutOfDomain(
                f"v={v} outside directrix domain "
                f"({self.domain.lo}, {self.domain.hi})")
        jets = self.components(v)
        l, t, tp, tpp = ([getattr(j, d) for j in jets]
                         for d in ("f", "d1", "d2", "d3"))
        return CurveData(l=_stack4(*l), t=_stack4(*t), tp=_stack4(*tp),
                         tpp=_stack4(*tpp), n=_cross4(l, t),
                         nprime=_cross4(l, tp), kappa=self.curvature(v))

    def _validate(self, n_samples: int = 9):
        vs = self.domain.sample(n_samples)
        d = self.data(vs)
        l3, t3, tp3, n3 = d.l[..., :3], d.t[..., :3], d.tp[..., :3], d.n[..., :3]
        unit_l = np.max(np.abs(np.sum(l3 * l3, axis=-1) - 1.0))
        unit_t = np.max(np.abs(np.sum(t3 * t3, axis=-1) - 1.0))
        # each check reads "not dev <= TOL", so that a NaN fails it
        dev = np.max([unit_l, unit_t])
        if not dev <= SPHERE_TOL:
            raise InconsistentGeometry(
                f"curve {self.name!r} violates sphere/arc-length normalization "
                f"(deviation {dev:.3e})")
        # closure of the moving frame: t' = kappa n - l and n' = -kappa t
        kap = d.kappa.f
        c1 = np.max(np.abs(tp3 - (kap[..., None] * n3 - l3)))
        c2 = np.max(np.abs(d.nprime[..., :3] + kap[..., None] * t3))
        kdev = np.max(np.abs(np.sum(tp3 * n3, axis=-1) - kap))
        dev = np.max([c1, c2, kdev])
        if not dev <= FRENET_TOL:
            raise InconsistentGeometry(
                f"curve {self.name!r} breaks moving-frame closure "
                f"(deviation {dev:.3e})")
        # independent cross-check: component jets against central differences
        h = 1e-3
        for v in vs[1:-1]:
            jets = self.components(np.asarray(v))
            for k in range(3):
                comp = lambda w, k=k: np.asarray(
                    self.components(np.asarray(w))[k].f)
                fd1 = (comp(v + h) - comp(v - h)) / (2 * h)
                if not abs(fd1 - jets[k].d1) / (1 + abs(jets[k].d1)) <= 1e-5:
                    raise InconsistentGeometry(
                        f"curve {self.name!r}: jet d1 disagrees with finite "
                        f"differences at v={v}")


def great_circle(domain: Interval = Interval()) -> SphericalCurve:
    """Equatorial great circle; geodesic curvature identically zero."""
    return latitude_circle(0.0, domain=domain, name="great-circle")


def latitude_circle(kappa0: float, domain: Interval = Interval(),
                    name: str = "") -> SphericalCurve:
    """Arc-length circle on S^2(1) with constant geodesic curvature kappa0.

    Realized as the colatitude circle with cos(alpha) = kappa0 / sqrt(1 +
    kappa0^2); kappa0 = 0 degenerates to the great circle.  The curvature
    value is cross-checked against the frame closure at load.
    """
    r = 1.0 / np.hypot(1.0, kappa0)    # sin(alpha), circle radius
    zc = kappa0 / np.hypot(1.0, kappa0)  # cos(alpha), fixed height

    def components(v):
        w = Jet3.variable(v) * (1.0 / r)
        cw, sw = w.cos(), w.sin()
        return (r * cw, r * sw,
                Jet3(zc + 0.0 * np.asarray(v, dtype=float), 0.0, 0.0, 0.0))

    return SphericalCurve(components=components,
                          curvature=constant_fn(float(kappa0), domain),
                          domain=domain,
                          name=name or f"latitude(kappa={kappa0})")


def curve_from_curvature(kappa: SmoothFn1, v_range: tuple[float, float],
                         h: float = 1e-3, name: str = "") -> SphericalCurve:
    """Spherical curve with prescribed geodesic curvature kappa(v).

    Integrates the moving-frame system l' = t, t' = kappa n - l,
    n' = -kappa t with the same fixed-step scheme used for profiles;
    component jets then come from the closure relations, not from
    differencing.
    """
    v0, v1 = float(v_range[0]), float(v_range[1])
    n_steps = max(int(round((v1 - v0) / h)), 1)
    state = np.zeros((n_steps + 1, 9))
    state[0] = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=float)

    def rhs(v, y):
        # v is a scalar, or has a trailing axis of length 1 like the steps
        l, t, n = y[..., 0:3], y[..., 3:6], y[..., 6:9]
        k = np.asarray(kappa.eval_jet(v).f)
        return np.concatenate([t, k * n - l, -k * t], axis=-1)

    for i in range(n_steps):
        state[i + 1] = _rk4_step(rhs, v0 + i * h, state[i], h)

    def state_at(v):
        v = np.asarray(v, dtype=float)[..., None]
        idx = np.clip(((v[..., 0] - v0) / h).astype(int), 0, n_steps)
        node = (v0 + idx * h)[..., None]
        return _rk4_step(rhs, node, state[idx], v - node)

    def components(v):
        v = np.asarray(v, dtype=float)
        y = state_at(v)
        l, t, n = y[..., 0:3], y[..., 3:6], y[..., 6:9]
        kj = kappa.eval_jet(v)
        k, kp = np.asarray(kj.f)[..., None], np.asarray(kj.d1)[..., None]
        d2 = k * n - l                       # t'
        d3 = kp * n - (k * k + 1.0) * t      # t'' via n' = -kappa t
        return tuple(Jet3(l[..., c], t[..., c], d2[..., c], d3[..., c])
                     for c in range(3))

    return SphericalCurve(components=components, curvature=kappa,
                          domain=Interval(v0, v1),
                          name=name or f"curvature-driven({kappa.name})")


# ===========================================================================
# profile (meridian) curves
# ===========================================================================

class ProfileJets(NamedTuple):
    """f and g with first three u-derivatives at a point (or grid)."""

    f: Jet3
    g: Jet3


@dataclass(frozen=True)
class MeridianProfile:
    """Profile curve (f(u), g(u)) with f > 0 and f'^2 - g'^2 = -1.

    ``sign_g`` records which branch g' = sign * sqrt(f'^2 + 1) the curve
    uses.  ``ode`` is set when f came from integrating f' = phi(f).
    """

    f_eval: Callable[[np.ndarray], Jet3]
    g_eval: Callable[[np.ndarray], Jet3]
    domain: Interval
    sign_g: int = 1
    name: str = ""
    ode: OdeSolution | None = None

    def __post_init__(self):
        us = self.domain.sample(17)
        fj, gj = self.f_eval(us), self.g_eval(us)
        if not np.all(fj.f > 0):
            raise NonpositiveProfile(
                f"profile {self.name!r}: f <= 0 inside the domain")
        # relative: the cancellation in f'^2 - g'^2 grows with f'^2
        fd_sq = fj.d1 ** 2
        dev = np.max(np.abs(fd_sq - gj.d1 ** 2 + 1.0) / (1.0 + fd_sq))
        if not dev <= PROFILE_TOL:
            raise NonpositiveProfile(
                f"profile {self.name!r}: f'^2 - g'^2 = -1 violated "
                f"(relative deviation {dev:.3e})")

    def jets(self, u) -> ProfileJets:
        u = np.asarray(u, dtype=float)
        if not self.domain.contains(u):
            raise OutOfDomain(
                f"u={u} outside profile domain "
                f"({self.domain.lo}, {self.domain.hi})")
        return ProfileJets(self.f_eval(u), self.g_eval(u))

    @property
    def stopped_reason(self) -> str | None:
        return self.ode.stopped_reason if self.ode else None


def g_jet_from_f(fj: Jet3, sign_g: int, g_value) -> Jet3:
    """g-jet from the Lorentz normalization g' = sign * sqrt(f'^2 + 1)."""
    fd, fdd, fddd = fj.d1, fj.d2, fj.d3
    root = np.sqrt(fd ** 2 + 1.0)
    gd = sign_g * root
    gdd = sign_g * fd * fdd / root
    gddd = sign_g * ((fdd ** 2 + fd * fddd) / root - fd ** 2 * fdd ** 2 / root ** 3)
    return Jet3(g_value, gd, gdd, gddd)


def profile_from_f_jets(f_eval: Callable[[np.ndarray], Jet3],
                        domain: Interval, sign_g: int = 1, g_offset: float = 0.0,
                        name: str = "", ode: OdeSolution | None = None,
                        quad_tol: float = 1e-12) -> MeridianProfile:
    """Profile with g obtained by quadrature of sqrt(f'^2 + 1).

    The antiderivative is anchored at the left end of the domain (or at
    u = 0 when unbounded), so g(anchor) = g_offset.
    """
    anchor = domain.lo if np.isfinite(domain.lo) else 0.0

    def gd_jet(u):
        g = g_jet_from_f(f_eval(np.asarray(u, dtype=float)), sign_g, 0.0)
        return Jet3(g.d1, g.d2, g.d3, 0.0)

    gd_fn = SmoothFn1(gd_jet, Interval(domain.lo - 1e-6, domain.hi + 1e-6),
                      name="g'")
    cumulative = CumulativeQuadrature(gd_fn, anchor, tol=quad_tol)

    def g_eval(u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            gv = g_offset + cumulative(float(u))
        else:
            gv = g_offset + np.array([cumulative(x) for x in u.ravel()]
                                     ).reshape(u.shape)
        return g_jet_from_f(f_eval(u), sign_g, gv)

    return MeridianProfile(f_eval=f_eval, g_eval=g_eval, domain=domain,
                           sign_g=sign_g, name=name, ode=ode)


# ===========================================================================
# the surface, one batch evaluation of it, and its pointwise records
# ===========================================================================

@dataclass(frozen=True)
class SurfaceJet:
    """Ambient position and partial derivatives of z at (u, v)."""

    z: Vec4M
    z_u: Vec4M
    z_v: Vec4M
    z_uu: Vec4M
    z_uv: Vec4M
    z_vv: Vec4M
    z_uuu: Vec4M
    z_uuv: Vec4M
    z_uvv: Vec4M
    z_vvv: Vec4M


@dataclass(frozen=True)
class FrameAtPoint:
    """Orthonormal frame X, Y (tangent) and N1, N2 (normal).

    Gram matrix is diag(-1, 1, 1, 1): X is unit timelike.
    """

    X: Vec4M
    Y: Vec4M
    N1: Vec4M
    N2: Vec4M

    def labeled(self):
        return [("X", self.X), ("Y", self.Y), ("N1", self.N1), ("N2", self.N2)]


class GaussCurvature(NamedTuple):
    """Gauss curvature by two routes that must agree."""

    frame_route: float      # defining formula through the second fundamental form
    profile_route: float    # closed form f''/f


class MeanCurvature(NamedTuple):
    """Mean curvature components along (N1, N2) by two routes."""

    h1: float
    h2: float
    h1_jet: float
    h2_jet: float


@dataclass(frozen=True)
class InvariantReport:
    """Pointwise first-form data, curvatures, and causal classification."""

    E: float
    F: float
    G: float
    K: float
    K_perp: float
    h1: float
    h2: float
    H_norm_sq: float
    K_minus_H2: float
    epsilon: int
    causal_z_u: CausalClass
    causal_z_v: CausalClass


def _z_partial(i: int, j: int) -> cached_property:
    """Lazy i-th u-, j-th v-partial of z = f l + g e4 on a sample:
    f^(i) l^(j), plus g^(i) e4 when j = 0."""
    def build(s):
        part = _scale(s.f.derivatives()[i], s.curve[j])
        return part + _scale(s.g.derivatives()[i], _E4) if j == 0 else part
    return cached_property(build)


@dataclass(frozen=True, eq=False)
class SurfaceSample:
    """The surface evaluated once at broadcastable (u, v).

    Holds the profile jets and the directrix data.  Each ambient array,
    shape (..., 4), is built when first read and then kept, and every
    invariant below is derived from these arrays: the partials of z, the
    frame X = z_u, Y = l', N1 = l x l', N2 = g' l + f' e4, and the
    frame's partials.
    """

    f: Jet3
    g: Jet3
    curve: CurveData

    # z and its partials up to order 3; only evaluate reads the third ones
    z, z_u, z_v = _z_partial(0, 0), _z_partial(1, 0), _z_partial(0, 1)
    z_uu, z_uv, z_vv = _z_partial(2, 0), _z_partial(1, 1), _z_partial(0, 2)
    z_uuu, z_uuv = _z_partial(3, 0), _z_partial(2, 1)
    z_uvv, z_vvv = _z_partial(1, 2), _z_partial(0, 3)

    # the frame and its partials; N1 does not depend on u
    X = property(lambda s: s.z_u)
    Y = property(lambda s: s.curve.t)
    N1 = property(lambda s: s.curve.n)
    N2 = cached_property(
        lambda s: _scale(s.g.d1, s.curve.l) + _scale(s.f.d1, _E4))
    dN1_u = cached_property(lambda s: np.zeros_like(s.N1))
    dN1_v = property(lambda s: s.curve.nprime)
    dN2_u = cached_property(
        lambda s: _scale(s.g.d2, s.curve.l) + _scale(s.f.d2, _E4))
    dN2_v = cached_property(lambda s: _scale(s.g.d1, s.curve.t))

    # -- invariants --------------------------------------------------------
    def first_form(self) -> tuple:
        """(E, F, G) measured from the ambient jets, not from closed forms."""
        E = minkowski_inner(self.z_u, self.z_u)
        F = minkowski_inner(self.z_u, self.z_v)
        G = minkowski_inner(self.z_v, self.z_v)
        return E, F, G

    def gauss_curvature(self) -> GaussCurvature:
        """K from the defining formula via the frame and the second
        derivatives of z, and from the closed form f''/f."""
        f = self.f.f
        X, Y, N1, N2 = self.X, self.Y, self.N1, self.N2

        def normal_part(w):
            return (minkowski_inner(w, N1)[..., None] * N1
                    + minkowski_inner(w, N2)[..., None] * N2)

        s_xx = normal_part(self.z_uu)
        s_xy = normal_part(_scale(1.0 / f, self.z_uv))
        s_yy = normal_part(_scale(1.0 / f ** 2, self.z_vv))
        num = minkowski_inner(s_xx, s_yy) - minkowski_inner(s_xy, s_xy)
        den = (minkowski_inner(X, X) * minkowski_inner(Y, Y)
               - minkowski_inner(X, Y) ** 2)
        return GaussCurvature(frame_route=num / den,
                              profile_route=self.f.d2 / f)

    def normal_curvature(self):
        """Curvature of the normal connection via its coefficient field.

        With b_u = <d_u N1, N2> and b_v = <d_v N1, N2>, the curvature
        operator on coordinate fields has the single component
        d_u b_v - d_v b_u, and the invariant normalizes by the frame:
        K_perp = -(d_u b_v - d_v b_u) / f.
        """
        N2 = self.N2
        dN1_uv = self.dN1_u        # d_u N1 = 0, so d_v d_u N1 = 0 too
        du_bv = (minkowski_inner(dN1_uv, N2)
                 + minkowski_inner(self.dN1_v, self.dN2_u))
        dv_bu = (minkowski_inner(dN1_uv, N2)
                 + minkowski_inner(self.dN1_u, self.dN2_v))
        return -(du_bv - dv_bu) / self.f.f

    def h_closed(self) -> tuple:
        """H components along (N1, N2): closed form in the profile jets."""
        f, fd, fdd = self.f.f, self.f.d1, self.f.d2
        kap = self.curve.kappa.f
        h1 = kap / (2.0 * f)
        h2 = -(1.0 + fd ** 2 + f * fdd) / (2.0 * f * self.g.d1)
        return h1, h2

    def mean_curvature(self) -> MeanCurvature:
        """H by the closed form and through the measured first form and
        normal projections of the second derivatives."""
        E, F, G = self.first_form()
        det = E * G - F ** 2
        jet_route = []
        for N in (self.N1, self.N2):
            s_uu = minkowski_inner(self.z_uu, N)
            s_uv = minkowski_inner(self.z_uv, N)
            s_vv = minkowski_inner(self.z_vv, N)
            jet_route.append((G * s_uu - 2.0 * F * s_uv + E * s_vv) / (2.0 * det))
        return MeanCurvature(*self.h_closed(), *jet_route)

    def h_jets(self, seed: str) -> tuple:
        """(h1, h2) as first-order jets of one parameter.

        seed="u": f-quantities carry their u-derivative, kappa is constant.
        seed="v": f-quantities are constants, kappa carries kappa'.
        """
        fj, gj, kj = self.f, self.g, self.curve.kappa
        if seed == "u":
            f, fd, fdd, gd, kap = (Jet3(fj.f, fj.d1), Jet3(fj.d1, fj.d2),
                                   Jet3(fj.d2, fj.d3), Jet3(gj.d1, gj.d2),
                                   Jet3(kj.f))
        else:
            f, fd, fdd, gd, kap = (Jet3(fj.f), Jet3(fj.d1), Jet3(fj.d2),
                                   Jet3(gj.d1), Jet3(kj.f, kj.d1))
        two_f = 2.0 * f
        h1 = kap / two_f
        h2 = -(1.0 + fd * fd + f * fdd) / (two_f * gd)
        return h1, h2

    def h0_jets(self, seed: str) -> tuple:
        """Components of H0 = H / ||H|| as first-order jets, like h_jets."""
        h1, h2 = self.h_jets(seed)
        norm = (h1 * h1 + h2 * h2).sqrt()
        return h1 / norm, h2 / norm

    def _normal_derivative(self, jets) -> tuple:
        """(D_X, D_Y) of the normal field whose (N1, N2) components
        ``jets(seed)`` gives, each as (N1, N2) components."""
        au, bu = jets("u")
        av, bv = jets("v")
        # normal-connection coefficients b_w = <d_w N1, N2>
        b_u = minkowski_inner(self.dN1_u, self.N2)
        b_v = minkowski_inner(self.dN1_v, self.N2)
        f = self.f.f
        dx = (au.d1 - bu.f * b_u, bu.d1 + au.f * b_u)
        dy = ((av.d1 - bv.f * b_v) / f, (bv.d1 + av.f * b_v) / f)
        return dx, dy

    def normal_derivative_H(self) -> tuple:
        """(D_X H, D_Y H), each as (N1, N2) components.

        Scalar derivatives are propagated analytically through the
        order-3 profile jets; the normal-connection coefficients are
        measured from the frame fields (they vanish identically for
        this surface class, but enter the formula).
        """
        return self._normal_derivative(self.h_jets)

    def normal_derivative_H0(self, tol: float = MINIMAL_H_TOL) -> tuple:
        """(D_X H0, D_Y H0) for the unit field H0 = H / ||H||."""
        h1, h2 = self.h_closed()
        if np.any(h1 ** 2 + h2 ** 2 <= tol):
            raise MinimalPoint("H vanishes (to tolerance); H0 undefined")
        return self._normal_derivative(self.h0_jets)

    def normal_field_derivatives(self, combo: tuple = (1.0, 0.0)) -> tuple:
        """Ambient partials of the field a*N1 + b*N2 for constants (a, b).

        Returns (d_u field, d_v field) as (..., 4) arrays; a constant
        field witnesses that the surface lies in a hyperplane.
        """
        a, b = combo
        return (a * self.dN1_u + b * self.dN2_u,
                a * self.dN1_v + b * self.dN2_v)


def _vectors(record, sample: SurfaceSample):
    """A record of Vec4M fields read from a sample, one point or a batch."""
    return record(**{f.name: Vec4M.from_array(getattr(sample, f.name))
                     for f in fields(record)})


@dataclass(frozen=True)
class MeridianSurface:
    """The immersion z(u, v) = f(u) l(v) + g(u) e4.

    Every method makes one batch evaluation, :meth:`_raw`, and derives
    its result from that :class:`SurfaceSample`.
    """

    profile: MeridianProfile
    directrix: SphericalCurve
    name: str = ""

    def __post_init__(self):
        us = self.profile.domain.sample(5)
        vs = self.directrix.domain.sample(5)
        s = self._raw(us[:, None], vs[None, :])
        E, _, G = s.first_form()
        f_sq = s.f.f ** 2
        e_dev = np.max(np.abs(E + 1.0) / (1.0 + s.f.d1 ** 2))
        g_dev = np.max(np.abs(G - f_sq) / f_sq)
        if not np.max([e_dev, g_dev]) <= 1e-8:
            raise InconsistentGeometry(
                f"surface {self.name!r}: tangent normalization failed "
                f"(relative deviations {e_dev:.3e}, {g_dev:.3e})")

    def _raw(self, u, v) -> SurfaceSample:
        """One batch evaluation at broadcastable (u, v)."""
        f, g = self.profile.jets(u)
        return SurfaceSample(f=f, g=g, curve=self.directrix.data(v))

    # -- spec operations ---------------------------------------------------
    def evaluate(self, u, v) -> SurfaceJet:
        return _vectors(SurfaceJet, self._raw(u, v))

    def frame(self, u, v) -> FrameAtPoint:
        return _vectors(FrameAtPoint, self._raw(u, v))

    def first_form(self, u, v) -> tuple:
        return self._raw(u, v).first_form()

    def gauss_curvature(self, u, v) -> GaussCurvature:
        return self._raw(u, v).gauss_curvature()

    def normal_curvature(self, u, v):
        return self._raw(u, v).normal_curvature()

    def mean_curvature(self, u, v) -> MeanCurvature:
        return self._raw(u, v).mean_curvature()

    def normal_derivative_H(self, u, v) -> tuple:
        return self._raw(u, v).normal_derivative_H()

    def normal_derivative_H0(self, u, v, tol: float = MINIMAL_H_TOL) -> tuple:
        return self._raw(u, v).normal_derivative_H0(tol)

    def normal_field_derivatives(self, u, v, combo: tuple = (1.0, 0.0)):
        return self._raw(u, v).normal_field_derivatives(combo)

    def invariant_report(self, u: float, v: float) -> InvariantReport:
        s = self._raw(u, v)
        E, F, G = s.first_form()
        K = s.gauss_curvature().frame_route
        h1, h2 = s.h_closed()
        h_sq = h1 ** 2 + h2 ** 2
        k_minus = float(K - h_sq)
        return InvariantReport(
            E=float(E), F=float(F), G=float(G),
            K=float(K), K_perp=float(s.normal_curvature()),
            h1=float(h1), h2=float(h2), H_norm_sq=float(h_sq),
            K_minus_H2=k_minus, epsilon=1 if k_minus > 0 else -1,
            causal_z_u=causal_character(Vec4M.from_array(s.X)),
            causal_z_v=causal_character(Vec4M.from_array(s.z_v)))
