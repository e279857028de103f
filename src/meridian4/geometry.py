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
from that sample.  Every ambient field the sample knows (a partial of
z, a frame field, a partial of a frame field) has the form
alpha(u) P(v) + beta(u) e4, with P a directrix vector whose e4
component is 0, and is defined once by that triple.  Inner products
split exactly,

    <alpha P + beta e4, alpha' P' + beta' e4> = alpha alpha' <P, P'> - beta beta',

so the invariants take :func:`minkowski_inner` over the directrix arrays
only and combine it with the profile jets: a grid of nu x nv points
costs them no (nu, nv, 4) array, and neither do the lightlike-frame
functions of ``natural_pde``.  The (..., 4) arrays themselves are built
from the same triples when first read, and kept.

Surfaces and curves are immutable after construction; every evaluation
is pure, so grid sweeps may be parallelized freely.  A profile's jets
and a directrix's data are memoized per point set, keyed by its values
(:class:`_Memo`); a hit is bit for bit a fresh evaluation, and the memo
is safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .diffkit import (
    CumulativeQuadrature,
    Interval,
    Jet3,
    OdeSolution,
    SmoothFn1,
    _dense_output,
    _march,
    constant_fn,
    step_count,
)
from .errors import InconsistentGeometry, MinimalPoint, NonpositiveProfile
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


#: Distinct point sets whose jets a profile, or whose data a directrix,
#: keeps: the acceptance suite reads each grid's u (or v) axis through
#: several invariants in turn.
MEMO_SIZE = 2


class _Memo:
    """The results of a pure, pointwise function of one float array for
    the last :data:`MEMO_SIZE` distinct inputs, keyed by their values, so
    a hit is bit-identical to a fresh evaluation.  The function sees a
    private flat copy of its input, never the caller's array; a result
    is stored only if the function returns, and its arrays are read-only
    views (:func:`_read_only`).  A query of the same values in another
    shape gets those arrays reshaped, without a new evaluation; a repeat
    in the same shape gets the same object.  A 0-d query has its own key,
    since it gets floats back.  The entries are one tuple, replaced
    whole, so a reader never sees a half-made update."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = ()

    def __call__(self, compute, x):
        x = np.array(x, dtype=float)
        key = (x.ndim == 0, x.tobytes())
        entries = self.entries
        for i, (k, flat, shaped) in enumerate(entries):
            if k == key:
                result = shaped.get(x.shape)
                if result is None:
                    result = _reshaped(flat, x.shape)
                    entry = (k, flat, {**shaped, x.shape: result})
                    self.entries = entries[:i] + (entry,) + entries[i + 1:]
                return result
        flat = _read_only(compute(x.reshape(-1) if x.ndim > 1 else x))
        result = _reshaped(flat, x.shape) if x.ndim > 1 else flat
        entry = (key, flat, {x.shape: result})
        self.entries = (entry,) + entries[:MEMO_SIZE - 1]
        return result


def _map_arrays(fn, x):
    """x with fn applied to every array in it, alone, in a Jet3 or in a
    record of them."""
    if isinstance(x, np.ndarray):
        return fn(x)
    if isinstance(x, Jet3):
        return Jet3(*(_map_arrays(fn, d) for d in x.derivatives()))
    if isinstance(x, tuple):
        return type(x)(*(_map_arrays(fn, item) for item in x))
    return x


def _read_only(x):
    """x with every array in it replaced by a read-only view: a stored
    result is shared by every later query of its point set."""
    def view(a):
        a = a.view()
        a.flags.writeable = False
        return a
    return _map_arrays(view, x)


def _reshaped(flat, shape: tuple):
    """A result computed on n points, as the query of ``shape`` gets it:
    each array whose leading axis holds the n points takes ``shape`` in
    its place (a view of a read-only array is read-only); a float, or an
    array that does not vary with the points, stays as it is."""
    n = math.prod(shape)
    return _map_arrays(lambda a: (a.reshape(shape + a.shape[1:])
                                  if a.ndim and a.shape[0] == n else a), flat)


def _memo_field():
    """A :class:`_Memo` kept out of the record's init, eq, hash and repr."""
    return field(default_factory=_Memo, init=False, repr=False, compare=False)


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
    domain: Interval = Interval()
    name: str = ""
    _memo: _Memo = _memo_field()

    def __post_init__(self):
        self._validate()

    def data(self, v) -> CurveData:
        """The directrix at v; each array is a read-only view, and a point
        set queried recently gets the same object back (see :class:`_Memo`)."""
        return self._memo(self._data, v)

    def _data(self, v) -> CurveData:
        self.domain.require(v, "v", "directrix domain")
        jets = self.components(v)
        l, t, tp, tpp = ([getattr(j, d) for j in jets]
                         for d in ("f", "d1", "d2", "d3"))
        return CurveData(l=_stack4(*l), t=_stack4(*t), tp=_stack4(*tp),
                         tpp=_stack4(*tpp), n=_cross4(l, t),
                         nprime=_cross4(l, tp), kappa=self.curvature(v))

    def _validate(self):
        vs = self.domain.sample(9)
        d = self._data(vs)       # not memoized: no query repeats it
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
        # independent cross-check, one batch: jets against central
        # differences, whose truncation error h^2 |l'''| / 6 grows as
        # kappa^2 + 1; twice the jet's own d3 term bounds it on [v-h, v+h]
        h, vi = 1e-3, vs[1:-1]

        def rows(w, order):   # shape (3 components, len(vi))
            return np.array([np.broadcast_to(getattr(j, order), vi.shape)
                             for j in self.components(w)])

        d1 = rows(vi, "d1")
        fd1 = (rows(vi + h, "f") - rows(vi - h, "f")) / (2 * h)
        bound = 1e-5 * (1 + np.abs(d1)) + h * h / 3 * np.abs(rows(vi, "d3"))
        bad = ~np.all(np.abs(fd1 - d1) <= bound, axis=0)
        if np.any(bad):
            raise InconsistentGeometry(
                f"curve {self.name!r}: jet d1 disagrees with finite "
                f"differences at v={vi[np.argmax(bad)]}")


def great_circle(domain: Interval = Interval()) -> SphericalCurve:
    """Equatorial great circle; geodesic curvature identically zero."""
    return latitude_circle(0.0, domain=domain, name="great-circle")


#: Latitude circles kept for reuse, the last ones asked for.
CIRCLE_CACHE_SIZE = 8


def latitude_circle(kappa0: float, domain: Interval = Interval(),
                    name: str = "") -> SphericalCurve:
    """Arc-length circle on S^2(1) with constant geodesic curvature kappa0.

    Realized as the colatitude circle with cos(alpha) = kappa0 / sqrt(1 +
    kappa0^2); kappa0 = 0 degenerates to the great circle.  The curvature
    value is cross-checked against the frame closure at load.

    Circles are shared: the same float(kappa0), domain and name give the
    same instance, its data memo included, for the last
    :data:`CIRCLE_CACHE_SIZE` circles asked for (so 2 and 2.0 give one
    circle, named "latitude(kappa=2.0)").  A construction that raises is
    not kept, so it raises again on the next call.
    """
    kappa0 = float(kappa0)
    name = name or f"latitude(kappa={kappa0})"
    # the reprs tell apart what == does not: -0.0 from 0.0 (whose signs
    # reach the invariants) and an int end of the domain from a float one
    return _latitude_circle(repr(kappa0), repr(domain), kappa0, domain, name)


@lru_cache(maxsize=CIRCLE_CACHE_SIZE)
def _latitude_circle(_kappa_repr, _domain_repr, kappa0: float,
                     domain: Interval, name: str) -> SphericalCurve:
    r = 1.0 / np.hypot(1.0, kappa0)    # sin(alpha), circle radius
    zc = kappa0 / np.hypot(1.0, kappa0)  # cos(alpha), fixed height

    def components(v):
        w = Jet3.variable(v) * (1.0 / r)
        cw, sw = w.cos(), w.sin()
        return (r * cw, r * sw,
                Jet3(zc + 0.0 * np.asarray(v, dtype=float), 0.0, 0.0, 0.0))

    return SphericalCurve(components=components,
                          curvature=constant_fn(kappa0, domain),
                          domain=domain, name=name)


def curve_from_curvature(kappa: SmoothFn1, v_range: tuple[float, float],
                         h: float = 1e-3, name: str = "") -> SphericalCurve:
    """Spherical curve with prescribed geodesic curvature kappa(v).

    Integrates the moving-frame system l' = t, t' = kappa n - l,
    n' = -kappa t on the closed range [v0, v1] with the profiles' march
    and dense output; component jets come from the closure relations.
    """
    v0, v1 = float(v_range[0]), float(v_range[1])
    n_steps = step_count(v0, v1, h)

    def rhs(v, y):
        # v is a scalar, or has a trailing axis of length 1 like the steps
        l, t, n = y[..., 0:3], y[..., 3:6], y[..., 6:9]
        k = np.asarray(kappa.eval_value(v))
        return np.concatenate([t, k * n - l, -k * t], axis=-1)

    state, _ = _march(rhs, v0, np.eye(3).ravel(), h, n_steps)   # (l, t, n)

    def components(v):
        v = np.asarray(v, dtype=float)
        y = _dense_output(rhs, v0, h, state, v)
        l, t, n = y[..., 0:3], y[..., 3:6], y[..., 6:9]
        kj = kappa.eval_jet(v)
        k, kp = np.asarray(kj.f)[..., None], np.asarray(kj.d1)[..., None]
        d2 = k * n - l                       # t'
        d3 = kp * n - (k * k + 1.0) * t      # t'' via n' = -kappa t
        return tuple(Jet3(l[..., c], t[..., c], d2[..., c], d3[..., c])
                     for c in range(3))

    return SphericalCurve(components=components, curvature=kappa,
                          domain=Interval(v0, v1, closed=True),
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
    ``g_of_f``, when set, gives g at u from the f jets there, as
    ``g_eval`` does from u alone: a jets query then evaluates f once.
    """

    f_eval: Callable[[np.ndarray], Jet3]
    g_eval: Callable[[np.ndarray], Jet3]
    domain: Interval
    sign_g: int = 1
    name: str = ""
    ode: OdeSolution | None = None
    g_of_f: Callable[[np.ndarray, Jet3], Jet3] | None = None
    _memo: _Memo = _memo_field()

    def __post_init__(self):
        fj, gj = self._fg(self.domain.sample(17))
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
        """f and g at u; each array is a read-only view, and a point set
        queried recently gets the same object back (see :class:`_Memo`)."""
        return self._memo(self._jets, u)

    def _jets(self, u) -> ProfileJets:
        self.domain.require(u, "u", "profile domain")
        return self._fg(u)

    def _fg(self, u) -> ProfileJets:
        fj = self.f_eval(u)
        return ProfileJets(fj, self.g_eval(u) if self.g_of_f is None
                           else self.g_of_f(u, fj))

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
                        domain: Interval, sign_g: int = 1, name: str = "",
                        ode: OdeSolution | None = None) -> MeridianProfile:
    """Profile with g obtained by quadrature of sqrt(f'^2 + 1).

    The antiderivative is anchored at the left end of the domain (or at
    u = 0 when unbounded), so g(anchor) = 0; a finite left end must
    belong to the domain, as in the closed ranges the families build.
    The quadrature reads f' alone.  With ``ode`` given, f_eval is its
    ``jet_at``, and f' comes from phi's value (``OdeSolution.slope_at``),
    the same bits without a jet of phi.  g's derivatives come from the f
    jets of the same query (``g_of_f``), so a jets query evaluates f once.
    """
    anchor = domain.lo if np.isfinite(domain.lo) else 0.0
    slope = ode.slope_at if ode is not None else lambda u: f_eval(u).d1

    def gd_jet(u):      # g' alone: quadrature reads only the value
        fd = slope(np.asarray(u, dtype=float))
        return Jet3(sign_g * np.sqrt(fd ** 2 + 1.0))

    cumulative = CumulativeQuadrature(SmoothFn1(gd_jet, domain, name="g'"),
                                      anchor, tol=1e-12)

    def g_of_f(u, fj):
        return g_jet_from_f(fj, sign_g, cumulative(u))

    def g_eval(u):
        u = np.asarray(u, dtype=float)
        return g_of_f(u, f_eval(u))

    return MeridianProfile(f_eval=f_eval, g_eval=g_eval, domain=domain,
                           sign_g=sign_g, name=name, ode=ode, g_of_f=g_of_f)


# ===========================================================================
# the surface, one batch evaluation of it, and its pointwise records
# ===========================================================================

class SurfaceJet(NamedTuple):
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


class FrameAtPoint(NamedTuple):
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


class InvariantReport(NamedTuple):
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


class _Factor(NamedTuple):
    """The ambient field alpha(u) P(v) + beta(u) e4 of a sample.

    alpha and beta broadcast over u; P is a directrix (..., 4) array over
    v whose e4 component is 0, so inner products split (see _inner).
    """

    alpha: np.ndarray | float
    P: np.ndarray
    beta: np.ndarray | float

    def ambient(self) -> np.ndarray:
        return _scale(self.alpha, self.P) + _scale(self.beta, _E4)


def _inner(a: _Factor, b: _Factor):
    """<a, b> of two factored fields: alpha_a alpha_b <P_a, P_b> - beta_a beta_b,
    with :func:`minkowski_inner` taken over the directrix arrays only."""
    return (a.alpha * b.alpha) * minkowski_inner(a.P, b.P) - a.beta * b.beta


def _z_factor(i: int, j: int):
    """The i-th u-, j-th v-partial of z = f l + g e4:
    f^(i) l^(j), plus g^(i) e4 when j = 0."""
    return lambda s: (s.f.derivatives()[i], s.curve[j],
                      s.g.derivatives()[i] if j == 0 else 0.0)


#: Every ambient field: the (alpha, P, beta) it takes on a sample.
_FACTORS = {
    # z and its partials up to order 3; only evaluate reads the third ones
    "z": _z_factor(0, 0), "z_u": _z_factor(1, 0), "z_v": _z_factor(0, 1),
    "z_uu": _z_factor(2, 0), "z_uv": _z_factor(1, 1), "z_vv": _z_factor(0, 2),
    "z_uuu": _z_factor(3, 0), "z_uuv": _z_factor(2, 1),
    "z_uvv": _z_factor(1, 2), "z_vvv": _z_factor(0, 3),
    # the frame X = z_u, Y = l', N1 = l x l', N2 = g' l + f' e4 and its
    # partials; Y and N1 do not depend on u
    "Y": lambda s: (1.0, s.curve.t, 0.0),
    "dY_v": lambda s: (1.0, s.curve.tp, 0.0),
    "N1": lambda s: (1.0, s.curve.n, 0.0),
    "N2": lambda s: (s.g.d1, s.curve.l, s.f.d1),
    "dN1_u": lambda s: (0.0, s.curve.n, 0.0),
    "dN1_v": lambda s: (1.0, s.curve.nprime, 0.0),
    "dN2_u": lambda s: (s.g.d2, s.curve.l, s.f.d2),
    "dN2_v": lambda s: (s.g.d1, s.curve.t, 0.0),
}


def _ambient(name: str) -> cached_property:
    """Lazy (..., 4) array of the field ``name`` of a sample."""
    return cached_property(lambda s: s._factors[name].ambient())


def _pair(a: tuple, b: tuple, gram: tuple):
    """<a1 N1 + a2 N2, b1 N1 + b2 N2> from the Gram entries
    (<N1,N1>, <N1,N2>, <N2,N2>)."""
    g11, g12, g22 = gram
    return (a[0] * b[0] * g11 + (a[0] * b[1] + a[1] * b[0]) * g12
            + a[1] * b[1] * g22)


@dataclass(frozen=True, eq=False)
class SurfaceSample:
    """The surface evaluated once at broadcastable (u, v).

    Holds the profile jets and the directrix data.  Each ambient field
    (z and its partials, the frame X = z_u, Y = l', N1 = l x l',
    N2 = g' l + f' e4, and the frame's partials) is defined once, in
    ``_FACTORS``, as alpha(u) P(v) + beta(u) e4.  The invariants take
    inner products of these factors with :func:`_inner`, over the
    directrix arrays, so no (..., 4) array of the whole batch is built
    for them; the (..., 4) arrays themselves are built from the same
    factors when first read, and then kept.  Of the lightlike frame,
    only ``natural_pde.isotropic_frame`` builds (..., 4) arrays.
    """

    f: Jet3
    g: Jet3
    curve: CurveData

    _factors = cached_property(
        lambda s: {k: _Factor(*build(s)) for k, build in _FACTORS.items()})

    z, z_u, z_v = _ambient("z"), _ambient("z_u"), _ambient("z_v")
    z_uu, z_uv, z_vv = _ambient("z_uu"), _ambient("z_uv"), _ambient("z_vv")
    z_uuu, z_uuv = _ambient("z_uuu"), _ambient("z_uuv")
    z_uvv, z_vvv = _ambient("z_uvv"), _ambient("z_vvv")
    X = property(lambda s: s.z_u)
    Y, N1, N2 = _ambient("Y"), _ambient("N1"), _ambient("N2")
    dN1_u, dN1_v = _ambient("dN1_u"), _ambient("dN1_v")
    dN2_u, dN2_v = _ambient("dN2_u"), _ambient("dN2_v")

    # -- invariants --------------------------------------------------------
    def first_form(self) -> tuple:
        """(E, F, G) from the directrix's measured Gram entries and the
        profile jets, not from closed forms."""
        fa = self._factors
        return (_inner(fa["z_u"], fa["z_u"]), _inner(fa["z_u"], fa["z_v"]),
                _inner(fa["z_v"], fa["z_v"]))

    def gauss_curvature(self) -> GaussCurvature:
        """K from the defining formula via the frame and the second
        derivatives of z, and from the closed form f''/f.

        The normal parts s_xx, s_xy, s_yy of z_uu, z_uv / f and z_vv / f^2
        are kept as their (N1, N2) coefficient pairs, and their inner
        products are taken through the measured Gram entries of (N1, N2).
        """
        f, fa = self.f.f, self._factors
        N1, N2 = fa["N1"], fa["N2"]
        gram = _inner(N1, N1), _inner(N1, N2), _inner(N2, N2)

        def normal_part(w):
            return _inner(w, N1), _inner(w, N2)

        s_xx = normal_part(fa["z_uu"])
        s_xy = tuple(c / f for c in normal_part(fa["z_uv"]))
        s_yy = tuple(c / f ** 2 for c in normal_part(fa["z_vv"]))
        num = _pair(s_xx, s_yy, gram) - _pair(s_xy, s_xy, gram)
        X, Y = fa["z_u"], fa["Y"]
        den = _inner(X, X) * _inner(Y, Y) - _inner(X, Y) ** 2
        return GaussCurvature(frame_route=num / den,
                              profile_route=self.f.d2 / f)

    def normal_curvature(self):
        """Curvature of the normal connection via its coefficient field.

        With b_u = <d_u N1, N2> and b_v = <d_v N1, N2>, the curvature
        operator on coordinate fields has the single component
        d_u b_v - d_v b_u, and the invariant normalizes by the frame:
        K_perp = -(d_u b_v - d_v b_u) / f.
        """
        fa = self._factors
        N2 = fa["N2"]
        dN1_uv = fa["dN1_u"]       # d_u N1 = 0, so d_v d_u N1 = 0 too
        du_bv = _inner(dN1_uv, N2) + _inner(fa["dN1_v"], fa["dN2_u"])
        dv_bu = _inner(dN1_uv, N2) + _inner(fa["dN1_u"], fa["dN2_v"])
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
        fa = self._factors
        jet_route = []
        for N in (fa["N1"], fa["N2"]):
            s_uu = _inner(fa["z_uu"], N)
            s_uv = _inner(fa["z_uv"], N)
            s_vv = _inner(fa["z_vv"], N)
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
        """Components (alpha, beta) of H0 = H / ||H|| as first-order jets, like
        h_jets: H0 = (cos t, sin t), d alpha = -beta dt, d beta = alpha dt."""
        h1, h2 = self.h_jets(seed)
        norm = np.sqrt(h1.f * h1.f + h2.f * h2.f)
        alpha, beta = h1.f / norm, h2.f / norm
        dtheta = (alpha * h2.d1 - beta * h1.d1) / norm
        return Jet3(alpha, -beta * dtheta), Jet3(beta, alpha * dtheta)

    def _connection(self) -> tuple:
        """Normal-connection coefficients (b_u, b_v), b_w = <d_w N1, N2>."""
        fa = self._factors
        return (_inner(fa["dN1_u"], fa["N2"]), _inner(fa["dN1_v"], fa["N2"]))

    def _normal_derivative(self, jets) -> tuple:
        """(D_X, D_Y) of the normal field whose (N1, N2) components
        ``jets(seed)`` gives, each as (N1, N2) components."""
        au, bu = jets("u")
        av, bv = jets("v")
        b_u, b_v = self._connection()
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
    return record._make(Vec4M.from_array(getattr(sample, name))
                        for name in record._fields)


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
