"""Constructors for the classified profile families and a theorem verifier.

Each constructor realizes one family of profile curves:

  flat           f = a u + b                       (zero Gauss curvature)
  constant-K     f'' = K f                          (constant Gauss curvature)
  minimal        1 + f'^2 + f f'' = 0, kappa = 0    (vanishing H)
  cmc            f' = phi(f) from the constant-||H|| reduction
  parallel-H     case (i) ODE profile / case (ii) cylinder f = const
  pnmc           parallel unit mean-curvature direction, cases (i)/(ii)

Profiles built from an autonomous equation come with equation-derived
jets; closed-form families carry exact jets.  ``verify_family`` turns
each family's defining property into a grid check with an explicit
tolerance, so every classification statement is machine-checkable.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .diffkit import (Interval, Jet3, SmoothFn1, expr_fn, float_value,
                      integrate_profile, log, sqrt)
from .errors import EmptyInterval, NonpositiveProfile, ParameterConflict, RadicandNegative
from .geometry import (
    MeridianProfile,
    MeridianSurface,
    SphericalCurve,
    great_circle,
    latitude_circle,
    profile_from_f_jets,
)
from .grids import Grid2, json_number, json_safe, max_abs

__all__ = [
    "TAGS",
    "FamilySpec",
    "FamilyVerdict",
    "make_flat",
    "make_constant_K",
    "make_minimal",
    "make_cmc",
    "make_parallel_H1",
    "make_parallel_H2",
    "make_pnmc1",
    "make_pnmc2",
    "build_profile",
    "default_directrix",
    "build_surface",
    "verify_family",
]

TAGS = ("Flat", "ConstantK", "Minimal", "CMC",
        "ParallelH1", "ParallelH2", "PNMC1", "PNMC2")

#: Non-parallel H witness: verify_family on the PNMC tags requires
#: max |D_X H| at least this large somewhere on the grid.
DH_WITNESS_FLOOR = 0.01


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def make_flat(a: float, b: float, c: float = 0.0, sign_g: int = 1,
              interval: Interval | None = None) -> MeridianProfile:
    """Ruled profile f = a u + b, g = sign * sqrt(a^2 + 1) u + c."""
    if interval is None:
        if a > 0:
            interval = Interval(-b / a, math.inf)
        elif a < 0:
            interval = Interval(-math.inf, -b / a)
        else:
            if b <= 0:
                raise NonpositiveProfile("flat profile with a=0 needs b > 0")
            interval = Interval()
    gd = sign_g * math.sqrt(a * a + 1.0)

    def f_eval(u):
        u = np.asarray(u, dtype=float)
        return Jet3(a * u + b, a + 0.0 * u, 0.0 * u, 0.0 * u)

    def g_eval(u):
        u = np.asarray(u, dtype=float)
        return Jet3(gd * u + c, gd + 0.0 * u, 0.0 * u, 0.0 * u)

    return MeridianProfile(f_eval=f_eval, g_eval=g_eval, domain=interval,
                           sign_g=sign_g, name=f"flat(a={a},b={b})")


def make_constant_K(K: float, a1: float, a2: float, interval: Interval,
                    sign_g: int = 1) -> MeridianProfile:
    """Profile solving f'' = K f, for nonzero constant Gauss curvature K.

    g comes from quadrature of sqrt(f'^2 + 1) anchored at the left end of
    the closed range [interval.lo, interval.hi] (additive constant zero).
    """
    if K == 0:
        raise ParameterConflict("K must be nonzero; use make_flat for K = 0")
    rk = math.sqrt(abs(K))

    def expr(j: Jet3) -> Jet3:
        w = rk * j
        if K > 0:
            return a1 * w.cosh() + a2 * w.sinh()
        return a1 * w.cos() + a2 * w.sin()

    f_eval = lambda u: expr(Jet3.variable(np.asarray(u, dtype=float)))
    domain = Interval(interval.lo, interval.hi, closed=True)
    return profile_from_f_jets(f_eval, domain, sign_g=sign_g,
                               name=f"constant-K(K={K},a1={a1},a2={a2})")


def _minimal_radius(a: float, b: float) -> float:
    """r = sqrt(a^2 + b): f = sqrt(-u^2 + 2 a u + b) lives on (a - r, a + r)."""
    r2 = a * a + b
    if r2 <= 0:
        raise EmptyInterval(f"a^2 + b = {r2} leaves no valid interval")
    return math.sqrt(r2)


def make_minimal(a: float, b: float, c: float = 0.0,
                 sign_g: int = 1) -> MeridianProfile:
    """Profile f = sqrt(-u^2 + 2 a u + b) solving 1 + f'^2 + f f'' = 0.

    Defined on (a - r, a + r) with r = sqrt(a^2 + b); pairs with a zero
    curvature directrix for a genuinely minimal surface.
    """
    r = _minimal_radius(a, b)

    def f_eval(u):
        j = Jet3.variable(np.asarray(u, dtype=float))
        return (b + 2.0 * a * j - j * j).sqrt()

    def g_eval(u):
        j = Jet3.variable(np.asarray(u, dtype=float))
        return sign_g * r * ((j - a) * (1.0 / r)).arcsin() + c

    return MeridianProfile(f_eval=f_eval, g_eval=g_eval,
                           domain=Interval(a - r, a + r), sign_g=sign_g,
                           name=f"minimal(a={a},b={b})")


def make_parallel_H2(a: float, b: float = 0.0, sign_g: int = 1) -> MeridianProfile:
    """Cylinder-type profile f = a (constant), g = sign * u + b."""
    if a <= 0:
        raise NonpositiveProfile(f"constant radius must be positive, got {a}")

    def f_eval(u):
        u = np.asarray(u, dtype=float)
        z = 0.0 * u
        return Jet3(a + z, z, z, z)

    def g_eval(u):
        u = np.asarray(u, dtype=float)
        z = 0.0 * u
        return Jet3(sign_g * u + b, sign_g + z, z, z)

    return MeridianProfile(f_eval=f_eval, g_eval=g_eval, domain=Interval(),
                           sign_g=sign_g, name=f"cylinder(a={a})")


def make_pnmc1(a: float, b: float, c: float = 0.0,
               sign_g: int = 1) -> MeridianProfile:
    """Case-(i) profile of the parallel-H0 family; same curve as minimal.

    Paired with a nonvanishing-curvature directrix the surface has a
    parallel unit mean-curvature direction but non-parallel H.
    """
    prof = make_minimal(a, b, c, sign_g)
    object.__setattr__(prof, "name", f"pnmc1(a={a},b={b})")
    return prof


# ---------------------------------------------------------------------------
# ODE-defined families
# ---------------------------------------------------------------------------

def _ode_profile(phi: SmoothFn1, f0: float, interval: tuple, h: float,
                 sign_g: int, name: str) -> MeridianProfile:
    with np.errstate(invalid="ignore", divide="ignore"):
        p0 = float_value(phi, f0)
    if not np.isfinite(p0):
        raise RadicandNegative(f"{name}: phi(f0) undefined at f0={f0}")
    sol = integrate_profile(phi, f0, interval, h)
    return profile_from_f_jets(sol.jet_at, sol.domain, sign_g=sign_g,
                               name=name, ode=sol)


def make_cmc(a_h: float, b_kappa: float, c: float, f0: float,
             interval: tuple, h: float, sign_g: int = 1,
             branch: tuple = (1, 1)) -> MeridianProfile:
    """Profile of the constant-||H|| = a_h family, with directrix curvature
    constant b_kappa.

    f' = phi(f) where phi integrates the reduction of

        (1 + f'^2 + f f'')^2 = (f'^2 + 1)(4 a_h^2 f^2 - b_kappa^2).

    ``branch`` = (outer sign, inner sign) picks among the four sign
    combinations; (1, 1) is the growing upper branch.  a_h must be
    positive (the logarithmic antiderivative used in phi assumes it).
    """
    if a_h <= 0:
        raise ParameterConflict("constant mean-curvature target must be > 0")
    if b_kappa == 0:
        raise ParameterConflict("directrix curvature constant must be nonzero")
    outer, inner = branch
    b2 = b_kappa * b_kappa
    if 4.0 * a_h * a_h * f0 * f0 - b2 <= 0:
        raise RadicandNegative(
            f"4 a^2 f0^2 - b^2 = {4 * a_h ** 2 * f0 ** 2 - b2} must be positive")

    def expr(t):
        X = 4.0 * a_h * a_h * t * t - b2
        sq = sqrt(X)
        G = c + inner * (0.5 * t * sq - (b2 / (4.0 * a_h))
                         * log(2.0 * a_h * t + sq))
        rad = G * G * (1.0 / (t * t)) - 1.0
        return outer * sqrt(rad)

    phi = expr_fn(expr, Interval(abs(b_kappa) / (2.0 * a_h), math.inf),
                  name="cmc-phi")
    return _ode_profile(phi, f0, interval, h, sign_g,
                        name=f"cmc(a={a_h},kappa={b_kappa},c={c})")


def make_parallel_H1(a: float, c: float, f0: float, interval: tuple,
                     h: float, sign_g: int = 1,
                     branch: int = 1) -> MeridianProfile:
    """Case-(i) parallel-H profile: f' = +/- sqrt((c + a f^2)^2 - f^2) / f."""
    if a == 0:
        raise ParameterConflict("a must be nonzero")
    if (c + a * f0 * f0) ** 2 - f0 * f0 <= 0:
        raise RadicandNegative(
            f"(c + a f0^2)^2 - f0^2 <= 0 at f0={f0}")

    def expr(t):
        inner = c + a * t * t
        rad = inner * inner - t * t
        return branch * sqrt(rad) * (1.0 / t)

    phi = expr_fn(expr, Interval(0.0, math.inf), name="parallel-H-phi")
    return _ode_profile(phi, f0, interval, h, sign_g,
                        name=f"parallel-H1(a={a},c={c})")


def make_pnmc2(a: float, c: float, kappa0: float, f0: float, interval: tuple,
               h: float, sign_g: int = 1, branch: int = 1) -> MeridianProfile:
    """Case-(ii) parallel-H0 profile: f' = +/- sqrt((c f + a)^2 - f^2) / f.

    Requires a nonzero constant directrix curvature with kappa0^2 != c^2;
    along solutions sqrt(f'^2 + 1) = (c f + a) / f.
    """
    if c == 0:
        raise ParameterConflict("c must be nonzero")
    if kappa0 == 0:
        raise ParameterConflict("directrix curvature must be nonzero")
    if kappa0 * kappa0 == c * c:
        raise ParameterConflict(f"kappa^2 = c^2 = {c * c} is degenerate")
    if (c * f0 + a) ** 2 - f0 * f0 <= 0:
        raise RadicandNegative(f"(c f0 + a)^2 - f0^2 <= 0 at f0={f0}")

    def expr(t):
        inner = c * t + a
        rad = inner * inner - t * t
        return branch * sqrt(rad) * (1.0 / t)

    phi = expr_fn(expr, Interval(0.0, math.inf), name="pnmc2-phi")
    return _ode_profile(phi, f0, interval, h, sign_g,
                        name=f"pnmc2(a={a},c={c},kappa={kappa0})")


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------

_REQUIRED = {
    "Flat": {"a", "b"},
    "ConstantK": {"K", "a1", "a2"},
    "Minimal": {"a", "b"},
    "CMC": {"a", "kappa", "c", "f0"},
    "ParallelH1": {"a", "c", "f0"},
    "ParallelH2": {"a", "kappa"},
    "PNMC1": {"a", "b", "kappa"},
    "PNMC2": {"a", "c", "kappa", "f0"},
}
_ODE_TAGS = {"CMC", "ParallelH1", "PNMC2"}


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parameter record for one family instance.

    ``params`` is a flat name -> value map using the conventional symbol
    names (a, b, c, K, a1, a2, kappa, f0, sign_g).  The canonical JSON
    encoding is the same flat map plus tag, u-interval and step.
    """

    tag: str
    params: dict
    u_min: float
    u_max: float
    h: float | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        missing = _REQUIRED[self.tag] - set(self.params)
        if missing:
            raise ValueError(f"{self.tag} spec missing parameters {sorted(missing)}")
        if self.tag in _ODE_TAGS and not self.h:
            raise ValueError(f"{self.tag} spec needs a step size h")
        if not self.u_max > self.u_min:
            raise ValueError("u_max must exceed u_min")

    def to_json(self) -> dict:
        out = {"tag": self.tag, "u_min": self.u_min, "u_max": self.u_max}
        if self.h is not None:
            out["h"] = self.h
        out.update(self.params)
        return out

    @classmethod
    def from_json(cls, d: dict) -> "FamilySpec":
        d = dict(d)
        tag = d.pop("tag")
        u_min, u_max = (json_number(d.pop(k), k) for k in ("u_min", "u_max"))
        h = d.pop("h", None)
        for name, value in d.items():       # the params, kept as given
            json_number(value, name, integral=name == "sign_g")
        return cls(tag=tag, params=d, u_min=u_min, u_max=u_max,
                   h=json_number(h, "h") if h is not None else None)


def build_profile(spec: FamilySpec) -> MeridianProfile:
    p = spec.params
    sg = int(p.get("sign_g", 1))
    span = (spec.u_min, spec.u_max)
    if spec.tag == "Flat":
        return make_flat(p["a"], p["b"], p.get("c", 0.0), sg,
                         interval=Interval(spec.u_min, spec.u_max, closed=True))
    if spec.tag == "ConstantK":
        return make_constant_K(p["K"], p["a1"], p["a2"],
                               Interval(spec.u_min, spec.u_max), sg)
    if spec.tag == "Minimal":
        return make_minimal(p["a"], p["b"], p.get("c", 0.0), sg)
    if spec.tag == "CMC":
        return make_cmc(p["a"], p["kappa"], p["c"], p["f0"], span, spec.h, sg)
    if spec.tag == "ParallelH1":
        return make_parallel_H1(p["a"], p["c"], p["f0"], span, spec.h, sg)
    if spec.tag == "ParallelH2":
        return make_parallel_H2(p["a"], p.get("b", 0.0), sg)
    if spec.tag == "PNMC1":
        return make_pnmc1(p["a"], p["b"], p.get("c", 0.0), sg)
    if spec.tag == "PNMC2":
        return make_pnmc2(p["a"], p["c"], p["kappa"], p["f0"], span, spec.h, sg)
    raise ValueError(spec.tag)


def default_directrix(spec: FamilySpec) -> SphericalCurve:
    """Directrix the family's theorem pairs with: kappa = 0 for the
    minimal and case-(i) parallel families, the spec's constant
    otherwise."""
    if spec.tag in ("Minimal", "ParallelH1"):
        return great_circle()
    kap = float(spec.params.get("kappa", 0.0))
    return latitude_circle(kap) if kap else great_circle()


def build_surface(spec: FamilySpec,
                  directrix: SphericalCurve | None = None) -> MeridianSurface:
    return MeridianSurface(profile=build_profile(spec),
                           directrix=directrix or default_directrix(spec),
                           name=f"{spec.tag}")


# ---------------------------------------------------------------------------
# theorem-as-test verdicts
# ---------------------------------------------------------------------------

class FamilyVerdict(NamedTuple):
    """Result of checking a family's defining property on a grid."""

    property_name: str
    max_violation: float
    tol: float
    passed: bool
    grid: Grid2
    details: Mapping = MappingProxyType({})

    def to_json(self) -> dict:
        return json_safe({"property": self.property_name,
                          "max_violation": self.max_violation, "tol": self.tol,
                          "passed": bool(self.passed),
                          "grid": self.grid.to_json(),
                          "details": dict(self.details)})


def verify_family(surface: MeridianSurface, spec: FamilySpec, grid: Grid2,
                  tol: float = 1e-6) -> FamilyVerdict:
    """Evaluate the defining property of spec.tag over the grid.

    Flat / ConstantK check the Gauss curvature by both routes; Minimal
    checks ||H||; CMC checks | ||H|| - a |; the parallel families check
    the normal-bundle derivatives of H; the PNMC families check the
    derivatives of H0 and additionally require a non-parallel-H witness
    (max |D_X H| >= 0.01) somewhere on the grid.

    For CMC, ParallelH1 and PNMC2 the jets come from OdeSolution.jet_at,
    which takes f' = phi(f) at the dense-output value, so the verdict
    checks the paper's ODE, not the RK4 march (acceptance criterion 4).
    """
    U, V = grid.mesh()
    p = spec.params
    details: dict = {}
    witness_ok = True

    if spec.tag in ("Flat", "ConstantK"):
        k = surface.gauss_curvature(U, V)
        k0 = float(p.get("K", 0.0)) if spec.tag == "ConstantK" else 0.0
        viol = max_abs(k.frame_route - k0, k.profile_route - k0)
        prop = ("gauss-curvature-zero" if spec.tag == "Flat"
                else f"gauss-curvature-constant({k0})")
    elif spec.tag == "Minimal":
        mc = surface.mean_curvature(U, V)
        viol = max_abs(np.hypot(mc.h1, mc.h2))
        prop = "mean-curvature-zero"
    elif spec.tag == "CMC":
        mc = surface.mean_curvature(U, V)
        viol = max_abs(np.hypot(mc.h1, mc.h2) - p["a"])
        details["target_norm"] = float(p["a"])
        prop = "mean-curvature-norm-constant"
    elif spec.tag in ("ParallelH1", "ParallelH2"):
        dx, dy = surface.normal_derivative_H(U, V)
        viol = max_abs(*dx, *dy)
        prop = "mean-curvature-parallel"
    else:  # PNMC1 / PNMC2
        dx0, dy0 = surface.normal_derivative_H0(U, V)
        viol = max_abs(*dx0, *dy0)
        dxh, _ = surface.normal_derivative_H(U, V)
        wit = max_abs(*dxh)
        details["max_DXH"] = wit
        witness_ok = wit >= DH_WITNESS_FLOOR
        prop = "normalized-mean-curvature-parallel"

    return FamilyVerdict(property_name=prop, max_violation=viol, tol=tol,
                         passed=bool(viol <= tol and witness_ok), grid=grid,
                         details=details)
