"""The library's acceptance suite: every classification statement and
PDE solution as a pass/fail check with an explicit tolerance.

Each criterion returns a :class:`CriterionResult` made of named checks;
``run_all`` executes all ten in order.  The same suite backs both
``tests/test_acceptance.py`` and the ``selfcheck`` CLI subcommand.
Grids are deterministic (fixed seeds), so reruns are bit-reproducible.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .diffkit import Interval, expr_fn, integrate_profile, sin_offset_fn, sqrt
from .families import FamilySpec, build_surface, verify_family
from .geometry import great_circle, latitude_circle
from .grids import Grid2, max_abs
from .minkowski import verify_frame
from .natural_pde import (
    ISOTROPIC_GRAM,
    closed_geometric_functions_pnmc1,
    closed_geometric_functions_pnmc2,
    geometric_functions,
    isotropic_frame,
    residual_family,
)

__all__ = ["Check", "CriterionResult", "run_all", "format_table"]

FRAME_GRAM = np.diag([-1.0, 1.0, 1.0, 1.0])
RNG_SEED = 20250810


class Check(NamedTuple):
    """One named bound; kind is "<=" (violation cap) or ">=" (witness floor)."""

    name: str
    measured: float
    bound: float
    kind: str = "<="

    @property
    def passed(self) -> bool:
        return (self.measured <= self.bound if self.kind == "<="
                else self.measured >= self.bound)


class CriterionResult(NamedTuple):
    index: int
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        worst = max(self.checks,
                    key=lambda c: (not c.passed, c.measured / (abs(c.bound) + 1e-300)))
        return (f"[{mark}] {self.index:02d} {self.name}: "
                f"{worst.name} = {worst.measured:.3e} ({worst.kind} {worst.bound:g})")


# ---------------------------------------------------------------------------
# canonical family instances
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def standard_instances() -> dict:
    """One surface per classified family, with its sweep grid."""
    two_pi = 2.0 * math.pi
    f0_cosh = float(np.cosh(0.1))
    defs = {
        "Flat": (FamilySpec("Flat", {"a": 0.0, "b": 1.0, "c": 0.0}, -2.0, 2.0),
                 latitude_circle(1.0), Grid2(-2.0, 2.0, 50, 0.0, two_pi, 50)),
        "ConstantK": (FamilySpec("ConstantK", {"K": 1.0, "a1": 1.0, "a2": 0.0},
                                 -1.0, 1.0),
                      latitude_circle(0.5), Grid2(-1.0, 1.0, 50, 0.0, two_pi, 50)),
        "Minimal": (FamilySpec("Minimal", {"a": 0.0, "b": 1.0, "c": 0.0},
                               -0.9, 0.9),
                    great_circle(), Grid2(-0.9, 0.9, 50, 0.0, two_pi, 50)),
        "CMC": (FamilySpec("CMC", {"a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0},
                           0.0, 1.0, h=1e-3),
                latitude_circle(1.0), Grid2(0.0, 1.0, 50, 0.0, two_pi, 50)),
        "ParallelH1": (FamilySpec("ParallelH1", {"a": 1.0, "c": 0.0,
                                                 "f0": f0_cosh},
                                  0.0, 1.0, h=1e-3),
                       great_circle(), Grid2(0.0, 1.0, 50, 0.0, two_pi, 50)),
        "ParallelH2": (FamilySpec("ParallelH2", {"a": 2.0, "b": 0.0,
                                                 "kappa": 3.0}, -1.0, 1.0),
                       latitude_circle(3.0), Grid2(-1.0, 1.0, 50, 0.0, two_pi, 50)),
        "PNMC1": (FamilySpec("PNMC1", {"a": 0.0, "b": 1.0, "kappa": 2.0},
                             -0.9, 0.9),
                  latitude_circle(2.0), Grid2(-0.9, 0.9, 50, 0.0, two_pi, 50)),
        "PNMC2": (FamilySpec("PNMC2", {"a": 1.0, "c": 2.0, "kappa": 1.0,
                                       "f0": 1.0}, 0.0, 0.8, h=1e-3),
                  latitude_circle(1.0), Grid2(0.0, 0.8, 50, 0.0, two_pi, 50)),
    }
    return {tag: (build_surface(spec, directrix), spec, grid)
            for tag, (spec, directrix, grid) in defs.items()}


def _cosh_phi():
    return expr_fn(lambda t: sqrt(t * t - 1.0), Interval(1.0, 1e9),
                   name="sqrt(f^2-1)")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Flat normal connection: |K_perp| <= 1e-8 on every family grid."""
    checks = []
    for tag, (surface, _, grid) in standard_instances().items():
        kperp = surface.normal_curvature(*grid.mesh())
        checks.append(Check(f"{tag} max|Kperp|", max_abs(kperp), 1e-8))
    return CriterionResult(1, "flat normal connection (all families)",
                           tuple(checks))


def criterion_2() -> CriterionResult:
    """Gauss curvature two-route agreement, plus flat/cosh pinned values."""
    checks = []
    for tag, (surface, _, grid) in standard_instances().items():
        k = surface.gauss_curvature(*grid.mesh())
        gap = max_abs(k.frame_route - k.profile_route)
        checks.append(Check(f"{tag} route gap", gap, 1e-8))
    flat = verify_family(*standard_instances()["Flat"])
    checks.append(Check("Flat max|K|", flat.max_violation, 1e-12))
    cosh_s, _, gridc = standard_instances()["ConstantK"]
    kc = cosh_s.gauss_curvature(*gridc.mesh())
    checks.append(Check("cosh family max|K-1|", max_abs(kc.frame_route - 1.0),
                        1e-9))
    return CriterionResult(2, "Gauss curvature two-route agreement",
                           tuple(checks))


def criterion_3() -> CriterionResult:
    """Minimal family: H vanishes and N1 is constant (hyperplane witness)."""
    surface, _, grid = standard_instances()["Minimal"]
    hmax = verify_family(*standard_instances()["Minimal"]).max_violation
    du, dv = surface.normal_field_derivatives(*grid.mesh(), (1.0, 0.0))
    ndu = float(np.max(np.sqrt(np.sum(du ** 2, axis=-1))))
    ndv = float(np.max(np.sqrt(np.sum(dv ** 2, axis=-1))))
    return CriterionResult(3, "minimal family", (
        Check("max ||H||", hmax, 1e-9),
        Check("max ||dN1/du||", ndu, 1e-8),
        Check("max ||dN1/dv||", ndv, 1e-8),
    ))


def criterion_4() -> CriterionResult:
    """CMC family: ||H|| = 1 on the ODE-built surface; RK4 order >= 3.9."""
    dev = verify_family(*standard_instances()["CMC"]).max_violation
    phi = _cosh_phi()
    f0 = float(np.cosh(0.1))
    exact = float(np.cosh(1.1))
    e1 = abs(integrate_profile(phi, f0, (0.0, 1.0), 1e-3).value_at(1.0) - exact)
    e2 = abs(integrate_profile(phi, f0, (0.0, 1.0), 5e-4).value_at(1.0) - exact)
    order = math.log2(e1 / e2)
    return CriterionResult(4, "CMC family and ODE convergence", (
        Check("max | ||H|| - 1 |", dev, 1e-6),
        Check("RK4 order (h=1e-3 vs h/2)", order, 3.9, kind=">="),
    ))


def criterion_5() -> CriterionResult:
    """Parallel-H case (i): cosh profile, D H = 0, K = 1.
    Case (ii): pinned <H,H> and flatness."""
    s1, _, g1 = standard_instances()["ParallelH1"]
    us = g1.u_points()
    f_err = max_abs(s1.profile.jets(us).f.f - np.cosh(us + 0.1))
    dh = verify_family(*standard_instances()["ParallelH1"]).max_violation
    k1 = s1.gauss_curvature(*g1.mesh())
    kdev = max_abs(k1.frame_route - 1.0, k1.profile_route - 1.0)

    s2, _, g2 = standard_instances()["ParallelH2"]
    mc = s2.mean_curvature(*g2.mesh())
    hsq = mc.h1 ** 2 + mc.h2 ** 2
    hdev = max_abs(hsq - 0.625)
    k2 = s2.gauss_curvature(*g2.mesh())
    k2max = max_abs(k2.frame_route, k2.profile_route)
    dh2 = verify_family(*standard_instances()["ParallelH2"]).max_violation
    return CriterionResult(5, "parallel mean curvature, cases (i) and (ii)", (
        Check("(i) max |f - cosh(u+0.1)|", f_err, 1e-8),
        Check("(i) max |D H|", dh, 1e-7),
        Check("(i) max |K - 1|", kdev, 1e-7),
        Check("(ii) max |<H,H> - 0.625|", hdev, 1e-10),
        Check("(ii) max |K|", k2max, 1e-12),
        Check("(ii) max |D H|", dh2, 1e-7),
    ))


def criterion_6() -> CriterionResult:
    """Parallel unit direction with non-parallel H, both cases."""
    checks = []
    for tag in ("PNMC1", "PNMC2"):
        verdict = verify_family(*standard_instances()[tag])
        checks.append(Check(f"{tag} max |D H0|", verdict.max_violation, 1e-7))
        checks.append(Check(f"{tag} max |D_X H|", verdict.details["max_DXH"],
                            0.01, kind=">="))
    return CriterionResult(6, "parallel normalized mean curvature",
                           tuple(checks))


def criterion_7() -> CriterionResult:
    """Geometric functions: numeric route equals closed forms; beta = 0."""
    V = np.linspace(0.2, 5.8, 5)[None, :]

    def measure(surface, U, closed):
        """max |numeric - closed| and max |beta1|, |beta2| on the U x V grid."""
        gf = geometric_functions(surface, U, V)
        return (max_abs(gf.as_array() - closed.as_array()),
                max_abs(gf.beta1, gf.beta2))

    s1, _, _ = standard_instances()["PNMC1"]
    U1 = np.linspace(-0.85, 0.85, 5)[:, None]
    diff1, beta1 = measure(s1, U1,
                           closed_geometric_functions_pnmc1(0.0, 1.0, 2.0, U1))

    s2, _, _ = standard_instances()["PNMC2"]
    U2 = np.linspace(0.02, 0.78, 5)[:, None]
    fj = s2.profile.jets(U2).f
    diff2, beta2 = measure(s2, U2, closed_geometric_functions_pnmc2(
        2.0, 1.0, 1.0, fj.f, fj.d1))
    return CriterionResult(7, "geometric functions, numeric vs closed", (
        Check("case (i) max diff (25 pts)", diff1, 1e-6),
        Check("case (ii) max diff (25 pts)", diff2, 1e-6),
        Check("max |beta1|, |beta2|", max_abs(beta1, beta2), 1e-8),
    ))


def criterion_8() -> CriterionResult:
    """Natural-PDE examples pass; wrong-epsilon control fails loudly."""
    kap = sin_offset_fn(2.0)
    checks = []
    for name, (a, b, umin, umax) in {
        "example1": (1.0, 3.0, -0.9, 2.9),
        "example2": (5.0, 0.0, 0.5, 9.5),
    }.items():
        grid = Grid2(umin, umax, 40, 0.0, 2.0 * math.pi, 40)
        rep = residual_family("syst1", a, b, kap, grid)
        checks.append(Check(f"{name} max residual", rep.max_residual(), 1e-8))
        if name == "example1":
            neg = residual_family("fund", a, b, kap, grid, eps=+1)
            checks.append(Check("example1 eps=+1 control", neg.max_residual(),
                                0.1, kind=">="))
    return CriterionResult(8, "natural-PDE example solutions", tuple(checks))


def criterion_9() -> CriterionResult:
    """Frame Gram deviations at 100 random points per surface, one batch."""
    # the standard library's generator: numpy.random costs about 6 MiB
    # and 10 ms to import, and this is its only use
    rng = random.Random(RNG_SEED)
    frame_devs, iso_devs = [], []
    for tag, (surface, _, grid) in standard_instances().items():
        us = np.array([rng.uniform(grid.u_min, grid.u_max) for _ in range(100)])
        vs = np.array([rng.uniform(grid.v_min, grid.v_max) for _ in range(100)])
        frame_devs.append(verify_frame(surface.frame(us, vs).labeled(),
                                       FRAME_GRAM).max_deviation)
        if tag != "Minimal":
            iso = isotropic_frame(surface, us, vs)
            iso_devs.append(verify_frame(iso.labeled(),
                                         ISOTROPIC_GRAM).max_deviation)
    # np.max, unlike max(), lets a NaN deviation fail the check
    return CriterionResult(9, "frame Gram checks (100 random points each)", (
        Check("orthonormal frame max deviation", float(np.max(frame_devs)),
              1e-9),
        Check("lightlike frame max deviation", float(np.max(iso_devs)), 1e-9),
    ))


def criterion_10() -> CriterionResult:
    """Profile normalization f'^2 - g'^2 = -1 on every grid."""
    devs = []
    for surface, _, grid in standard_instances().values():
        jets = surface.profile.jets(grid.u_points())
        devs.append(jets.f.d1 ** 2 - jets.g.d1 ** 2 + 1.0)
    return CriterionResult(10, "profile normalization on all grids", (
        Check("max |f'^2 - g'^2 + 1|", max_abs(*devs), 1e-9),))


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all() -> list:
    return [fn() for fn in _CRITERIA]


def format_table(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} acceptance criteria passed")
    return "\n".join(lines)
