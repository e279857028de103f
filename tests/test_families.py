import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meridian4 import (
    FamilySpec,
    FamilyVerdict,
    Grid2,
    Interval,
    MeridianSurface,
    build_profile,
    build_surface,
    curve_from_curvature,
    expr_fn,
    great_circle,
    integrate_profile,
    latitude_circle,
    make_cmc,
    make_constant_K,
    make_flat,
    make_minimal,
    make_parallel_H1,
    make_parallel_H2,
    make_pnmc1,
    make_pnmc2,
    sin_offset_fn,
    verify_family,
)
from meridian4.acceptance import _cosh_phi, standard_instances
from meridian4.errors import (
    EmptyInterval,
    NonpositiveProfile,
    OutOfDomain,
    ParameterConflict,
    RadicandNegative,
)

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------- constructors
def test_flat_requires_positive_radius():
    with pytest.raises(NonpositiveProfile):
        make_flat(0.0, -1.0)
    with pytest.raises(NonpositiveProfile):
        make_flat(1.0, 0.0, interval=Interval(-5.0, 5.0))


def test_minimal_empty_interval():
    with pytest.raises(EmptyInterval):
        make_minimal(0.0, -0.5)


def test_constant_K_rejects_zero():
    with pytest.raises(ParameterConflict):
        make_constant_K(0.0, 1.0, 0.0, Interval(-1, 1))


def test_constant_K_cos_branch():
    p = make_constant_K(-1.0, 1.0, 0.0, Interval(-1.4, 1.4))
    u = np.linspace(-1.3, 1.3, 9)
    j = p.jets(u)
    assert np.allclose(j.f.f, np.cos(u))
    assert np.max(np.abs(j.f.d1 ** 2 - j.g.d1 ** 2 + 1.0)) < 1e-9


def test_constant_K_nonpositive_detected():
    with pytest.raises(NonpositiveProfile):
        make_constant_K(-1.0, 1.0, 0.0, Interval(-3.0, 3.0))  # cos dips below 0


def test_cmc_preconditions():
    with pytest.raises(ParameterConflict):
        make_cmc(-1.0, 1.0, 1.0, 1.0, (0, 1), 1e-3)
    with pytest.raises(ParameterConflict):
        make_cmc(1.0, 0.0, 1.0, 1.0, (0, 1), 1e-3)
    with pytest.raises(RadicandNegative):
        make_cmc(1.0, 10.0, 1.0, 1.0, (0, 1), 1e-3)


def test_parallel_h1_cosh_solution():
    p = make_parallel_H1(1.0, 0.0, float(np.cosh(0.1)), (0.0, 1.0), 1e-3)
    u = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(p.jets(u).f.f - np.cosh(u + 0.1))) < 1e-8


def test_parallel_h1_rejects_bad_start():
    with pytest.raises(RadicandNegative):
        make_parallel_H1(1.0, 0.0, 0.5, (0.0, 1.0), 1e-3)
    with pytest.raises(ParameterConflict):
        make_parallel_H1(0.0, 2.0, 1.0, (0.0, 1.0), 1e-3)


def test_parallel_h2_constant_profile():
    p = make_parallel_H2(2.0, 0.0)
    j = p.jets(np.array([0.0, 1.0, -3.0]))
    assert np.all(j.f.f == 2.0) and np.all(j.f.d1 == 0.0)
    assert np.all(j.g.d1 == 1.0)
    with pytest.raises(NonpositiveProfile):
        make_parallel_H2(0.0)


def test_pnmc2_invariants_along_solution():
    p = make_pnmc2(1.0, 2.0, 1.0, 1.0, (0.0, 0.8), 1e-3)
    u = np.linspace(0.0, 0.8, 33)
    j = p.jets(u)
    f, fd, fdd = j.f.f, j.f.d1, j.f.d2
    z = np.sqrt(fd ** 2 + 1.0)
    assert np.max(np.abs(z * f - (2.0 * f + 1.0))) < 1e-7
    assert np.max(np.abs(f * fdd + fd ** 2 + 1.0 - 2.0 * z)) < 1e-6


def test_pnmc2_parameter_conflicts():
    with pytest.raises(ParameterConflict):
        make_pnmc2(1.0, 0.0, 1.0, 1.0, (0, 1), 1e-3)
    with pytest.raises(ParameterConflict):
        make_pnmc2(1.0, 2.0, 2.0, 1.0, (0, 1), 1e-3)   # kappa^2 == c^2
    with pytest.raises(ParameterConflict):
        make_pnmc2(1.0, 2.0, 0.0, 1.0, (0, 1), 1e-3)


def test_cmc_defining_equation_residual():
    a_h, b_k = 1.0, 1.0
    p = make_cmc(a_h, b_k, 1.0, 1.0, (0.0, 1.0), 1e-3)
    u = np.linspace(0.0, 1.0, 41)
    j = p.jets(u)
    f, fd, fdd = j.f.f, j.f.d1, j.f.d2
    lhs = (1.0 + fd ** 2 + f * fdd) ** 2
    rhs = (fd ** 2 + 1.0) * (4.0 * a_h ** 2 * f ** 2 - b_k ** 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_ode_profiles_satisfy_profile_constraint():
    for p in (make_cmc(1.0, 1.0, 1.0, 1.0, (0.0, 1.0), 1e-3),
              make_parallel_H1(1.0, 0.0, float(np.cosh(0.1)), (0.0, 1.0), 1e-3),
              make_pnmc2(1.0, 2.0, 1.0, 1.0, (0.0, 0.8), 1e-3)):
        u = np.linspace(p.domain.lo, p.domain.hi, 25)
        j = p.jets(u)
        assert np.max(np.abs(j.f.d1 ** 2 - j.g.d1 ** 2 + 1.0)) < 1e-9


def test_ode_profile_g_is_anchored_at_u0():
    # f = cosh(u + 0.1) on [0, 1], so g = sinh(u + 0.1) - sinh(0.1)
    p = make_parallel_H1(1.0, 0.0, float(np.cosh(0.1)), (0.0, 1.0), 1e-3)
    assert p.domain == Interval(0.0, 1.0, closed=True)
    assert p.jets(0.0).g.f == 0.0
    u = np.linspace(0.0, 1.0, 101)
    g = p.jets(u).g.f
    assert np.max(np.abs(g - (np.sinh(u + 0.1) - np.sinh(0.1)))) <= 1e-11


def test_ode_profile_refuses_points_past_its_realized_range():
    p = make_cmc(1.0, 1.0, 1.0, 1.0, (0.0, 1.0), 1e-3)
    p.jets(np.array([0.0, 1.0]))
    for u in (1.0 + 5e-10, -5e-10):
        with pytest.raises(OutOfDomain):
            p.jets(u)


def test_constant_K_g_is_anchored_at_the_left_end():
    p = make_constant_K(1.0, 1.0, 0.0, Interval(-1.0, 1.0))
    assert p.domain == Interval(-1.0, 1.0, closed=True)
    assert p.jets(-1.0).g.f == 0.0
    # f = cosh u, so g = sinh u - sinh(-1)
    assert abs(p.jets(1.0).g.f - 2.0 * np.sinh(1.0)) < 1e-11


def test_spec_interval_of_closed_form_families_is_closed():
    for spec in (FamilySpec("Flat", {"a": 1.0, "b": 3.0}, -2.0, 2.0),
                 FamilySpec("ConstantK", {"K": 1.0, "a1": 1.0, "a2": 0.0},
                            -1.0, 1.0)):
        p = build_profile(spec)
        assert p.domain == Interval(spec.u_min, spec.u_max, closed=True)
        with pytest.raises(OutOfDomain):
            p.jets(spec.u_max + 1e-12)


# ---------------------------------------------------------------- FamilySpec
def test_family_spec_json_round_trip():
    spec = FamilySpec("CMC", {"a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0},
                      0.0, 1.0, h=1e-3)
    blob = json.dumps(spec.to_json())
    again = FamilySpec.from_json(json.loads(blob))
    assert again == spec


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("Nope", {}, 0, 1)
    with pytest.raises(ValueError):
        FamilySpec("Flat", {"a": 1.0}, 0, 1)           # missing b
    with pytest.raises(ValueError):
        FamilySpec("CMC", {"a": 1, "kappa": 1, "c": 1, "f0": 1}, 0, 1)  # no h
    with pytest.raises(ValueError):
        FamilySpec("Flat", {"a": 0.0, "b": 1.0}, 1.0, 0.0)


def test_build_surface_defaults():
    spec = FamilySpec("Minimal", {"a": 0.0, "b": 1.0}, -0.9, 0.9)
    surf = build_surface(spec)
    assert np.max(np.abs(surf.directrix.curvature(0.5).f)) == 0.0


# ---------------------------------------------------------------- verdicts
@pytest.mark.parametrize("tag, params, umin, umax, h, kappa", [
    ("Flat", {"a": 0.0, "b": 1.0, "c": 0.0}, -2.0, 2.0, None, 1.0),
    ("ConstantK", {"K": 1.0, "a1": 1.0, "a2": 0.0}, -1.0, 1.0, None, 0.5),
    ("Minimal", {"a": 0.0, "b": 1.0}, -0.9, 0.9, None, 0.0),
    ("CMC", {"a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0}, 0.0, 1.0, 1e-3, 1.0),
    ("ParallelH1", {"a": 1.0, "c": 0.0, "f0": float(np.cosh(0.1))},
     0.0, 1.0, 1e-3, 0.0),
    ("ParallelH2", {"a": 2.0, "b": 0.0, "kappa": 3.0}, -1.0, 1.0, None, 3.0),
    ("PNMC1", {"a": 0.0, "b": 1.0, "kappa": 2.0}, -0.9, 0.9, None, 2.0),
    ("PNMC2", {"a": 1.0, "c": 2.0, "kappa": 1.0, "f0": 1.0},
     0.0, 0.8, 1e-3, 1.0),
])
def test_theorem_round_trip(tag, params, umin, umax, h, kappa):
    """Each constructor satisfies its own defining property on a grid."""
    spec = FamilySpec(tag, params, umin, umax, h=h)
    directrix = latitude_circle(kappa) if kappa else great_circle()
    surface = MeridianSurface(profile=build_profile(spec), directrix=directrix)
    grid = Grid2(umin, umax, 50, 0.0, TWO_PI, 50)
    verdict = verify_family(surface, spec, grid, tol=1e-6)
    assert verdict.passed, verdict


def test_minimal_spec_fails_on_pnmc_surface():
    """Nonzero directrix curvature breaks minimality by exactly kappa/(2f)."""
    spec = FamilySpec("Minimal", {"a": 0.0, "b": 1.0}, -0.9, 0.9)
    surface = MeridianSurface(profile=make_pnmc1(0.0, 1.0),
                              directrix=latitude_circle(2.0))
    grid = Grid2(-0.9, 0.9, 30, 0.0, TWO_PI, 10)
    verdict = verify_family(surface, spec, grid, tol=1e-6)
    assert not verdict.passed
    f_min = np.sqrt(1.0 - 0.9 ** 2)
    assert verdict.max_violation == pytest.approx(2.0 / (2.0 * f_min),
                                                  rel=1e-9)


def test_parallel_h2_fails_with_varying_kappa():
    """D_Y H = kappa'/(2 f^2) spoils parallelism for nonconstant kappa."""
    spec = FamilySpec("ParallelH2", {"a": 2.0, "b": 0.0, "kappa": 3.0},
                      -1.0, 1.0)
    c = curve_from_curvature(sin_offset_fn(2.0), (-0.5, TWO_PI + 0.5), h=1e-3)
    surface = MeridianSurface(profile=make_parallel_H2(2.0, 0.0), directrix=c)
    grid = Grid2(-1.0, 1.0, 10, 0.0, TWO_PI, 40)
    verdict = verify_family(spec=spec, surface=surface, grid=grid, tol=1e-6)
    assert not verdict.passed
    # max |kappa'| = 1, f = 2 -> max violation 1/8
    assert verdict.max_violation == pytest.approx(1.0 / 8.0, rel=1e-3)


def test_cmc_mismatched_kappa_fails():
    spec = FamilySpec("CMC", {"a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0},
                      0.0, 1.0, h=1e-3)
    surface = MeridianSurface(profile=build_profile(spec),
                              directrix=latitude_circle(1.5))
    verdict = verify_family(surface, spec, Grid2(0, 1, 20, 0, TWO_PI, 10),
                            tol=1e-6)
    assert not verdict.passed and verdict.max_violation > 1e-2


def test_corollary_minimal_lies_in_hyperplane():
    """kappa = 0 makes N1 a constant field: the surface sits in the
    fixed hyperplane orthogonal to it."""
    surface = MeridianSurface(profile=make_minimal(0.0, 1.0),
                              directrix=great_circle())
    U = np.linspace(-0.9, 0.9, 25)[:, None]
    V = np.linspace(0.0, TWO_PI, 25)[None, :]
    du, dv = surface.normal_field_derivatives(U, V, (1.0, 0.0))
    assert float(np.max(np.sqrt(np.sum(du ** 2, -1)))) < 1e-8
    assert float(np.max(np.sqrt(np.sum(dv ** 2, -1)))) < 1e-8


def test_corollary_parallel_h_is_cmc():
    """Both parallel-H cases have constant ||H||."""
    s1 = MeridianSurface(
        profile=make_parallel_H1(1.0, 0.0, float(np.cosh(0.1)), (0, 1), 1e-3),
        directrix=great_circle())
    s2 = MeridianSurface(profile=make_parallel_H2(2.0, 0.0),
                         directrix=latitude_circle(3.0))
    for surf, expected in ((s1, 1.0), (s2, np.sqrt(10.0) / 4.0)):
        U = np.linspace(0.05, 0.95, 20)[:, None]
        V = np.linspace(0.0, TWO_PI, 20)[None, :]
        mc = surf.mean_curvature(U, V)
        norms = np.hypot(mc.h1, mc.h2)
        assert np.max(np.abs(norms - expected)) < 1e-6


def test_parallel_h2_hyperplane_witness():
    """(N1 + sign_g * kappa N2)/sqrt(1 + kappa^2) is constant for the
    cylinder-type parallel-H family."""
    kap = 3.0
    surface = MeridianSurface(profile=make_parallel_H2(2.0, 0.0),
                              directrix=latitude_circle(kap))
    w = 1.0 / np.sqrt(1.0 + kap ** 2)
    U = np.linspace(-1, 1, 15)[:, None]
    V = np.linspace(0.0, TWO_PI, 15)[None, :]
    du, dv = surface.normal_field_derivatives(U, V, (w, w * kap))
    assert float(np.max(np.abs(du))) < 1e-12
    assert float(np.max(np.abs(dv))) < 1e-12


def test_pnmc1_verdict_requires_nonparallel_witness():
    spec = FamilySpec("PNMC1", {"a": 0.0, "b": 1.0, "kappa": 2.0}, -0.9, 0.9)
    surface = build_surface(spec)
    verdict = verify_family(surface, spec, Grid2(-0.9, 0.9, 20, 0, TWO_PI, 10))
    assert verdict.passed
    assert verdict.details["max_DXH"] >= 0.01


def test_pnmc1_with_varying_kappa_still_parallel_h0():
    """Case (i) tolerates nonconstant kappa: H0 stays parallel while
    D_Y H = kappa'/(2 f^2) is nonzero."""
    c = curve_from_curvature(sin_offset_fn(2.0), (-0.5, TWO_PI + 0.5), h=1e-3)
    surface = MeridianSurface(profile=make_pnmc1(0.0, 1.0), directrix=c)
    U = np.linspace(-0.8, 0.8, 9)[:, None]
    V = np.linspace(0.0, TWO_PI, 9)[None, :]
    dx0, dy0 = surface.normal_derivative_H0(U, V)
    assert max(float(np.max(np.abs(t))) for t in (*dx0, *dy0)) < 1e-7
    _, dyh = surface.normal_derivative_H(U, V)
    assert float(np.max(np.abs(dyh[0]))) > 0.1


def test_a_nan_fails_the_verdict(monkeypatch):
    # Python's max() drops a NaN that is not its first argument
    surface, spec, grid = standard_instances()["ParallelH1"]
    original = MeridianSurface.normal_derivative_H

    def nan_dy(self, u, v):
        dx, (dy1, dy2) = original(self, u, v)
        return dx, (dy1, np.full(np.shape(dy2), np.nan))

    monkeypatch.setattr(MeridianSurface, "normal_derivative_H", nan_dy)
    verdict = verify_family(surface, spec, grid)
    assert not verdict.passed and math.isnan(verdict.max_violation)


def test_ode_stop_is_recorded_not_raised():
    # branch = -1 walks f down toward the radicand boundary
    p = make_parallel_H1(1.0, 0.0, float(np.cosh(0.5)), (0.0, 2.0), 1e-3,
                         branch=-1)
    assert p.ode is not None
    assert p.ode.stopped_reason is not None
    assert p.domain.hi < 2.0


def test_verdict_json_writes_nonfinite_as_null():
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    with pytest.raises(ValueError):
        json.loads(json.dumps({"v": float("nan")}), parse_constant=reject)
    grid = Grid2(0.0, 1.0, 3, 0.0, 1.0, 3)
    verdict = FamilyVerdict("cmc-norm", float("nan"), 1e-6, False, grid,
                            details={"max_DXH": float("inf"), "target_norm": 1.0})
    data = json.loads(json.dumps(verdict.to_json(), allow_nan=False),
                      parse_constant=reject)
    assert data["max_violation"] is None
    assert data["details"] == {"max_DXH": None, "target_norm": 1.0}
    assert data["tol"] == 1e-6 and data["grid"]["nu"] == 3


# ------------------------------------------- float march against a jet march
def jet_march(phi, f0, u_range, h):
    """The RK4 march with phi evaluated as a full Jet3, reading only .f.

    Returns (nodes, stopped_reason, phi evaluations) with the stop rules
    and messages of ``integrate_profile``; domain checks go through the
    array path of ``Interval.contains``.
    """
    u0, u1 = float(u_range[0]), float(u_range[1])
    evals = 1

    class Stop(Exception):
        pass

    def inside(f, what):
        if not (np.isfinite(f) and phi.domain.contains(np.asarray(f))):
            raise Stop(f"{what} left phi domain")

    def slope(f):
        nonlocal evals
        inside(f, "stage")
        evals += 1
        k = phi.eval_jet(f).f
        if not np.isfinite(k):
            raise Stop("phi not finite at stage")
        if abs(k) > 1e12:
            raise Stop("derivative overflow")
        return k

    y = float(f0)
    nodes = [y]
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(max(int(round((u1 - u0) / h)), 1)):
            t = u0 + i * h
            try:
                k1 = slope(y)
                k2 = slope(y + 0.5 * h * k1)
                k3 = slope(y + 0.5 * h * k2)
                k4 = slope(y + h * k3)
                y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                inside(y, "state")
            except Stop as stop:
                return np.array(nodes), f"{stop} at u={t:.6g}", evals
            nodes.append(y)
    return np.array(nodes), None, evals


def jet_dense_output(sol, u):
    """value_at by one partial RK4 step from the node below, phi as a jet."""
    idx = np.clip(np.floor((u - sol.u0) / sol.h + 1e-9).astype(int), 0,
                  len(sol.values) - 1)
    d = u - (sol.u0 + idx * sol.h)
    y = sol.values[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        k1 = sol.phi.eval_jet(y).f
        k2 = sol.phi.eval_jet(y + 0.5 * d * k1).f
        k3 = sol.phi.eval_jet(y + 0.5 * d * k2).f
        k4 = sol.phi.eval_jet(y + d * k3).f
    return y + d * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def assert_march_is_the_jet_march(sol, f0):
    nodes, reason, evals = jet_march(sol.phi, f0, (sol.u0, sol.requested_end),
                                     sol.h)
    # RK4 rounding can hide a last-bit change of phi, so compare phi too:
    # on floats, one at a time and as a batch, it is the jet's f
    phi, f = sol.phi, sol.values
    with np.errstate(invalid="ignore", divide="ignore"):
        assert phi.eval_value(f).tobytes() == phi.eval_jet(f).f.tobytes()
        scalar = np.array([phi.eval_value(x) for x in f[::7]])
        jet = np.array([phi.eval_jet(float(x)).f for x in f[::7]])
    assert scalar.tobytes() == jet.tobytes()
    assert sol.values.tobytes() == nodes.tobytes()
    assert sol.stopped_reason == reason
    assert sol.phi_evals == evals
    u = np.linspace(sol.u0, sol.domain.hi, 41)
    assert sol.value_at(u).tobytes() == jet_dense_output(sol, u).tobytes()


@pytest.mark.parametrize("tag", ["CMC", "ParallelH1", "PNMC2"])
def test_standard_ode_instances_march_bit_for_bit(tag):
    surface, spec, _ = standard_instances()[tag]
    assert_march_is_the_jet_march(surface.profile.ode, spec.params["f0"])


def test_cosh_phi_marches_bit_for_bit():
    f0 = float(np.cosh(0.1))
    for h in (1e-3, 5e-4):
        assert_march_is_the_jet_march(
            integrate_profile(_cosh_phi(), f0, (0.0, 1.0), h), f0)


@pytest.mark.parametrize("build, f0, reason", [
    (lambda: make_cmc(1.0, 1.0, 1.0, 1.0, (0.0, 3.0), 1e-3,
                      branch=(-1, 1)).ode,
     1.0, "stage left phi domain at u=0.393"),
    (lambda: make_pnmc2(0.3, -1.5, 0.7, 1.3, (0.0, 5.0), 1e-3, branch=-1).ode,
     1.3, "phi not finite at stage at u=1.469"),
    # f = sqrt(1 - 2u) reaches 0 at u = 1/2: near it, phi = -1/f at the
    # last stage is so steep that the node jumps past 0 from inside
    (lambda: integrate_profile(expr_fn(lambda t: -(1.0 / t),
                                       Interval(0.0, math.inf)),
                               1.0, (0.0, 1.0), 3.5e-3),
     1.0, "state left phi domain at u=0.497"),
    # f = u on [0, 1]: f0 and the node f = 1 sit on the closed ends, and
    # only the stage f = 1.125 after it is outside
    (lambda: integrate_profile(expr_fn(lambda t: 1.0 + 0.0 * t,
                                       Interval(0.0, 1.0, closed=True)),
                               0.0, (0.0, 2.0), 0.25),
     0.0, "stage left phi domain at u=1"),
], ids=["stage-left-domain", "phi-not-finite", "state-left-domain",
        "closed-domain"])
def test_early_stops_match_the_jet_march(build, f0, reason):
    sol = build()
    assert sol.stopped_reason == reason
    assert_march_is_the_jet_march(sol, f0)


def test_derivative_overflow_matches_the_jet_march():
    # f' = f^2 from f = 1 blows up at u = 1
    square = expr_fn(lambda t: t * t, Interval(0.0, math.inf))
    sol = integrate_profile(square, 1.0, (0.0, 2.0), 1e-3)
    assert sol.stopped_reason == "derivative overflow at u=1"
    assert_march_is_the_jet_march(sol, 1.0)


_ODE_PROPERTY = settings(max_examples=15, deadline=None)
_branch = st.sampled_from([1, -1])
_span = st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 1.0),
                  st.floats(0.01, 0.05))


def _u_range(span):
    u0, length, h = span
    return (u0, u0 + length), h


@_ODE_PROPERTY
@given(a=st.floats(0.2, 2.0), kappa=st.floats(0.1, 2.0), neg=st.booleans(),
       stretch=st.floats(0.01, 3.0), c=st.floats(-3.0, 3.0),
       branch=st.tuples(_branch, _branch), span=_span)
def test_cmc_float_march_is_the_jet_march(a, kappa, neg, stretch, c, branch,
                                          span):
    f0 = kappa / (2.0 * a) * (1.0 + stretch)
    u_range, h = _u_range(span)
    try:
        p = make_cmc(a, -kappa if neg else kappa, c, f0, u_range, h,
                     branch=branch)
    except RadicandNegative:        # G^2 < f0^2: phi(f0) is undefined
        assume(False)
    assert_march_is_the_jet_march(p.ode, f0)


@_ODE_PROPERTY
@given(a=st.floats(0.1, 2.0), neg=st.booleans(), c=st.floats(-2.0, 2.0),
       f0=st.floats(0.1, 3.0), branch=_branch, span=_span)
def test_parallel_h1_float_march_is_the_jet_march(a, neg, c, f0, branch, span):
    a = -a if neg else a
    assume((c + a * f0 * f0) ** 2 - f0 * f0 > 1e-9)
    u_range, h = _u_range(span)
    p = make_parallel_H1(a, c, f0, u_range, h, branch=branch)
    assert_march_is_the_jet_march(p.ode, f0)


@_ODE_PROPERTY
@given(a=st.floats(-2.0, 2.0), c=st.floats(0.1, 3.0), neg=st.booleans(),
       kappa=st.floats(0.1, 2.0), f0=st.floats(0.1, 3.0), branch=_branch,
       span=_span)
def test_pnmc2_float_march_is_the_jet_march(a, c, neg, kappa, f0, branch,
                                            span):
    c = -c if neg else c
    assume(kappa != abs(c) and (c * f0 + a) ** 2 - f0 * f0 > 1e-9)
    u_range, h = _u_range(span)
    p = make_pnmc2(a, c, kappa, f0, u_range, h, branch=branch)
    assert_march_is_the_jet_march(p.ode, f0)
