import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    Grid2,
    MeridianSurface,
    build_profile,
    FamilySpec,
    constant_fn,
    great_circle,
    latitude_circle,
    make_minimal,
    make_parallel_H1,
    make_parallel_H2,
    make_pnmc1,
    make_pnmc2,
    sin_offset_fn,
    verify_frame,
)
from meridian4.errors import ChartDomain, EmptyInterval, MinimalPoint, MuVanishes
from meridian4.natural_pde import (
    ISOTROPIC_GRAM,
    EquationResidual,
    IsotropicChart,
    ResidualReport,
    ScalarField2,
    canonical_scale,
    closed_geometric_functions_pnmc1,
    closed_geometric_functions_pnmc2,
    geometric_functions,
    isotropic_frame,
    residual_degenerate,
    residual_fund,
    residual_syst1,
    solution_family,
    transported_solution_family,
)

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def pnmc1_surface():
    return MeridianSurface(profile=make_pnmc1(0.0, 1.0),
                           directrix=latitude_circle(2.0))


@pytest.fixture(scope="module")
def pnmc2_surface():
    return MeridianSurface(
        profile=make_pnmc2(1.0, 2.0, 1.0, 1.0, (0.0, 0.8), 1e-3),
        directrix=latitude_circle(1.0))


def _zero_field():
    zero = lambda u, v: 0.0 * (np.asarray(u, dtype=float)
                               + np.asarray(v, dtype=float))
    return ScalarField2(zero, zero, zero, zero, zero, zero, name="0")


def _const_field(c):
    g = lambda u, v: c + 0.0 * (np.asarray(u, dtype=float)
                                + np.asarray(v, dtype=float))
    zero = lambda u, v: 0.0 * (np.asarray(u, dtype=float)
                               + np.asarray(v, dtype=float))
    return ScalarField2(g, zero, zero, zero, zero, zero, name=f"const:{c}")


# ---------------------------------------------------------------- frame
def test_isotropic_frame_gram(pnmc1_surface):
    rng = np.random.default_rng(3)
    for _ in range(20):
        u, v = rng.uniform(-0.9, 0.9), rng.uniform(0, TWO_PI)
        fr = isotropic_frame(pnmc1_surface, u, v)
        rep = verify_frame(fr.labeled(), ISOTROPIC_GRAM, tol=1e-10)
        assert rep.passed


def test_isotropic_frame_n1_aligned_with_H(pnmc2_surface):
    u, v = 0.4, 1.1
    fr = isotropic_frame(pnmc2_surface, u, v)
    mc = pnmc2_surface.mean_curvature(u, v)
    frame = pnmc2_surface.frame(u, v)
    H = mc.h1 * frame.N1.as_array() + mc.h2 * frame.N2.as_array()
    resid = H - np.sqrt(mc.h1 ** 2 + mc.h2 ** 2) * fr.n1.as_array()
    assert np.max(np.abs(resid)) < 1e-12


def test_isotropic_frame_pnmc1_n1_equals_N1(pnmc1_surface):
    fr = isotropic_frame(pnmc1_surface, 0.5, 0.8)
    N1 = pnmc1_surface.frame(0.5, 0.8).N1
    assert np.max(np.abs(fr.n1.as_array() - N1.as_array())) < 1e-12


def test_isotropic_frame_rejects_minimal_points():
    surf = MeridianSurface(profile=make_minimal(0.0, 1.0),
                           directrix=great_circle())
    with pytest.raises(MinimalPoint):
        isotropic_frame(surf, 0.3, 0.5)


# ---------------------------------------------------------------- functions
def test_geometric_functions_match_closed_pnmc1(pnmc1_surface):
    for u in np.linspace(-0.85, 0.85, 7):
        for v in (0.3, 2.0, 5.5):
            gf = geometric_functions(pnmc1_surface, float(u), float(v))
            cf = closed_geometric_functions_pnmc1(0.0, 1.0, 2.0, float(u))
            assert np.max(np.abs(gf.as_array() - cf.as_array())) < 1e-8


def test_geometric_functions_match_closed_pnmc2(pnmc2_surface):
    prof = pnmc2_surface.profile
    for u in np.linspace(0.05, 0.75, 6):
        jets = prof.jets(float(u))
        gf = geometric_functions(pnmc2_surface, float(u), 0.7)
        cf = closed_geometric_functions_pnmc2(2.0, 1.0, 1.0, jets.f.f,
                                              jets.f.d1)
        assert np.max(np.abs(gf.as_array() - cf.as_array())) < 1e-6


def test_closed_pnmc1_pinned_point():
    gf = closed_geometric_functions_pnmc1(0.0, 1.0, 2.0, 0.0)
    assert gf.gamma1 == 0.0 and gf.gamma2 == 0.0
    assert gf.nu == gf.lambda1 == gf.lambda2 == pytest.approx(1.0)
    assert gf.mu1 == gf.mu2 == pytest.approx(-1.0)
    assert gf.beta1 == gf.beta2 == 0.0


def test_closed_pnmc2_pinned_point():
    gf = closed_geometric_functions_pnmc2(2.0, 1.0, 1.0, 1.0, np.sqrt(8.0))
    assert gf.nu == pytest.approx(np.sqrt(5.0) / 2.0)
    assert gf.beta1 == 0.0 and gf.beta2 == 0.0


def test_gamma_directional_derivatives_coincide(pnmc1_surface, pnmc2_surface):
    """The conformal factor depends on u only, so its two lightlike
    directional log-derivatives are equal; the map symmetry also forces
    lambda1 = lambda2 and mu1 = mu2."""
    for surf, u in ((pnmc1_surface, 0.5), (pnmc2_surface, 0.4)):
        gf = geometric_functions(surf, u, 1.3)
        assert gf.gamma1 == pytest.approx(gf.gamma2, abs=1e-12)
        assert gf.lambda1 == pytest.approx(gf.lambda2, abs=1e-12)
        assert gf.mu1 == pytest.approx(gf.mu2, abs=1e-12)
        jets = surf.profile.jets(u)
        assert gf.gamma1 == pytest.approx(
            jets.f.d1 / (np.sqrt(2.0) * jets.f.f), abs=1e-12)


def test_H_is_nu_times_n1(pnmc1_surface, pnmc2_surface):
    for surf, u in ((pnmc1_surface, -0.3), (pnmc2_surface, 0.6)):
        gf = geometric_functions(surf, u, 0.9)
        mc = surf.mean_curvature(u, 0.9)
        assert gf.nu == pytest.approx(np.hypot(mc.h1, mc.h2), abs=1e-12)


def test_parallel_h_families_have_constant_nu():
    s1 = MeridianSurface(
        profile=make_parallel_H1(1.0, 0.0, float(np.cosh(0.1)), (0, 1), 1e-3),
        directrix=great_circle())
    s2 = MeridianSurface(profile=make_parallel_H2(2.0, 0.0),
                         directrix=latitude_circle(3.0))
    for surf, urange in ((s1, (0.05, 0.95)), (s2, (-1.0, 1.0))):
        nus, betas = [], []
        for u in np.linspace(*urange, 9):
            gf = geometric_functions(surf, float(u), 0.4)
            nus.append(gf.nu)
            betas.extend([gf.beta1, gf.beta2])
        assert np.max(np.abs(np.diff(nus))) < 1e-8
        assert np.max(np.abs(betas)) < 1e-8


def test_pnmc_families_have_nonconstant_nu(pnmc1_surface, pnmc2_surface):
    for surf, urange in ((pnmc1_surface, (-0.8, 0.8)),
                         (pnmc2_surface, (0.05, 0.75))):
        nus = [geometric_functions(surf, float(u), 0.4).nu
               for u in np.linspace(*urange, 9)]
        assert np.max(np.abs(np.diff(nus))) > 1e-3


# ---------------------------------------------------------------- chart
def test_chart_tangents_are_isotropic(pnmc1_surface):
    chart = IsotropicChart.for_minimal_family(pnmc1_surface, 0.0, 1.0)
    U = np.linspace(-0.8, 0.8, 9)[:, None]
    V = np.linspace(0.0, TWO_PI, 9)[None, :]
    zub, zvb = chart.isotropic_tangents(U, V)
    from meridian4.minkowski import inner_arrays
    f2 = pnmc1_surface.profile.jets(U).f.f ** 2
    assert np.max(np.abs(inner_arrays(zub, zub))) < 1e-8
    assert np.max(np.abs(inner_arrays(zvb, zvb))) < 1e-8
    assert np.max(np.abs(inner_arrays(zub, zvb) + f2)) < 1e-8


def test_chart_operator_self_test_closed_and_quadrature(pnmc1_surface):
    closed = IsotropicChart.for_minimal_family(pnmc1_surface, 0.0, 1.0)
    quad = IsotropicChart.for_surface(pnmc1_surface)
    for chart in (closed, quad):
        mat = chart.operator_self_test(0.4, 1.0)
        assert np.max(mat) < 1e-10


def test_chart_round_trip(pnmc1_surface):
    chart = IsotropicChart.for_minimal_family(pnmc1_surface, 0.0, 1.0)
    ub, vb = chart.to_barred(0.3, 1.2)
    u, v = chart.from_barred(ub, vb)
    assert (u, v) == pytest.approx((0.3, 1.2), abs=1e-14)
    with pytest.raises(ChartDomain):
        IsotropicChart.for_surface(pnmc1_surface).from_barred(0.1, 0.1)


def test_chart_agrees_between_closed_and_quadrature(pnmc1_surface):
    closed = IsotropicChart.for_minimal_family(pnmc1_surface, 0.0, 1.0)
    quad = IsotropicChart.for_surface(pnmc1_surface)
    # same anchor (u = a): antiderivatives agree, not just derivatives
    for u in (-0.7, -0.2, 0.5, 0.8):
        assert quad.U(u) == pytest.approx(float(closed.U(u)), abs=1e-11)


# ---------------------------------------------------------------- fields
def test_scalar_field_audit_catches_wrong_partial():
    val = lambda u, v: np.sin(np.asarray(u, dtype=float)) * np.asarray(v, dtype=float)
    good = {
        "du": lambda u, v: np.cos(np.asarray(u, dtype=float)) * np.asarray(v, dtype=float),
        "dv": lambda u, v: np.sin(np.asarray(u, dtype=float)) + 0.0 * np.asarray(v, dtype=float),
        "duu": lambda u, v: -np.sin(np.asarray(u, dtype=float)) * np.asarray(v, dtype=float),
        "duv": lambda u, v: np.cos(np.asarray(u, dtype=float)) + 0.0 * np.asarray(v, dtype=float),
        "dvv": lambda u, v: 0.0 * (np.asarray(u, dtype=float) + np.asarray(v, dtype=float)),
    }
    ScalarField2(val, good["du"], good["dv"], good["duu"], good["duv"],
                 good["dvv"], name="ok", audit_box=(0, 1, 0, 1))
    with pytest.raises(ValueError):
        ScalarField2(val, good["dv"], good["du"], good["duu"], good["duv"],
                     good["dvv"], name="swapped", audit_box=(0, 1, 0, 1))


def test_solution_family_reproduces_example_fields():
    kap = sin_offset_fn(2.0)
    lam1, mu1, nu1 = solution_family(1.0, 3.0, kap)
    # mu = 2/(u^2 - 2u - 3); at u = 0 that is -2/3
    assert mu1.value(0.0, 0.0) == pytest.approx(-2.0 / 3.0)
    assert lam1.value(0.0, 0.5) == pytest.approx(
        (2.0 + np.sin(0.5)) / (2.0 * np.sqrt(3.0)))
    assert nu1.value(0.3, 0.7) == lam1.value(0.3, 0.7)

    lam2, mu2, nu2 = solution_family(5.0, 0.0, kap)
    # mu = 5/(u(u-10)); at u = 2 that is -5/16
    assert mu2.value(2.0, 0.0) == pytest.approx(-5.0 / 16.0)
    with pytest.raises(EmptyInterval):
        solution_family(0.0, -1.0, kap)


def test_residual_syst1_examples_pass():
    kap = sin_offset_fn(2.0)
    for a, b, umin, umax in ((1.0, 3.0, -0.9, 2.9), (5.0, 0.0, 0.5, 9.5)):
        lam, mu, nu = solution_family(a, b, kap)
        surface = MeridianSurface(
            profile=build_profile(FamilySpec(
                "PNMC1", {"a": a, "b": b, "kappa": 2.0}, umin, umax)),
            directrix=latitude_circle(2.0))
        chart = IsotropicChart.for_minimal_family(surface, a, b)
        rep = residual_syst1(lam, mu, nu, chart,
                             Grid2(umin, umax, 30, 0.0, TWO_PI, 30), tol=1e-8)
        assert rep.passed, rep.to_json()
        assert rep.details["scale"] == pytest.approx(canonical_scale(a, b))


def test_residual_syst1_without_normalization_fails_eq3():
    kap = sin_offset_fn(2.0)
    lam, mu, nu = solution_family(1.0, 3.0, kap)
    surface = MeridianSurface(profile=make_pnmc1(1.0, 3.0),
                              directrix=latitude_circle(2.0))
    chart = IsotropicChart.for_minimal_family(surface, 1.0, 3.0)
    rep = residual_syst1(lam, mu, nu, chart,
                         Grid2(-0.9, 2.9, 20, 0.0, TWO_PI, 20),
                         tol=1e-8, normalize=False)
    eq = {e.name: e for e in rep.equations}
    assert eq["eq1"].max_abs < 1e-8 and eq["eq2"].max_abs < 1e-8
    assert eq["eq3"].max_abs > 0.1        # scale defect sqrt(a^2+b) - 1


def test_residual_syst1_perturbed_mu_fails():
    kap = constant_fn(2.0)
    lam, mu, nu = solution_family(1.0, 3.0, kap)
    bad_mu = ScalarField2(
        value=lambda u, v: 1.1 * mu.value(u, v),
        du=lambda u, v: 1.1 * mu.du(u, v),
        dv=lambda u, v: 1.1 * mu.dv(u, v),
        duu=lambda u, v: 1.1 * mu.duu(u, v),
        duv=lambda u, v: 1.1 * mu.duv(u, v),
        dvv=lambda u, v: 1.1 * mu.dvv(u, v), name="1.1mu")
    surface = MeridianSurface(profile=make_pnmc1(1.0, 3.0),
                              directrix=latitude_circle(2.0))
    chart = IsotropicChart.for_minimal_family(surface, 1.0, 3.0)
    grid = Grid2(-0.9, 2.9, 15, 0.0, TWO_PI, 15)
    assert residual_syst1(lam, mu, nu, chart, grid).passed
    rep = residual_syst1(lam, bad_mu, nu, chart, grid)
    assert not rep.passed
    assert {e.name: e for e in rep.equations}["eq3"].max_abs > 0.01


@settings(max_examples=5, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.5, max_value=4.0),
       st.sampled_from(["sin-offset:2", "poly:1,0,1", "const:3"]))
def test_residual_syst1_random_family_draws(a, b, kappa_sel):
    from meridian4.cli import _parse_kappa
    kap = _parse_kappa(kappa_sel)
    lam, mu, nu = solution_family(a, b, kap, audit=False)
    r = np.sqrt(a * a + b)
    surface = MeridianSurface(profile=make_pnmc1(a, b),
                              directrix=latitude_circle(2.0))
    chart = IsotropicChart.for_minimal_family(surface, a, b)
    grid = Grid2(a - 0.85 * r, a + 0.85 * r, 12, 0.0, 1.0, 12)
    rep = residual_syst1(lam, mu, nu, chart, grid, tol=1e-8)
    assert rep.passed, rep.to_json()


def test_residual_fund_constant_mu_example():
    lam, nu = _zero_field(), _zero_field()
    mu = _const_field(1.0)
    grid = Grid2(0.0, 1.0, 8, 0.0, 1.0, 8)
    for eps in (-1, 1):
        rep = residual_fund(lam, mu, nu, eps, grid, tol=1e-8)
        eqs = {e.name: e for e in rep.equations}
        assert eqs["eq1"].max_abs == 0.0
        assert eqs["eq2"].max_abs == 0.0
        assert eqs["eq3"].max_abs == pytest.approx(1.0)
        assert not rep.passed


def test_residual_fund_transported_fields_both_epsilons():
    kap = sin_offset_fn(2.0)
    tl, tm, tn, scale = transported_solution_family(1.0, 3.0, kap)
    surface = MeridianSurface(profile=make_pnmc1(1.0, 3.0),
                              directrix=latitude_circle(2.0))
    chart = IsotropicChart.for_minimal_family(surface, 1.0, 3.0)
    U, V = Grid2(-0.9, 2.9, 20, 0.0, TWO_PI, 20).mesh()
    ub, vb = chart.to_barred(U, V, scale=scale)
    assert residual_fund(tl, tm, tn, -1, (ub, vb), tol=1e-8).passed
    neg = residual_fund(tl, tm, tn, +1, (ub, vb), tol=1e-8)
    assert not neg.passed and neg.max_residual() > 0.1


def test_residual_fund_raw_coordinates_need_not_pass():
    """The same fields fed directly in (u, v) miss the canonical scaling."""
    kap = sin_offset_fn(2.0)
    lam, mu, nu = solution_family(1.0, 3.0, kap)
    rep = residual_fund(lam, mu, nu, -1,
                        Grid2(-0.9, 2.9, 12, 0.0, TWO_PI, 12), tol=1e-8)
    assert not rep.passed


def test_residual_degenerate_separable_and_counterexample():
    lam, nu = _zero_field(), _zero_field()

    def e(u):
        return np.exp(np.asarray(u, dtype=float))

    def q(v):
        return 2.0 + np.sin(np.asarray(v, dtype=float))

    sep = ScalarField2(
        value=lambda u, v: e(u) * q(v),
        du=lambda u, v: e(u) * q(v),
        dv=lambda u, v: e(u) * np.cos(np.asarray(v, dtype=float)),
        duu=lambda u, v: e(u) * q(v),
        duv=lambda u, v: e(u) * np.cos(np.asarray(v, dtype=float)),
        dvv=lambda u, v: -e(u) * np.sin(np.asarray(v, dtype=float)),
        name="A(u)B(v)", audit_box=(0, 1, 0, 1))
    grid = Grid2(0.0, 1.0, 9, 0.0, 1.0, 9)
    rep = residual_degenerate(lam, sep, nu, grid, tol=1e-10)
    assert rep.passed

    # v-translation of all fields leaves the verdict unchanged
    shift = 0.7
    sep_shifted = ScalarField2(
        value=lambda u, v: sep.value(u, np.asarray(v, dtype=float) + shift),
        du=lambda u, v: sep.du(u, np.asarray(v, dtype=float) + shift),
        dv=lambda u, v: sep.dv(u, np.asarray(v, dtype=float) + shift),
        duu=lambda u, v: sep.duu(u, np.asarray(v, dtype=float) + shift),
        duv=lambda u, v: sep.duv(u, np.asarray(v, dtype=float) + shift),
        dvv=lambda u, v: sep.dvv(u, np.asarray(v, dtype=float) + shift),
        name="shifted")
    assert residual_degenerate(lam, sep_shifted, nu, grid, tol=1e-10).passed

    one = _const_field(1.0)
    exp_uv = ScalarField2(
        value=lambda u, v: np.exp(-np.asarray(u, dtype=float) * np.asarray(v, dtype=float)),
        du=lambda u, v: -np.asarray(v, dtype=float) * np.exp(-np.asarray(u, dtype=float) * np.asarray(v, dtype=float)),
        dv=lambda u, v: -np.asarray(u, dtype=float) * np.exp(-np.asarray(u, dtype=float) * np.asarray(v, dtype=float)),
        duu=lambda u, v: np.asarray(v, dtype=float) ** 2 * np.exp(-np.asarray(u, dtype=float) * np.asarray(v, dtype=float)),
        duv=lambda u, v: (np.asarray(u, dtype=float) * np.asarray(v, dtype=float) - 1.0) * np.exp(-np.asarray(u, dtype=float) * np.asarray(v, dtype=float)),
        dvv=lambda u, v: np.asarray(u, dtype=float) ** 2 * np.exp(-np.asarray(u, dtype=float) * np.asarray(v, dtype=float)),
        name="exp(-uv)", audit_box=(0.1, 0.9, 0.1, 0.9))
    rep = residual_degenerate(lam, exp_uv, one, grid, tol=1e-8)
    assert not rep.passed


def test_mu_vanishing_is_rejected():
    lam, nu = _zero_field(), _zero_field()
    mu = _const_field(0.0)
    with pytest.raises(MuVanishes):
        residual_fund(lam, mu, nu, -1, Grid2(0, 1, 4, 0, 1, 4), tol=1e-8)


def test_residual_report_json_writes_nonfinite_as_null():
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    report = ResidualReport(
        system="syst1", tol=1e-8, passed=False,
        equations=(EquationResidual("eq1", float("nan"), float("inf")),
                   EquationResidual("eq2", 1e-12, 1e-13)),
        details={"scale": float("-inf")})
    data = json.loads(json.dumps(report.to_json(), allow_nan=False),
                      parse_constant=reject)
    assert data["equations"][0]["max_abs"] is None
    assert data["equations"][0]["rms"] is None
    assert data["equations"][1]["max_abs"] == 1e-12
    assert data["details"]["scale"] is None
