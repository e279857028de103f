import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    Grid2,
    MeridianSurface,
    build_profile,
    FamilySpec,
    Jet3,
    constant_fn,
    jet_fn,
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
from meridian4.acceptance import standard_instances
from meridian4.errors import (ChartDomain, EmptyInterval, InconsistentGeometry,
                              MinimalPoint, MuVanishes)
from meridian4.families import TAGS
from meridian4 import natural_pde
from meridian4.diffkit import SmoothFn1, quadrature
from meridian4.minkowski import minkowski_inner
from meridian4.natural_pde import (
    ISOTROPIC_GRAM,
    MINIMAL_TOL,
    EquationResidual,
    IsotropicChart,
    Partials2,
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
    _frame_fields,
    _to_barred,
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


def _const_field(c):
    def partials(u, v):
        shape = np.broadcast(np.asarray(u), np.asarray(v)).shape
        zero = np.zeros(shape)
        return Partials2(c + zero, zero, zero, zero, zero, zero)
    return ScalarField2(partials, name=f"const:{c}")


def _zero_field():
    return _const_field(0.0)


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


# ------------------------------------------- factored against ambient route
def _jet_h0(sample, seed):
    """H0 = h / sqrt(h.h) by Jet3 arithmetic, as first-order jets."""
    h1, h2 = sample.h_jets(seed)
    norm = (h1 * h1 + h2 * h2).sqrt()
    return h1 / norm, h2 / norm


@pytest.mark.parametrize("tag", ["PNMC1", "PNMC2", "CMC"])
@pytest.mark.parametrize("seed", ["u", "v"])
def test_h0_jets_match_jet_normalization(tag, seed):
    surface, _, grid = standard_instances()[tag]
    rng = np.random.default_rng(11)
    us = rng.uniform(grid.u_min, grid.u_max, 50)
    vs = rng.uniform(grid.v_min, grid.v_max, 50)
    sample = surface._raw(us, vs)
    for got, ref in zip(sample.h0_jets(seed), _jet_h0(sample, seed)):
        for part in ("f", "d1"):
            want = getattr(ref, part)
            gap = np.abs(getattr(got, part) - want)
            assert np.all(gap <= 1e-12 * (1.0 + np.abs(want))), (part, gap)


def _ambient_frame_fields(s):
    """x, y, n1, n2 with their (u, v)-partials as (..., 4) arrays, by
    ambient arithmetic on the sample's materialized fields."""
    sq2 = np.sqrt(2.0)

    def sc(c, vec):
        return np.asarray(c)[..., None] * vec

    X, dX_u, dX_v = s.X, s.z_uu, s.z_uv
    Y, dY_u, dY_v = s.Y, np.zeros_like(s.Y), s.curve.tp
    x = ((X + Y) / sq2, (dX_u + dY_u) / sq2, (dX_v + dY_v) / sq2)
    y = ((X - Y) / sq2, (dX_u - dY_u) / sq2, (dX_v - dY_v) / sq2)
    au, bu = _jet_h0(s, "u")
    av, bv = _jet_h0(s, "v")
    alpha, beta = au.f, bu.f
    n1 = (sc(alpha, s.N1) + sc(beta, s.N2),
          sc(au.d1, s.N1) + sc(alpha, s.dN1_u) + sc(bu.d1, s.N2)
          + sc(beta, s.dN2_u),
          sc(av.d1, s.N1) + sc(alpha, s.dN1_v) + sc(bv.d1, s.N2)
          + sc(beta, s.dN2_v))
    n2 = (sc(-beta, s.N1) + sc(alpha, s.N2),
          sc(-bu.d1, s.N1) + sc(-beta, s.dN1_u) + sc(au.d1, s.N2)
          + sc(alpha, s.dN2_u),
          sc(-bv.d1, s.N1) + sc(-beta, s.dN1_v) + sc(av.d1, s.N2)
          + sc(alpha, s.dN2_v))
    return np.asarray(s.f.f), {"x": x, "y": y, "n1": n1, "n2": n2}


def _ambient_geometric_functions(s):
    """The nine functions by pairing ambient directional derivatives."""
    f, ff = _ambient_frame_fields(s)
    x, y, n1, n2 = (ff[k][0] for k in ("x", "y", "n1", "n2"))
    ip = minkowski_inner

    def along(name, sign):
        _, du, dv = ff[name]
        return (du + sign * dv / f[..., None]) / np.sqrt(2.0)

    nab_x_x, nab_y_y = along("x", 1.0), along("y", -1.0)
    return {"gamma1": -ip(nab_x_x, y), "gamma2": -ip(nab_y_y, x),
            "nu": -ip(along("y", 1.0), n1),
            "lambda1": ip(nab_x_x, n1), "mu1": ip(nab_x_x, n2),
            "lambda2": ip(nab_y_y, n1), "mu2": ip(nab_y_y, n2),
            "beta1": ip(along("n1", 1.0), n2),
            "beta2": ip(along("n1", -1.0), n2)}, ff


_POINTS = st.floats(0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(
           ["CMC/2+sin", "PNMC1/2+sin", *(t for t in TAGS if t != "Minimal")])),
       layout=st.sampled_from(["scattered", "point", "grid"]),
       s=st.lists(_POINTS, min_size=1, max_size=5),
       t=st.lists(_POINTS, min_size=1, max_size=5))
def test_factored_frame_functions_match_ambient_route(route_points, name,
                                                      layout, s, t):
    surface, u, v = route_points(name, layout, s, t)
    want_gf, want_fields = _ambient_geometric_functions(surface._raw(u, v))
    sample, fields = _frame_fields(surface, u, v, MINIMAL_TOL)
    got = {**geometric_functions(surface, u, v)._asdict(),
           **{"frame " + k: w.as_array() for k, w in
              isotropic_frame(surface, u, v).labeled()}}
    want = {**want_gf, **{"frame " + k: want_fields[k][0] for k in want_fields}}
    # every frame field and partial too, though the nine functions read
    # none of n2's partials
    for k, triple in fields.items():
        for key, terms, ref in zip((k, f"d{k}_u", f"d{k}_v"), triple,
                                   want_fields[k]):
            got[key] = sum(np.asarray(c)[..., None] * sample._factors[f].ambient()
                           for c, f in terms)
            want[key] = ref
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    for key, ref in want.items():
        assert np.shape(got[key]) == np.shape(ref)
        assert np.shape(ref)[:len(shape)] == shape
        gap = np.abs(got[key] - ref)
        assert np.all(gap <= 1e-12 * (1.0 + np.abs(ref))), (
            key, np.max(gap / (1.0 + np.abs(ref))))


def _uncached_geometric_functions(surface, u, v):
    """geometric_functions with one _inner call per term pair, the sum the
    once-per-pair route must match bit for bit."""
    s, fields = _frame_fields(surface, u, v, MINIMAL_TOL)
    fa = s._factors
    r, r_f = 1.0 / np.sqrt(2.0), 1.0 / (np.sqrt(2.0) * s.f.f)

    def along(name, sign):
        _, du, dv = fields[name]
        return (*((r * c, k) for c, k in du),
                *((sign * r_f * c, k) for c, k in dv))

    def inner(a, b):
        return sum(c * d * natural_pde._inner(fa[i], fa[j])
                   for c, i in a for d, j in b)

    x, y, n1, n2 = (fields[k][0] for k in ("x", "y", "n1", "n2"))
    nab_x_x, nab_y_y = along("x", 1.0), along("y", -1.0)
    return np.array([
        -inner(nab_x_x, y), -inner(nab_y_y, x), -inner(along("y", 1.0), n1),
        inner(nab_x_x, n1), inner(nab_x_x, n2), inner(nab_y_y, n1),
        inner(nab_y_y, n2), inner(along("n1", 1.0), n2),
        inner(along("n1", -1.0), n2)])


@pytest.mark.parametrize("tag, u_range", [("PNMC1", (-0.85, 0.85)),
                                          ("PNMC2", (0.02, 0.78))])
def test_geometric_functions_pair_each_factor_pair_once(monkeypatch, tag,
                                                        u_range):
    # acceptance criterion 7's grids; the nine functions read 70 term
    # pairs over 21 distinct unordered factor pairs
    surface = standard_instances()[tag][0]
    U = np.linspace(*u_range, 5)[:, None]
    V = np.linspace(0.2, 5.8, 5)[None, :]
    want = _uncached_geometric_functions(surface, U, V)
    calls = []
    inner = natural_pde._inner
    monkeypatch.setattr(natural_pde, "_inner",
                        lambda a, b: calls.append(1) or inner(a, b))
    got = geometric_functions(surface, U, V).as_array()
    assert len(calls) <= 22
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- chart
_SQRT2 = np.sqrt(2.0)


def _barred_tangents(surface, u, v):
    """(z_ubar, z_vbar) = (f z_u +- z_v) / sqrt(2) as ambient arrays: the
    coordinate tangents of a chart with U' = 1/f, from the public
    evaluation."""
    jet = surface.evaluate(u, v)
    f = surface.profile.jets(u).f.f[..., None]
    fz_u, z_v = f * jet.z_u.as_array(), jet.z_v.as_array()
    return (fz_u + z_v) / _SQRT2, (fz_u - z_v) / _SQRT2


def _operator_matrix(chart, profile, u, v):
    """The barred derivative operators applied to the chart's own
    coordinate functions ubar, vbar = (U(u) +- v) / sqrt(2), whose
    (u, v)-partials follow from U' = 1/f: the exact chain rule gives the
    identity matrix, so this returns its deviation from it."""
    fj = profile.jets(u).f
    U_u = 1.0 / (fj.f * _SQRT2)
    U_uu = -fj.d1 / (fj.f ** 2 * _SQRT2)
    ub, vb = (_to_barred(Partials2(w, U_u, sgn / _SQRT2, U_uu, 0.0, 0.0),
                         fj.f, fj.d1, 1.0)
              for w, sgn in zip(chart.to_barred(u, v), (1.0, -1.0)))
    return np.array([
        [np.max(np.abs(ub.du - 1.0)), np.max(np.abs(vb.du))],
        [np.max(np.abs(ub.dv)), np.max(np.abs(vb.dv - 1.0))],
    ])


def test_chart_tangents_are_isotropic(pnmc1_surface):
    U = np.linspace(-0.8, 0.8, 9)[:, None]
    V = np.linspace(0.0, TWO_PI, 9)[None, :]
    zub, zvb = _barred_tangents(pnmc1_surface, U, V)
    f2 = pnmc1_surface.profile.jets(U).f.f ** 2
    assert np.max(np.abs(minkowski_inner(zub, zub))) < 1e-8
    assert np.max(np.abs(minkowski_inner(zvb, zvb))) < 1e-8
    assert np.max(np.abs(minkowski_inner(zub, zvb) + f2)) < 1e-8


def test_chart_operator_self_test_gives_identity():
    chart = IsotropicChart.for_minimal_family(0.0, 1.0)
    profile = make_pnmc1(0.0, 1.0)
    assert np.max(_operator_matrix(chart, profile, 0.4, 1.0)) < 1e-10
    U, V = Grid2(-0.9, 0.9, 7, 0.0, TWO_PI, 5).mesh()
    assert np.max(_operator_matrix(chart, profile, U, V)) < 1e-10


def test_chart_round_trip():
    # the closed-form inverse u = a + r sin(w) that the transported
    # solution family reads
    chart = IsotropicChart.for_minimal_family(0.0, 1.0)
    _, u_from_U = natural_pde._arcsin_chart(0.0, 1.0)
    ub, vb = chart.to_barred(0.3, 1.2)
    u, v = u_from_U((ub + vb) / _SQRT2), (ub - vb) / _SQRT2
    assert (u, v) == pytest.approx((0.3, 1.2), abs=1e-14)


def test_chart_raises_outside_the_profile_interval():
    # U = arcsin(u) is defined on the profile interval (-1, 1) only; past
    # it, arcsin gave NaN coordinates with a RuntimeWarning
    chart = IsotropicChart.for_minimal_family(0.0, 1.0)
    assert np.all(np.isfinite(chart.to_barred(np.array([-0.99, 0.3, 0.99]),
                                              0.5)))
    for u in (1.5, 1.0, -1.0, -3.0, np.nan, np.array([0.1, 2.0])):
        with pytest.raises(ChartDomain):
            chart.to_barred(u, 0.5)


def test_chart_inverse_raises_outside_its_image():
    # U = arcsin(u) maps (-1, 1) onto (-pi/2, pi/2); sin would fold U = 2
    # back to u = sin 2, whose own U is pi - 2.  The transported fields
    # read u through that inverse at U = (ubar + vbar) / (sqrt(2) scale)
    tl, tm, _, _ = transported_solution_family(0.0, 1.0, constant_fn(2.0),
                                               scale=1.0)
    for w in (1.6, 2.0, -2.0, np.nan, np.array([0.1, 2.0])):
        half = _SQRT2 * np.asarray(w) / 2.0   # (ub + vb)/sqrt(2) = w
        for field in (tl, tm):
            with pytest.raises(ChartDomain):
                field.partials(half, half)


def test_transported_partials_invert_the_chart_in_closed_form():
    # reference: the inverse u = a + r sin(w) written out, then the chain rule
    a, b, kap = 1.0, 3.0, sin_offset_fn(2.0)
    tl, tm, tn, scale = transported_solution_family(a, b, kap)
    chart = IsotropicChart.for_minimal_family(a, b)
    ub, vb = chart.to_barred(*Grid2(-0.9, 2.9, 40, 0.0, 6.2832, 40).mesh(),
                             scale=scale)
    s2 = np.sqrt(2.0) * scale
    u = a + np.sqrt(a * a + b) * np.sin((ub + vb) / s2)
    f = np.sqrt(b + 2.0 * a * u - u * u)
    for got, raw in zip((tl, tm, tn), solution_family(a, b, kap, audit=False)):
        want = _to_barred(raw.partials(u, (ub - vb) / s2), f, (a - u) / f,
                          scale)
        for g, w in zip(got.partials(ub, vb), want):
            assert np.array_equal(g, w)


def test_chart_agrees_between_closed_and_quadrature():
    # U(u) - U(a) is the integral of 1/f over [a, u]: antiderivatives
    # agree, not just derivatives
    a, b = 0.0, 1.0
    chart = IsotropicChart.for_minimal_family(a, b)
    profile = make_pnmc1(a, b)
    inv_f = SmoothFn1(lambda u: profile.f_eval(np.asarray(u, dtype=float))
                      .reciprocal(), profile.domain, name="1/f")
    for u in (-0.7, -0.2, 0.5, 0.8):
        want = quadrature(inv_f, a, u, tol=1e-13)
        assert float(chart.U(u) - chart.U(a)) == pytest.approx(want, abs=1e-11)


# ---------------------------------------------------------------- fields
def _sin_u_times_v(u, v):
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(v, dtype=float))
    s, c = np.sin(u), np.cos(u)
    return Partials2(s * v, c * v, s, -s * v, c, 0.0 * u)


def test_scalar_field_audit_catches_wrong_partial():
    ScalarField2(_sin_u_times_v, name="ok", audit_box=(0, 1, 0, 1))

    def swapped(u, v):
        p = _sin_u_times_v(u, v)
        return p._replace(du=p.dv, dv=p.du)
    with pytest.raises(InconsistentGeometry):
        ScalarField2(swapped, name="swapped", audit_box=(0, 1, 0, 1))


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


def test_scalar_field_audit_fails_on_nan_at_the_first_point():
    def partials(u, v):
        p = _sin_u_times_v(u, v)
        u, v = np.broadcast_arrays(u, v)
        return p._replace(duu=np.where((u > 0.4) & (v > 0.6), np.nan, p.duu))
    # audit points are u, v in {0.25, 0.5, 0.75}; the NaN ones are
    # (0.5, 0.75) and (0.75, 0.75), and the first in (u, v) order is named
    with pytest.raises(InconsistentGeometry, match=r"at \(0\.5, 0\.75\)"):
        ScalarField2(partials, name="nan", audit_box=(0, 1, 0, 1))


def _symbolic_partials(sp, expr, x, y):
    """Value and partials to order 2 of expr in (x, y), as numpy functions."""
    exprs = [expr, sp.diff(expr, x), sp.diff(expr, y), sp.diff(expr, x, 2),
             sp.diff(expr, x, y), sp.diff(expr, y, 2)]
    return [sp.lambdify((x, y), e, "numpy") for e in exprs]


def _assert_partials_match(field, fns, x, y):
    got = field.partials(x, y)
    for name, g, fn in zip(Partials2._fields, got, fns):
        want = np.broadcast_to(np.asarray(fn(x, y), dtype=float), x.shape)
        assert np.all(np.abs(g - want) <= 1e-12 * (1.0 + np.abs(want))), (
            field.name, name, g, want)


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (5.0, 0.0), (0.5, 2.0)])
def test_solution_family_partials_match_symbolic_derivation(a, b):
    """Independent oracle for the jet-built partials: sympy differentiates
    the closed forms, and for the transported family the closed-form
    chart inverse substituted into them."""
    sp = pytest.importorskip("sympy")
    u, v, ub, vb = sp.symbols("u v ubar vbar", real=True)
    A, B = sp.nsimplify(a), sp.nsimplify(b)
    r = sp.sqrt(A ** 2 + B)
    S = B + 2 * A * u - u ** 2
    lam_expr = (2 + sp.sin(v)) / (2 * sp.sqrt(S))
    mu_expr = -r / S

    kap = sin_offset_fn(2.0)
    lam, mu, nu = solution_family(a, b, kap, audit=False)
    us = a + float(r) * np.linspace(-0.7, 0.7, 6)
    vs = np.linspace(0.3, 5.0, 6)
    for field, expr in ((lam, lam_expr), (mu, mu_expr), (nu, lam_expr)):
        _assert_partials_match(field, _symbolic_partials(sp, expr, u, v),
                               us, vs)

    tl, tm, tn, scale = transported_solution_family(a, b, kap)
    s2 = sp.sqrt(2) * sp.nsimplify(scale)
    inverse = {u: A + r * sp.sin((ub + vb) / s2), v: (ub - vb) / s2}
    w = np.arcsin((us - a) / float(r))
    ubs = scale * (w + vs) / np.sqrt(2.0)
    vbs = scale * (w - vs) / np.sqrt(2.0)
    for field, expr in ((tl, lam_expr), (tm, mu_expr), (tn, lam_expr)):
        _assert_partials_match(
            field, _symbolic_partials(sp, expr.subs(inverse), ub, vb),
            ubs, vbs)


def test_residual_syst1_examples_pass():
    kap = sin_offset_fn(2.0)
    for a, b, umin, umax in ((1.0, 3.0, -0.9, 2.9), (5.0, 0.0, 0.5, 9.5)):
        lam, mu, nu = solution_family(a, b, kap)
        profile = build_profile(FamilySpec(
            "PNMC1", {"a": a, "b": b, "kappa": 2.0}, umin, umax))
        rep = residual_syst1(lam, mu, nu, profile,
                             Grid2(umin, umax, 30, 0.0, TWO_PI, 30), tol=1e-8)
        assert rep.passed, rep.to_json()
        assert rep.details["scale"] == pytest.approx(canonical_scale(a, b))


def test_residual_syst1_without_normalization_fails_eq3():
    kap = sin_offset_fn(2.0)
    lam, mu, nu = solution_family(1.0, 3.0, kap)
    rep = residual_syst1(lam, mu, nu, make_pnmc1(1.0, 3.0),
                         Grid2(-0.9, 2.9, 20, 0.0, TWO_PI, 20),
                         tol=1e-8, normalize=False)
    eq = {e.name: e for e in rep.equations}
    assert eq["eq1"].max_abs < 1e-8 and eq["eq2"].max_abs < 1e-8
    assert eq["eq3"].max_abs > 0.1        # scale defect sqrt(a^2+b) - 1


def test_residual_syst1_perturbed_mu_fails():
    kap = constant_fn(2.0)
    lam, mu, nu = solution_family(1.0, 3.0, kap)
    bad_mu = ScalarField2(
        lambda u, v: Partials2(*(1.1 * x for x in mu.partials(u, v))),
        name="1.1mu")
    profile = make_pnmc1(1.0, 3.0)
    grid = Grid2(-0.9, 2.9, 15, 0.0, TWO_PI, 15)
    assert residual_syst1(lam, mu, nu, profile, grid).passed
    rep = residual_syst1(lam, bad_mu, nu, profile, grid)
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
    grid = Grid2(a - 0.85 * r, a + 0.85 * r, 12, 0.0, 1.0, 12)
    rep = residual_syst1(lam, mu, nu, make_pnmc1(a, b), grid, tol=1e-8)
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
    chart = IsotropicChart.for_minimal_family(1.0, 3.0)
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

    sep = ScalarField2.separable(jet_fn(Jet3.exp), sin_offset_fn(2.0),
                                 name="A(u)B(v)", audit_box=(0, 1, 0, 1))
    grid = Grid2(0.0, 1.0, 9, 0.0, 1.0, 9)
    rep = residual_degenerate(lam, sep, nu, grid, tol=1e-10)
    assert rep.passed

    # v-translation of all fields leaves the verdict unchanged
    shift = 0.7
    sep_shifted = ScalarField2(
        lambda u, v: sep.partials(u, np.asarray(v, dtype=float) + shift),
        name="shifted")
    assert residual_degenerate(lam, sep_shifted, nu, grid, tol=1e-10).passed

    one = _const_field(1.0)
    def exp_minus_uv(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        e = np.exp(-u * v)
        return Partials2(e, -v * e, -u * e, v ** 2 * e, (u * v - 1.0) * e,
                         u ** 2 * e)
    exp_uv = ScalarField2(exp_minus_uv, name="exp(-uv)",
                          audit_box=(0.1, 0.9, 0.1, 0.9))
    rep = residual_degenerate(lam, exp_uv, one, grid, tol=1e-8)
    assert not rep.passed


def test_mu_vanishing_is_rejected():
    lam, nu = _zero_field(), _zero_field()
    mu = _const_field(0.0)
    with pytest.raises(MuVanishes):
        residual_fund(lam, mu, nu, -1, Grid2(0, 1, 4, 0, 1, 4), tol=1e-8)


def test_mu_vanishing_does_not_depend_on_tol():
    # ln|mu| and its partials exist wherever 1/mu^2 is finite, whatever
    # the residual tolerance; mu^2 underflows to 0 below about 1e-162
    lam, nu = _zero_field(), _zero_field()
    grid = Grid2(0, 1, 4, 0, 1, 4)
    rep = residual_fund(lam, _const_field(1e-3), nu, -1, grid, tol=1.0)
    assert rep.passed
    with pytest.raises(MuVanishes):
        residual_fund(lam, _const_field(1e-200), nu, -1, grid, tol=1e-8)


def test_max_residual_propagates_a_nan():
    eqs = tuple(EquationResidual(f"eq{i}", x, x)
                for i, x in enumerate((1e-10, float("nan"), 1e-10)))
    report = ResidualReport(system="syst1", equations=eqs, tol=1e-8,
                            passed=False)
    assert np.isnan(report.max_residual())


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
