import dataclasses
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    FamilySpec,
    Interval,
    Jet3,
    MeridianSurface,
    SphericalCurve,
    Vec4M,
    build_profile,
    build_surface,
    causal_character,
    constant_fn,
    curve_from_curvature,
    great_circle,
    latitude_circle,
    make_flat,
    make_minimal,
    make_parallel_H1,
    make_parallel_H2,
    make_pnmc1,
    minkowski_inner,
    poly_fn,
    sin_offset_fn,
    verify_frame,
)
from meridian4.acceptance import standard_instances
from meridian4.errors import (InconsistentGeometry, MeridianError, MinimalPoint,
                              NonpositiveProfile, OutOfDomain)
from meridian4.families import TAGS
from meridian4 import geometry
from meridian4.geometry import CIRCLE_CACHE_SIZE, MEMO_SIZE, MeridianProfile
from meridian4.natural_pde import ISOTROPIC_GRAM, isotropic_frame

FRAME_GRAM = np.diag([-1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------- curves
def test_great_circle_has_zero_curvature():
    c = great_circle()
    v = np.linspace(0, 2 * np.pi, 9)
    assert np.max(np.abs(c.curvature(v).f)) == 0.0


@pytest.mark.parametrize("kappa0", [2.0, 0.5, -1.5])
def test_latitude_circle_curvature_matches_frame(kappa0):
    c = latitude_circle(kappa0)
    d = c.data(np.linspace(0, 3, 7))
    # kappa = <t', n> measured from the jets
    measured = np.sum(d.tp[..., :3] * d.n[..., :3], axis=-1)
    assert np.max(np.abs(measured - kappa0)) < 1e-12


def test_curve_from_curvature_invariants():
    c = curve_from_curvature(sin_offset_fn(2.0), (0.0, 2 * np.pi), h=1e-3)
    v = np.linspace(0.3, 6.0, 11)
    d = c.data(v)
    l3 = d.l[..., :3]
    assert np.max(np.abs(np.sum(l3 * l3, axis=-1) - 1.0)) < 1e-10
    kap = np.sum(d.tp[..., :3] * d.n[..., :3], axis=-1)
    assert np.max(np.abs(kap - (2.0 + np.sin(v)))) < 1e-8


def test_user_curve_is_validated_at_load():
    # radius-2 circle: not on the unit sphere, constructor must reject it
    def components(v):
        j = Jet3.variable(np.asarray(v, dtype=float))
        return (2.0 * j.cos(), 2.0 * j.sin(),
                Jet3(0.0 * np.asarray(v, dtype=float)))

    with pytest.raises(InconsistentGeometry):
        SphericalCurve(components=components, curvature=constant_fn(0.0),
                       domain=Interval(0, 2 * np.pi))
    assert issubclass(InconsistentGeometry, MeridianError)


def test_curve_data_enforces_domain():
    curve = curve_from_curvature(constant_fn(0.5), (0.0, 1.0))
    assert curve.data(0.5).l.shape == (4,)
    # the integrated range [0, 1] is closed, with no slack beyond it
    assert curve.domain == Interval(0.0, 1.0, closed=True)
    assert curve.data(np.array([0.0, 1.0])).l.shape == (2, 4)
    for v in (3.0, np.array([0.5, -0.2]), 1.0 + 5e-10, -5e-10):
        with pytest.raises(OutOfDomain):
            curve.data(v)


def test_curve_jet_check_names_the_first_failing_v():
    # unit-speed jets reported at phi(v), which speeds up past v = 3: the
    # sphere and frame-closure checks hold, central differences do not
    def components(v):
        v = np.asarray(v, dtype=float)
        phi = v + 0.5 * np.maximum(v - 3.0, 0.0) ** 2
        s, c, z = np.sin(phi), np.cos(phi), 0.0 * v
        return Jet3(c, -s, -c, s), Jet3(s, c, -s, -c), Jet3(z, z, z, z)

    domain = Interval(0, 2 * np.pi)
    vi = domain.sample(9)[1:-1]
    first = vi[vi > 3.0][0]
    with pytest.raises(InconsistentGeometry,
                       match=re.escape(f"differences at v={first}") + "$"):
        SphericalCurve(components=components, curvature=constant_fn(0.0),
                       domain=domain)


def test_curve_jet_check_scales_with_curvature():
    # kappa = 1 + v^2 reaches 40 on [0, 2 pi]: the central difference's
    # truncation error h^2 |l'''| / 6 then exceeds a fixed 1e-5 bound
    c = curve_from_curvature(poly_fn([1.0, 0.0, 1.0]), (0.0, 2 * np.pi),
                             h=2.5e-4)
    l3 = c.data(3.93).l[:3]
    assert abs(l3 @ l3 - 1.0) < 1e-10


def test_curve_with_d1_off_by_1e_3_is_refused():
    # the unit circle traversed at speed 1.001 with unit-speed jets: the
    # sphere and frame-closure checks hold, central differences do not
    def components(v):
        w = Jet3.variable(1.001 * np.asarray(v, dtype=float))
        return (w.cos(), w.sin(), Jet3(0.0 * w.f))

    with pytest.raises(InconsistentGeometry, match="finite differences"):
        SphericalCurve(components=components, curvature=constant_fn(0.0),
                       domain=Interval(0, 2 * np.pi))


def test_user_curve_with_consistent_jets_loads():
    def components(v):
        j = Jet3.variable(np.asarray(v, dtype=float))
        return (j.cos(), j.sin(), Jet3(0.0 * np.asarray(v, dtype=float)))

    c = SphericalCurve(components=components, curvature=constant_fn(0.0),
                       domain=Interval(0, 2 * np.pi))
    assert c.data(1.0).l[2] == 0.0


# ---------------------------------------------------------------- profiles
def test_flat_profile_constraint():
    p = make_flat(1.0, 2.0, 0.0)
    jets = p.jets(np.linspace(-1.5, 3.0, 9))
    assert np.allclose(jets.g.d1, np.sqrt(2.0))
    assert np.max(np.abs(jets.f.d1 ** 2 - jets.g.d1 ** 2 + 1)) < 1e-15


def test_normalization_checks_are_relative():
    # f' exceeds 1e4 on (-5, 5): f'^2 - g'^2 + 1 cancels to ~6e-8 in
    # absolute terms, while the relative deviation stays at rounding level
    spec = FamilySpec("CMC", {"a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0},
                      -5.0, 5.0, h=0.01)
    surface = build_surface(spec)
    assert surface.profile.stopped_reason is None
    fd = surface.profile.jets(np.array([-4.9, 4.9])).f.d1
    assert np.max(np.abs(fd)) > 1e3


@pytest.mark.parametrize("slope", [1.0, 1e3])
def test_profile_with_g_prime_off_is_rejected(slope):
    # g' too large by 1e-6 relative breaks f'^2 - g'^2 = -1 by ~2e-6 relative
    gd = np.sqrt(slope ** 2 + 1.0) * (1.0 + 1e-6)

    def f_eval(u):
        u = np.asarray(u, dtype=float)
        return Jet3(slope * u + 2.0, slope + 0.0 * u, 0.0 * u, 0.0 * u)

    def g_eval(u):
        u = np.asarray(u, dtype=float)
        return Jet3(gd * u, gd + 0.0 * u, 0.0 * u, 0.0 * u)

    with pytest.raises(NonpositiveProfile, match="relative deviation"):
        MeridianProfile(f_eval=f_eval, g_eval=g_eval,
                        domain=Interval(0.0, 1.0))


def test_profile_domain_enforced():
    p = make_minimal(0.0, 1.0)
    with pytest.raises(OutOfDomain):
        p.jets(1.5)


def test_minimal_profile_defining_equation():
    p = make_minimal(0.3, 2.0)
    u = np.linspace(0.3 - 0.9 * np.sqrt(2.09), 0.3 + 0.9 * np.sqrt(2.09), 20)
    j = p.jets(u)
    resid = 1.0 + j.f.d1 ** 2 + j.f.f * j.f.d2
    assert np.max(np.abs(resid)) < 1e-10


def test_profile_jets_match_finite_differences():
    p = make_minimal(0.0, 1.0)
    h, u = 1e-3, 0.4
    f = lambda x: p.jets(x).f.f
    j = p.jets(u).f
    fd1 = (f(u + h) - f(u - h)) / (2 * h)
    fd2 = (f(u + h) - 2 * f(u) + f(u - h)) / h ** 2
    assert abs(j.d1 - fd1) < 1e-6 and abs(j.d2 - fd2) < 1e-5


# ---------------------------------------------------------------- surface
@pytest.fixture(scope="module")
def flat_surface():
    return MeridianSurface(profile=make_flat(0.0, 1.0, 0.0),
                           directrix=great_circle())


@pytest.fixture(scope="module")
def minimal_surface():
    return MeridianSurface(profile=make_minimal(0.0, 1.0),
                           directrix=great_circle())


@pytest.fixture(scope="module")
def pnmc1_surface():
    return MeridianSurface(profile=make_pnmc1(0.0, 1.0),
                           directrix=latitude_circle(2.0))


def test_evaluate_flat_closed_form(flat_surface):
    jet = flat_surface.evaluate(0.0, 0.0)
    l0 = flat_surface.directrix.data(0.0).l
    assert np.allclose(jet.z.as_array(), l0)
    assert np.allclose(jet.z_v.as_array(),
                       flat_surface.directrix.data(0.0).t)


def test_evaluate_orthogonality_random_points(flat_surface, pnmc1_surface):
    rng = np.random.default_rng(7)
    for surf, urange in ((flat_surface, (-2, 2)), (pnmc1_surface, (-0.9, 0.9))):
        for _ in range(20):
            u = rng.uniform(*urange)
            v = rng.uniform(0, 2 * np.pi)
            jet = surf.evaluate(u, v)
            assert abs(minkowski_inner(jet.z_u, jet.z_v)) < 1e-12


def test_evaluate_minimal_second_derivative(minimal_surface):
    jet = minimal_surface.evaluate(0.0, 0.7)
    l = minimal_surface.directrix.data(0.7).l
    # f''(0) = -1 and g''(0) = 0, so z_uu = -l
    assert np.allclose(jet.z_uu.as_array(), -l, atol=1e-12)


def test_mixed_partials_symmetric_against_fd(minimal_surface):
    u, v, h = 0.3, 1.1, 1e-4
    jet = minimal_surface.evaluate(u, v)
    zu = lambda uu, vv: minimal_surface.evaluate(uu, vv).z_u.as_array()
    zv = lambda uu, vv: minimal_surface.evaluate(uu, vv).z_v.as_array()
    fd_uv_from_zu = (zu(u, v + h) - zu(u, v - h)) / (2 * h)
    fd_uv_from_zv = (zv(u + h, v) - zv(u - h, v)) / (2 * h)
    assert np.allclose(jet.z_uv.as_array(), fd_uv_from_zu, atol=1e-7)
    assert np.allclose(jet.z_uv.as_array(), fd_uv_from_zv, atol=1e-7)


def test_third_partials_against_fd(pnmc1_surface):
    u, v, h = 0.2, 0.9, 1e-3
    jet = pnmc1_surface.evaluate(u, v)
    zuu = lambda uu, vv: pnmc1_surface.evaluate(uu, vv).z_uu.as_array()
    zvv = lambda uu, vv: pnmc1_surface.evaluate(uu, vv).z_vv.as_array()
    assert np.allclose(jet.z_uuv.as_array(),
                       (zuu(u, v + h) - zuu(u, v - h)) / (2 * h), atol=1e-6)
    assert np.allclose(jet.z_vvv.as_array(),
                       (zvv(u, v + h) - zvv(u, v - h)) / (2 * h), atol=1e-6)
    assert np.allclose(jet.z_uvv.as_array(),
                       (zvv(u + h, v) - zvv(u - h, v)) / (2 * h), atol=1e-6)


def test_first_form_values(flat_surface, minimal_surface):
    E, F, G = flat_surface.first_form(0.5, 1.0)
    assert (E, F, G) == pytest.approx((-1.0, 0.0, 1.0), abs=1e-14)
    E, F, G = minimal_surface.first_form(0.5, 1.0)
    assert G == pytest.approx(0.75, abs=1e-14)
    assert F == pytest.approx(0.0, abs=1e-14)


def test_frame_gram(flat_surface, pnmc1_surface):
    for surf, u in ((flat_surface, 0.8), (pnmc1_surface, -0.5)):
        rep = verify_frame(surf.frame(u, 2.0).labeled(), FRAME_GRAM, tol=1e-9)
        assert rep.passed


def test_frame_flat_radial_normal(flat_surface):
    # a = 0: f' = 0, g' = 1, so N2 = l(v)
    fr = flat_surface.frame(0.3, 0.9)
    l = flat_surface.directrix.data(0.9).l
    assert np.allclose(fr.N2.as_array(), l, atol=1e-15)


def test_gauss_curvature_routes(flat_surface, minimal_surface):
    k = flat_surface.gauss_curvature(0.7, 0.2)
    assert abs(k.frame_route) < 1e-14 and k.profile_route == 0.0
    k = minimal_surface.gauss_curvature(0.5, 0.2)
    assert k.profile_route == pytest.approx(-16.0 / 9.0, rel=1e-12)
    assert k.frame_route == pytest.approx(-16.0 / 9.0, rel=1e-10)


def test_gauss_curvature_cosh_profile():
    from meridian4 import make_constant_K
    p = make_constant_K(1.0, 1.0, 0.0, Interval(-1.0, 1.0))
    s = MeridianSurface(profile=p, directrix=great_circle())
    k = s.gauss_curvature(np.linspace(-1, 1, 9)[:, None],
                          np.array([[0.3, 1.0]]))
    assert np.max(np.abs(k.frame_route - 1.0)) < 1e-9
    assert np.max(np.abs(k.profile_route - 1.0)) < 1e-12


def test_normal_curvature_vanishes(flat_surface, minimal_surface,
                                   pnmc1_surface):
    for surf, u in ((flat_surface, 1.2), (minimal_surface, 0.4),
                    (pnmc1_surface, -0.7)):
        assert abs(surf.normal_curvature(u, 0.8)) < 1e-12


def test_mean_curvature_examples(minimal_surface, pnmc1_surface):
    mc = minimal_surface.mean_curvature(0.5, 1.0)
    assert max(abs(mc.h1), abs(mc.h2), abs(mc.h1_jet), abs(mc.h2_jet)) < 1e-12

    mc = pnmc1_surface.mean_curvature(0.0, 1.0)
    assert (mc.h1, mc.h2) == pytest.approx((1.0, 0.0), abs=1e-14)

    cyl = MeridianSurface(profile=make_parallel_H2(2.0, 0.0),
                          directrix=latitude_circle(3.0))
    mc = cyl.mean_curvature(0.3, 0.4)
    assert (mc.h1, mc.h2) == pytest.approx((0.75, -0.25), abs=1e-14)
    assert (mc.h1_jet, mc.h2_jet) == pytest.approx((0.75, -0.25), abs=1e-12)


def test_mean_curvature_two_routes_agree(pnmc1_surface):
    U = np.linspace(-0.85, 0.85, 21)[:, None]
    V = np.linspace(0, 2 * np.pi, 17)[None, :]
    mc = pnmc1_surface.mean_curvature(U, V)
    assert np.max(np.abs(mc.h1 - mc.h1_jet)) < 1e-10
    assert np.max(np.abs(mc.h2 - mc.h2_jet)) < 1e-10


def test_normal_derivative_H_pnmc1(pnmc1_surface):
    (dx1, dx2), (dy1, dy2) = pnmc1_surface.normal_derivative_H(0.5, 0.3)
    fdot = -0.5 / np.sqrt(0.75)
    expected = -2.0 * fdot / (2 * 0.75)
    assert dx1 == pytest.approx(expected, rel=1e-12)
    assert abs(dx2) < 1e-12 and abs(dy1) < 1e-12 and abs(dy2) < 1e-12


def test_normal_derivative_H_vanishes_when_minimal(minimal_surface):
    (dx1, dx2), (dy1, dy2) = minimal_surface.normal_derivative_H(0.2, 0.5)
    assert max(abs(dx1), abs(dx2), abs(dy1), abs(dy2)) < 1e-12


def test_normal_derivative_H0_raises_at_minimal_points(minimal_surface):
    with pytest.raises(MinimalPoint):
        minimal_surface.normal_derivative_H0(0.2, 0.5)


def test_normal_derivative_H0_zero_for_parallel_H():
    # parallel H with constant ||H|| implies a parallel unit direction
    s = MeridianSurface(
        profile=make_parallel_H1(1.0, 0.0, float(np.cosh(0.1)),
                                 (0.0, 1.0), 1e-3),
        directrix=great_circle())
    (dx1, dx2), (dy1, dy2) = s.normal_derivative_H0(0.5, 0.7)
    assert max(abs(dx1), abs(dx2), abs(dy1), abs(dy2)) < 1e-8


def test_normal_derivative_H0_flat_with_varying_kappa():
    c = curve_from_curvature(sin_offset_fn(2.0), (-0.5, 2 * np.pi + 0.5),
                             h=1e-3)
    s = MeridianSurface(profile=make_flat(0.0, 1.0, 0.0), directrix=c)
    (dx1, dx2), (dy1, dy2) = s.normal_derivative_H0(0.3, 0.0)
    assert abs(dy1) > 0.01          # kappa'(0) = 1 forces a drift
    assert abs(dx1) < 1e-8 and abs(dx2) < 1e-8


def test_derivative_formula_table(pnmc1_surface):
    """Ambient derivatives of the frame match the closed-form table."""
    u, v = 0.35, 1.4
    surf = pnmc1_surface
    jet = surf.evaluate(u, v)
    fr = surf.frame(u, v)
    pj = surf.profile.jets(u)
    f, fd, fdd = pj.f.f, pj.f.d1, pj.f.d2
    gd, gdd = pj.g.d1, pj.g.d2
    kap = float(surf.directrix.curvature(v).f)
    kap_m = fd * gdd - gd * fdd

    X, Y, N1, N2 = (fr.X.as_array(), fr.Y.as_array(), fr.N1.as_array(),
                    fr.N2.as_array())
    assert np.allclose(jet.z_uu.as_array(), -kap_m * N2, atol=1e-12)
    assert np.allclose(jet.z_vv.as_array() / f ** 2,
                       (fd / f) * X + (kap / f) * N1 - (gd / f) * N2,
                       atol=1e-12)
    dN1_u, dN1_v = surf.normal_field_derivatives(u, v, (1.0, 0.0))
    assert np.allclose(dN1_u, 0.0)
    assert np.allclose(dN1_v, -kap * Y, atol=1e-12)
    dN2_u, dN2_v = surf.normal_field_derivatives(u, v, (0.0, 1.0))
    assert np.allclose(dN2_u, -kap_m * X, atol=1e-12)
    assert np.allclose(dN2_v, gd * Y, atol=1e-12)


def test_invariant_report_flat_zero_kappa(flat_surface):
    rep = flat_surface.invariant_report(0.7, 1.1)
    assert rep.K == pytest.approx(0.0, abs=1e-14)
    assert rep.K_perp == pytest.approx(0.0, abs=1e-14)
    assert rep.h1 == pytest.approx(0.0, abs=1e-14)   # great circle: kappa = 0


def test_invariant_report(pnmc1_surface):
    rep = pnmc1_surface.invariant_report(0.5, 0.3)
    assert rep.E == pytest.approx(-1.0, abs=1e-12)
    assert rep.F == pytest.approx(0.0, abs=1e-12)
    assert rep.G == pytest.approx(0.75, abs=1e-12)
    assert rep.K_minus_H2 < 0 and rep.epsilon == -1
    assert rep.H_norm_sq == pytest.approx(rep.h1 ** 2 + rep.h2 ** 2)
    assert rep.causal_z_u.value == "timelike"
    assert rep.causal_z_v.value == "spacelike"


def test_first_form_bounds_random_points(pnmc1_surface):
    rng = np.random.default_rng(11)
    U = rng.uniform(-0.9, 0.9, 100)[:, None]
    V = rng.uniform(0.0, 2 * np.pi, 100)[None, :1] * 0 + rng.uniform(
        0.0, 2 * np.pi, (100, 1))
    E, F, G = pnmc1_surface.first_form(U[:, 0], V[:, 0])
    f = pnmc1_surface.profile.jets(U[:, 0]).f.f
    assert np.max(np.abs(E + 1.0)) < 1e-10
    assert np.max(np.abs(F)) < 1e-10
    assert np.max(np.abs(G - f ** 2)) < 1e-10


def test_invariant_report_cosh_family():
    from meridian4 import make_constant_K
    p = make_constant_K(1.0, 1.0, 0.0, Interval(-1.0, 1.0))
    s = MeridianSurface(profile=p, directrix=latitude_circle(1.0))
    for u in (-0.8, 0.0, 0.6):
        rep = s.invariant_report(u, 0.5)
        assert rep.K == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.K_perp) < 1e-10


# ---------------------------------------------------------------- one evaluation
def test_invariant_report_evaluates_once(pnmc1_surface, monkeypatch):
    calls = []
    raw = MeridianSurface._raw

    def counted(self, u, v):
        calls.append((u, v))
        return raw(self, u, v)

    monkeypatch.setattr(MeridianSurface, "_raw", counted)
    pnmc1_surface.invariant_report(0.5, 0.3)
    assert calls == [(0.5, 0.3)]


def _bits(x):
    return np.float64(x).tobytes()


@settings(deadline=None, max_examples=60)
@given(tag=st.sampled_from(TAGS),
       s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_invariant_report_matches_methods_bitwise(tag, s, t):
    surface, _, grid = standard_instances()[tag]
    u = grid.u_min + s * (grid.u_max - grid.u_min)
    v = grid.v_min + t * (grid.v_max - grid.v_min)
    rep = surface.invariant_report(u, v)
    E, F, G = surface.first_form(u, v)
    mc = surface.mean_curvature(u, v)
    want = {"E": E, "F": F, "G": G,
            "K": surface.gauss_curvature(u, v).frame_route,
            "K_perp": surface.normal_curvature(u, v),
            "h1": mc.h1, "h2": mc.h2, "H_norm_sq": mc.h1 ** 2 + mc.h2 ** 2}
    for name, value in want.items():
        assert _bits(getattr(rep, name)) == _bits(value), name
    assert rep.causal_z_u is causal_character(surface.frame(u, v).X)
    assert rep.causal_z_v is causal_character(surface.evaluate(u, v).z_v)


# ---------------------------------------------------------------- batches
def _records(tag, surface):
    """(evaluation, target Gram or None) pairs that take (u, v) batches."""
    out = [(surface.evaluate, None), (surface.frame, FRAME_GRAM)]
    if tag != "Minimal":     # the lightlike frame needs H != 0
        out.append((lambda u, v: isotropic_frame(surface, u, v),
                    ISOTROPIC_GRAM))
    return out


def _vec_arrays(record):
    return [vec.as_array() for vec in record]


@settings(deadline=None, max_examples=40)
@given(tag=st.sampled_from(TAGS),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=6))
def test_batch_records_match_per_point_calls(tag, points):
    surface, _, grid = standard_instances()[tag]
    s, t = np.array(points).T
    us = grid.u_min + s * (grid.u_max - grid.u_min)
    vs = grid.v_min + t * (grid.v_max - grid.v_min)
    for evaluate, gram in _records(tag, surface):
        batch = evaluate(us, vs)
        fields = _vec_arrays(batch)
        for i, (u, v) in enumerate(zip(us, vs)):
            # vectorized sin/cos may round differently from scalar calls
            for got, want in zip(fields, _vec_arrays(evaluate(u, v))):
                assert got.shape == (len(us), 4)
                assert np.all(np.abs(got[i] - want)
                              <= 1e-14 * (1.0 + np.abs(want)))
        if gram is None:
            continue
        labeled = batch.labeled()
        per_point = [
            verify_frame([(name, Vec4M.from_array(vec.as_array()[i]))
                          for name, vec in labeled], gram).max_deviation
            for i in range(len(us))]
        assert verify_frame(labeled, gram).max_deviation == max(per_point)


@settings(deadline=None, max_examples=40)
@given(tag=st.sampled_from(TAGS),
       points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       others=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_g_depends_on_its_point_alone(tag, points, others):
    # one batch, one point at a time in reverse, and the batch again after
    # unrelated queries: the same g, bit for bit
    _, spec, grid = standard_instances()[tag]
    span = grid.u_max - grid.u_min
    us = grid.u_min + np.array(points) * span
    batch, single = build_profile(spec), build_profile(spec)
    g = batch.g_eval(us).f
    reverse = [single.g_eval(u).f for u in us[::-1]][::-1]
    assert np.array_equal(g, reverse)
    batch.g_eval(grid.u_min + np.array(others) * span)
    single.g_eval(grid.u_min + np.array(others[::-1]) * span)
    assert np.array_equal(batch.g_eval(us).f, g)
    assert np.array_equal(single.g_eval(us).f, g)


# -------------------------------------------------- memoized point sets
_LAYOUT = st.sampled_from(["scalar", "row", "column"])
_QUERY = st.tuples(_LAYOUT, st.lists(st.floats(0.0, 1.0), min_size=1,
                                     max_size=6))


def _point_set(query, lo, hi):
    """A query of [0, 1] moved onto [lo, hi]: a float, a row or a column."""
    layout, xs = query
    points = lo + np.array(xs) * (hi - lo)
    return {"scalar": float(points[0]), "row": points,
            "column": points[:, None]}[layout]


def _arrays(result):
    """Every value a ProfileJets or CurveData holds, in field order."""
    for item in result:
        yield from item.derivatives() if isinstance(item, Jet3) else (item,)


def _assert_same_bits(got, want):
    for a, b in zip(_arrays(got), _arrays(want), strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def _assert_read_only(result):
    arrays = [a for a in _arrays(result) if isinstance(a, np.ndarray)]
    assert not any(a.flags.writeable for a in arrays)


@settings(deadline=None, max_examples=40)
@given(tag=st.sampled_from(TAGS), earlier=st.lists(_QUERY, max_size=5),
       query=_QUERY)
def test_memoized_jets_and_curve_data_are_fresh_ones(tag, earlier, query):
    # the standard instances are shared with every other test, so their
    # memos hold whatever was queried before; a fresh profile (rebuilt
    # from its spec) and a fresh directrix (a copy with an empty memo)
    # must give the same bits, and the memos stay bounded
    surface, spec, grid = standard_instances()[tag]
    profile, curve = surface.profile, surface.directrix
    u_range, v_range = (grid.u_min, grid.u_max), (grid.v_min, grid.v_max)
    for q in earlier:
        profile.jets(_point_set(q, *u_range))
        curve.data(_point_set(q, *v_range))
    u, v = _point_set(query, *u_range), _point_set(query, *v_range)
    jets, data = profile.jets(u), curve.data(v)
    assert profile.jets(np.copy(u)) is jets and curve.data(np.copy(v)) is data
    _assert_same_bits(jets, build_profile(spec).jets(u))
    _assert_same_bits(data, dataclasses.replace(curve).data(v))
    _assert_read_only(jets)
    _assert_read_only(data)
    for point_set in (u, v):
        assert np.ndim(point_set) == 0 or point_set.flags.writeable
    assert len(profile._memo.entries) <= MEMO_SIZE
    assert len(curve._memo.entries) <= MEMO_SIZE


@settings(deadline=None, max_examples=30)
@given(tag=st.sampled_from(TAGS), earlier=st.lists(_QUERY, max_size=3),
       query=_QUERY, outside=st.sampled_from(["below", "above", "nan"]))
def test_refused_query_is_not_memoized(tag, earlier, query, outside):
    surface, _, grid = standard_instances()[tag]
    profile, curve = surface.profile, surface.directrix
    for q in earlier:
        profile.jets(_point_set(q, grid.u_min, grid.u_max))
    # past a domain's end, or infinite where the domain has none; the
    # directrices take every finite v, so only NaN is refused there
    domain = profile.domain
    bad = {"below": domain.lo - 1.0, "above": domain.hi + 1.0,
           "nan": np.nan}[outside]
    layout, xs = query
    points = np.append(_point_set(("row", xs), grid.u_min, grid.u_max), bad)
    u = {"scalar": bad, "row": points, "column": points[:, None]}[layout]
    before = profile._memo.entries
    with pytest.raises(OutOfDomain):
        profile.jets(u)
    with pytest.raises(OutOfDomain):
        profile.jets(u)
    assert profile._memo.entries is before
    before = curve._memo.entries
    with pytest.raises(OutOfDomain):
        curve.data(np.nan)
    assert curve._memo.entries is before


def test_memo_keeps_no_view_of_the_callers_array():
    # f = u: Jet3.variable hands its input back, so f's value is the
    # point set itself; g = sqrt(2) u keeps f'^2 - g'^2 = -1
    profile = MeridianProfile(
        f_eval=Jet3.variable,
        g_eval=lambda u: Jet3.variable(u) * np.sqrt(2.0),
        domain=Interval(0.5, 2.0, closed=True))
    u = np.linspace(0.5, 2.0, 7)
    jets = profile.jets(u)
    assert u.flags.writeable and not jets.f.f.flags.writeable
    with pytest.raises(ValueError):
        jets.f.f[0] = 1.0
    u[0] = 1.0              # the caller's later write reaches no stored result
    assert jets.f.f[0] == 0.5
    assert profile.jets(np.linspace(0.5, 2.0, 7)) is jets
    assert profile.jets(u).f.f[0] == 1.0


def test_memo_shared_between_threads_gives_fresh_results():
    # more threads than cores, switching often, on overlapping point sets
    surface, spec, grid = standard_instances()["CMC"]
    profile = build_profile(spec)
    queries = [np.linspace(grid.u_min, grid.u_max, n) for n in (3, 4, 5)]
    want = [build_profile(spec).jets(u) for u in queries]
    bad = []

    def work(k):
        try:
            for i in range(60):
                j = (i + k) % len(queries)
                got = profile.jets(queries[j]).f.f
                if got.tobytes() != want[j].f.f.tobytes():
                    bad.append((k, i))
        except Exception as exc:    # a race that raises fails the test too
            bad.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad and len(profile._memo.entries) <= MEMO_SIZE


_SHAPES = st.sampled_from([(6,), (6, 1), (1, 6), (2, 3), (3, 2), (3, 1, 2)])


@settings(deadline=None, max_examples=40)
@given(tag=st.sampled_from(TAGS),
       xs=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       shapes=st.lists(_SHAPES, min_size=1, max_size=6))
def test_memo_hit_in_another_shape_is_a_fresh_evaluation(tag, xs, shapes):
    # one evaluation per point set, whatever the shape: a query of the
    # same values in another shape gets the stored arrays reshaped, bit
    # for bit what an unmemoized evaluation in that shape gives
    surface, spec, grid = standard_instances()[tag]
    profile = build_profile(spec)
    curve = dataclasses.replace(surface.directrix)
    computed = []

    def counted(compute):
        return lambda x: computed.append(x.shape) or compute(x)

    u = grid.u_min + np.array(xs) * (grid.u_max - grid.u_min)
    v = grid.v_min + np.array(xs) * (grid.v_max - grid.v_min)
    for shape in shapes:
        jets = profile._memo(counted(profile._jets), u.reshape(shape))
        data = curve._memo(counted(curve._data), v.reshape(shape))
        _assert_same_bits(jets, profile._jets(u.reshape(shape)))
        _assert_same_bits(data, curve._data(v.reshape(shape)))
        _assert_read_only(jets)
        _assert_read_only(data)
        assert profile.jets(u.reshape(shape)) is jets
        assert curve.data(v.reshape(shape)) is data
    assert computed == [(6,), (6,)]
    assert len(profile._memo.entries) == len(curve._memo.entries) == 1


def test_scalar_query_keeps_its_own_memo_entry():
    # a 0-d query gets floats back, a one-point array gets arrays
    profile = build_profile(standard_instances()["CMC"][1])
    results = [profile.jets(x) for x in (0.25, [0.25], [[0.25]], 0.25)]
    assert np.ndim(results[0].f.f) == 0 and results[3] is results[0]
    assert [np.shape(r.g.d1) for r in results[1:3]] == [(1,), (1, 1)]
    assert len(profile._memo.entries) == 2
    assert results[1].f.f.tobytes() == np.float64(results[0].f.f).tobytes()


@settings(deadline=None, max_examples=20)
@given(kappa=st.integers(-4, 4))
def test_latitude_circles_are_shared(kappa):
    circle = latitude_circle(kappa)
    assert latitude_circle(float(kappa)) is circle
    assert circle.name == f"latitude(kappa={float(kappa)})"
    assert great_circle() is great_circle()
    assert latitude_circle(kappa, name="c") is not circle
    assert geometry._latitude_circle.cache_info().currsize <= CIRCLE_CACHE_SIZE


def test_latitude_circle_cache_keeps_what_equality_merges_apart():
    # -0.0 == 0.0, but the sign of kappa reaches h1 = kappa / (2 f)
    assert latitude_circle(-0.0) is not latitude_circle(0.0)
    assert latitude_circle(-0.0).name == "latitude(kappa=-0.0)"
    assert latitude_circle(1.0, Interval(0, 9)) is not latitude_circle(
        1.0, Interval(0.0, 9.0))


def test_latitude_circle_cache_is_bounded():
    first = latitude_circle(0.125)
    for k in range(CIRCLE_CACHE_SIZE):
        latitude_circle(10.0 + k)
    assert geometry._latitude_circle.cache_info().currsize == CIRCLE_CACHE_SIZE
    assert latitude_circle(0.125) is not first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_latitude_circle_that_raises_is_not_kept():
    before = geometry._latitude_circle.cache_info().currsize
    for _ in range(3):
        with pytest.raises(InconsistentGeometry):
            latitude_circle(np.nan)
    assert geometry._latitude_circle.cache_info().currsize == before


def test_memo_is_not_part_of_the_records_value():
    profile = standard_instances()["PNMC1"][0].profile
    curve = latitude_circle(1.0)
    profile.jets(0.1)
    curve.data(0.1)
    for record in (profile, curve):
        copy = dataclasses.replace(record)
        assert copy == record and hash(copy) == hash(record)
        assert "_memo" not in repr(record)
        assert not copy._memo.entries and record._memo.entries


# ------------------------------------------- factored against ambient route
def _ambient_invariants(s):
    """Each invariant by its formula, with minkowski_inner applied to the
    materialized (..., 4) arrays of the sample; with the size of the terms
    that K's value cancels from."""
    ip = minkowski_inner
    f = np.asarray(s.f.f)
    E, F, G = ip(s.z_u, s.z_u), ip(s.z_u, s.z_v), ip(s.z_v, s.z_v)

    def normal_part(w):
        return ip(w, s.N1)[..., None] * s.N1 + ip(w, s.N2)[..., None] * s.N2

    s_xx = normal_part(s.z_uu)
    s_xy = normal_part(s.z_uv / f[..., None])
    s_yy = normal_part(s.z_vv / (f ** 2)[..., None])
    terms = ip(s_xx, s_yy), ip(s_xy, s_xy)
    den = ip(s.X, s.X) * ip(s.Y, s.Y) - ip(s.X, s.Y) ** 2
    du_bv = ip(s.dN1_u, s.N2) + ip(s.dN1_v, s.dN2_u)
    dv_bu = ip(s.dN1_u, s.N2) + ip(s.dN1_u, s.dN2_v)
    det = E * G - F ** 2
    h_jet = [(G * ip(s.z_uu, N) - 2.0 * F * ip(s.z_uv, N)
              + E * ip(s.z_vv, N)) / (2.0 * det) for N in (s.N1, s.N2)]
    want = {"E": E, "F": F, "G": G, "K": (terms[0] - terms[1]) / den,
            "K_perp": -(du_bv - dv_bu) / f, "h1_jet": h_jet[0],
            "h2_jet": h_jet[1], "b_u": ip(s.dN1_u, s.N2),
            "b_v": ip(s.dN1_v, s.N2)}
    return want, (np.abs(terms[0]) + np.abs(terms[1])) / np.abs(den)


def _factored_invariants(s):
    E, F, G = s.first_form()
    mc = s.mean_curvature()
    b_u, b_v = s._connection()
    return {"E": E, "F": F, "G": G, "K": s.gauss_curvature().frame_route,
            "K_perp": s.normal_curvature(), "h1_jet": mc.h1_jet,
            "h2_jet": mc.h2_jet, "b_u": b_u, "b_v": b_v}


_POINTS = st.floats(0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(["CMC/2+sin", "PNMC1/2+sin", *TAGS])),
       layout=st.sampled_from(["scattered", "point", "grid"]),
       s=st.lists(_POINTS, min_size=1, max_size=5),
       t=st.lists(_POINTS, min_size=1, max_size=5))
def test_factored_invariants_match_ambient_route(route_points, name, layout,
                                                s, t):
    surface, u, v = route_points(name, layout, s, t)
    sample = surface._raw(u, v)
    got = _factored_invariants(sample)
    want, k_terms = _ambient_invariants(sample)
    for key, ref in want.items():
        scale = 1.0 + np.abs(ref) + (k_terms if key == "K" else 0.0)
        gap = np.abs(got[key] - ref)
        assert np.shape(gap) == np.broadcast_shapes(np.shape(u), np.shape(v))
        assert np.all(gap <= 1e-12 * scale), (key, np.max(gap / scale))
