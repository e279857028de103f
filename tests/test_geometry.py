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
    sin_offset_fn,
    verify_frame,
)
from meridian4.acceptance import standard_instances
from meridian4.errors import (InconsistentGeometry, MeridianError, MinimalPoint,
                              NonpositiveProfile, OutOfDomain)
from meridian4.families import TAGS
from meridian4.geometry import MeridianProfile
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
    with pytest.raises(OutOfDomain):
        curve.data(3.0)
    with pytest.raises(OutOfDomain):
        curve.data(np.array([0.5, -0.2]))


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
    return [vec.as_array() for vec in vars(record).values()]


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
            # vectorized sin/cos and the g memo may round differently
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
