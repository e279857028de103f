import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    Interval,
    Jet3,
    SmoothFn1,
    fd_check,
    integrate_profile,
    jet_fn,
    quadrature,
)
from meridian4.diffkit import (
    MAX_STEPS,
    CumulativeQuadrature,
    expr_fn,
    log,
    sin,
    sqrt,
    step_count,
)
from meridian4.errors import (
    IntervalOutsideDomain,
    InvalidInitialState,
    OutOfDomain,
    StepSizeNonpositive,
    ToleranceNotReached,
    TooManySteps,
)


# ---------------------------------------------------------------- Jet3
def test_jet_product_rule_against_closed_form():
    # (u^2 sin u)''' = 6 cos u - 6 u sin u - u^2 cos u + ... computed jointly
    u = 0.7
    j = Jet3.variable(u)
    prod = j * j * j.sin()
    s, c = np.sin(u), np.cos(u)
    assert prod.f == pytest.approx(u * u * s)
    assert prod.d1 == pytest.approx(2 * u * s + u * u * c)
    assert prod.d2 == pytest.approx(2 * s + 4 * u * c - u * u * s)
    assert prod.d3 == pytest.approx(6 * c - 6 * u * s - u * u * c)


def test_jet_chain_rule_against_finite_differences():
    expr = lambda j: ((j * j + 1.0).sqrt() * j.sin()).exp()
    fn = jet_fn(expr, Interval(-3, 3))
    assert fd_check(fn, 0.4, 1e-3) < 1e-5
    assert fd_check(fn, -1.2, 1e-3) < 1e-5


def test_jet_division_and_log():
    u = 1.3
    j = Jet3.variable(u)
    expr = (1.0 / j).log()      # log(1/u) = -log u
    assert expr.f == pytest.approx(-np.log(u))
    assert expr.d1 == pytest.approx(-1 / u)
    assert expr.d2 == pytest.approx(1 / u ** 2)
    assert expr.d3 == pytest.approx(-2 / u ** 3)


def test_jet_arrays_broadcast():
    u = np.linspace(0.1, 1.0, 7)
    j = Jet3.variable(u)
    out = (2.0 * j).cosh()
    assert out.f.shape == (7,)
    assert np.allclose(out.d1, 2 * np.sinh(2 * u))


def test_jet_integer_power():
    j = Jet3.variable(0.5)
    assert (j ** 4).d3 == pytest.approx(24 * 0.5)
    with pytest.raises(ValueError):
        j ** -1


def test_dual_arithmetic():
    # a first-order jet (d2 = d3 = 0) carries an exact first derivative
    d = Jet3(2.0, 1.0)
    q = (d * d + 1.0).sqrt() / d
    # q = sqrt(u^2+1)/u, q' = -1/(u^2 sqrt(u^2+1)) at u=2
    assert q.f == pytest.approx(np.sqrt(5) / 2)
    assert q.d1 == pytest.approx(-1 / (4 * np.sqrt(5)))


# ---------------------------------------------------------------- Interval
def test_interval_is_open_unless_closed():
    opened, closed = Interval(0.0, 1.0), Interval(0.0, 1.0, closed=True)
    assert not opened.contains(0.0) and not opened.contains(1.0)
    assert opened.contains(np.array([1e-300, 0.5, 1.0 - 1e-16]))
    assert closed.contains(np.array([0.0, 0.5, 1.0]))
    for u in (1.0 + 1e-15, -5e-324, np.nan):
        assert not closed.contains(u)
    assert (str(opened), str(closed)) == ("(0.0, 1.0)", "[0.0, 1.0]")
    # a float takes a scalar path; it answers as the array path does
    inf = float("inf")
    points = (0.0, 1.0, 0.5, -0.0, 1.0 + 1e-16, -1e-300, inf, -inf,
              float("nan"))
    for lo, hi in ((0.0, 1.0), (0.0, inf), (-inf, inf)):
        for closed in (False, True):
            iv = Interval(lo, hi, closed)
            for u in points:
                want = iv.contains(np.array([u]))
                for scalar in (u, np.float64(u)):
                    got = iv.contains(scalar)
                    assert type(got) is bool and got == want, (iv, scalar)


_END = st.one_of(st.floats(-2.0, 2.0),
                 st.sampled_from([0.0, -0.0, 1.0, -np.inf, np.inf]))


@settings(max_examples=300)
@given(lo=_END, hi=_END, closed=st.booleans(),
       u=st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
           [0.0, -0.0, 1.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])),
       nudge=st.sampled_from([None, "lo", "hi"]))
def test_open_ends_test_finite_membership(lo, hi, closed, u, nudge):
    # the RK4 march checks each stage with one chained comparison
    iv = Interval(lo, hi, closed)
    if nudge:           # one ulp either side of an end is the hard case
        end = lo if nudge == "lo" else hi
        u = np.nextafter(end, u) if np.isfinite(end) else u
    a, b = iv.open_ends()
    assert (a < u < b) == (np.isfinite(u) and iv.contains(float(u)))


@pytest.mark.parametrize("closed, u, bad", [
    (False, np.array([[0.5, 0.7], [1.0, 2.0]]), "1.0"),
    (True, np.array([0.0, 1.0, 1.5, -3.0]), "1.5"),
    (True, np.array([0.5, np.nan, 2.0]), "nan"),
    (False, 0.0, "0.0"),
])
def test_require_names_the_first_value_outside(closed, u, bad):
    iv = Interval(0.0, 1.0, closed)
    with pytest.raises(OutOfDomain) as err:
        iv.require(u, "u", "test domain")
    assert str(err.value) == f"u={bad} outside test domain {iv}"
    iv.require(np.array([0.25, 0.5]), "u", "test domain")

# ---------------------------------------------------------------- SmoothFn1
def test_smoothfn_domain_is_enforced():
    fn = jet_fn(lambda j: j.sqrt(), Interval(0.0, 4.0))
    with pytest.raises(OutOfDomain):
        fn(5.0)
    assert fn(1.0).f == pytest.approx(1.0)


def test_expr_fn_values_are_the_jets_f_and_build_no_jet():
    seen = []

    def expr(t):
        seen.append(type(t))
        return 2.0 + sin(t) * sqrt(t * t + 1.0) * (1.0 / t)

    fn = expr_fn(expr, Interval(0.0, 10.0))
    u = np.linspace(0.1, 9.9, 57)
    assert np.array_equal(fn.value(u), fn(u).f)
    assert all(fn.value(x) == fn(x).f for x in u[::7])
    seen.clear()
    fn.value(0.5), fn.value(u), fn.eval_value(np.float64(0.5))
    assert Jet3 not in seen
    with pytest.raises(OutOfDomain):
        fn.value(np.array([0.5, 10.0]))
    # the jets are those of the Jet3-only spelling, bit for bit
    twin = jet_fn(lambda j: 2.0 + j.sin() * (j * j + 1.0).sqrt() / j,
                  Interval(0.0, 10.0))
    for a, b in zip(fn(u).derivatives(), twin(u).derivatives()):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- fd_check
def test_fd_check_sin():
    fn = jet_fn(lambda j: j.sin(), Interval(-10, 10))
    # h = 1e-3 keeps the 3rd-order stencil above the float64 noise floor
    assert fd_check(fn, 0.3, 1e-3) <= 1e-6


def test_fd_check_constant_and_quadratic_are_exact():
    const = jet_fn(lambda j: j * 0.0 + 3.0, Interval(-10, 10))
    assert fd_check(const, 0.0, 1e-4) <= 1e-12
    quad = jet_fn(lambda j: j * j, Interval(-10, 10))
    # cubic-exact stencil: all three orders match to rounding
    assert fd_check(quad, 1.5, 1e-4) <= 1e-7


def test_fd_check_domain_guard():
    fn = jet_fn(lambda j: j.sin(), Interval(0.0, 1.0))
    with pytest.raises(OutOfDomain):
        fd_check(fn, 0.9999, 1e-3)


# ---------------------------------------------------------------- quadrature
def test_quadrature_unit():
    one = jet_fn(lambda j: j * 0.0 + 1.0, Interval(-10, 10))
    assert quadrature(one, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_cubic_exact():
    cubic = jet_fn(lambda j: j ** 3, Interval(-10, 10))
    assert quadrature(cubic, 0.0, 1.0, 1e-12) == pytest.approx(0.25, abs=5e-15)


def test_quadrature_arcsin_half():
    fn = jet_fn(lambda j: (1.0 - j * j).sqrt().reciprocal(),
                Interval(-0.999, 0.999))
    assert quadrature(fn, 0.0, 0.5, 1e-12) == pytest.approx(np.pi / 6,
                                                            abs=1e-11)


def test_quadrature_orientation_and_empty():
    cubic = jet_fn(lambda j: j ** 3, Interval(-10, 10))
    assert quadrature(cubic, 1.0, 0.0, 1e-12) == pytest.approx(-0.25)
    assert quadrature(cubic, 0.3, 0.3) == 0.0
    # one batch may mix both, and an empty batch gives an empty array
    got = quadrature(cubic, [0.0, 1.0, 0.3, 2.0], [1.0, 0.0, 0.3, 2.0], 1e-12)
    assert got == pytest.approx([0.25, -0.25, 0.0, 0.0], abs=5e-15)
    assert np.array_equal(quadrature(cubic, [], []), np.zeros(0))


def test_quadrature_domain_error():
    fn = jet_fn(lambda j: j, Interval(0.0, 1.0))
    with pytest.raises(IntervalOutsideDomain):
        quadrature(fn, -0.5, 0.5)
    # a batch names its first bad interval; empty ones are not evaluated
    with pytest.raises(IntervalOutsideDomain, match=r"\[0.5, 1.25\]"):
        quadrature(fn, [0.1, 1.25, -3.0], [0.2, 0.5, 0.5])
    assert np.array_equal(quadrature(fn, [0.2, 5.0], [0.2, 5.0]), [0.0, 0.0])
    with pytest.raises(IntervalOutsideDomain):
        quadrature(fn, [0.1, np.nan], [0.2, 0.5])


def test_quadrature_depth_cap():
    kink = SmoothFn1(
        lambda u: Jet3(np.sqrt(np.abs(np.asarray(u, dtype=float) - 1 / 3))),
        Interval(-1, 2))
    with pytest.raises(ToleranceNotReached):
        quadrature(kink, 0.0, 1.0, tol=1e-16, max_depth=8)
    with pytest.raises(ToleranceNotReached, match="depth 8"):
        quadrature(kink, [1.0, 0.0, 1.5], [1.5, 1.0, 1.6], tol=1e-16,
                   max_depth=8)


@given(st.tuples(*[st.floats(min_value=-3, max_value=3)] * 4),
       st.floats(min_value=-2, max_value=0.5),
       st.floats(min_value=0.6, max_value=2.5))
@settings(max_examples=25, deadline=None)
def test_quadrature_exact_on_cubics(coeffs, a, b):
    c0, c1, c2, c3 = coeffs
    fn = jet_fn(lambda j: c0 + c1 * j + c2 * j * j + c3 * j ** 3,
                Interval(-10, 10))
    exact = (c0 * (b - a) + c1 * (b * b - a * a) / 2
             + c2 * (b ** 3 - a ** 3) / 3 + c3 * (b ** 4 - a ** 4) / 4)
    assert quadrature(fn, a, b, 1e-12) == pytest.approx(exact, abs=1e-12,
                                                        rel=1e-12)


def test_quadrature_batch_matches_scalar_calls():
    fn = jet_fn(lambda j: (j * 1.3).sin() * j.exp(), Interval(-10, 10))
    a = np.array([[-2.0, 0.1, 3.0], [0.0, -0.5, 1.0]])
    b = np.array([[1.0, 0.2, 3.5], [4.0, 2.5, -1.0]])
    got = quadrature(fn, a, b, 1e-10)
    assert got.shape == a.shape
    want = [quadrature(fn, x, y, 1e-10) for x, y in zip(a.ravel(), b.ravel())]
    assert np.max(np.abs(got.ravel() - want)) <= 1e-10
    # scalars broadcast against arrays, and two scalars give a float
    row = quadrature(fn, 0.0, b[0], 1e-10)
    assert row.shape == (3,)
    assert isinstance(quadrature(fn, 0.0, 1.0), float)


@given(st.tuples(*[st.floats(min_value=-3, max_value=3)] * 4),
       st.lists(st.tuples(st.floats(min_value=-2, max_value=2.5),
                          st.floats(min_value=-2, max_value=2.5)),
                min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_quadrature_batch_exact_on_cubics(coeffs, ends):
    c0, c1, c2, c3 = coeffs
    fn = jet_fn(lambda j: c0 + c1 * j + c2 * j * j + c3 * j ** 3,
                Interval(-10, 10))
    a, b = np.array(ends).T

    def antiderivative(x):
        return c0 * x + c1 * x ** 2 / 2 + c2 * x ** 3 / 3 + c3 * x ** 4 / 4

    exact = antiderivative(b) - antiderivative(a)
    got = quadrature(fn, a, b, 1e-12)
    assert np.all(np.abs(got - exact) <= 1e-12 * (1 + np.abs(exact)))


def test_cumulative_quadrature_values_are_the_pointwise_calls():
    fn = jet_fn(lambda j: j.cos(), Interval(-10, 10))
    # -9.99 lies below the first panel edge, in the sample window's pad
    u = np.array([[0.3, -1.0], [2.0, 0.3], [-2.5, 1.1], [-9.99, 9.99]])
    assert -9.99 < fn.domain.sample(2)[0]
    cq = CumulativeQuadrature(fn, 0.0)
    cq(np.array([0.7, -0.2]))               # earlier queries on both sides
    got = cq(u)
    assert got.shape == u.shape
    fresh = CumulativeQuadrature(fn, 0.0)
    pointwise = np.array([fresh(x) for x in u.ravel()]).reshape(u.shape)
    bound = 1e-12 * (1 + np.abs(got))
    assert np.all(np.abs(got - pointwise) <= bound)
    assert np.all(np.abs(got - np.sin(u)) <= bound)
    # a fresh instance and a used one agree, bit for bit
    assert np.array_equal(CumulativeQuadrature(fn, 0.0)(u), got)
    scalar = cq(0.3)
    assert isinstance(scalar, float) and scalar == got[0, 0]
    assert cq(0.0) == 0.0


# ---------------------------------------------------------------- RK4
def cosh_phi():
    return jet_fn(lambda t: (t * t - 1.0).sqrt(), Interval(1.0, 1e9))


def test_rk4_constant_solution():
    zero = jet_fn(lambda t: t * 0.0, Interval(-10, 10))
    sol = integrate_profile(zero, 2.0, (0.0, 1.0), 1e-2)
    assert np.all(sol.values == 2.0)
    assert sol.stopped_reason is None


def test_rk4_exponential():
    ident = jet_fn(lambda t: t, Interval(0.0, 1e9))
    sol = integrate_profile(ident, 1.0, (0.0, 1.0), 1e-3)
    assert abs(sol.value_at(1.0) - np.e) < 1e-9


def test_rk4_cosh_oracle():
    sol = integrate_profile(cosh_phi(), float(np.cosh(0.1)), (0.0, 1.0), 1e-3)
    u = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(sol.value_at(u) - np.cosh(u + 0.1))) < 1e-8


def test_rk4_fourth_order_convergence():
    f0, exact = float(np.cosh(0.1)), float(np.cosh(1.1))
    e = {h: abs(integrate_profile(cosh_phi(), f0, (0.0, 1.0), h).value_at(1.0)
                - exact) for h in (1e-3, 5e-4)}
    assert e[1e-3] / e[5e-4] >= 8.0


def test_ode_jets_are_equation_derived():
    phi = cosh_phi()
    sol = integrate_profile(phi, float(np.cosh(0.1)), (0.0, 1.0), 1e-2)
    jets = sol.jet_at(sol.node_us())
    p = phi(sol.values)
    # definitions, so recomputation is bit-stable at every node
    assert np.all(jets.f == sol.values)
    assert np.all(jets.d1 == p.f)
    assert np.all(jets.d2 == p.d1 * p.f)
    assert np.all(jets.d3 == (p.d2 * p.f + p.d1 ** 2) * p.f)


def test_ode_dense_output_between_nodes():
    # off-node evaluation carries the node's global error, not fresh noise
    sol = integrate_profile(cosh_phi(), float(np.cosh(0.1)), (0.0, 1.0), 1e-3)
    u = 0.553713
    assert abs(sol.value_at(u) - np.cosh(u + 0.1)) < 1e-9


def test_ode_early_stop_is_recorded():
    down = jet_fn(lambda t: t * 0.0 - 1.0, Interval(0.0, 10.0))
    sol = integrate_profile(down, 0.5, (0.0, 1.0), 1e-2)
    assert sol.stopped_reason is not None
    assert sol.u_end < 1.0
    assert sol.values[-1] > 0.0
    # the realized range ends at the last node
    assert sol.domain == Interval(0.0, sol.u_end, closed=True)
    assert sol.value_at(sol.u_end) == sol.values[-1]
    with pytest.raises(OutOfDomain):
        sol.value_at(sol.u_end + 1e-3)


def test_ode_dense_output_covers_exactly_its_closed_range():
    sol = integrate_profile(cosh_phi(), float(np.cosh(0.1)), (0.0, 1.0), 1e-3)
    assert sol.domain == Interval(0.0, 1.0, closed=True)
    assert sol.value_at(0.0) == sol.values[0]
    assert sol.value_at(1.0) == sol.values[-1]
    for u in (1.0 + 5e-10, -5e-10, np.array([0.5, 1.0 + 5e-10])):
        with pytest.raises(OutOfDomain):
            sol.value_at(u)


def test_ode_range_reaches_the_requested_end_between_nodes():
    # 1.0004 / 1e-3 rounds to 1000 steps; the last 0.4 h is dense output
    sol = integrate_profile(cosh_phi(), float(np.cosh(0.1)), (0.0, 1.0004),
                            1e-3)
    assert len(sol.values) == 1001
    assert sol.domain == Interval(0.0, 1.0004, closed=True)
    assert abs(sol.value_at(1.0004) - np.cosh(1.1004)) < 1e-9


def test_ode_counts_phi_evaluations():
    sol = integrate_profile(cosh_phi(), float(np.cosh(0.1)), (0.0, 1.0), 1e-2)
    assert sol.stopped_reason is None
    assert (sol.steps, sol.phi_evals) == (100, 4 * 100 + 1)
    # f' = -1 from f = 1 with h = 0.3: nodes 1, 0.7, 0.4, 0.1; the next
    # step evaluates its first stage, and its second (0.1 - 0.15) leaves
    # the domain before phi is evaluated there
    down = jet_fn(lambda t: t * 0.0 - 1.0, Interval(0.0, 10.0))
    sol = integrate_profile(down, 1.0, (0.0, 3.0), 0.3)
    assert sol.stopped_reason == "stage left phi domain at u=0.9"
    assert (sol.steps, sol.phi_evals) == (3, 1 + 4 * 3 + 1)


def test_jet_only_phi_integrates_like_its_float_expression():
    f0 = float(np.cosh(0.1))
    floats = expr_fn(lambda t: sqrt(t * t - 1.0), Interval(1.0, 1e9))
    a = integrate_profile(cosh_phi(), f0, (0.0, 1.0), 1e-3)
    b = integrate_profile(floats, f0, (0.0, 1.0), 1e-3)
    assert np.array_equal(a.values, b.values)
    assert a.phi_evals == b.phi_evals == 4001
    u = np.linspace(0.0, 1.0, 37)
    for x, y in zip(a.jet_at(u).derivatives(), b.jet_at(u).derivatives()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("fn, ref", [(sqrt, np.sqrt), (sin, np.sin),
                                     (log, np.log)])
def test_elementary_functions_keep_python_floats(fn, ref):
    # a numpy scalar would turn the rest of an RK4 march into slow
    # numpy-scalar arithmetic; the value must be numpy's, bit for bit
    xs = [0.0, -0.0, 5e-324, 1e-300, 0.5, 2.0, 1e300, -1.0, np.inf, -np.inf,
          np.nan, *np.random.default_rng(5).uniform(-60.0, 60.0, 2000)]
    with np.errstate(invalid="ignore", divide="ignore"):
        for x in map(float, xs):
            got, want = fn(x), ref(x)
            assert type(got) is float
            assert (np.isnan(got) and np.isnan(want)) or (
                np.float64(got).view(np.int64) == want.view(np.int64)), x
    phi = expr_fn(lambda t: sqrt(t * t - 1.0) * log(t) + sin(t),
                  Interval(1.0, 1e9))
    assert type(phi.eval_value(1.5)) is float


def test_ode_invalid_initial_state():
    with pytest.raises(InvalidInitialState):
        integrate_profile(cosh_phi(), 0.5, (0.0, 1.0), 1e-2)


def test_float_division_by_zero_in_phi_is_not_finite():
    # Python floats raise where numpy gives inf; the march reads both as a
    # non-finite phi.  From f0 = 1 the step h = 2 puts stage 2 at t = 2.
    pole = expr_fn(lambda t: 1.0 / (2.0 - t), Interval(0.0, 3.0))
    sol = integrate_profile(pole, 1.0, (0.0, 2.0), 2.0)
    assert sol.stopped_reason == "phi not finite at stage at u=0"
    assert sol.steps == 0 and sol.phi_evals == 3
    with pytest.raises(InvalidInitialState):
        integrate_profile(pole, 2.0, (0.0, 1.0), 1e-2)


def test_ode_rejects_bad_step():
    with pytest.raises(StepSizeNonpositive):
        integrate_profile(cosh_phi(), 2.0, (0.0, 1.0), 0.0)
    with pytest.raises(StepSizeNonpositive):
        integrate_profile(cosh_phi(), 2.0, (1.0, 0.0), 1e-2)
    with pytest.raises(StepSizeNonpositive):
        integrate_profile(cosh_phi(), 2.0, (0.0, 1.0), float("nan"))


def test_ode_refuses_more_steps_than_the_cap():
    # 10^303 steps: refused before the first one is taken
    with pytest.raises(TooManySteps):
        integrate_profile(cosh_phi(), 2.0, (-1e300, 1.0), 1e-3)
    with pytest.raises(TooManySteps):
        integrate_profile(cosh_phi(), 2.0, (0.0, float("inf")), 1e-3)
    assert step_count(0.0, 1.0, 1e-3) == 1000
    assert step_count(0.0, MAX_STEPS / 4, 0.25) == MAX_STEPS
    with pytest.raises(TooManySteps):
        step_count(0.0, MAX_STEPS / 4 + 1.0, 0.25)
