import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from meridian4 import (
    CausalClass,
    Vec4M,
    causal_character,
    minkowski_inner,
    verify_frame,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(a, b, c, d):
    return Vec4M(a, b, c, d)


@pytest.mark.parametrize("a, b, expected", [
    (vec(0, 0, 0, 1), vec(0, 0, 0, 1), -1.0),
    (vec(1, 0, 0, 0), vec(1, 0, 0, 0), 1.0),
    (vec(1, 0, 0, 1), vec(1, 0, 0, 1), 0.0),
    (vec(1, 2, 3, 4), vec(4, 3, 2, 1), 1 * 4 + 2 * 3 + 3 * 2 - 4 * 1),
])
def test_inner_product_values(a, b, expected):
    assert minkowski_inner(a, b) == pytest.approx(expected, abs=1e-15)


@given(st.tuples(*[finite] * 4), st.tuples(*[finite] * 4),
       st.tuples(*[finite] * 4), st.floats(min_value=-100, max_value=100))
@example(a=(0.0, 45891.0, 0.0, 0.0), b=(1.0, 45893.0, 0.0, 0.0),
         c=(1.2159773285966367, 46.0, 0.0, 0.0), alpha=-1.0)
def test_inner_product_bilinear(a, b, c, alpha):
    va, vb, vc = Vec4M(*a), Vec4M(*b), Vec4M(*c)
    lhs = minkowski_inner(
        Vec4M.from_array(alpha * np.array(a) + np.array(b)), vc)
    rhs = alpha * minkowski_inner(va, vc) + minkowski_inner(vb, vc)
    # Both sides round each of their few operations; the error scales with
    # the size of the rounded terms, not with the (possibly cancelled)
    # result.  The absolute part covers products that underflow.
    terms = (abs(alpha) * sum(abs(x * z) for x, z in zip(a, c))
             + sum(abs(y * z) for y, z in zip(b, c)))
    assert abs(lhs - rhs) <= 16 * np.finfo(float).eps * terms + 2.0 ** -1070


# components that stress the summation order: signed zeros, infinities,
# NaN, subnormals, and magnitudes far apart
_EDGE = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300,
         -1e300, 1e-300, 1.0, -1.0, 3.0]
_component = st.one_of(st.sampled_from(_EDGE), st.floats(width=64))


def _batch(shape):
    return hnp.arrays(np.float64, shape + (4,), elements=_component)


@st.composite
def _operand_pairs(draw):
    """Two (..., 4) operands of broadcasting leading shapes, each maybe a
    Vec4M view."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                    max_side=4))
    a, b = (draw(_batch(s)) for s in shapes.input_shapes)
    return [Vec4M.from_array(x) if draw(st.booleans()) else x for x in (a, b)]


def _same_bits(x, y):
    """Equal bit for bit, NaN positions matched (NaN payloads may differ)."""
    x, y = np.asarray(x), np.asarray(y)
    nan = np.isnan(x)
    return (x.shape == y.shape and np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


@given(_operand_pairs())
@example([np.array([-0.0, -0.0, -0.0, 0.0]), np.ones(4)])
@example([np.array([1e16, 1.0, -1e16, -1.0]), np.ones(4)])
def test_inner_product_is_the_signed_np_sum(pair):
    a, b = pair
    arrays = [x.as_array() if isinstance(x, Vec4M) else x for x in pair]
    with np.errstate(all="ignore"):
        got = minkowski_inner(a, b)
        want = np.sum(arrays[0] * arrays[1] * np.array([1.0, 1.0, 1.0, -1.0]),
                      axis=-1)
    assert _same_bits(got, want)
    assert type(got) is type(want)      # one vector gives a numpy scalar


@pytest.mark.parametrize("v, expected", [
    (vec(0, 0, 0, 1), CausalClass.TIMELIKE),
    (vec(1, 0, 0, 1), CausalClass.LIGHTLIKE),
    (vec(1, 2, 2, 0), CausalClass.SPACELIKE),
    (vec(0, 0, 0, 0), CausalClass.ZERO),
])
def test_causal_character(v, expected):
    assert causal_character(v) is expected


def test_causal_character_rejects_bad_tol():
    with pytest.raises(ValueError):
        causal_character(vec(1, 0, 0, 0), tol=0.0)


@given(st.tuples(*[st.floats(min_value=-100, max_value=100)] * 4),
       st.floats(min_value=0.01, max_value=100.0))
def test_causal_character_scaling_invariant(comps, s):
    v = Vec4M(*comps)
    tol = 1e-8
    before = causal_character(v, tol)
    after = causal_character(Vec4M.from_array(s * v.as_array()), tol * s * s)
    if before in (CausalClass.SPACELIKE, CausalClass.TIMELIKE):
        assert after is before


def test_verify_frame_standard_basis():
    basis = [("e1", vec(1, 0, 0, 0)), ("e2", vec(0, 1, 0, 0)),
             ("e3", vec(0, 0, 1, 0)), ("e4", vec(0, 0, 0, 1))]
    rep = verify_frame(basis, np.diag([1.0, 1.0, 1.0, -1.0]), tol=1e-12)
    assert rep.passed and rep.max_deviation == 0.0


def test_verify_frame_wrong_target_flags_e4():
    basis = [("e1", vec(1, 0, 0, 0)), ("e2", vec(0, 1, 0, 0)),
             ("e3", vec(0, 0, 1, 0)), ("e4", vec(0, 0, 0, 1))]
    rep = verify_frame(basis, np.eye(4), tol=1e-12)
    assert not rep.passed
    assert rep.max_deviation == pytest.approx(2.0)
    assert rep.deviation("e4", "e4") == pytest.approx(2.0)


def test_verify_frame_null_pair():
    s = 1.0 / np.sqrt(2.0)
    x = Vec4M.from_array(s * np.array([1.0, 0.0, 0.0, 1.0]))
    y = Vec4M.from_array(s * np.array([-1.0, 0.0, 0.0, 1.0]))
    rep = verify_frame([("x", x), ("y", y)],
                       np.array([[0.0, -1.0], [-1.0, 0.0]]), tol=1e-12)
    assert rep.passed


def test_verify_frame_size_mismatch():
    with pytest.raises(ValueError):
        verify_frame([("a", vec(1, 0, 0, 0)), ("b", vec(0, 1, 0, 0))],
                     np.eye(3))
    with pytest.raises(ValueError):
        verify_frame([("a", vec(1, 0, 0, 0))], np.eye(1))
