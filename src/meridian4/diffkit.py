"""Order-3 derivative jets, quadrature, and fixed-step ODE integration.

A :class:`Jet3` carries a function value together with its first three
derivatives at a point and propagates them through arithmetic by the
Leibniz and Faa di Bruno rules.  All fields may be numpy arrays, so jet
expressions evaluate vectorized over sample grids.

A :class:`SmoothFn1` made by :func:`expr_fn` holds one expression that
runs on floats, arrays and Jet3 alike: the elementary functions here
(:func:`sqrt`, :func:`log`, :func:`sin`) dispatch on Jet3, and a quotient is
written ``a * (1.0 / b)``, the way Jet3 divides, so its values equal
its jets' f bit for bit and never build a jet.

Profiles defined by an autonomous equation f' = phi(f) are integrated
with the classical 4th-order one-step method.  The march and the dense
output evaluate phi on floats; a Jet3 of phi is built only where jets
are read, and they are *not* obtained by differencing but follow from
the equation itself:

    f'   = phi(f)
    f''  = phi'(f) phi(f)
    f''' = (phi''(f) phi(f) + phi'(f)^2) phi(f)

Finite differences appear only in :func:`fd_check`, which exists as an
independent cross-check oracle for jets produced elsewhere.

:func:`quadrature` is adaptive Simpson over arrays of intervals, refined
breadth-first with one integrand evaluation per level.  A profile's g is
a :class:`CumulativeQuadrature` of g': fixed panel sums over the domain,
taken once at build, plus one such pass from the panel edge below each
point, so g at a point depends on that point alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    IntervalOutsideDomain,
    InvalidInitialState,
    OutOfDomain,
    StepSizeNonpositive,
    ToleranceNotReached,
    TooManySteps,
)

__all__ = [
    "Interval",
    "Jet3",
    "SmoothFn1",
    "OdeSolution",
    "integrate_profile",
    "quadrature",
    "fd_check",
    "jet_fn",
    "expr_fn",
    "sqrt",
    "log",
    "sin",
    "constant_fn",
    "sin_offset_fn",
    "poly_fn",
]

ArrayLike = "float | np.ndarray"

#: |phi| beyond this aborts integration (recorded, not raised).
DEFAULT_OVERFLOW_BOUND = 1e12

#: Fixed-step integrations refuse to take more steps than this.
MAX_STEPS = 10 ** 6


class Interval(NamedTuple):
    """Interval from lo to hi; either end may be infinite.

    A validity domain, such as phi's or the minimal profile's, is open
    (the default).  A range the code builds and samples itself (an ODE
    solution's, a closed-form family's spec interval, an integrated
    curve's) is ``closed``: grids may touch its endpoints.
    """

    lo: float = -math.inf
    hi: float = math.inf
    closed: bool = False

    def open_ends(self) -> tuple:
        """(a, b) such that ``a < x < b`` holds for a float x exactly when
        x is finite and :meth:`contains` it: a closed end moves out by one
        ulp (an infinite one stays, so +-inf fail), and a NaN fails every
        comparison."""
        if not self.closed:
            return self.lo, self.hi
        return math.nextafter(self.lo, -math.inf), math.nextafter(self.hi, math.inf)

    def contains(self, u) -> bool:
        if isinstance(u, float):        # a NaN is outside, as below
            if self.closed:
                return bool(self.lo <= u <= self.hi)
            return bool(self.lo < u < self.hi)
        u = np.asarray(u)
        if self.closed:
            return bool(np.all(u >= self.lo) and np.all(u <= self.hi))
        return bool(np.all(u > self.lo) and np.all(u < self.hi))

    def require(self, u, name: str, what: str) -> None:
        """Raise :class:`OutOfDomain` unless all of u lies inside, naming
        the first value outside (C order) rather than the whole array."""
        if self.contains(u):
            return
        u = np.ravel(np.asarray(u, dtype=float))
        inside = ((u >= self.lo) & (u <= self.hi) if self.closed
                  else (u > self.lo) & (u < self.hi))
        bad = u[np.argmin(inside)]      # the first False; a NaN is outside
        raise OutOfDomain(f"{name}={bad} outside {what} {self}")

    def __str__(self) -> str:
        ends = "[]" if self.closed else "()"
        return f"{ends[0]}{self.lo}, {self.hi}{ends[1]}"

    def sample(self, n: int) -> np.ndarray:
        """n interior points; unbounded ends are cut to a finite window."""
        lo, hi = self.lo, self.hi
        if not math.isfinite(lo) and not math.isfinite(hi):
            lo, hi = -10.0, 10.0
        elif not math.isfinite(hi):
            hi = lo + 20.0
        elif not math.isfinite(lo):
            lo = hi - 20.0
        pad = 1e-3 * (hi - lo)
        return np.linspace(lo + pad, hi - pad, n)


@dataclass(frozen=True, eq=False)
class Jet3:
    """Value and first three derivatives of a scalar function at a point.

    Seeded as ``Jet3(x, dx)`` (d2 = d3 = 0) it is a first-order jet: d1
    of the result is exact, while its d2 and d3 carry no meaning.
    """

    f: "ArrayLike"
    d1: "ArrayLike" = 0.0
    d2: "ArrayLike" = 0.0
    d3: "ArrayLike" = 0.0

    @classmethod
    def variable(cls, u) -> "Jet3":
        """The identity function evaluated at u."""
        u = np.asarray(u, dtype=float)
        one = np.ones_like(u) if u.ndim else 1.0
        zero = np.zeros_like(u) if u.ndim else 0.0
        return cls(u if u.ndim else float(u), one, zero, zero)

    @classmethod
    def constant(cls, c) -> "Jet3":
        return cls(c, 0.0, 0.0, 0.0)

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        o = _as_jet(other)
        return Jet3(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.f, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other):
        return self + (-_as_jet(other))

    def __rsub__(self, other):
        return _as_jet(other) + (-self)

    def __mul__(self, other):
        o = _as_jet(other)
        return Jet3(
            self.f * o.f,
            self.d1 * o.f + self.f * o.d1,
            self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2,
            self.d3 * o.f + 3.0 * self.d2 * o.d1 + 3.0 * self.d1 * o.d2 + self.f * o.d3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _as_jet(other).reciprocal()

    def __rtruediv__(self, other):
        return _as_jet(other) * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Jet3.constant(1.0)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- composition with elementary functions ---------------------------
    def compose(self, w0, w1, w2, w3) -> "Jet3":
        """Chain rule through an outer function with derivatives w1..w3 at self.f."""
        g1, g2, g3 = self.d1, self.d2, self.d3
        return Jet3(
            w0,
            w1 * g1,
            w2 * g1 * g1 + w1 * g2,
            w3 * g1 ** 3 + 3.0 * w2 * g1 * g2 + w1 * g3,
        )

    def reciprocal(self) -> "Jet3":
        v = self.f
        return self.compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)

    def sqrt(self) -> "Jet3":
        r = np.sqrt(self.f)
        return self.compose(r, 0.5 / r, -0.25 / r ** 3, 0.375 / r ** 5)

    def exp(self) -> "Jet3":
        e = np.exp(self.f)
        return self.compose(e, e, e, e)

    def log(self) -> "Jet3":
        v = self.f
        return self.compose(np.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def sin(self) -> "Jet3":
        s, c = np.sin(self.f), np.cos(self.f)
        return self.compose(s, c, -s, -c)

    def cos(self) -> "Jet3":
        s, c = np.sin(self.f), np.cos(self.f)
        return self.compose(c, -s, -c, s)

    def cosh(self) -> "Jet3":
        s, c = np.sinh(self.f), np.cosh(self.f)
        return self.compose(c, s, c, s)

    def sinh(self) -> "Jet3":
        s, c = np.sinh(self.f), np.cosh(self.f)
        return self.compose(s, c, s, c)

    def arcsin(self) -> "Jet3":
        v = self.f
        w = 1.0 - v * v
        return self.compose(
            np.arcsin(v),
            w ** -0.5,
            v * w ** -1.5,
            (1.0 + 2.0 * v * v) * w ** -2.5,
        )

    def derivatives(self) -> tuple:
        return (self.f, self.d1, self.d2, self.d3)


def _as_jet(x) -> Jet3:
    return x if isinstance(x, Jet3) else Jet3.constant(x)


# elementary functions for expressions that run on floats and on jets alike

# A Python float stays a Python float, with NaN where numpy gives NaN: a
# numpy scalar would make every later step of the RK4 march numpy-scalar
# arithmetic, several times slower.  math.sqrt and math.sin round as
# np.sqrt and np.sin do; math.log does not always, so log keeps np.log.

def sqrt(x):
    """np.sqrt of a float or an array; Jet3.sqrt of a jet."""
    if type(x) is float:
        return math.sqrt(x) if x >= 0.0 else math.nan
    return x.sqrt() if isinstance(x, Jet3) else np.sqrt(x)


def log(x):
    """np.log of a float or an array; Jet3.log of a jet."""
    if type(x) is float:
        return float(np.log(x))
    return x.log() if isinstance(x, Jet3) else np.log(x)


def sin(x):
    """np.sin of a float or an array; Jet3.sin of a jet."""
    if type(x) is float:
        return math.sin(x) if math.isfinite(x) else math.nan
    return x.sin() if isinstance(x, Jet3) else np.sin(x)


def _floats(u):
    """u as Jet3.variable holds it: a float, or an array of floats."""
    if isinstance(u, float):
        return u
    u = np.asarray(u, dtype=float)
    return u if u.ndim else float(u)


class SmoothFn1(NamedTuple):
    """Scalar function with order-3 jets on a declared open interval.

    ``expr``, when set, is the function written once for floats, arrays
    and Jet3 alike (see :func:`expr_fn`): values then come from it on
    floats and never build a jet.  Evaluation outside the interval
    raises :class:`OutOfDomain` rather than silently returning garbage.
    """

    eval_jet: Callable[["ArrayLike"], Jet3]
    domain: Interval = Interval()
    name: str = ""
    expr: Callable | None = None

    def __call__(self, u) -> Jet3:
        self._check(u)
        return self.eval_jet(u)

    def value(self, u):
        self._check(u)
        return self.eval_value(u)

    def eval_value(self, u):
        """The value at u, unchecked; only a Jet3-only function builds a jet."""
        if self.expr is None:
            return self.eval_jet(u).f
        return self.expr(_floats(u))

    def _check(self, u) -> None:
        self.domain.require(u, "u", f"the domain of {self.name or 'function'}")


def jet_fn(expr: Callable[[Jet3], Jet3], domain: Interval = Interval(),
           name: str = "") -> SmoothFn1:
    """SmoothFn1 from a closed-form jet expression u -> expr(Jet3.variable(u))."""
    return SmoothFn1(lambda u: expr(Jet3.variable(u)), domain, name)


def expr_fn(expr: Callable, domain: Interval = Interval(),
            name: str = "") -> SmoothFn1:
    """SmoothFn1 from one expression that runs on floats, arrays and Jet3.

    expr may use arithmetic and this module's elementary functions
    (:func:`sqrt`, :func:`log`, :func:`sin`).  Values evaluate it on floats,
    jets on ``Jet3.variable(u)``.  Write a quotient a / b as
    ``a * (1.0 / b)``, the way Jet3 divides, and a power as a product:
    the values then equal the jets' f bit for bit.
    """
    return SmoothFn1(lambda u: expr(Jet3.variable(u)), domain, name, expr)


def constant_fn(c: float, domain: Interval = Interval()) -> SmoothFn1:
    return SmoothFn1(lambda u: Jet3(c + 0.0 * np.asarray(u, dtype=float),
                                    0.0, 0.0, 0.0),
                     domain, name=f"const:{c}")


def sin_offset_fn(c: float, domain: Interval = Interval()) -> SmoothFn1:
    """u -> c + sin(u)."""
    return expr_fn(lambda u: c + sin(u), domain, name=f"sin-offset:{c}")


def poly_fn(coeffs, domain: Interval = Interval()) -> SmoothFn1:
    """Polynomial with coefficients in increasing degree order."""
    cs = [float(c) for c in coeffs]

    def expr(j: Jet3) -> Jet3:
        acc = Jet3.constant(cs[-1])
        for c in reversed(cs[:-1]):
            acc = acc * j + c
        return acc

    return jet_fn(expr, domain, name="poly:" + ",".join(map(str, cs)))


# --------------------------------------------------------------------------
# finite-difference oracle
# --------------------------------------------------------------------------

def fd_check(fn: SmoothFn1, u: float, h: float) -> float:
    """Max relative deviation of jet orders 1..3 from central differences.

    Deviation for each order is |jet - FD| / (1 + |jet|); the jets being
    checked stay out of the stencil evaluation entirely.
    """
    if not (fn.domain.contains(u - 2 * h) and fn.domain.contains(u + 2 * h)):
        raise OutOfDomain("stencil u +/- 2h leaves the function's domain")
    f = fn.value
    fm2, fm1, f0, fp1, fp2 = (f(u - 2 * h), f(u - h), f(u), f(u + h), f(u + 2 * h))
    fd1 = (fp1 - fm1) / (2 * h)
    fd2 = (fp1 - 2 * f0 + fm1) / h ** 2
    fd3 = (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * h ** 3)
    jet = fn(u)
    devs = [abs(jet.d1 - fd1) / (1 + abs(jet.d1)),
            abs(jet.d2 - fd2) / (1 + abs(jet.d2)),
            abs(jet.d3 - fd3) / (1 + abs(jet.d3))]
    return float(max(devs))


# --------------------------------------------------------------------------
# adaptive Simpson quadrature
# --------------------------------------------------------------------------

def quadrature(fn: SmoothFn1, a, b, tol: float = 1e-10,
               max_depth: int = 48):
    """Adaptive Simpson estimate of the integral of fn over each [a, b].

    a and b broadcast against each other; two scalars give a float.  The
    refinement runs breadth-first over the panels of all intervals at
    once: each level evaluates fn once, at the quarter-points of every
    open panel (the first level together with the ends and midpoints),
    and accepts a panel when |left + right - whole| <= 15 eps,
    with eps = tol halved per level.  Exact to rounding on polynomials of
    degree <= 3 per panel.  A zero-length interval gives 0 and a reversed
    one the negated integral.  Raises :class:`IntervalOutsideDomain`
    naming the first interval that leaves fn's domain, and
    :class:`ToleranceNotReached` when a panel is still open at depth
    ``max_depth``.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    owner = np.flatnonzero(~(lo == hi))     # NaN ends go to the domain check
    lo, hi = lo[owner], hi[owner]
    inside = fn.domain.contains
    if not (inside(lo) and inside(hi)):
        i = next(i for i in range(owner.size)
                 if not (inside(lo[i]) and inside(hi[i])))
        raise IntervalOutsideDomain(f"[{lo[i]}, {hi[i]}] not inside {fn.domain}")

    def f(*points):
        """fn on several point arrays in one call."""
        x = np.concatenate(points)
        return np.split(np.broadcast_to(fn.value(x), x.shape), len(points))

    total = np.zeros(a.size)
    mid = 0.5 * (lo + hi)
    lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
    # the first level's quarter-points share the ends' and midpoints' call
    fa, fm, fb, flm, frm = f(lo, mid, hi, lm, rm) if owner.size else (lo,) * 5
    whole = (hi - lo) * (fa + 4.0 * fm + fb) / 6.0
    eps = tol
    for depth in range(max_depth + 1):
        if not owner.size:
            break
        if depth:
            lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
            flm, frm = f(lm, rm)
        left = (mid - lo) * (fa + 4.0 * flm + fm) / 6.0
        right = (hi - mid) * (fm + 4.0 * frm + fb) / 6.0
        err = left + right - whole
        done = np.abs(err) <= 15.0 * eps
        np.add.at(total, owner[done], (left + right + err / 15.0)[done])
        more = ~done
        if depth == max_depth and more.any():
            i = np.argmax(more)
            raise ToleranceNotReached(
                f"Simpson refinement exceeded depth {max_depth} on "
                f"[{lo[i]}, {hi[i]}]")
        # each open panel splits into [lo, mid] and [mid, hi]
        owner = np.tile(owner[more], 2)
        lo, hi = (np.concatenate([lo[more], mid[more]]),
                  np.concatenate([mid[more], hi[more]]))
        fa, fm, fb = (np.concatenate([fa[more], fm[more]]),
                      np.concatenate([flm[more], frm[more]]),
                      np.concatenate([fm[more], fb[more]]))
        whole = np.concatenate([left[more], right[more]])
        mid = 0.5 * (lo + hi)
        eps *= 0.5
    total = total.reshape(a.shape)
    out = np.where(b < a, -total, total)
    return out if out.ndim else float(out)


#: Panels a :class:`CumulativeQuadrature` cuts its function's domain into.
PANELS = 256


class CumulativeQuadrature:
    """Antiderivative u -> integral_{u0}^{u} fn, from fixed panel sums.

    The build cuts fn's domain at ``fn.domain.sample(PANELS + 1)`` and at
    u0, and sums those panels once, in one :func:`quadrature` call, so
    that the sum at u0 is exactly 0.  A call takes any array of points
    and returns the antiderivative in its shape (a float for a scalar):
    the sum at the last edge at or below each point (the first edge for
    a point below them all) plus one quadrature from that edge.  A value
    therefore depends on its point and fn alone, not on earlier queries.
    """

    def __init__(self, fn: SmoothFn1, u0: float, tol: float = 1e-12):
        self.fn = fn
        self.tol = tol
        u0 = float(u0)
        edges = np.sort(np.append(fn.domain.sample(PANELS + 1), u0))
        steps = quadrature(fn, edges[:-1], edges[1:], tol)
        sums = np.append(0.0, np.cumsum(steps))
        self._edges = edges
        self._sums = sums - sums[np.searchsorted(edges, u0)]

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        k = np.maximum(np.searchsorted(self._edges, u, side="right") - 1, 0)
        out = self._sums[k] + quadrature(self.fn, self._edges[k], u, self.tol)
        return out if u.ndim else float(out)


# --------------------------------------------------------------------------
# fixed-step 4th-order integration of f' = phi(f)
# --------------------------------------------------------------------------

def _quiet():
    """NaN or inf from phi off its radicand is a result to check, not a warning."""
    return np.errstate(invalid="ignore", divide="ignore")


def float_value(fn: SmoothFn1, u: float) -> float:
    """fn's value at a float, unchecked, and NaN where Python's float
    arithmetic raises ZeroDivisionError (1.0 / (t * t) once t * t
    underflows): numpy gives inf or NaN there, and the checks on phi
    read either as not finite."""
    try:
        return fn.eval_value(u)
    except ZeroDivisionError:
        return math.nan


class OdeSolution(NamedTuple):
    """Solution of f' = phi(f) on a uniform grid, with equation-derived jets.

    ``phi_evals`` counts the evaluations of phi the march made, the
    check of phi(f0) included: 4 steps + 1 on a full run.
    """

    phi: SmoothFn1
    u0: float
    h: float
    values: np.ndarray
    requested_end: float
    stopped_reason: str | None = None
    phi_evals: int = 0

    @property
    def steps(self) -> int:
        return len(self.values) - 1

    @property
    def u_end(self) -> float:
        return self.u0 + self.steps * self.h

    @property
    def domain(self) -> Interval:
        """Closed realized range [u0, requested_end] ([u0, u_end] if stopped)."""
        end = self.u_end if self.stopped_reason else self.requested_end
        return Interval(self.u0, end, closed=True)

    def node_us(self) -> np.ndarray:
        return self.u0 + self.h * np.arange(len(self.values))

    def value_at(self, u):
        """Dense output on :attr:`domain` (OutOfDomain outside it).

        Node queries snap to the node exactly (delta = 0 bit-for-bit),
        so equation-derived jets at nodes are reproducible.
        """
        u = np.asarray(u, dtype=float)
        self.domain.require(u, "u", "realized range")
        with _quiet():
            out = _dense_output(lambda _, f: self.phi.eval_value(f), self.u0,
                                self.h, self.values, u)
        return out if u.ndim else float(out)

    def slope_at(self, u):
        """f' = phi(f) at the dense-output value, from phi's value alone
        (:func:`float_value`): ``jet_at(u).d1`` bit for bit wherever that
        is finite (see :func:`expr_fn`), without building a jet."""
        y = self.value_at(u)
        with _quiet():
            return float_value(self.phi, y)

    def jet_at(self, u) -> Jet3:
        """Jets per the defining equation at the dense-output value."""
        y = self.value_at(u)
        with _quiet():
            p = self.phi.eval_jet(y)
        d1 = p.f
        d2 = p.d1 * p.f
        d3 = (p.d2 * p.f + p.d1 ** 2) * p.f
        return Jet3(y, d1, d2, d3)


def _rk4_step(rhs, t, y, h):
    """One classical RK4 step of y' = rhs(t, y) from (t, y) with step h."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


class _EarlyStop(Exception):
    """Raised by a checking rhs or node check; the message is the reason."""


def _march(rhs, t0, y0, h, n_steps, check=lambda y: None):
    """(nodes, reason) of n_steps RK4 steps of y' = rhs(t, y) from y(t0) = y0.

    A :class:`_EarlyStop` from ``rhs`` or from ``check`` on a new node
    ends the march; reason is then its message and the step's t.
    """
    nodes = np.empty((n_steps + 1,) + np.shape(y0))
    nodes[0] = y = y0
    for i in range(n_steps):
        t = t0 + i * h
        try:
            y = _rk4_step(rhs, t, y, h)
            check(y)
        except _EarlyStop as stop:
            return nodes[:i + 1].copy(), f"{stop} at u={t:.6g}"
        nodes[i + 1] = y
    return nodes, None


def _dense_output(rhs, t0, h, nodes, t):
    """y at the float array t from fixed-step nodes: the nearest node
    below t, then one partial RK4 step (Hairer, Norsett and Wanner,
    Solving ODEs I, II.6).  A node's own t snaps to it exactly."""
    idx = np.clip(np.floor((t - t0) / h + 1e-9).astype(int), 0,
                  len(nodes) - 1)
    node = t0 + idx * h
    shape = idx.shape + (1,) * (nodes.ndim - 1)   # an axis per state axis
    return _rk4_step(rhs, np.reshape(node, shape), nodes[idx],
                     np.reshape(t - node, shape))


def step_count(t0: float, t1: float, h: float) -> int:
    """Number of fixed steps h from t0 to t1, at least 1.

    Raises :class:`StepSizeNonpositive` unless h > 0 and t1 > t0, and
    :class:`TooManySteps` above :data:`MAX_STEPS`, before any work.
    """
    if not h > 0:
        raise StepSizeNonpositive(f"h={h}")
    if not t1 > t0:
        raise StepSizeNonpositive(f"empty integration range [{t0}, {t1}]")
    steps = (t1 - t0) / h
    if not steps <= MAX_STEPS:
        raise TooManySteps(
            f"[{t0}, {t1}] with h={h} takes {steps:.3g} steps, more than "
            f"{MAX_STEPS}")
    return max(int(round(steps)), 1)


def integrate_profile(phi: SmoothFn1, f0: float, u_range: tuple[float, float],
                      h: float) -> OdeSolution:
    """Integrate f' = phi(f) from f(u_range[0]) = f0 with fixed step h.

    phi is evaluated on floats, as :func:`float_value` does; its NaN and
    division by zero go to the checks below, not to warnings or errors.
    Integration stops early, with a recorded reason, if a stage or a
    node is not a finite point of phi's validity interval, phi is not
    finite at a stage, or |phi| exceeds :data:`DEFAULT_OVERFLOW_BOUND`.  An early stop is an event
    on the returned solution, not an error.
    """
    u0, u1 = float(u_range[0]), float(u_range[1])
    n_steps = step_count(u0, u1, h)
    if not phi.domain.contains(f0):
        raise InvalidInitialState(f"f0={f0} outside phi's domain")
    # bound once: each stage and node check is one chained comparison
    lo, hi = phi.domain.open_ends()
    value = phi.eval_value if phi.expr is None else phi.expr
    bound = DEFAULT_OVERFLOW_BOUND
    evals = 1

    def slope(_, f):
        nonlocal evals
        if not lo < f < hi:
            raise _EarlyStop("stage left phi domain")
        evals += 1
        try:
            k = value(f)
        except ZeroDivisionError:       # as float_value
            k = math.nan
        if not -bound <= k <= bound:    # a NaN fails it too
            raise _EarlyStop("derivative overflow" if math.isfinite(k)
                             else "phi not finite at stage")
        return k

    def node(f):
        if not lo < f < hi:
            raise _EarlyStop("state left phi domain")

    with _quiet():
        if not np.isfinite(float_value(phi, f0)):
            raise InvalidInitialState(f"phi(f0) is not finite at f0={f0}")
        values, stopped = _march(slope, u0, float(f0), h, n_steps, node)
    return OdeSolution(phi=phi, u0=u0, h=h, values=values, requested_end=u1,
                       stopped_reason=stopped, phi_evals=evals)
