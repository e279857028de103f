"""Linear algebra of Minkowski 4-space R^4_1.

The ambient space is R^4 with the indefinite inner product

    <a, b> = a1*b1 + a2*b2 + a3*b3 - a4*b4

(signature (3,1), timelike direction e4), computed by the one function
:func:`minkowski_inner` for Vec4M values and (..., 4) arrays alike, one
point or a batch.  Everything here is pure and operates on immutable
values, so it is safe to call concurrently.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Vec4M",
    "CausalClass",
    "FrameReport",
    "minkowski_inner",
    "causal_character",
    "verify_frame",
    "DEFAULT_CAUSAL_TOL",
]

#: Tolerance on <v,v> below which a nonzero vector counts as lightlike.
#: All constructions in this library are analytic, so only rounding noise
#: has to be absorbed.
DEFAULT_CAUSAL_TOL = 1e-10

class Vec4M(NamedTuple):
    """Vector of R^4_1 in the standard basis (e1, e2, e3, e4): a view of
    a (..., 4) array, whose components are floats or arrays of one
    broadcast shape (a batch of points)."""

    x1: float | np.ndarray
    x2: float | np.ndarray
    x3: float | np.ndarray
    x4: float | np.ndarray

    @classmethod
    def from_array(cls, a) -> "Vec4M":
        return cls(*np.moveaxis(np.asarray(a, dtype=float), -1, 0))

    def as_array(self) -> np.ndarray:
        return np.stack(np.broadcast_arrays(self.x1, self.x2, self.x3, self.x4),
                        axis=-1)


def _array(w) -> np.ndarray:
    return np.asarray(w.as_array() if isinstance(w, Vec4M) else w,
                      dtype=float)


def minkowski_inner(a, b):
    """<a, b> with signature (+, +, +, -) for Vec4M values or (..., 4)
    arrays; leading shapes broadcast, and one vector gives a numpy scalar.

    The sum is ((p1 + p2) + p3) - p4 + 0.0 over the products p = a * b,
    which is ``np.sum(p * (1, 1, 1, -1), axis=-1)`` bit for bit: numpy
    reduces a length-4 axis one term at a time from its identity +0.0,
    and starting from +0.0 only turns a -0.0 total into +0.0, which the
    final ``+ 0.0`` does.  Four passes over the grid replace np.sum's
    sign multiply and strided reduction, about 4x faster.
    """
    p = _array(a) * _array(b)
    s = p[..., 0] + p[..., 1]
    s += p[..., 2]
    s -= p[..., 3]
    s += 0.0
    return s


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


def causal_character(v: Vec4M, tol: float = DEFAULT_CAUSAL_TOL) -> CausalClass:
    """Classify v by the sign of <v,v>.

    Spacelike for <v,v> > tol, timelike for <v,v> < -tol; a vector with
    |<v,v>| <= tol counts as lightlike when it is not itself negligible
    (sup-norm above tol) and as zero otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = minkowski_inner(v, v)
    if q > tol:
        return CausalClass.SPACELIKE
    if q < -tol:
        return CausalClass.TIMELIKE
    if np.max(np.abs(v.as_array())) > tol:
        return CausalClass.LIGHTLIKE
    return CausalClass.ZERO


class FrameReport(NamedTuple):
    """Measured Gram matrix of a candidate frame (or a batch of frames,
    with deviations the worst over all points) against a target."""

    labels: tuple[str, ...]
    products: dict[tuple[str, str], float | np.ndarray]
    target: np.ndarray
    max_deviation: float
    tol: float
    passed: bool

    def deviation(self, a: str, b: str) -> float:
        i, j = self.labels.index(a), self.labels.index(b)
        key = (a, b) if (a, b) in self.products else (b, a)
        return float(np.max(np.abs(self.products[key] - self.target[i, j])))


def verify_frame(vectors: Sequence[tuple[str, Vec4M]],
                 target_gram: np.ndarray,
                 tol: float = 1e-9) -> FrameReport:
    """Measure all pairwise inner products of 2-4 labeled vectors.

    The report's deviation is the maximum of |measured - target| over all
    unordered pairs, diagonal included, and over all points of a batch;
    a NaN fails the check.  Raises ValueError when the Gram matrix size
    does not match the number of vectors.
    """
    k = len(vectors)
    if not 2 <= k <= 4:
        raise ValueError("verify_frame expects between 2 and 4 vectors")
    target = np.asarray(target_gram, dtype=float)
    if target.shape != (k, k):
        raise ValueError(f"target Gram must be {k}x{k}, got {target.shape}")

    labels = tuple(lbl for lbl, _ in vectors)
    products: dict[tuple[str, str], float | np.ndarray] = {}
    devs = []
    for i in range(k):
        for j in range(i, k):
            p = minkowski_inner(vectors[i][1], vectors[j][1])
            products[(labels[i], labels[j])] = p
            devs.append(np.max(np.abs(p - target[i, j])))
    max_dev = float(np.max(devs))
    return FrameReport(labels=labels, products=products, target=target,
                       max_deviation=max_dev, tol=tol, passed=max_dev <= tol)
