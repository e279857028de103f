"""Rectangular parameter grids for sweeps and reports."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid2", "json_number", "json_safe", "max_abs"]

#: Grids with more points than this are refused before anything is built.
MAX_POINTS = 10 ** 8


def json_safe(obj):
    """Copy of a JSON payload with every non-finite float replaced by None.

    ``json.dumps`` would write NaN and infinities as the bare tokens
    ``NaN``/``Infinity``, which are not JSON; None is written as ``null``.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


def json_number(value, name: str, integral: bool = False):
    """A number read from a JSON config: a float, or an int if
    ``integral``.  Raises TypeError for anything but a JSON number (a
    boolean too, though Python's True == 1) and ValueError for an
    ``integral`` value with a fractional part, so nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name!r} must be a number, not {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name!r} must be a whole number, not {value!r}")
    return int(value)


def max_abs(*arrays) -> float:
    """The largest |x| over all entries of the arrays; NaN if any is NaN,
    so a verdict ``<= tol`` fails on it (Python's max() drops a NaN that
    is not its first argument)."""
    return float(np.max([np.max(np.abs(a)) for a in arrays]))


@dataclass(frozen=True)
class Grid2:
    """Uniform (u, v) grid with finite bounds; mesh() returns
    broadcast-ready axes."""

    u_min: float
    u_max: float
    nu: int
    v_min: float
    v_max: float
    nv: int

    def __post_init__(self):
        bounds = (self.u_min, self.u_max, self.v_min, self.v_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"grid bounds must be finite, not {bounds}")
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.nu * self.nv > MAX_POINTS:
            raise ValueError(f"grid of {self.nu} x {self.nv} points exceeds "
                             f"{MAX_POINTS} points")

    def u_points(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.nu)

    def v_points(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return self.u_points()[:, None], self.v_points()[None, :]

    def to_json(self) -> dict:
        return {"u_min": self.u_min, "u_max": self.u_max, "nu": self.nu,
                "v_min": self.v_min, "v_max": self.v_max, "nv": self.nv}

    @classmethod
    def from_json(cls, d: dict) -> "Grid2":
        return cls(**{k: json_number(d[k], k, integral=k in ("nu", "nv"))
                      for k in ("u_min", "u_max", "nu", "v_min", "v_max", "nv")})
