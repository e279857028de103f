import numpy as np
import pytest

from meridian4 import MeridianSurface, curve_from_curvature, sin_offset_fn
from meridian4.acceptance import standard_instances


@pytest.fixture(scope="session")
def route_points():
    """(name, layout, s, t) -> (surface, u, v) for the tests that check a
    factored route against an ambient one.

    The surfaces are the standard instances, named by tag, and the CMC
    and PNMC1 profiles on a directrix with geodesic curvature 2 + sin v,
    named "CMC/2+sin" and "PNMC1/2+sin".  s and t are lists of fractions
    of the surface's u- and v-ranges, laid out as "scattered" (u, v)
    pairs, as one "point" or as a "grid".
    """
    surfaces = {tag: (surface, (grid.u_min, grid.u_max),
                      (grid.v_min, grid.v_max))
                for tag, (surface, _, grid) in standard_instances().items()}
    curve = curve_from_curvature(sin_offset_fn(2.0), (0.0, 2 * np.pi), h=1e-3)
    for tag in ("CMC", "PNMC1"):
        surface, u_range, _ = surfaces[tag]
        surfaces[tag + "/2+sin"] = (
            MeridianSurface(profile=surface.profile, directrix=curve),
            u_range, (0.0, 2 * np.pi))

    def points(name, layout, s, t):
        surface, (u0, u1), (v0, v1) = surfaces[name]
        us = u0 + np.array(s) * (u1 - u0)
        vs = v0 + np.array(t) * (v1 - v0)
        if layout == "scattered":
            n = min(len(us), len(vs))
            return surface, us[:n], vs[:n]
        if layout == "point":
            return surface, float(us[0]), float(vs[0])
        return surface, us[:, None], vs[None, :]

    return points
