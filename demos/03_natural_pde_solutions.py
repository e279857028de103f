"""From the lightlike geometric frame to explicit natural-PDE solutions.

Away from minimal points a timelike surface carries the frame
{x, y, n1, n2} built from the two lightlike tangent directions and the
mean-curvature direction.  Its nine scalar functions satisfy a system
of natural PDEs in canonical isotropic coordinates; the parallel-unit-H
families deliver closed-form solutions for any nonvanishing curvature
function kappa(v).
"""
import numpy as np

from meridian4 import (
    Grid2,
    MeridianSurface,
    make_pnmc1,
    latitude_circle,
    sin_offset_fn,
)
from meridian4.natural_pde import (
    IsotropicChart,
    closed_geometric_functions_pnmc1,
    geometric_functions,
    residual_fund,
    residual_syst1,
    solution_family,
    transported_solution_family,
)

TWO_PI = 2.0 * np.pi

# --- geometric functions: measured vs closed form ------------------------
surface = MeridianSurface(profile=make_pnmc1(0.0, 1.0),
                          directrix=latitude_circle(2.0))
u, v = 0.5, 0.8
measured = geometric_functions(surface, u, v)
closed = closed_geometric_functions_pnmc1(0.0, 1.0, 2.0, u)
print("geometric functions at (u, v) = (0.5, 0.8):")
print("  measured:", np.round(measured.as_array(), 10))
print("  closed:  ", np.round(closed.as_array(), 10))
print("  max diff:", np.max(np.abs(measured.as_array() - closed.as_array())))

# --- the solution family and the barred system ----------------------------
a, b = 1.0, 3.0
kappa = sin_offset_fn(2.0)                     # kappa(v) = 2 + sin v
lam, mu, nu = solution_family(a, b, kappa)
print(f"\nsolution family a={a}, b={b}, kappa = 2 + sin v:")
print(f"  mu(0, 0) = {mu.value(0.0, 0.0):+.6f}")

# the barred chain rule reads only the case-(i) profile f, f' (U' = 1/f)
profile = make_pnmc1(a, b)
grid = Grid2(-0.9, 2.9, 40, 0.0, TWO_PI, 40)

report = residual_syst1(lam, mu, nu, profile, grid, tol=1e-8)
print(f"\nbarred-system residuals (canonical scale "
      f"{report.details['scale']:.6f}):")
for eq in report.equations:
    print(f"  {eq.name}: max |r| = {eq.max_abs:.3e}, rms = {eq.rms:.3e}")
print("  verdict:", "pass" if report.passed else "FAIL")

raw = residual_syst1(lam, mu, nu, profile, grid, tol=1e-8, normalize=False)
print(f"\nwithout the canonical rescaling eq3 fails by the constant "
      f"factor sqrt(a^2+b) - 1:")
print(f"  eq3 max |r| = {raw.equations[2].max_abs:.3f}")

# --- the fundamental system with the wrong causal sign --------------------
tl, tm, tn, scale = transported_solution_family(a, b, kappa)
chart = IsotropicChart.for_minimal_family(a, b)     # U = arcsin((u - a)/r)
ub, vb = chart.to_barred(*grid.mesh(), scale=scale)
good = residual_fund(tl, tm, tn, -1, (ub, vb), tol=1e-8)
bad = residual_fund(tl, tm, tn, +1, (ub, vb), tol=1e-8)
print(f"\nfundamental system on the transported fields:")
print(f"  eps = -1: max residual {good.max_residual():.3e} "
      f"({'pass' if good.passed else 'FAIL'})")
print(f"  eps = +1: max residual {bad.max_residual():.3e} "
      f"({'pass' if bad.passed else 'FAIL'})  <- wrong sign, as it should be")
