"""The benchmark's workloads: seeded configs, CLI arguments and output checks.

Sizes and family parameters are fixed by the workload name. The seed only
shifts the v-window, pulls the u-window slightly inside the family interval
and picks the rows the ``generate`` check resamples, so the theorem each
check relies on still holds for every seed.

A check returns a list of problems; an empty list means the output is
correct. Checks compare against the library's own reference routes
(single-point ``invariant_report`` and ``evaluate``), so ``meridian4``
must be importable in the process that runs them.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache, wraps
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

#: Column order of ``surface.csv`` as documented in the README.
CSV_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "E", "F", "G", "K",
               "Kperp", "h1", "h2", "Hnormsq", "causal_zu", "causal_zv"]

#: Rows of surface.csv resampled against single-point evaluation.
SAMPLE_ROWS = 16
#: A resampled CSV value may differ from invariant_report by this much,
#: relative to max(1, |reference|): %.12g rounding is 5e-13, and g from the
#: memoized quadrature moves in its last bits with query order.
CSV_RTOL = 1e-9
#: Same for the OBJ vertices, which are written with %.9g.
OBJ_RTOL = 1e-7
#: |E + 1| and |F| on every generate row.
FIRST_FORM_TOL = 1e-9
#: | sqrt(Hnormsq) - a | on every CMC row.
CMC_NORM_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    #: Family section of the config (u-interval and step included), or
    #: None for workloads that take no config.
    family: dict | None
    #: Grid points per axis.
    n: int
    check: Callable
    #: Spans the traced run must see fire on this workload.
    expected_spans: tuple

    def config(self, seed: int) -> dict | None:
        if self.family is None:
            return None
        rng = random.Random(seed)
        lo, hi = self.family["u_min"], self.family["u_max"]
        span = hi - lo
        v0 = rng.uniform(0.0, TWO_PI)
        return {
            "family": dict(self.family),
            "directrix": {"kind": "latitude", "kappa": self.family["kappa"]},
            "grid": {"u_min": lo + span * rng.uniform(1e-3, 1e-2),
                     "u_max": hi - span * rng.uniform(1e-3, 1e-2),
                     "nu": self.n, "v_min": v0, "v_max": v0 + TWO_PI,
                     "nv": self.n},
            "tol": 1e-6,
        }

    def argv(self, config_path: Path | None, out_dir: Path) -> list:
        if self.command == "selfcheck":
            return ["selfcheck"]
        return [self.command, "--config", str(config_path), "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# reference objects
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _reference_surface(family_json: str, kappa: float):
    from meridian4 import (FamilySpec, MeridianSurface, build_profile,
                           latitude_circle)
    spec = FamilySpec.from_json(json.loads(family_json))
    return MeridianSurface(profile=build_profile(spec),
                           directrix=latitude_circle(kappa), name=spec.tag)


def reference_surface(cfg: dict):
    return _reference_surface(json.dumps(cfg["family"], sort_keys=True),
                              float(cfg["directrix"]["kappa"]))


def grid_axes(cfg: dict) -> tuple:
    g = cfg["grid"]
    return (np.linspace(g["u_min"], g["u_max"], g["nu"]),
            np.linspace(g["v_min"], g["v_max"], g["nv"]))


def sample_rows(seed: int, n_rows: int) -> list:
    return sorted(random.Random(f"rows:{seed}").sample(
        range(n_rows), min(SAMPLE_ROWS, n_rows)))


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _guarded(check):
    """Turn an unreadable or malformed output into a reported problem."""
    @wraps(check)
    def run(cfg, out_dir, stdout, rc, seed):
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return check(cfg, Path(out_dir), stdout, seed)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]
    return run


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@_guarded
def check_generate(cfg, out_dir, stdout, seed):
    problems = []
    us, vs = grid_axes(cfg)
    nu, nv = len(us), len(vs)
    target_norm = float(cfg["family"]["a"])
    wanted = set(sample_rows(seed, nu * nv))

    path = out_dir / "surface.csv"
    kept = {}
    n_rows = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != CSV_COLUMNS:
            problems.append(f"surface.csv header {header}")
        for line in fh:
            if line.count(",") != len(CSV_COLUMNS) - 1:
                return problems + [f"surface.csv row {n_rows}: {line.strip()}"]
            if n_rows in wanted:
                kept[n_rows] = line.rstrip("\r\n").split(",")
            n_rows += 1
    if n_rows != nu * nv:
        problems.append(f"surface.csv has {n_rows} rows, expected {nu * nv}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(14),
                       ndmin=2)
    if not np.all(np.isfinite(table)):
        problems.append("surface.csv holds non-finite values")
    e, f, hnormsq = table[:, 6], table[:, 7], table[:, 13]
    worst_e = float(np.max(np.abs(e + 1.0)))
    worst_f = float(np.max(np.abs(f)))
    worst_h = float(np.max(np.abs(np.sqrt(hnormsq) - target_norm)))
    if not worst_e <= FIRST_FORM_TOL:
        problems.append(f"max |E + 1| = {worst_e:.3e} > {FIRST_FORM_TOL:g}")
    if not worst_f <= FIRST_FORM_TOL:
        problems.append(f"max |F| = {worst_f:.3e} > {FIRST_FORM_TOL:g}")
    if not worst_h <= CMC_NORM_TOL:
        problems.append(f"max |sqrt(Hnormsq) - {target_norm:g}| = "
                        f"{worst_h:.3e} > {CMC_NORM_TOL:g}")

    surface = reference_surface(cfg)
    z_ref = {}
    for k, cells in kept.items():
        u, v = float(us[k // nv]), float(vs[k % nv])
        rep = surface.invariant_report(u, v)
        z = surface.evaluate(u, v).z.as_array()
        z_ref[k] = z
        want = [u, v, *z, rep.E, rep.F, rep.G, rep.K, rep.K_perp, rep.h1,
                rep.h2, rep.H_norm_sq]
        for name, cell, ref in zip(CSV_COLUMNS, cells, want):
            if not _rel_gap(float(cell), ref) <= CSV_RTOL:
                problems.append(f"surface.csv row {k} {name} = {cell}, "
                                f"invariant_report gives {ref!r}")
        causal = [rep.causal_z_u.value, rep.causal_z_v.value]
        if cells[14:] != causal:
            problems.append(f"surface.csv row {k} causal flags {cells[14:]}, "
                            f"expected {causal}")

    n_v = n_f = 0
    with open(out_dir / "surface.obj") as fh:
        for line in fh:
            if line.startswith("v "):
                if n_v in z_ref:
                    x1, x2, _, x4 = z_ref[n_v]
                    got = [float(c) for c in line.split()[1:]]
                    if len(got) != 3 or any(
                            not _rel_gap(a, b) <= OBJ_RTOL
                            for a, b in zip(got, (x1, x4, x2))):
                        problems.append(f"surface.obj vertex {n_v}: {line.strip()}")
                n_v += 1
            elif line.startswith("f "):
                i, j = divmod(n_f, nv - 1)
                a, b = i * nv + j + 1, (i + 1) * nv + j + 1
                if line != f"f {a} {b} {b + 1} {a + 1}\n":
                    problems.append(f"surface.obj face {n_f}: {line.strip()}")
                    break
                n_f += 1
    if n_v != nu * nv:
        problems.append(f"surface.obj has {n_v} vertices, expected {nu * nv}")
    if n_f != (nu - 1) * (nv - 1):
        problems.append(f"surface.obj has {n_f} faces, "
                        f"expected {(nu - 1) * (nv - 1)}")
    return problems


@_guarded
def check_selfcheck(cfg, out_dir, stdout, seed):
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if last != "10/10 acceptance criteria passed":
        return [f"selfcheck summary {last!r}"]
    return []


_ODE = ("diffkit.integrate_profile", "diffkit.cumquad", "diffkit.simpson")

WORKLOADS = {w.name: w for w in (
    Workload("generate-cmc-500", "generate",
             {"tag": "CMC", "a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0,
              "u_min": 0.0, "u_max": 1.0, "h": 1e-3},
             500, check_generate,
             ("cli.main", "cli.build_surface", "families.build_profile",
              "geometry.profile_jets", "geometry.curve_data", "geometry.raw",
              "cli.sweep", "cli.write_csv", "cli.write_obj",
              "geometry.gauss_curvature", "geometry.normal_curvature",
              "geometry.mean_curvature") + _ODE),
    Workload("selfcheck", "selfcheck", None, 0, check_selfcheck,
             ("cli.main", "families.build_profile", "geometry.raw",
              "geometry.profile_jets", "geometry.curve_data",
              "geometry.gauss_curvature", "geometry.normal_curvature",
              "geometry.mean_curvature", "geometry.normal_derivative_H",
              "geometry.normal_derivative_H0", "geometry.frame",
              "natural_pde.geometric_functions", "natural_pde.isotropic_frame",
              "natural_pde.residual", "minkowski.verify_frame",
              "acceptance.standard_instances")
             + _ODE + tuple(f"acceptance.criterion_{i:02d}" for i in range(1, 11))),
)}
