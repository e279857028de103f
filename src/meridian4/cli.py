"""Command-line front end: build surfaces from JSON configs, sweep grids,
verify family properties, and check natural-PDE residuals.

Exit codes are a stable contract: 0 success/pass, 1 property or residual
failure, 2 config validation error, 3 numeric or domain failure.

A surface config looks like::

    {
      "family": {"tag": "CMC", "a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0,
                 "u_min": 0.0, "u_max": 1.0, "h": 0.001},
      "directrix": {"kind": "latitude", "kappa": 1.0},
      "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 50,
               "v_min": 0.0, "v_max": 6.2832, "nv": 50},
      "tol": 1e-6,
      "format": "csv",
      "out": "out"
    }

and a PDE config like::

    {
      "system": "syst1",
      "solution": "example1",
      "kappa": "sin-offset:2",
      "epsilon": -1,
      "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 40,
               "v_min": 0.0, "v_max": 6.2832, "nv": 40},
      "tol": 1e-8
    }

``directrix.kind`` is one of great | latitude | curvature; the kappa
selectors are "const:k", "sin-offset:c", "poly:c0,c1,...".  Solution
selectors: example1, example2, family(a,b), separable.  CSV columns are
fixed: u, v, x1..x4, E, F, G, K, Kperp, h1, h2, Hnormsq, then the two
causal flags.  OBJ output carries vertices and grid quads only (no
materials), axes mapped y-up as (x1, x4, x2); the e3 component is a
projection casualty.  The MERIDIAN_THREADS environment variable caps
worker parallelism; the sweeps here are vectorized single-process, so
any cap is respected and echoed into reports.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .diffkit import SmoothFn1, constant_fn, poly_fn, sin_offset_fn
from .errors import MeridianError
from .families import FamilySpec, build_profile, verify_family
from .geometry import MeridianSurface, curve_from_curvature, great_circle, latitude_circle
from .grids import Grid2, json_safe
from .natural_pde import (
    IsotropicChart,
    ScalarField2,
    geometric_functions,
    residual_degenerate,
    residual_fund,
    residual_syst1,
    solution_family,
    transported_solution_family,
)

CSV_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "E", "F", "G", "K",
               "Kperp", "h1", "h2", "Hnormsq", "causal_zu", "causal_zv"]

GEOMFUNC_COLUMNS = ["u", "v", "gamma1", "gamma2", "nu", "lambda1", "mu1",
                    "lambda2", "mu2", "beta1", "beta2"]


class ConfigError(Exception):
    pass


def thread_cap() -> int:
    raw = os.environ.get("MERIDIAN_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        raise ConfigError(f"MERIDIAN_THREADS={raw!r} is not an integer")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _config_number(cfg: dict, key: str, default) -> float:
    try:
        return float(cfg.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be a number, not {cfg[key]!r}")


def _parse_kappa(sel: str) -> SmoothFn1:
    kind, _, arg = sel.partition(":")
    try:
        if kind == "const":
            return constant_fn(float(arg))
        if kind == "sin-offset":
            return sin_offset_fn(float(arg))
        if kind == "poly":
            return poly_fn([float(c) for c in arg.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad kappa selector {sel!r}: {exc}")
    raise ConfigError(f"unknown kappa selector kind {kind!r}")


def _parse_grid(d: dict) -> Grid2:
    try:
        return Grid2.from_json(d)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid: {exc}")


def _build_directrix(d: dict, grid: Grid2):
    if not isinstance(d, dict):
        raise ConfigError("directrix must be a JSON object")
    kind = d.get("kind", "great")
    if kind == "great":
        return great_circle()
    if kind == "latitude":
        if "kappa" not in d:
            raise ConfigError("latitude directrix needs a kappa value")
        return latitude_circle(float(d["kappa"]))
    if kind == "curvature":
        if "kappa" not in d:
            raise ConfigError("curvature directrix needs a kappa selector")
        kap = _parse_kappa(str(d["kappa"]))
        pad = 0.05 * (grid.v_max - grid.v_min) + 1e-3
        v0 = float(d.get("v_min", grid.v_min - pad))
        v1 = float(d.get("v_max", grid.v_max + pad))
        return curve_from_curvature(kap, (v0, v1), h=float(d.get("h", 1e-3)))
    raise ConfigError(f"unknown directrix kind {kind!r}")


def _build_surface(cfg: dict) -> tuple:
    if "family" not in cfg or "grid" not in cfg:
        raise ConfigError("config needs 'family' and 'grid' sections")
    try:
        spec = FamilySpec.from_json(cfg["family"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad family spec: {exc}")
    grid = _parse_grid(cfg["grid"])
    if grid.u_min < spec.u_min - 1e-12 or grid.u_max > spec.u_max + 1e-12:
        raise ConfigError(
            f"grid u-range [{grid.u_min}, {grid.u_max}] outside family "
            f"interval [{spec.u_min}, {spec.u_max}]")
    return _surface(spec, cfg.get("directrix", {}), grid), spec, grid


def _surface(spec: FamilySpec, directrix_cfg, grid: Grid2) -> MeridianSurface:
    """The family's surface over the configured directrix; a value that
    the constructors reject as a type or value is a config error."""
    try:
        directrix = _build_directrix(directrix_cfg, grid)
        profile = build_profile(spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad directrix or family parameters: {exc}")
    return MeridianSurface(profile=profile, directrix=directrix, name=spec.tag)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _sweep(surface: MeridianSurface, grid: Grid2) -> dict:
    U, V = grid.mesh()
    sample = surface._raw(U, V)
    E, F, G = sample.first_form()
    # The curvatures go through the public methods, whose calls the
    # benchmark traces; each builds only the arrays it reads.
    k = surface.gauss_curvature(U, V)
    kperp = surface.normal_curvature(U, V)
    mc = surface.mean_curvature(U, V)
    h1 = np.broadcast_to(mc.h1, E.shape)
    h2 = np.broadcast_to(mc.h2, E.shape)
    z = np.broadcast_to(sample.z, E.shape + (4,))
    return {
        "U": np.broadcast_to(U, E.shape), "V": np.broadcast_to(V, E.shape),
        "z": z, "E": E, "F": F, "G": G,
        "K": np.broadcast_to(k.frame_route, E.shape), "Kperp": kperp,
        "h1": h1, "h2": h2, "Hnormsq": h1 ** 2 + h2 ** 2,
    }


def _dumps(payload, **kw) -> str:
    """JSON text of a payload; non-finite floats are written as null."""
    return json.dumps(json_safe(payload), allow_nan=False, **kw)


#: Rows formatted per write; bounds the text held in memory at once.
_BLOCK_ROWS = 8192

_CAUSAL_NAMES = np.array(["spacelike", "timelike", "lightlike"], dtype=object)


def _causal_names(q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Causal class of each squared norm; |q| <= tol (or NaN) is lightlike."""
    return _CAUSAL_NAMES[np.where(q > tol, 0, np.where(q < -tol, 1, 2))]


def _row_blocks(template: str, cols: list, sep: str = ""):
    """Yield ``template % row`` over the rows of equal-length flat columns.

    Rows are formatted _BLOCK_ROWS at a time and joined by ``sep``, which
    also separates consecutive blocks.
    """
    n = len(cols[0])
    for s in range(0, n, _BLOCK_ROWS):
        rows = zip(*[c[s:s + _BLOCK_ROWS].tolist() for c in cols])
        text = sep.join(map(template.__mod__, rows))
        yield sep + text if s else text


def _csv_template(n_floats: int, n_strings: int = 0) -> str:
    """%-template of one CSV row: %.12g floats, then strings; \\r\\n ending."""
    return ",".join(["%.12g"] * n_floats + ["%s"] * n_strings) + "\r\n"


def _grid_columns(sweep: dict) -> list:
    """The 14 numeric CSV columns of a sweep, flattened in row-major order."""
    z = sweep["z"]
    return ([np.ravel(sweep["U"]), np.ravel(sweep["V"])]
            + [np.ravel(z[..., c]) for c in range(4)]
            + [np.ravel(sweep[k]) for k in
               ("E", "F", "G", "K", "Kperp", "h1", "h2", "Hnormsq")])


def _write_csv(path: Path, sweep: dict):
    cols = _grid_columns(sweep)
    cols += [_causal_names(cols[6]), _causal_names(cols[8])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(_row_blocks(_csv_template(14, 2), cols))


def _write_obj(path: Path, sweep: dict):
    z = sweep["z"]
    nu, nv = z.shape[:2]
    i, j = np.divmod(np.arange((nu - 1) * (nv - 1)), nv - 1)
    a = i * nv + j + 1
    b = a + nv
    with open(path, "w") as fh:
        fh.write("# parametric surface export, y-up, vertices + quads\n")
        fh.writelines(_row_blocks("v %.9g %.9g %.9g\n",
                                  [np.ravel(z[..., c]) for c in (0, 3, 1)]))
        fh.writelines(_row_blocks("f %d %d %d %d\n", [a, b, b + 1, a + 1]))


def _write_grid_json(path: Path, sweep: dict, echo: dict):
    head = _dumps({"config": echo, "columns": CSV_COLUMNS[:14]})
    template = "[" + ", ".join(["%r"] * 14) + "]"
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "rows": [')
        # repr() spells non-finite floats nan/inf; JSON has only null.
        fh.writelines(block.replace("-inf", "null").replace("inf", "null")
                      .replace("nan", "null")
                      for block in _row_blocks(template, _grid_columns(sweep),
                                               ", "))
        fh.write("]}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: dict, out_dir: Path) -> int:
    surface, spec, grid = _build_surface(cfg)
    sweep = _sweep(surface, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "surface.csv", sweep)
    _write_obj(out_dir / "surface.obj", sweep)
    report = {
        "config": cfg, "threads": thread_cap(),
        "stopped_reason": surface.profile.stopped_reason,
        "summary": {
            "max_abs_K": float(np.max(np.abs(sweep["K"]))),
            "max_abs_Kperp": float(np.max(np.abs(sweep["Kperp"]))),
            "H_norm_sq_range": [float(np.min(sweep["Hnormsq"])),
                                float(np.max(sweep["Hnormsq"]))],
        },
        "files": ["surface.csv", "surface.obj"],
    }
    (out_dir / "report.json").write_text(_dumps(report, indent=2))
    print(_dumps(report["summary"]))
    return 0


def cmd_export(cfg: dict, out_dir: Path, fmt: str) -> int:
    surface, spec, grid = _build_surface(cfg)
    sweep = _sweep(surface, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "obj":
        _write_obj(out_dir / "surface.obj", sweep)
    elif fmt == "csv":
        _write_csv(out_dir / "surface.csv", sweep)
    elif fmt == "json":
        _write_grid_json(out_dir / "surface.json", sweep, cfg)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    print(str(out_dir / f"surface.{fmt}"))
    return 0


def cmd_verify(cfg: dict, out_dir: Path | None, tol: float) -> int:
    surface, spec, grid = _build_surface(cfg)
    verdict = verify_family(surface, spec, grid, tol=tol)
    payload = {"config": cfg, "verdict": verdict.to_json()}
    text = _dumps(payload, indent=2)
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "verdict.json").write_text(text)
    return 0 if verdict.passed else 1


def cmd_geomfuncs(cfg: dict, out_dir: Path, fmt: str) -> int:
    surface, spec, grid = _build_surface(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    U, V = grid.mesh()
    gf = geometric_functions(surface, U, V)
    cols = [np.ravel(c) for c in np.broadcast_arrays(U, V, *gf.as_array())]
    if fmt == "json":
        (out_dir / "geomfuncs.json").write_text(_dumps(
            {"config": cfg, "columns": GEOMFUNC_COLUMNS,
             "rows": np.stack(cols, axis=1).tolist()}))
    else:
        with open(out_dir / "geomfuncs.csv", "w", newline="") as fh:
            fh.write(",".join(GEOMFUNC_COLUMNS) + "\r\n")
            fh.writelines(_row_blocks(_csv_template(len(cols)), cols))
    print(str(out_dir / f"geomfuncs.{'json' if fmt == 'json' else 'csv'}"))
    return 0


_NUMBER_RE = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
_FAMILY_RE = re.compile(rf"family\(\s*{_NUMBER_RE}\s*,\s*{_NUMBER_RE}\s*\)")


def _separable_fields() -> tuple:
    zero = lambda u, v: 0.0 * (np.asarray(u, dtype=float)
                               + np.asarray(v, dtype=float))
    zfield = ScalarField2(zero, zero, zero, zero, zero, zero, name="0")

    def e(u):
        return np.exp(np.asarray(u, dtype=float))

    def q(v):
        return 1.0 + np.asarray(v, dtype=float) ** 2

    mu = ScalarField2(
        value=lambda u, v: e(u) * q(v),
        du=lambda u, v: e(u) * q(v),
        dv=lambda u, v: e(u) * 2.0 * np.asarray(v, dtype=float),
        duu=lambda u, v: e(u) * q(v),
        duv=lambda u, v: e(u) * 2.0 * np.asarray(v, dtype=float),
        dvv=lambda u, v: e(u) * 2.0 + zero(u, v),
        name="separable", audit_box=(0.0, 1.0, 0.0, 1.0))
    return zfield, mu, zfield


def cmd_pde(cfg: dict, out_dir: Path | None, tol: float) -> int:
    system = cfg.get("system")
    if system not in ("fund", "degenerate", "syst1"):
        raise ConfigError(f"unknown system {cfg.get('system')!r}")
    grid = _parse_grid(cfg.get("grid", {}))
    sol = str(cfg.get("solution", ""))
    kappa = _parse_kappa(str(cfg.get("kappa", "const:2")))

    if sol == "separable":
        if system != "degenerate":
            raise ConfigError("the separable built-in is a degenerate-system solution")
        lam, mu, nu = _separable_fields()
        report = residual_degenerate(lam, mu, nu, grid, tol=tol)
    else:
        if sol == "example1":
            a, b = 1.0, 3.0
        elif sol == "example2":
            a, b = 5.0, 0.0
        else:
            match = _FAMILY_RE.fullmatch(sol)
            if not match:
                raise ConfigError(f"unknown solution selector {sol!r}")
            a, b = float(match.group(1)), float(match.group(2))
        lam, mu, nu = solution_family(a, b, kappa)
        if system == "degenerate":
            report = residual_degenerate(lam, mu, nu, grid, tol=tol)
        else:
            if not grid.u_max > grid.u_min:
                raise ConfigError("grid u_max must exceed u_min")
            spec = FamilySpec("PNMC1", {"a": a, "b": b, "kappa": 2.0},
                              grid.u_min, grid.u_max)
            surface = _surface(spec, {"kind": "curvature",
                                      "kappa": cfg.get("kappa", "const:2")},
                               grid)
            chart = IsotropicChart.for_minimal_family(surface, a, b)
            if system == "syst1":
                report = residual_syst1(lam, mu, nu, chart, grid, tol=tol)
            else:
                eps = cfg.get("epsilon", -1)
                # JSON true == 1 in Python, but it is not a number
                if isinstance(eps, bool) or eps not in (-1, 1):
                    raise ConfigError(f"'epsilon' must be 1 or -1, not {eps!r}")
                tl, tm, tn, scale = transported_solution_family(a, b, kappa)
                ub, vb = chart.to_barred(*grid.mesh(), scale=scale)
                report = residual_fund(tl, tm, tn, int(eps), (ub, vb), tol=tol)

    payload = {"config": cfg, "report": report.to_json()}
    text = _dumps(payload, indent=2)
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "pde_report.json").write_text(text)
    return 0 if report.passed else 1


def cmd_selfcheck() -> int:
    results = acceptance.run_all()
    print(acceptance.format_table(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meridian4",
        description="meridian surfaces: generation, verification, PDE residuals")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("generate", "verify", "geomfuncs", "pde", "export"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--format", choices=("csv", "json", "obj"),
                        default=None)
    sub.add_parser("selfcheck")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            return cmd_selfcheck()
        cfg = _load_json(args.config)
        thread_cap()
        out = args.out or cfg.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"'out' must be a path string, not {out!r}")
        tol = (args.tol if args.tol is not None
               else _config_number(cfg, "tol", 1e-6))
        fmt = args.format or cfg.get("format", "csv")
        if tol <= 0:
            raise ConfigError("tol must be positive")
        if args.command == "generate":
            return cmd_generate(cfg, Path(out or "out"))
        if args.command == "export":
            return cmd_export(cfg, Path(out or "out"), fmt)
        if args.command == "verify":
            return cmd_verify(cfg, Path(out) if out else None, tol)
        if args.command == "geomfuncs":
            return cmd_geomfuncs(cfg, Path(out or "out"), fmt)
        if args.command == "pde":
            return cmd_pde(cfg, Path(out) if out else None,
                           args.tol if args.tol is not None
                           else _config_number(cfg, "tol", 1e-8))
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MeridianError as exc:
        print(f"numeric/domain failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
