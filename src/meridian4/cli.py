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

``directrix`` (by default the family's own) has ``kind`` great | latitude |
curvature; the kappa selectors are "const:k", "sin-offset:c",
"poly:c0,c1,...".  Solution selectors: example1, example2, family(a,b),
separable.  The output formats are those of :mod:`meridian4.writers`.  The
MERIDIAN_THREADS environment variable caps worker parallelism; the sweeps
here are vectorized single-process, so any cap is respected and echoed
into reports.

:func:`main` registers :func:`gc.freeze` with :mod:`atexit`, once per
process however often it is called.  Shutdown then leaves the cyclic
objects of numpy and this package to the operating system instead of
collecting and deallocating them one by one.  This is safe: every output
is closed by its ``with`` block before ``main`` returns, stdout and
stderr are flushed after the atexit handlers have run, and Python
promises no finalizer for objects still alive at exit.  A program that
calls ``main`` in-process gets the same exit: whatever it holds then is
not collected either.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import re
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

from . import acceptance
from .diffkit import Jet3, SmoothFn1, constant_fn, jet_fn, poly_fn, sin_offset_fn
from .errors import MeridianError
from .families import FamilySpec, build_surface, verify_family
from .geometry import (_E4, MeridianSurface, curve_from_curvature, great_circle,
                       latitude_circle)
from .grids import Grid2, json_number
from .natural_pde import (ScalarField2, geometric_functions, residual_degenerate,
                          residual_family)
from .writers import (CSV_COLUMNS, _dumps, _grid_columns, _write_csv,
                      _write_csv_table, _write_grid_json, _write_obj)

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
        return json_number(cfg.get(key, default), key)
    except (TypeError, OverflowError) as exc:
        raise ConfigError(str(exc))


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
        return latitude_circle(json_number(d["kappa"], "kappa"))
    if kind == "curvature":
        if "kappa" not in d:
            raise ConfigError("curvature directrix needs a kappa selector")
        kap = _parse_kappa(str(d["kappa"]))
        h = json_number(d.get("h", 1e-3), "h")
        lo, hi = sorted((grid.v_min, grid.v_max))
        v0 = json_number(d.get("v_min", lo), "v_min")
        # the grid's v-range; a constant-v grid still needs one step
        v1 = json_number(d.get("v_max", max(hi, v0 + h)), "v_max")
        return curve_from_curvature(kap, (v0, v1), h=h)
    raise ConfigError(f"unknown directrix kind {kind!r}")


def _build_surface(cfg: dict) -> tuple:
    if "family" not in cfg or "grid" not in cfg:
        raise ConfigError("config needs 'family' and 'grid' sections")
    try:
        spec = FamilySpec.from_json(cfg["family"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad family spec: {exc}")
    grid = _parse_grid(cfg["grid"])
    if grid.u_min < spec.u_min or grid.u_max > spec.u_max:
        raise ConfigError(
            f"grid u-range [{grid.u_min}, {grid.u_max}] outside family "
            f"interval [{spec.u_min}, {spec.u_max}]")
    try:
        directrix = (_build_directrix(cfg["directrix"], grid)
                     if "directrix" in cfg else None)
        surface = build_surface(spec, directrix)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad directrix or family parameters: {exc}")
    return surface, spec, grid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sweep(surface: MeridianSurface, grid: Grid2) -> dict:
    """The CSV columns of a grid, each held once: a column that depends
    on u or v alone is a broadcast of its axis values, and z is a view of
    four contiguous component planes, so ``z[..., c]`` is contiguous."""
    U, V = grid.mesh()
    sample = surface._raw(U, V)
    # The curvatures go through the public methods, whose calls the
    # benchmark traces; their inner products run on the factored fields,
    # so no (nu, nv, 4) array is built for them.  They go first, while
    # few columns are held: their temporaries set the sweep's peak.
    k = surface.gauss_curvature(U, V).frame_route
    kperp = surface.normal_curvature(U, V)
    h1, h2 = surface.mean_curvature(U, V)[:2]     # drops the jet route
    E, F, G = sample.first_form()
    shape = E.shape
    # z = alpha P + beta e4, one plane per component, as _Factor.ambient
    # evaluates it: the same operations, so the same bits
    alpha, P, beta = sample._factors["z"]
    planes = np.empty((4,) + shape)
    for c, plane in enumerate(planes):
        np.multiply(alpha, P[..., c], out=plane)
        plane += beta * _E4[c]
    return {
        "U": np.broadcast_to(U, shape), "V": np.broadcast_to(V, shape),
        "z": np.moveaxis(planes, 0, -1), "E": E, "F": F, "G": G,
        "K": np.broadcast_to(k, shape), "Kperp": kperp,
        "h1": np.broadcast_to(h1, shape), "h2": np.broadcast_to(h2, shape),
        "Hnormsq": np.broadcast_to(h1 ** 2 + h2 ** 2, shape),
    }


@contextmanager
def _writing(out_dir: Path):
    """Make the output directory for the writes in the ``with`` body.  An
    OSError in making it or writing in it (``--out`` naming a file, say)
    is a config error."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_dir}: {exc}")


def cmd_generate(cfg: dict, out_dir: Path) -> int:
    surface, spec, grid = _build_surface(cfg)
    sweep = _sweep(surface, grid)
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
    with _writing(out_dir):
        _write_csv(out_dir / "surface.csv", sweep)
        _write_obj(out_dir / "surface.obj", sweep)
        (out_dir / "report.json").write_text(_dumps(report, indent=2))
    print(_dumps(report["summary"]))
    return 0


def cmd_export(cfg: dict, out_dir: Path, fmt: str) -> int:
    if fmt not in ("obj", "csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    surface, spec, grid = _build_surface(cfg)
    sweep = _sweep(surface, grid)
    with _writing(out_dir):
        if fmt == "obj":
            _write_obj(out_dir / "surface.obj", sweep)
        elif fmt == "csv":
            _write_csv(out_dir / "surface.csv", sweep)
        else:
            _write_grid_json(out_dir / "surface.json", cfg, CSV_COLUMNS[:14],
                             _grid_columns(sweep))
    print(str(out_dir / f"surface.{fmt}"))
    return 0


def cmd_verify(cfg: dict, out_dir: Path | None, tol: float) -> int:
    surface, spec, grid = _build_surface(cfg)
    verdict = verify_family(surface, spec, grid, tol=tol)
    payload = {"config": cfg, "verdict": verdict.to_json()}
    text = _dumps(payload, indent=2)
    if out_dir is not None:
        with _writing(out_dir):
            (out_dir / "verdict.json").write_text(text)
    print(text)
    return 0 if verdict.passed else 1


def cmd_geomfuncs(cfg: dict, out_dir: Path, fmt: str) -> int:
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown geomfuncs format {fmt!r}")
    surface, spec, grid = _build_surface(cfg)
    U, V = grid.mesh()
    gf = geometric_functions(surface, U, V)
    cols = np.broadcast_arrays(U, V, *gf.as_array())
    with _writing(out_dir):
        if fmt == "json":
            _write_grid_json(out_dir / "geomfuncs.json", cfg,
                             GEOMFUNC_COLUMNS, cols)
        else:
            _write_csv_table(out_dir / "geomfuncs.csv", GEOMFUNC_COLUMNS, cols)
    print(str(out_dir / f"geomfuncs.{fmt}"))
    return 0


_NUMBER_RE = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
_FAMILY_RE = re.compile(rf"family\(\s*{_NUMBER_RE}\s*,\s*{_NUMBER_RE}\s*\)")


def _separable_fields() -> tuple:
    zero = constant_fn(0.0).eval_jet
    zfield = ScalarField2.separable(zero, zero, name="0")
    mu = ScalarField2.separable(jet_fn(Jet3.exp).eval_jet,
                                poly_fn([1.0, 0.0, 1.0]).eval_jet,
                                name="separable",
                                audit_box=(0.0, 1.0, 0.0, 1.0))
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
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ConfigError(
                    f"family(a, b) needs finite a and b, not {sol!r}")
        eps = cfg.get("epsilon", -1) if system == "fund" else -1
        # JSON true == 1 in Python, but it is not a number
        if isinstance(eps, bool) or eps not in (-1, 1):
            raise ConfigError(f"'epsilon' must be 1 or -1, not {eps!r}")
        report = residual_family(system, a, b, kappa, grid, tol=tol,
                                 eps=int(eps))

    payload = {"config": cfg, "report": report.to_json()}
    text = _dumps(payload, indent=2)
    if out_dir is not None:
        with _writing(out_dir):
            (out_dir / "pde_report.json").write_text(text)
    print(text)
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


@cache
def _freeze_at_exit() -> None:
    """Freeze every object still alive at exit (see the module notes)."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    args = _parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            return cmd_selfcheck()
        cfg = _load_json(args.config)
        thread_cap()
        out = args.out or cfg.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"'out' must be a path string, not {out!r}")
        tol = (args.tol if args.tol is not None else _config_number(
            cfg, "tol", 1e-8 if args.command == "pde" else 1e-6))
        fmt = args.format or cfg.get("format", "csv")
        if not 0 < tol < np.inf:        # NaN fails this too
            raise ConfigError(f"tol must be positive and finite, not {tol!r}")
        if args.command == "generate":
            return cmd_generate(cfg, Path(out or "out"))
        if args.command == "export":
            return cmd_export(cfg, Path(out or "out"), fmt)
        if args.command == "verify":
            return cmd_verify(cfg, Path(out) if out else None, tol)
        if args.command == "geomfuncs":
            return cmd_geomfuncs(cfg, Path(out or "out"), fmt)
        if args.command == "pde":
            return cmd_pde(cfg, Path(out) if out else None, tol)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MeridianError as exc:
        print(f"numeric/domain failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
