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
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import acceptance
from .diffkit import Jet3, SmoothFn1, constant_fn, jet_fn, poly_fn, sin_offset_fn
from .errors import MeridianError
from .families import FamilySpec, build_profile, build_surface, verify_family
from .geometry import (_E4, MeridianSurface, curve_from_curvature, great_circle,
                       latitude_circle)
from .grids import Grid2, json_number, json_safe
from .minkowski import DEFAULT_CAUSAL_TOL
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
        directrix = _build_directrix(cfg.get("directrix", {}), grid)
        profile = build_profile(spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad directrix or family parameters: {exc}")
    return (MeridianSurface(profile=profile, directrix=directrix,
                            name=spec.tag), spec, grid)


# ---------------------------------------------------------------------------
# output writers
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


def _dumps(payload, **kw) -> str:
    """JSON text of a payload; non-finite floats are written as null."""
    return json.dumps(json_safe(payload), allow_nan=False, **kw)


#: Output rows per write, rounded down to whole grid rows (at least one);
#: bounds the text held in memory at once.
_BLOCK_ROWS = 4096

_CAUSAL_NAMES = np.array(["spacelike", "timelike", "lightlike"], dtype=object)


def _causal_names(q: np.ndarray, tail: str = "",
                  tol: float = DEFAULT_CAUSAL_TOL) -> list:
    """Causal class of each squared norm, each name followed by ``tail``;
    |q| <= tol (or NaN) is lightlike."""
    return (_CAUSAL_NAMES + tail)[
        np.where(q > tol, 0, np.where(q < -tol, 1, 2))].tolist()


#: One %-conversion of a row template: flags, width, precision, type.
_SPEC = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[a-zA-Z]")

#: A conversion whose text is monotone in the value on each side of zero:
#: ``%`` rounds correctly, so a value between two of one text has it too.
_MONOTONE_SPEC = re.compile(r"%\.\d+g")

#: Separates the cells in the ``%`` result of a block; no formatted value
#: or template literal holds it.
_SENTINEL = "\0"


class _Distinct:
    """The text of each distinct value of a float column, formatted once
    and followed by the literal that follows the column in its row.

    Values are told apart by their bit patterns, so -0.0 and 0.0 (and NaNs
    with different payloads) keep their own text.  np.sort and a diff find
    them: np.unique would import numpy.ma (about 1 MiB and 10-20 ms).  An
    entry (text, pointer, bits) takes about ten times the 8 bytes of a
    value, so only a column with at most an eighth of its values distinct
    gets a table, which then holds at most about 1.25 columns' worth.  A
    column whose first n//8 + 1 values are all distinct is refused from
    that prefix alone, before the whole column is sorted.  The table's
    text is one ``%`` over all the values, split on the sentinel.
    """

    def __init__(self, bits: np.ndarray, spec: str, tail: str):
        self.bits = bits        # sorted distinct bit patterns
        fmt = spec + tail.replace("%", "%%") + _SENTINEL
        self.text = np.array(
            (fmt * len(bits) % tuple(bits.view(np.float64).tolist()))
            .split(_SENTINEL)[:-1], dtype=object)

    @staticmethod
    def _sorted_new(bits: np.ndarray) -> tuple:
        """Sorted bit patterns and whether each differs from the one before."""
        bits = np.sort(bits, axis=None)
        new = np.empty(len(bits), dtype=bool)
        new[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        return bits, new

    @classmethod
    def of(cls, col: np.ndarray, spec: str, tail: str = ""):
        """The table of a float column with at most an eighth of its
        values distinct; None for any other column."""
        if col.dtype != np.float64:
            return None
        bits = col.view(np.int64)
        m = bits.size // 8 + 1
        # the first m values, from the leading rows that hold them: if
        # these are all distinct, so are more than an eighth of the values
        per_row = max(1, bits[:1].size)
        head = bits[:-(-m // per_row)].ravel()[:m]
        if cls._sorted_new(head)[1].all():
            return None
        bits, new = cls._sorted_new(bits)
        if 8 * np.count_nonzero(new) > len(bits):
            return None
        bits = bits[new]        # frees the sorted copy before the text
        del new
        return cls(bits, spec, tail)

    def strings(self, part: np.ndarray) -> list:
        """The text of each value of a part of the column."""
        return self.text[np.searchsorted(self.bits,
                                         part.view(np.int64))].tolist()


def _row_text(col, spec: str, tail: str) -> list:
    """The one text of each grid row of a column, followed by ``tail``, or
    None on a row whose cells may not all have it.

    A row has one text when the text of its min is that of its max and
    every value between them has it too:

    - a pair's text is a step function of the value (the causal class),
      so the row must hold no NaN, which min and max would carry;
    - a ``%.<p>g`` conversion rounds correctly, so it is monotone on each
      side of zero: the row must neither hold nor straddle 0 (0.0 and -0.0
      are equal, and print apart), which a NaN fails too; an infinity
      prints as no finite value does;
    - on any other row, and for any other conversion (``%r``), min and
      max are taken of the bit patterns: the cells share one.

    Min and max are reductions along the row, so no grid-sized temporary
    is made.
    """
    if isinstance(col, tuple):
        text, q = col
        lo, hi = q.min(axis=1), q.max(axis=1)
        whole = (~np.isnan(lo)).tolist()
        return [a if w and a == b else None for a, b, w in
                zip(text(lo, tail=tail), text(hi, tail=tail), whole)]
    out = [None] * len(col)
    if col.dtype != np.float64:
        return out
    by_value = np.zeros(len(col), dtype=bool)
    if _MONOTONE_SPEC.fullmatch(spec):
        lo, hi = col.min(axis=1), col.max(axis=1)
        by_value = (lo > 0) | (hi < 0)
        lo, hi = lo.tolist(), hi.tolist()
        for i in np.flatnonzero(by_value).tolist():
            t = spec % lo[i]
            if lo[i] == hi[i] or t == spec % hi[i]:
                out[i] = t + tail
    if not by_value.all():
        bits = col.view(np.int64)
        same = (bits.min(axis=1) == bits.max(axis=1)) & ~by_value
        for i in np.flatnonzero(same).tolist():
            out[i] = spec % float(col[i, 0]) + tail
    return out


def _constant_down(col: np.ndarray) -> bool:
    """Whether a float column holds one bit pattern down each grid
    column."""
    if col.dtype != np.float64:
        return False
    bits = col.view(np.int64)
    return bool(np.all(bits == bits[:1]))


def _row_texts(pieces: list, nu: int, template: bool = False) -> list:
    """The text of a run of row pieces on each grid row.  A str piece is
    the same on every row, a list holds one text per row, and a tuple is
    a float's (conversion and literal, column).  As a ``template``, "%"
    in text is doubled and the conversions are kept."""
    per_row = []
    for p in pieces:
        if isinstance(p, tuple):
            p = p[0]
        elif template:
            p = (p.replace("%", "%%") if isinstance(p, str)
                 else [t.replace("%", "%%") for t in p])
        per_row.append([p] * nu if isinstance(p, str) else p)
    return ["".join(t) for t in zip(*per_row)]


class _Floats:
    """A run of a row that holds per-cell floats: one ``%`` per block.

    The template of one cell is kept per grid row, with the text of the
    run's row-text columns and literals baked in.
    """

    def __init__(self, pieces: list, shape: tuple):
        self.rows = _row_texts(pieces, shape[0], template=True)
        self.floats = [p[1] for p in pieces if isinstance(p, tuple)]
        self.nv = shape[1]

    def text(self, r0: int, r1: int, joint: str = "") -> str:
        """The text of the cells of grid rows r0..r1-1, joined by joint."""
        fmt = joint.join([joint.join([t] * self.nv) for t in self.rows[r0:r1]])
        m = len(self.floats)
        values = [None] * (m * (r1 - r0) * self.nv)
        for k, c in enumerate(self.floats):
            values[k::m] = c[r0:r1].ravel().tolist()
        return fmt % tuple(values)

    def __call__(self, r0: int, r1: int) -> list:
        """The text of each cell of grid rows r0..r1-1."""
        return self.text(r0, r1, _SENTINEL).split(_SENTINEL)


def _lookup(text, col: np.ndarray, r0: int, r1: int) -> list:
    """The strings ``text`` gives for the cells of grid rows r0..r1-1."""
    return text(col[r0:r1].ravel())


def _formatted(fmt: str, part: np.ndarray) -> list:
    """``fmt % x`` for each value x of a part of a column."""
    return [fmt % x for x in part.tolist()]


def _per_row(rows: list, cells, nv: int, r0: int, r1: int) -> list:
    """Each cell of grid rows r0..r1-1: its row's one text, nv times, or
    on a row without one (None), the strings of ``cells`` for the row."""
    out = []
    for i, t in enumerate(rows[r0:r1], r0):
        out += [t] * nv if t is not None else cells(i, i + 1)
    return out


def _repeat(rows: np.ndarray, nv: int, r0: int, r1: int) -> list:
    """Each text of grid rows r0..r1-1, once per cell of its row."""
    return np.repeat(rows[r0:r1], nv).tolist()


def _tile(texts: list, r0: int, r1: int) -> list:
    """The texts of one grid row, once per grid row r0..r1-1."""
    return texts * (r1 - r0)


def _row_blocks(template: str, cols: list, sep: str = ""):
    """Yield ``template % row`` over the cells of equal-shape 2-D columns,
    in row-major order, joined by ``sep``, which also separates blocks.

    A column is a float array, or a pair (text, array) whose ``text(part,
    tail=...)`` gives the string of each cell of a part followed by
    ``tail``, and is a step function of the value.  A block holds
    max(1, _BLOCK_ROWS // nv) grid rows.  Every float is written by ``%``
    with its own conversion, and the bytes are those of ``template %
    row``.  What changes is how often a value is converted and how a
    cell's text is put together:

    - a column whose every grid row has one text (see :func:`_row_text`)
      is formatted once per grid row, and one constant down each grid
      column once per grid column;
    - a column with one text on at least 7/8 of its rows gives that text
      nv times on those rows, and each cell's own text on the others;
    - a column with few distinct values is formatted once per value (see
      :class:`_Distinct`), and a pair's strings come from its text;
    - the other columns, with the row-text ones next to them, are
      one ``%`` per block (see :class:`_Floats`), split into cells on a
      sentinel; a run of row-text columns alone is repeated as text.

    The block joins, cell by cell, the strings of these segments, each of
    which ends in the literal after it; if one run of floats spans the
    row, the block is its ``%`` result.
    """
    specs = _SPEC.findall(template)
    literals = _SPEC.split(template)
    shape = nu, nv = np.shape(cols[0][1] if isinstance(cols[0], tuple)
                              else cols[0])
    # runs of row pieces (see _row_texts), between segments that give a
    # block's cells as strings
    runs = [[sep + literals[0] % ()]]
    for c, spec, lit in zip(cols, specs, literals[1:]):
        tail = lit % ()
        rows = _row_text(c, spec, tail)
        mostly_one = 8 * rows.count(None) <= nu
        if None not in rows:
            runs[-1].append(rows)
            continue
        if isinstance(c, tuple):
            cells = partial(_lookup, partial(c[0], tail=tail), c[1])
        elif mostly_one:
            cells = partial(_lookup, partial(_formatted, spec + lit), c)
        elif _constant_down(c):
            cells = partial(_tile, [spec % x + tail for x in c[0].tolist()])
        elif (table := _Distinct.of(c, spec, tail)) is not None:
            cells = partial(_lookup, table.strings, c)
        else:
            runs[-1].append((spec + lit, c))
            continue
        runs += [partial(_per_row, rows, cells, nv) if mostly_one else cells,
                 []]
    segments = []       # each gives the text of a block's cells
    for run in runs:
        if callable(run):
            segments.append(run)
        elif any(isinstance(p, tuple) for p in run):
            segments.append(_Floats(run, shape))
        elif any(rows := _row_texts(run, nu)):
            segments.append(partial(_repeat, np.array(rows, dtype=object), nv))
    step = max(1, _BLOCK_ROWS // nv)
    width = len(segments)
    for r0 in range(0, nu, step):
        r1 = min(r0 + step, nu)
        if width == 1 and isinstance(segments[0], _Floats):
            block = segments[0].text(r0, r1)
        else:
            values = [None] * (width * (r1 - r0) * nv)
            for k, cells in enumerate(segments):
                values[k::width] = cells(r0, r1)
            block = "".join(values)
        yield block[len(sep):] if r0 == 0 else block


def _csv_template(n_floats: int, n_strings: int = 0) -> str:
    """%-template of one CSV row: %.12g floats, then strings; \\r\\n ending."""
    return ",".join(["%.12g"] * n_floats + ["%s"] * n_strings) + "\r\n"


def _grid_columns(sweep: dict) -> list:
    """The 14 numeric CSV columns of a sweep, as the sweep holds them."""
    z = sweep["z"]
    return ([sweep["U"], sweep["V"]] + [z[..., c] for c in range(4)]
            + [sweep[k] for k in
               ("E", "F", "G", "K", "Kperp", "h1", "h2", "Hnormsq")])


def _write_csv(path: Path, sweep: dict):
    cols = _grid_columns(sweep)
    cols += [(_causal_names, cols[6]), (_causal_names, cols[8])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(_row_blocks(_csv_template(14, 2), cols))


def _face_lines(nu: int, nv: int):
    """Yield the bytes of the OBJ lines ``f a b c d`` of the grid's quads.

    Face k of row i, column j has the corners a = i nv + j + 1, a + nv,
    a + nv + 1 and a + 1.  Faces go _BLOCK_ROWS at a time, and each block
    makes one table of ASCII digits: the vertex indices its faces touch,
    a0 through a1 + nv + 1, right-aligned in the width of the last.  The
    table is per block, so it stays as small as the block's lines.  Each
    corner grows with k, and so does its digit count; a block therefore
    splits, where a corner reaches a power of 10, into runs of lines of
    one width, and each run is a (lines, width) matrix of ASCII bytes
    whose corners are gathered from the table.
    """
    n = (nu - 1) * (nv - 1)
    for s in range(0, n, _BLOCK_ROWS):
        i, j = np.divmod(np.arange(s, min(s + _BLOCK_ROWS, n)), nv - 1)
        a = i * nv + j + 1
        a0, top = int(a[0]), int(a[-1]) + nv + 1
        width = len(str(top))
        table = np.empty((top - a0 + 1, width), np.uint8)
        index = np.arange(a0, top + 1)
        for p in range(width - 1, -1, -1):
            index, table[:, p] = np.divmod(index, 10)
        table += ord("0")
        offsets = (0, nv, nv + 1, 1)
        # where a corner a + o first reaches each power of 10 in the table
        cuts = {0, len(a)}
        for e in range(len(str(a0)), width):
            cuts.update(np.searchsorted(a, [10 ** e - o for o in offsets])
                        .tolist())
        cuts = sorted(cuts)
        rows = a - a0
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            widths = [len(str(int(a[r0]) + o)) for o in offsets]
            lines = np.full((r1 - r0, sum(widths) + 6), ord(" "), np.uint8)
            lines[:, 0], lines[:, -1] = ord("f"), ord("\n")
            end = 1
            for o, w in zip(offsets, widths):
                end += 1 + w
                lines[:, end - w:end] = table.take(rows[r0:r1] + o,
                                                   axis=0)[:, width - w:]
            yield lines.tobytes()


def _write_obj(path: Path, sweep: dict):
    z = sweep["z"]
    with open(path, "wb") as fh:
        fh.write(b"# parametric surface export, y-up, vertices + quads\n")
        fh.writelines(block.encode() for block in _row_blocks(
            "v %.9g %.9g %.9g\n", [z[..., c] for c in (0, 3, 1)]))
        fh.writelines(_face_lines(*z.shape[:2]))


def _write_grid_json(path: Path, echo: dict, columns: list, cols: list):
    """Write ``{"config": echo, "columns": columns, "rows": rows}`` as
    :func:`_dumps` spells it; row i holds entry i of each flat column."""
    head = _dumps({"config": echo, "columns": columns})
    template = "[" + ", ".join(["%r"] * len(cols)) + "]"
    blocks = _row_blocks(template, cols, ", ")
    if not all(np.isfinite(c).all() for c in cols):
        # repr() spells non-finite floats nan/inf; JSON has only null.
        blocks = (block.replace("-inf", "null").replace("inf", "null")
                  .replace("nan", "null") for block in blocks)
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "rows": [')
        fh.writelines(blocks)
        fh.write("]}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

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
            with open(out_dir / "geomfuncs.csv", "w", newline="") as fh:
                fh.write(",".join(GEOMFUNC_COLUMNS) + "\r\n")
                fh.writelines(_row_blocks(_csv_template(len(cols)), cols))
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
        lam, mu, nu = solution_family(a, b, kappa)
        if system == "degenerate":
            report = residual_degenerate(lam, mu, nu, grid, tol=tol)
        else:
            if not grid.u_max > grid.u_min:
                raise ConfigError("grid u_max must exceed u_min")
            # the residuals read the profile and chart, not the directrix
            surface = build_surface(FamilySpec(
                "PNMC1", {"a": a, "b": b, "kappa": 2.0},
                grid.u_min, grid.u_max))
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
