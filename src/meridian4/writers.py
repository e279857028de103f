"""The CSV, OBJ and grid-JSON writers of a swept grid, all through one
block writer, :func:`_row_blocks`; their bytes are a stable contract
(README, "The output bytes are a stable contract")."""
from __future__ import annotations

import json
import re
from functools import partial
from pathlib import Path

import numpy as np

from .grids import json_safe
from .minkowski import DEFAULT_CAUSAL_TOL

CSV_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "E", "F", "G", "K",
               "Kperp", "h1", "h2", "Hnormsq", "causal_zu", "causal_zv"]


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


def _repeat(rows: np.ndarray, nv: int, r0: int, r1: int) -> list:
    """Each text of grid rows r0..r1-1, once per cell of its row."""
    return np.repeat(rows[r0:r1], nv).tolist()


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
      is formatted once per grid row;
    - a column with few distinct values is formatted once per value (see
      :class:`_Distinct`), as ``v`` is on 8 or more grid rows, and a
      pair's strings come from its text;
    - the other columns, with the row-text ones next to them, are
      one ``%`` per block (see :class:`_Floats`), split into cells on a
      sentinel; a run of row-text columns alone is repeated as text.
      A column with one text on most rows but not all (``K``) is here
      too when it has too many distinct values for a table.

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
        if None not in rows:
            runs[-1].append(rows)
            continue
        if isinstance(c, tuple):
            text, c = partial(c[0], tail=tail), c[1]
        elif (table := _Distinct.of(c, spec, tail)) is not None:
            text = table.strings
        else:
            runs[-1].append((spec + lit, c))
            continue
        runs += [partial(_lookup, text, c), []]
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


def _write_csv_table(path: Path, header: list, cols: list):
    """Write a CSV of equal-shape 2-D columns: the ``header`` row, then one
    row per grid cell in row-major order, a float column as %.12g and a
    pair (text, array) as its strings, each row ending in \\r\\n."""
    template = ",".join(["%s" if isinstance(c, tuple) else "%.12g"
                         for c in cols]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(_row_blocks(template, cols))


def _grid_columns(sweep: dict) -> list:
    """The 14 numeric CSV columns of a sweep, as the sweep holds them."""
    z = sweep["z"]
    return ([sweep["U"], sweep["V"]] + [z[..., c] for c in range(4)]
            + [sweep[k] for k in
               ("E", "F", "G", "K", "Kperp", "h1", "h2", "Hnormsq")])


def _write_csv(path: Path, sweep: dict):
    cols = _grid_columns(sweep)
    cols += [(_causal_names, cols[6]), (_causal_names, cols[8])]
    _write_csv_table(path, CSV_COLUMNS, cols)


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
