"""Span tracer for the benchmark's traced runs.

The tracer wraps library functions from outside: ``meridian4`` itself is
not modified. A wrapper records one span (name, start, end, parent) per
call and is installed at every place the function is bound, because
``cli``, ``acceptance`` and the package ``__init__`` bind their imports
with ``from ... import``, ``acceptance._CRITERIA`` holds the criterion
function objects, and ``CumulativeQuadrature`` looks ``quadrature`` up as
a ``diffkit`` module global. Methods are wrapped on their class.

Spans stay in memory and are written once, when the command returns.

Run as a script, it is the traced child process::

    python3 perfbench/spans.py SPANS.npz <meridian4 CLI arguments...>
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

#: (span name, module, function or Class.method). Several targets may share
#: one span name.
TARGETS = (
    ("cli.build_surface", "meridian4.cli", "_build_surface"),
    ("cli.sweep", "meridian4.cli", "_sweep"),
    ("cli.write_csv", "meridian4.cli", "_write_csv"),
    ("cli.write_obj", "meridian4.cli", "_write_obj"),
    ("families.build_profile", "meridian4.families", "build_profile"),
    ("diffkit.integrate_profile", "meridian4.diffkit", "integrate_profile"),
    ("diffkit.cumquad", "meridian4.diffkit", "CumulativeQuadrature.__call__"),
    ("diffkit.simpson", "meridian4.diffkit", "quadrature"),
    ("geometry.raw", "meridian4.geometry", "MeridianSurface._raw"),
    ("geometry.profile_jets", "meridian4.geometry", "MeridianProfile.jets"),
    ("geometry.curve_data", "meridian4.geometry", "SphericalCurve.data"),
    *((f"geometry.{m}", "meridian4.geometry", f"MeridianSurface.{m}")
      for m in ("gauss_curvature", "normal_curvature", "mean_curvature",
                "normal_derivative_H", "normal_derivative_H0", "frame")),
    ("natural_pde.geometric_functions", "meridian4.natural_pde",
     "geometric_functions"),
    ("natural_pde.isotropic_frame", "meridian4.natural_pde", "isotropic_frame"),
    *(("natural_pde.residual", "meridian4.natural_pde", f"residual_{s}")
      for s in ("fund", "degenerate", "syst1")),
    ("minkowski.verify_frame", "meridian4.minkowski", "verify_frame"),
    ("acceptance.standard_instances", "meridian4.acceptance",
     "standard_instances"),
    *((f"acceptance.criterion_{i:02d}", "meridian4.acceptance",
       f"criterion_{i}") for i in range(1, 11)),
)

#: Every span name, the root span of the traced command first.
SPAN_NAMES = tuple(dict.fromkeys(["cli.main"] + [t[0] for t in TARGETS]))

#: Span call counts reported as per-layer metrics.
CALL_COUNTS = {
    "geometry.raw_calls": "geometry.raw",
    "diffkit.cumquad_calls": "diffkit.cumquad",
    "diffkit.simpson_calls": "diffkit.simpson",
    "natural_pde.geometric_functions_calls": "natural_pde.geometric_functions",
    "minkowski.verify_frame_calls": "minkowski.verify_frame",
}


def _count_rk4_steps(counts, args, solution):
    counts["diffkit.rk4_steps"] += len(solution.values) - 1


def _count_written(counts, args, _):
    counts["cli.write_bytes"] += os.path.getsize(args[0])


#: Counts taken from a call's arguments or result, keyed by span name.
RETURN_HOOKS = {
    "diffkit.integrate_profile": _count_rk4_steps,
    "cli.write_csv": _count_written,
    "cli.write_obj": _count_written,
}
HOOK_COUNTS = ("diffkit.rk4_steps", "cli.write_bytes")


class Recorder:
    """In-memory span log with a stack of open spans."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.rows = []          # [name id, start, end, parent row or -1]
        self.stack = [-1]
        self.counts = dict.fromkeys(HOOK_COUNTS, 0)

    def wrap(self, name, fn):
        nid = self.names.index(name)
        rows, stack, clock = self.rows, self.stack, time.perf_counter
        hook, counts = RETURN_HOOKS.get(name), self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(rows))
            rows.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out
        return traced

    def install(self):
        """Wrap every target at every binding inside the meridian4 package."""
        import importlib
        for name in ("meridian4.cli", "meridian4.acceptance"):
            importlib.import_module(name)
        modules = [m for k, m in sys.modules.items()
                   if k == "meridian4" or k.startswith("meridian4.")]
        replaced = {}
        for name, module_name, qualname in TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            replaced[id(original)] = wrapped
            if path:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        acceptance = sys.modules["meridian4.acceptance"]
        acceptance._CRITERIA = tuple(replaced.get(id(fn), fn)
                                     for fn in acceptance._CRITERIA)

    def dump(self, path, import_s: float):
        import numpy as np
        rows = np.array(self.rows, dtype=float).reshape(-1, 4)
        np.savez(path, rows=rows, names=np.array(self.names),
                 meta=np.array(json.dumps({"counts": self.counts,
                                           "import_s": import_s})))


def layer_metrics(path) -> tuple:
    """Per-layer metrics and the trace table of one traced process.

    Returns (metrics, table) where metrics maps a metric name to a number
    and table lists (span, calls, total seconds, self seconds) for every
    span that fired. A span's self time is its duration minus that of
    its direct children.
    """
    import numpy as np
    with np.load(path) as data:
        rows, names = data["rows"], [str(n) for n in data["names"]]
        meta = json.loads(str(data["meta"]))
    nid = rows[:, 0].astype(int)
    dur = rows[:, 2] - rows[:, 1]
    parent = rows[:, 3].astype(int)
    inner = np.zeros(len(rows))
    nested = parent >= 0
    np.add.at(inner, parent[nested], dur[nested])
    own = dur - inner

    metrics, table, durations = {}, [], {}
    for i, name in enumerate(names):
        mask = nid == i
        calls = int(np.count_nonzero(mask))
        total, self_s = float(dur[mask].sum()), float(own[mask].sum())
        metrics[f"{name}_s"] = total
        metrics[f"{name}_self_s"] = self_s
        durations[name] = dur[mask]
        if calls:
            table.append((name, calls, total, self_s))
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = int(durations[name].size)
    metrics.update(meta["counts"])

    write_s = metrics["cli.write_csv_s"] + metrics["cli.write_obj_s"]
    metrics["cli.write_mb_per_s"] = (metrics["cli.write_bytes"] / 2 ** 20 / write_s
                                     if write_s else 0.0)
    cumquad = metrics["diffkit.cumquad_calls"]
    metrics["diffkit.cumquad_hit_ratio"] = (
        1.0 - metrics["diffkit.simpson_calls"] / cumquad if cumquad else 0.0)
    gf = durations["natural_pde.geometric_functions"] * 1e6
    for q in (50, 99):
        metrics[f"natural_pde.geometric_functions_p{q}_us"] = (
            float(np.percentile(gf, q)) if gf.size else 0.0)
    metrics["process.import_s"] = float(meta["import_s"])
    return metrics, table


#: Metrics whose value must repeat exactly for equal inputs.
EXACT_COUNTS = tuple(CALL_COUNTS) + HOOK_COUNTS


def main(argv) -> int:
    """Import meridian4 (timed), trace one CLI command, write its spans."""
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import meridian4.cli
    import_s = time.perf_counter() - t0
    recorder = Recorder()
    recorder.install()
    rc = recorder.wrap("cli.main", meridian4.cli.main)(cli_args)
    recorder.dump(spans_path, import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
