import csv
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from meridian4 import Grid2, cli, natural_pde, writers
from meridian4.cli import main
from meridian4.natural_pde import geometric_functions

TWO_PI = 6.283185307179586


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def flat_cfg(tmp_path):
    return write_cfg(tmp_path / "flat.json", {
        "family": {"tag": "Flat", "a": 0.0, "b": 1.0, "c": 0.0,
                   "u_min": -2.0, "u_max": 2.0},
        "directrix": {"kind": "latitude", "kappa": 1.0},
        "grid": {"u_min": -2.0, "u_max": 2.0, "nu": 12,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 12},
    })


@pytest.fixture
def cmc_cfg(tmp_path):
    return write_cfg(tmp_path / "cmc.json", {
        "family": {"tag": "CMC", "a": 1.0, "kappa": 1.0, "c": 1.0,
                   "f0": 1.0, "u_min": 0.0, "u_max": 1.0, "h": 1e-3},
        "directrix": {"kind": "latitude", "kappa": 1.0},
        "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 15,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 15},
        "tol": 1e-6,
    })


def test_generate_flat_bundle(flat_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--config", flat_cfg, "--out", str(out)]) == 0
    capsys.readouterr()

    with open(out / "surface.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12 * 12
    assert list(rows[0]) == ["u", "v", "x1", "x2", "x3", "x4", "E", "F", "G",
                             "K", "Kperp", "h1", "h2", "Hnormsq",
                             "causal_zu", "causal_zv"]
    assert all(abs(float(r["K"])) < 1e-12 for r in rows)
    assert all(r["causal_zu"] == "timelike" for r in rows)

    obj = (out / "surface.obj").read_text().splitlines()
    n_v = sum(1 for line in obj if line.startswith("v "))
    n_f = sum(1 for line in obj if line.startswith("f "))
    assert n_v == 144 and n_f == 11 * 11

    report = json.loads((out / "report.json").read_text())
    assert report["config"]["family"]["tag"] == "Flat"
    assert report["summary"]["max_abs_K"] < 1e-12


def test_generate_rejects_degenerate_grid(flat_cfg, tmp_path, capsys):
    cfg = json.loads(open(flat_cfg).read())
    cfg["grid"]["nu"] = 1
    bad = write_cfg(tmp_path / "bad.json", cfg)
    assert main(["generate", "--config", bad]) == 2


def test_generate_rejects_grid_outside_family(flat_cfg, tmp_path, capsys):
    # the family interval [-2, 2] is closed, with no slack beyond it
    for key, value in (("u_max", 5.0), ("u_max", 2.0 + 1e-13),
                       ("u_min", -2.0 - 1e-13)):
        cfg = json.loads(open(flat_cfg).read())
        cfg["grid"][key] = value
        bad = write_cfg(tmp_path / "bad2.json", cfg)
        assert main(["generate", "--config", bad]) == 2
        assert "outside family interval" in capsys.readouterr().err


def test_curvature_directrix_serves_its_own_end_points(tmp_path, capsys):
    # grid v in [0, 6] on a curve integrated over exactly [0, 6]
    cfg = write_cfg(tmp_path / "pnmc1.json", {
        "family": {"tag": "PNMC1", "a": 0.0, "b": 1.0, "kappa": 2.0,
                   "u_min": -0.9, "u_max": 0.9},
        "directrix": {"kind": "curvature", "kappa": "sin-offset:2",
                      "v_min": 0, "v_max": 6},
        "grid": {"u_min": -0.9, "u_max": 0.9, "nu": 7,
                 "v_min": 0.0, "v_max": 6.0, "nv": 9},
    })
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "surface.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * 9
    assert {float(r["v"]) for r in rows} >= {0.0, 6.0}


def test_default_curvature_directrix_spans_the_grid_v_range():
    # the curve starts its frame at grid.v_min, whatever grid.v_max is
    directrix = {"kind": "curvature", "kappa": "sin-offset:2"}
    long, short = (cli._build_directrix(directrix, Grid2(0.0, 1.0, 2, 0.0, v1, 5))
                   for v1 in (6.0, 3.0))
    assert str(long.domain) == "[0.0, 6.0]" and str(short.domain) == "[0.0, 3.0]"
    assert np.array_equal(long.data(1.0).l, short.data(1.0).l)
    # a constant-v grid gets a curve one step long
    point = cli._build_directrix(directrix, Grid2(0.0, 1.0, 2, 1.0, 1.0, 5))
    assert str(point.domain) == "[1.0, 1.001]"


def test_verify_cmc_passes(cmc_cfg, capsys):
    assert main(["verify", "--config", cmc_cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["passed"] is True
    assert payload["verdict"]["max_violation"] <= 1e-6


def test_verify_mismatched_kappa_fails(cmc_cfg, tmp_path, capsys):
    cfg = json.loads(open(cmc_cfg).read())
    cfg["directrix"]["kappa"] = 1.5
    bad = write_cfg(tmp_path / "mismatch.json", cfg)
    assert main(["verify", "--config", bad]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["max_violation"] > 1e-3


def test_verify_domain_failure_exit_code(cmc_cfg, tmp_path, capsys):
    cfg = json.loads(open(cmc_cfg).read())
    cfg["family"]["kappa"] = 10.0      # radicand negative at f0
    bad = write_cfg(tmp_path / "dom.json", cfg)
    assert main(["verify", "--config", bad]) == 3


def test_verify_parallel_h1_passes(tmp_path):
    cfg = write_cfg(tmp_path / "ph1.json", {
        "family": {"tag": "ParallelH1", "a": 1.0, "c": 0.0,
                   "f0": float(np.cosh(0.1)), "u_min": 0.0, "u_max": 1.0,
                   "h": 1e-3},
        "directrix": {"kind": "great"},
        "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 12,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 12},
        "tol": 1e-7,
    })
    assert main(["verify", "--config", cfg]) == 0


# families whose own directrix (families.default_directrix) is the
# latitude circle of their kappa: (params, u-interval)
OWN_LATITUDE = {
    "CMC": ({"a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0, "h": 1e-3},
            (0.0, 1.0)),
    "ParallelH2": ({"a": 2.0, "b": 0.0, "kappa": 3.0}, (-1.0, 1.0)),
    "PNMC1": ({"a": 0.0, "b": 1.0, "kappa": 2.0}, (-0.9, 0.9)),
    "PNMC2": ({"a": 1.0, "c": 2.0, "kappa": 1.0, "f0": 1.0, "h": 1e-3},
              (0.0, 0.8)),
}


@pytest.mark.parametrize("tag", sorted(OWN_LATITUDE))
def test_missing_directrix_is_the_familys_own(tag, tmp_path, capsys):
    # without a directrix key the surface is the one families.build_surface
    # gives, not one on the great circle (where CMC fails and PNMC1's H
    # vanishes)
    params, (lo, hi) = OWN_LATITUDE[tag]
    base = {"family": {"tag": tag, **params, "u_min": lo, "u_max": hi},
            "grid": {"u_min": lo, "u_max": hi, "nu": 10,
                     "v_min": 0.0, "v_max": TWO_PI, "nv": 10},
            "tol": 1e-6}
    circle = {"directrix": {"kind": "latitude", "kappa": params["kappa"]}}
    verdicts = []
    for name, cfg in (("bare", base), ("circle", {**base, **circle})):
        out = tmp_path / name
        assert main(["verify", "--config", write_cfg(tmp_path / f"{name}.json",
                                                     cfg),
                     "--out", str(out)]) == 0
        verdicts.append(json.loads((out / "verdict.json").read_text()))
    capsys.readouterr()
    assert verdicts[0]["verdict"] == verdicts[1]["verdict"]


def test_missing_directrix_keeps_flat_on_the_great_circle(flat_cfg, tmp_path,
                                                          capsys):
    bare = json.loads(open(flat_cfg).read())
    del bare["directrix"]
    great = {**bare, "directrix": {"kind": "great"}}
    texts = []
    for name, cfg in (("bare", bare), ("great", great)):
        out = tmp_path / name
        assert main(["generate", "--config",
                     write_cfg(tmp_path / f"{name}.json", cfg),
                     "--out", str(out)]) == 0
        texts.append((out / "surface.csv").read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_pnmc2_generate_h0_parallel(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "pnmc2.json", {
        "family": {"tag": "PNMC2", "a": 1.0, "c": 2.0, "kappa": 1.0,
                   "f0": 1.0, "u_min": 0.0, "u_max": 0.8, "h": 1e-3},
        "directrix": {"kind": "latitude", "kappa": 1.0},
        "grid": {"u_min": 0.0, "u_max": 0.8, "nu": 10,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 10},
        "tol": 1e-7,
    })
    assert main(["verify", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["details"]["max_DXH"] >= 0.01


def test_pde_syst1_example1(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "pde.json", {
        "system": "syst1", "solution": "example1", "kappa": "sin-offset:2",
        "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 20,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 20},
        "tol": 1e-8,
    })
    assert main(["pde", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True
    assert all(e["max_abs"] <= 1e-8 for e in payload["report"]["equations"])


def test_pde_fund_wrong_epsilon_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "pde2.json", {
        "system": "fund", "solution": "example1", "kappa": "sin-offset:2",
        "epsilon": 1,
        "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 15,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 15},
        "tol": 1e-8,
    })
    assert main(["pde", "--config", cfg]) == 1
    payload = json.loads(capsys.readouterr().out)
    worst = max(e["max_abs"] for e in payload["report"]["equations"])
    assert worst >= 0.1


def test_pde_degenerate_separable(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "pde3.json", {
        "system": "degenerate", "solution": "separable",
        "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 8,
                 "v_min": 0.0, "v_max": 1.0, "nv": 8},
        "tol": 1e-10,
    })
    assert main(["pde", "--config", cfg]) == 0


def test_pde_family_selector(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "pde4.json", {
        "system": "syst1", "solution": "family(0.5, 2.0)",
        "kappa": "poly:1,0,1",
        "grid": {"u_min": -0.7, "u_max": 1.7, "nu": 12,
                 "v_min": 0.0, "v_max": 1.0, "nv": 12},
        "tol": 1e-8,
    })
    assert main(["pde", "--config", cfg]) == 0


@pytest.mark.parametrize("system", ["syst1", "fund"])
def test_pde_accepts_a_reversed_u_range(system, tmp_path, capsys):
    # the residuals are pointwise: u from 2 to 1 checks the same points as
    # u from 1 to 2
    maxima = []
    for lo, hi in ((1.0, 2.0), (2.0, 1.0)):
        cfg = write_cfg(tmp_path / f"{system}-{lo}.json", {
            "system": system, "solution": "example1", "kappa": "sin-offset:2",
            "grid": {"u_min": lo, "u_max": hi, "nu": 20,
                     "v_min": 0.0, "v_max": TWO_PI, "nv": 20},
        })
        assert main(["pde", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        maxima.append([e["max_abs"] for e in report["equations"]])
    assert maxima[0] == maxima[1]


def test_pde_integrates_no_directrix(monkeypatch, tmp_path):
    # the residuals read the minimal profile (syst1) and the closed-form
    # chart (fund) only, never a surface or its directrix
    def refuse(*args, **kwargs):
        raise AssertionError("pde integrated a directrix")

    monkeypatch.setattr(cli, "curve_from_curvature", refuse)
    for system in ("syst1", "fund"):
        cfg = write_cfg(tmp_path / f"{system}.json", {
            "system": system, "solution": "example1", "kappa": "sin-offset:2",
            "epsilon": -1,
            "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 15,
                     "v_min": 0.0, "v_max": TWO_PI, "nv": 15},
            "tol": 1e-8,
        })
        assert main(["pde", "--config", cfg]) == 0


def test_pde_fund_evaluates_lambda_once(monkeypatch, tmp_path):
    # nu = lambda in the solution family: one callable, transported and
    # evaluated once over the barred grid
    family, calls = natural_pde.solution_family, []

    def counted(*args, **kwargs):
        fields = family(*args, **kwargs)
        raw = fields[0].partials

        def partials(u, v):
            calls.append(np.shape(u))
            return raw(u, v)
        # no audit_box: the audited call above has already run the audit
        return tuple(dataclasses.replace(f, partials=partials, audit_box=None)
                     if f.partials is raw else f for f in fields)

    monkeypatch.setattr(natural_pde, "solution_family", counted)
    cfg = write_cfg(tmp_path / "fund.json", {
        "system": "fund", "solution": "example1", "kappa": "sin-offset:2",
        "epsilon": -1,
        "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 15,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 15},
        "tol": 1e-8,
    })
    assert main(["pde", "--config", cfg]) == 0
    assert calls == [(15, 15)]


def test_out_of_domain_error_names_one_value(tmp_path, capsys):
    # u_max = 3.5 leaves the example1 profile's domain (-1, 3)
    cfg = write_cfg(tmp_path / "far.json", {
        "system": "syst1", "solution": "example1", "kappa": "sin-offset:2",
        "grid": {"u_min": -0.9, "u_max": 3.5, "nu": 40,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 40},
        "tol": 1e-8,
    })
    assert main(["pde", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "outside profile domain (-1.0, 3.0)" in err


@pytest.mark.parametrize("system, message", [
    ("degenerate", "u=-0.9 outside profile domain (0.0, 10.0)"),
    ("syst1", "u=-0.9 outside profile domain (0.0, 10.0)"),
    ("fund", "u=-0.9 outside profile domain (0.0, 10.0)")])
def test_pde_refuses_grid_outside_the_solution_interval(system, message,
                                                        tmp_path, capsys):
    # example2's fields are real only on (0, 10); every system checks the
    # grid against that interval first (degenerate used to run the fields
    # at u = -0.9, warn, and fail as a residual, exit 1)
    cfg = write_cfg(tmp_path / "out.json", {
        "system": system, "solution": "example2", "kappa": "sin-offset:2",
        "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 40,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 40},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pde", "--config", cfg])
    out, err = capsys.readouterr()
    assert code == 3 and not caught and out == ""
    assert err == f"numeric/domain failure: {message}\n"


@pytest.mark.parametrize("system", ["degenerate", "syst1", "fund"])
@pytest.mark.parametrize("solution", ["family(1e400, 1)", "family(1, -1e999)"])
def test_pde_nonfinite_family_selector_is_config_error(system, solution,
                                                       tmp_path, capsys):
    # 1e400 matches the selector's number pattern but reads as inf
    cfg = write_cfg(tmp_path / "inf.json", {
        "system": system, "solution": solution,
        "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 4,
                 "v_min": 0.0, "v_max": TWO_PI, "nv": 4},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pde", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2 and not caught
    assert err == (f"config error: family(a, b) needs finite a and b, "
                   f"not {solution!r}\n")


def test_loose_pde_tol_does_not_declare_mu_zero(tmp_path, capsys):
    # |mu| is about 1 on this grid; a residual tolerance of 1e10 passes
    # every residual and says nothing about whether mu vanishes
    cfg = write_cfg(tmp_path / "loose.json", {
        "system": "syst1", "solution": "example1", "kappa": "sin-offset:2",
        "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 40,
                 "v_min": 0.0, "v_max": 6.2832, "nv": 40},
        "tol": 1e-8,
    })
    assert main(["pde", "--config", cfg, "--tol", "1e10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True


def test_pde_unknown_solution(tmp_path):
    cfg = write_cfg(tmp_path / "pde5.json", {
        "system": "syst1", "solution": "mystery",
        "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 4,
                 "v_min": 0.0, "v_max": 1.0, "nv": 4},
    })
    assert main(["pde", "--config", cfg]) == 2


PDE_GOLDEN = Path(__file__).parent / "golden" / "pde"


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        PDE_GOLDEN.glob("*.json")))
def test_pde_report_matches_golden_bytes(name, tmp_path, capsys):
    # each <name>.out is the stdout of `pde --config <name>.json`, and
    # pde_report.json is that text without print's newline.  The reports
    # carry residuals of order 1e-15, so a platform whose sin, arcsin or
    # exp round differently changes their last digits
    want = (PDE_GOLDEN / f"{name}.out").read_text()
    code = main(["pde", "--config", str(PDE_GOLDEN / f"{name}.json"),
                 "--out", str(tmp_path)])
    assert capsys.readouterr().out == want
    assert (tmp_path / "pde_report.json").read_text() + "\n" == want
    assert code == (0 if json.loads(want)["report"]["passed"] else 1)


def test_export_formats(flat_cfg, tmp_path, capsys):
    for fmt, name in (("obj", "surface.obj"), ("csv", "surface.csv"),
                      ("json", "surface.json")):
        out = tmp_path / f"exp_{fmt}"
        assert main(["export", "--config", flat_cfg, "--out", str(out),
                     "--format", fmt]) == 0
        assert (out / name).exists()
    data = json.loads((tmp_path / "exp_json" / "surface.json").read_text())
    assert data["columns"][:2] == ["u", "v"]
    assert len(data["rows"]) == 144


_GEOMFUNCS_CONFIG = {
    "family": {"tag": "PNMC1", "a": 0.0, "b": 1.0, "kappa": 2.0,
               "u_min": -0.9, "u_max": 0.9},
    "directrix": {"kind": "latitude", "kappa": 2.0},
    "grid": {"u_min": -0.8, "u_max": 0.8, "nu": 5,
             "v_min": 0.0, "v_max": 6.0, "nv": 4},
}


def test_geomfuncs_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "gf.json", _GEOMFUNCS_CONFIG)
    out = tmp_path / "gfout"
    assert main(["geomfuncs", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "geomfuncs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert all(abs(float(r["beta1"])) < 1e-10 for r in rows)
    mid = [r for r in rows if abs(float(r["u"])) < 1e-12][0]
    assert float(mid["nu"]) == pytest.approx(1.0, abs=1e-10)


def test_missing_config_is_config_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "absent.json")]) == 2


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "10/10 acceptance criteria passed" in out
    assert out.count("[PASS]") == 10


def _fresh_process(code: str) -> list:
    """The lines a fresh Python process running code prints."""
    path = [str(Path(__file__).resolve().parent.parent / "src"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _imported(argv, modules) -> list:
    """Which of modules a fresh CLI process running argv imports; a fresh
    process, since this one may have imported them already."""
    code = ("import json, sys; from meridian4.cli import main; "
            f"assert main({argv!r}) == 0; "
            f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    return json.loads(_fresh_process(code)[-1])


@pytest.mark.parametrize("command", ["selfcheck", "generate", "verify",
                                     "geomfuncs", "pde"])
def test_command_imports_no_unused_numpy_module(command, cmc_cfg, tmp_path):
    # numpy.random costs about 6 MiB and 10 ms to import, numpy.ma about
    # 1 MiB and 10 ms; np.random.default_rng, np.median and np.unique
    # import them, and no command needs them
    config = {"generate": cmc_cfg, "verify": cmc_cfg,
              "geomfuncs": write_cfg(tmp_path / "gf.json", _GEOMFUNCS_CONFIG),
              "pde": write_cfg(tmp_path / "pde.json",
                               _with(_PDE_SMALL, system="syst1"))}
    argv = [command]
    if command in config:
        argv += ["--config", config[command]]
    if command in ("generate", "geomfuncs"):
        argv += ["--out", str(tmp_path / "o")]
    assert _imported(argv, ["numpy.random", "numpy.ma"]) == []


def test_main_freezes_the_heap_once_at_exit():
    # atexit runs its handlers last in, first out: the CLI's gc.freeze,
    # registered by main, runs before this hook, registered first
    code = """if True:
        import atexit, contextlib, gc, io
        atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
        registered, register = [], atexit.register

        def counting(fn, *args, **kwargs):
            registered.append(fn)
            return register(fn, *args, **kwargs)

        atexit.register = counting
        from meridian4.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["selfcheck"]) == main(["selfcheck"]) == 0
        print("registered", registered.count(gc.freeze))
    """
    assert _fresh_process(code)[-2:] == ["registered 1", "frozen True"]


def test_thread_cap_env(monkeypatch, flat_cfg, tmp_path):
    monkeypatch.setenv("MERIDIAN_THREADS", "4")
    out = tmp_path / "thr"
    assert main(["generate", "--config", flat_cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["threads"] == 4
    monkeypatch.setenv("MERIDIAN_THREADS", "junk")
    assert main(["generate", "--config", flat_cfg, "--out", str(out)]) == 2


@pytest.mark.parametrize("command, edit", [
    ("generate", lambda c: c.update(directrix={"kind": "latitude", "kappa": "abc"})),
    ("generate", lambda c: c["family"].update(a="x")),
    ("generate", lambda c: c.update(directrix="great")),
    ("verify", lambda c: c.update(tol="x")),
    ("generate", lambda c: c.update(out=5)),
    ("pde", lambda c: c.update(system="fund", solution="example1", epsilon="x")),
    pytest.param("pde", lambda c: c.update(system="fund", solution="example1",
                                           epsilon=2), id="epsilon-2"),
    pytest.param("pde", lambda c: c.update(system="fund", solution="example1",
                                           epsilon=1.5), id="epsilon-1.5"),
    pytest.param("generate", lambda c: c["grid"].update(nu=float("inf")),
                 id="grid-nu-inf"),
    pytest.param("generate", lambda c: c["family"].update(sign_g=float("inf")),
                 id="sign_g-inf"),
    pytest.param("verify", lambda c: c.update(tol=float("nan")), id="tol-nan"),
    pytest.param("verify", lambda c: c.update(tol=float("inf")), id="tol-inf"),
    pytest.param("pde", lambda c: c.update(system="syst1", solution="example1",
                                           tol=float("nan")), id="pde-tol-nan"),
])
def test_malformed_config_is_config_error(command, edit, cmc_cfg, tmp_path,
                                          capsys):
    cfg = json.loads(open(cmc_cfg).read())
    edit(cfg)
    bad = write_cfg(tmp_path / "bad.json", cfg)
    assert main([command, "--config", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("config", "tol", True),
    *(("grid", k, v) for k, v in (("u_min", False), ("u_max", True),
                                  ("nu", 12.7), ("v_min", False),
                                  ("v_max", True), ("nv", 10.5))),
    *(("family", k, v) for k, v in (("a", True), ("kappa", True),
                                    ("c", True), ("f0", True),
                                    ("u_min", False), ("u_max", True),
                                    ("h", True), ("sign_g", True),
                                    ("sign_g", 1.5))),
    ("directrix", "kappa", True),
    ("curvature", "h", True),
    ("curvature", "v_min", False),
])
def test_config_number_is_a_json_number(section, key, value, cmc_cfg,
                                        tmp_path, capsys):
    # float() reads a JSON true as 1.0 and int() truncates a fraction, so
    # a config with any of these values used to run
    cfg = json.loads(open(cmc_cfg).read())
    if section == "config":
        cfg[key] = value
    elif section == "curvature":
        cfg["directrix"] = {"kind": "curvature", "kappa": "const:1", key: value}
    else:
        cfg[section][key] = value
    bad = write_cfg(tmp_path / "bad.json", cfg)
    assert main(["verify", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err, err


@pytest.mark.parametrize("command", ["verify", "pde"])
@pytest.mark.parametrize("flag", ["inf", "nan"])
def test_nonfinite_tol_flag_is_config_error(command, flag, cmc_cfg, tmp_path,
                                            capsys):
    # the config fails verify at its own tol; --tol inf must not pass it
    cfg = json.loads(open(cmc_cfg).read())
    cfg.update(tol=1e-300, system="syst1", solution="example1")
    path = write_cfg(tmp_path / "tol.json", cfg)
    assert main(["verify", "--config", path]) == 1
    assert main([command, "--config", path, "--tol", flag]) == 2
    err = capsys.readouterr().err
    assert "tol must be positive and finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "verify", "geomfuncs",
                                     "pde"])
@pytest.mark.parametrize("key, value", [
    ("v_max", math.inf), ("v_min", math.nan), ("u_min", -math.inf),
    ("u_max", math.nan)])
def test_nonfinite_grid_bound_is_config_error(command, key, value, cmc_cfg,
                                              tmp_path, capsys):
    # Python's json reads the tokens Infinity and NaN, which json.dumps
    # writes; such a grid used to fail later, as a numeric failure (3)
    cfg = json.loads(open(cmc_cfg).read())
    cfg.update(system="syst1", solution="example1")
    cfg["grid"][key] = value
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert ("NaN" if math.isnan(value) else "Infinity") in open(path).read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and not caught
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["generate", "export", "geomfuncs",
                                     "verify", "pde"])
def test_unwritable_out_is_config_error(command, cmc_cfg, tmp_path, capsys):
    # --out names a regular file, so the output directory cannot be made;
    # a command prints its summary or verdict only once its files are out
    cfg = json.loads(open(cmc_cfg).read())
    cfg.update(system="syst1", solution="example1")
    path = write_cfg(tmp_path / "cfg.json", cfg)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    assert main([command, "--config", path, "--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: cannot write output {taken}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == "" and taken.read_text() == "a file"


def test_non_object_config_is_config_error(tmp_path, capsys):
    bad = write_cfg(tmp_path / "list.json", [1, 2])
    assert main(["generate", "--config", bad]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_directrix_domain_failure_exit_code(flat_cfg, tmp_path, capsys):
    # a curvature directrix on (0, 1) cannot serve a grid out to v = 2 pi
    cfg = json.loads(open(flat_cfg).read())
    cfg["directrix"] = {"kind": "curvature", "kappa": "const:0.5",
                        "v_min": 0.0, "v_max": 1.0}
    bad = write_cfg(tmp_path / "short.json", cfg)
    assert main(["generate", "--config", bad]) == 3
    assert "outside directrix domain" in capsys.readouterr().err


def test_inconsistent_directrix_exit_code(flat_cfg, tmp_path, capsys):
    # RK4 with a step of 0.5 leaves the sphere: the curve fails its load check
    cfg = json.loads(open(flat_cfg).read())
    cfg["directrix"] = {"kind": "curvature", "kappa": "sin-offset:2", "h": 0.5}
    bad = write_cfg(tmp_path / "coarse.json", cfg)
    assert main(["generate", "--config", bad]) == 3
    assert "violates sphere/arc-length normalization" in capsys.readouterr().err


# Work beyond the caps is refused before any array is built or step taken:
# uncapped, the first two never return and the directrix allocates 7 GB.
OVERSIZED = [
    pytest.param(lambda c: c["family"].update(u_min=-1e300), 3,
                 "more than 1000000", id="cmc-u_min-1e300"),
    pytest.param(lambda c: c.update(directrix={
        "kind": "curvature", "kappa": "const:2", "v_max": 1e5}), 3,
        "more than 1000000", id="directrix-v_max-1e5"),
    pytest.param(lambda c: c.update(directrix={
        "kind": "curvature", "kappa": "const:2", "h": 0.0}), 3,
        "h=0.0", id="directrix-h-0"),
    pytest.param(lambda c: c["grid"].update(nu=10 ** 400), 2,
                 "exceeds 100000000 points", id="grid-nu-400-digits"),
    pytest.param(lambda c: c["grid"].update(nu=10 ** 5, nv=10 ** 5), 2,
                 "exceeds 100000000 points", id="grid-1e5-by-1e5"),
]


@pytest.mark.parametrize("edit, code, message", OVERSIZED)
def test_oversized_work_is_refused_up_front(edit, code, message, cmc_cfg,
                                            tmp_path, capsys):
    cfg = json.loads(open(cmc_cfg).read())
    edit(cfg)
    bad = write_cfg(tmp_path / "big.json", cfg)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main(["generate", "--config", bad, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == code
    assert time.perf_counter() - start < 30.0
    assert peak < 64 * 2 ** 20
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o" / "surface.csv").exists()


def _peak_grids(run, grid) -> float:
    """The traced peak memory of run(), in float arrays of the grid's size."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.nu * grid.nv * 8)


def _cmc_200(cmc_cfg):
    cfg = json.loads(open(cmc_cfg).read())
    cfg["grid"].update(nu=200, nv=200)
    return cli._build_surface(cfg)


def test_sweep_builds_no_ambient_arrays_of_the_grid(cmc_cfg):
    # the invariants take inner products of factored fields, so the sweep
    # holds its output columns, z and a few grid-sized temporaries; an
    # invariant that built (nu, nv, 4) fields would read about 50 grids.
    # It reads 12.8: the curvature temporaries peak while the sweep holds
    # only K, Kperp and h1, and z is built once, as four planes
    surface, _, grid = _cmc_200(cmc_cfg)
    assert _peak_grids(lambda: cli._sweep(surface, grid), grid) <= 13


@pytest.mark.parametrize("write", ["_write_csv", "_write_obj"])
def test_writers_hold_no_copy_of_the_grid(write, cmc_cfg, tmp_path,
                                          monkeypatch):
    # the writers read the sweep's columns in place and copy one block
    # of rows at a time, so the peak above the sweep is the distinct-value
    # tables and one block: CSV 2.3 and OBJ 1.2 grids; flattened copies
    # of the columns read 14.3 and 9.2
    monkeypatch.setattr(writers, "_BLOCK_ROWS", 512)
    surface, _, grid = _cmc_200(cmc_cfg)
    sweep = cli._sweep(surface, grid)
    run = getattr(writers, write)
    assert _peak_grids(lambda: run(tmp_path / "out", sweep), grid) <= 4


def test_geometric_functions_build_no_ambient_arrays_of_the_grid(cmc_cfg):
    # the frame fields are combinations of factored fields, paired over
    # scalar grids; pairing (nu, nv, 4) frame fields read about 95 grids
    surface, _, grid = _cmc_200(cmc_cfg)
    U, V = grid.mesh()
    assert _peak_grids(lambda: geometric_functions(surface, U, V), grid) <= 48

NONFINITE_GEOMETRY = [
    ("generate", {"directrix": {"kind": "latitude", "kappa": float("inf")}}),
    ("generate", {"directrix": {"kind": "curvature",
                                "kappa": "poly:1e300,1e300"}}),
    ("pde", {"system": "syst1", "solution": "example1",
             "kappa": "poly:1e300,1e300"}),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, update", NONFINITE_GEOMETRY,
                         ids=["latitude-inf", "curvature-1e300", "syst1-1e300"])
def test_nonfinite_geometry_is_numeric_failure(command, update, cmc_cfg,
                                               tmp_path, capsys):
    # each load check reads "not dev <= TOL", so a NaN deviation fails it
    cfg = json.loads(open(cmc_cfg).read())
    cfg.update(update)
    bad = write_cfg(tmp_path / "nonfinite.json", cfg)
    assert main([command, "--config", bad, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numeric/domain failure:" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "surface.csv").exists()


@pytest.mark.parametrize("kappa", [math.inf, 1e400, math.nan],
                         ids=["inf", "1e400", "nan"])
def test_nonfinite_latitude_kappa_is_refused_before_any_work(kappa, cmc_cfg,
                                                             tmp_path, capsys):
    # json writes these as Infinity and NaN, and reads 1e400 as inf; the
    # circle used to be built first, with numpy RuntimeWarnings on stderr
    cfg = json.loads(open(cmc_cfg).read())
    cfg["directrix"]["kappa"] = kappa
    bad = write_cfg(tmp_path / "latitude.json", cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--config", bad])
    out, err = capsys.readouterr()
    assert code == 3 and not caught and out == ""
    assert err == ("numeric/domain failure: latitude circle needs a finite "
                   f"kappa, not {float(kappa)}\n")


def test_extreme_ode_parameters_are_a_numeric_failure(cmc_cfg, tmp_path,
                                                      capsys):
    # t * t underflows to 0.0 at f0, and Python floats raise on 1.0 / 0.0
    cfg = json.loads(open(cmc_cfg).read())
    cfg["family"].update(a=1e100, kappa=1e-200, c=1, f0=1e-170)
    bad = write_cfg(tmp_path / "extreme.json", cfg)
    assert main(["generate", "--config", bad,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric/domain failure:") and "phi(f0)" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- writers
# The per-cell csv.writer / f-string writers that the block writers in
# meridian4.writers replaced, kept as their byte-level reference.

def _ref_causal_name(q, tol=1e-10):
    if q > tol:
        return "spacelike"
    if q < -tol:
        return "timelike"
    return "lightlike"


def _ref_write_csv(path, sweep):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cli.CSV_COLUMNS)
        nu, nv = sweep["E"].shape
        for i in range(nu):
            for j in range(nv):
                w.writerow([
                    f"{sweep['U'][i, j]:.12g}", f"{sweep['V'][i, j]:.12g}",
                    *(f"{c:.12g}" for c in sweep["z"][i, j]),
                    *(f"{sweep[k][i, j]:.12g}" for k in
                      ("E", "F", "G", "K", "Kperp", "h1", "h2", "Hnormsq")),
                    _ref_causal_name(sweep["E"][i, j]),
                    _ref_causal_name(sweep["G"][i, j]),
                ])


def _ref_write_obj(path, sweep):
    z = sweep["z"]
    nu, nv = z.shape[:2]
    with open(path, "w") as fh:
        fh.write("# parametric surface export, y-up, vertices + quads\n")
        for i in range(nu):
            for j in range(nv):
                x1, x2, _, x4 = z[i, j]
                fh.write(f"v {x1:.9g} {x4:.9g} {x2:.9g}\n")
        for i in range(nu - 1):
            for j in range(nv - 1):
                a = i * nv + j + 1
                b = (i + 1) * nv + j + 1
                fh.write(f"f {a} {b} {b + 1} {a + 1}\n")


def _ref_grid_json(sweep, echo):
    """JSON rows of the 14 numeric columns, non-finite values as null."""
    nu, nv = sweep["E"].shape
    rows = [[float(sweep[k][i, j]) for k in ("U", "V")]
            + [float(c) for c in sweep["z"][i, j]]
            + [float(sweep[k][i, j]) for k in
               ("E", "F", "G", "K", "Kperp", "h1", "h2", "Hnormsq")]
            for i in range(nu) for j in range(nv)]
    rows = [[x if np.isfinite(x) else None for x in r] for r in rows]
    return json.dumps({"config": echo, "columns": cli.CSV_COLUMNS[:14],
                       "rows": rows})


def _ref_geomfuncs_csv(path, grid, values):
    """The old per-row csv.writer loop over the batch values (9, nu, nv)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cli.GEOMFUNC_COLUMNS)
        for i, u in enumerate(grid.u_points()):
            for j, v in enumerate(grid.v_points()):
                w.writerow([f"{x:.12g}" for x in
                            [float(u), float(v), *values[:, i, j].tolist()]])


def _cmc_golden(nu, nv):
    return {
        "family": {"tag": "CMC", "a": 1.0, "kappa": 1.0, "c": 1.0,
                   "f0": 1.0, "u_min": 0.0, "u_max": 1.0, "h": 1e-3},
        "directrix": {"kind": "latitude", "kappa": 1.0},
        "grid": {"u_min": 0.01, "u_max": 0.99, "nu": nu,
                 "v_min": 0.3, "v_max": 0.3 + TWO_PI, "nv": nv},
    }


# f(0) = 5e-6 puts G = f^2 below the lightlike threshold on the first row;
# the great circle gives -0 cells, and roundoff in K exponent-form ones.
FLAT_GOLDEN = {
    "family": {"tag": "Flat", "a": 1.0, "b": 5e-6, "c": 0.0,
               "u_min": 0.0, "u_max": 1.0},
    "directrix": {"kind": "great"},
    "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 9,
             "v_min": -3.14159, "v_max": 3.14159, "nv": 11},
}

GOLDEN = {"cmc-12x13": _cmc_golden(12, 13), "flat-9x11": FLAT_GOLDEN,
          # 8827 rows and 8640 faces: more than one block, and not a multiple
          "cmc-91x97": _cmc_golden(91, 97),
          # kappa = 2 + sin v: x3, F, h1 and Hnormsq vary along a row
          "cmc-sin-40x37": dict(_cmc_golden(40, 37), directrix={
              "kind": "curvature", "kappa": "sin-offset:2"})}


@pytest.mark.parametrize("name, block_rows", [
    ("cmc-12x13", None), ("cmc-12x13", 7), ("flat-9x11", None),
    ("flat-9x11", 7), ("cmc-91x97", None), ("cmc-sin-40x37", None),
    ("cmc-sin-40x37", 7)])
def test_writers_match_reference_bytes(name, block_rows, tmp_path,
                                       monkeypatch, capsys):
    if block_rows:
        monkeypatch.setattr(writers, "_BLOCK_ROWS", block_rows)
    cfg = GOLDEN[name]
    path = write_cfg(tmp_path / "golden.json", cfg)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", path, "--out", str(gen)]) == 0
    for fmt in ("csv", "obj", "json"):
        assert main(["export", "--config", path, "--out",
                     str(tmp_path / fmt), "--format", fmt]) == 0

    surface, _, grid = cli._build_surface(cfg)
    sweep = cli._sweep(surface, grid)
    ref = tmp_path / "ref"
    ref.mkdir()
    _ref_write_csv(ref / "surface.csv", sweep)
    _ref_write_obj(ref / "surface.obj", sweep)
    ref_csv = (ref / "surface.csv").read_bytes()
    ref_obj = (ref / "surface.obj").read_bytes()
    assert (gen / "surface.csv").read_bytes() == ref_csv
    assert (gen / "surface.obj").read_bytes() == ref_obj
    assert (tmp_path / "csv" / "surface.csv").read_bytes() == ref_csv
    assert (tmp_path / "obj" / "surface.obj").read_bytes() == ref_obj
    assert ((tmp_path / "json" / "surface.json").read_text()
            == _ref_grid_json(sweep, cfg))
    if name == "flat-9x11":
        cells = ref_csv.decode().split("\r\n")[1].split(",")
        assert "-0" in cells and "lightlike" in cells
        assert any("e-" in c for c in cells)


@settings(deadline=None, max_examples=60)
@given(nu=st.integers(2, 60), nv=st.integers(2, 60),
       block_rows=st.sampled_from([1, 7, writers._BLOCK_ROWS]))
@example(nu=2, nv=2, block_rows=1)
@example(nu=4, nv=4, block_rows=7)       # corners cross 9 -> 10
@example(nu=60, nv=60, block_rows=7)     # and 99 -> 100, 999 -> 1000
# a block's digit table, a through a + nv + 1, crosses 10, 100, 1000, 10**4
@example(nu=3, nv=95, block_rows=1)
@example(nu=2, nv=996, block_rows=7)
@example(nu=3, nv=4996, block_rows=7)
def test_face_digit_rows_match_reference_bytes(nu, nv, block_rows):
    # every face line f a b c d, digit-width changes inside a block included
    sweep = {"z": np.zeros((nu, nv, 4))}
    old = writers._BLOCK_ROWS
    writers._BLOCK_ROWS = block_rows
    try:
        with tempfile.TemporaryDirectory() as tmp:
            writers._write_obj(Path(tmp) / "got.obj", sweep)
            _ref_write_obj(Path(tmp) / "ref.obj", sweep)
            got = (Path(tmp) / "got.obj").read_bytes()
            assert got == (Path(tmp) / "ref.obj").read_bytes()
    finally:
        writers._BLOCK_ROWS = old
    assert got.count(b"\nf ") == (nu - 1) * (nv - 1)


def test_face_digit_tables_stay_per_block(monkeypatch):
    # each block's digit table holds only the vertex indices its faces
    # touch, so the peak does not grow with the grid: at 400x400 a block
    # touches nv more indices, with one more digit each, about 9 KiB;
    # a table of the whole grid would add more than 1 MiB
    monkeypatch.setattr(writers, "_BLOCK_ROWS", 512)

    def peak(n):
        tracemalloc.start()
        try:
            for _ in writers._face_lines(n, n):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) - peak(200) < 32 * 1024


#: Values whose text or bits are easy to get wrong: signed zeros, a NaN
#: with another payload (the same text, other bits) and the infinities.
_SPECIALS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1 / 3,
             -2.5e-300, 1e22, float(np.array(0x7FF8000000000001).view(float))]

#: Values whose %.12g and %.9g texts stay put a few ulps away.
_SETTLED = [1 / 3, -2 / 3, 7.25, -3.1e-7, 123456.789, 1e22, -5e-300]


def _across(mid, spec):
    """Adjacent doubles on either side of a rounding boundary of spec,
    the one next to the decimal midpoint ``mid``: two texts, no value
    between them."""
    below = math.nextafter(mid, -math.inf)
    above = math.nextafter(mid, math.inf)
    pair = (below, mid) if spec % below != spec % mid else (mid, above)
    assert spec % pair[0] != spec % pair[1]
    return pair


#: Rows that hold both sides of a 12-digit (CSV) or 9-digit (OBJ)
#: rounding midpoint must not have one text.
_ACROSS = [_across(1.000000000005, "%.12g"), _across(-2.345678901235, "%.12g"),
           _across(6.000000000005e-200, "%.12g"), _across(1.000000005, "%.9g"),
           _across(-7.123456785e10, "%.9g")]

_CAUSAL_TOL = 1e-10

_KINDS = ["row", "row but one", "column", "few", "distinct", "causal",
          "row text", "row text but one row", "rounding midpoint",
          "signed zeros", "nonfinite in rows", "causal rows"]


def _ulps_apart(x, n, rnd):
    """n values 0-3 ulps from x, away from zero."""
    steps = np.array([rnd.randrange(4) for _ in range(n)], dtype=np.int64)
    return (np.full(n, x).view(np.int64) + steps).view(np.float64)


def _causal_row(nv, rnd):
    """A row of squared norms of one class, or (two rows in five) mixed."""
    spacelike = lambda: rnd.choice([_CAUSAL_TOL * 1.01, float("inf"),
                                    rnd.uniform(0, 2) + 1e-9])
    timelike = lambda: -spacelike()
    lightlike = lambda: rnd.choice([0.0, -0.0, _CAUSAL_TOL, -_CAUSAL_TOL,
                                    rnd.uniform(-_CAUSAL_TOL, _CAUSAL_TOL)])
    mixed = lambda: rnd.choice([spacelike, timelike, lightlike,
                                lambda: float("nan")])()
    draw = rnd.choice([spacelike, timelike, lightlike, mixed, mixed])
    return [draw() for _ in range(nv)]


def _writer_column(kind, nu, nv, rnd):
    """A (nu, nv) column of one kind for the block writer."""
    def pick(n, values=_SPECIALS):
        return np.array([rnd.choice(values) for _ in range(n)])

    if kind == "row":           # constant along each grid row
        return np.broadcast_to(pick(nu)[:, None], (nu, nv))
    if kind == "row but one":   # the same, with one cell's bits flipped
        col = np.repeat(pick(nu)[:, None], nv, axis=1)
        i, j = rnd.randrange(nu), rnd.randrange(nv)
        col[i, j] = -col[i, j]
        return col
    if kind == "column":        # constant along each grid column
        return np.broadcast_to(pick(nv)[None, :], (nu, nv))
    if kind == "few":
        return pick(nu * nv, list(pick(2))).reshape(nu, nv)
    if kind == "distinct":
        return np.arange(nu * nv).reshape(nu, nv) * -0.37 + rnd.random()
    if kind.startswith("row text"):     # one text per row, bits vary
        col = np.array([_ulps_apart(x, nv, rnd) for x in pick(nu, _SETTLED)])
        if kind == "row text but one row":
            col[rnd.randrange(nu), rnd.randrange(nv)] *= 1.5
        return col
    if kind == "rounding midpoint":     # both sides of a boundary a row
        rows = []
        for _ in range(nu):
            pair = rnd.sample(rnd.choice(_ACROSS), 2)
            rows.append(pair + [rnd.choice(pair) for _ in range(nv - 2)])
        return np.array(rows)
    if kind == "signed zeros":          # 0.0 and -0.0 in a row, or one
        return np.array([pick(nv, rnd.choice([[0.0], [-0.0], [0.0, -0.0],
                                              [0.0, -0.0, -0.0, 1e-300]]))
                         for _ in range(nu)])
    if kind == "nonfinite in rows":     # NaN or an infinity in a text row
        col = np.array([_ulps_apart(x, nv, rnd) for x in pick(nu, _SETTLED)])
        for _ in range(rnd.randrange(1, 3)):
            col[rnd.randrange(nu), rnd.randrange(nv)] = rnd.choice(
                [float("nan"), float("inf"), float("-inf")])
        if rnd.random() < 0.5:
            col[rnd.randrange(nu)] = rnd.choice(_SPECIALS[2:5])
        return col
    if kind == "causal rows":
        return (writers._causal_names,
                np.array([_causal_row(nv, rnd) for _ in range(nu)]))
    return (writers._causal_names, pick(nu * nv, [-1.0, 1.0, 0.0, 1e-11, -1e-11,
                                              float("nan")]).reshape(nu, nv))


@settings(deadline=None, max_examples=120)
@given(nu=st.integers(1, 12), nv=st.integers(2, 12),
       block_rows=st.sampled_from(["1", "7", "nv - 1", "default"]),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=7),
       seed=st.integers(0, 2 ** 32))
@example(nu=3, nv=12, block_rows="7", kinds=_KINDS, seed=0)  # nv > rows
@example(nu=12, nv=12, block_rows="default", kinds=["few", "row", "few"],
         seed=1)
# 11 of 12 rows with one text: a table or per-cell floats between baked rows
@example(nu=12, nv=5, block_rows="7", kinds=_KINDS[6:], seed=2)
# a broadcast column with nu >= 8 has a distinct-value table in every template
@example(nu=9, nv=4, block_rows="7",
         kinds=["column", "row text but one row", "causal rows"], seed=4)
@example(nu=9, nv=3, block_rows="1",
         kinds=["row text but one row", "causal rows", "row text"], seed=3)
def test_block_writer_matches_row_template(nu, nv, block_rows, kinds, seed):
    # every mix of column kinds, in every writer's template, gives the
    # bytes of the row template applied row by row
    rnd = random.Random(seed)
    cols = [_writer_column(kind, nu, nv, rnd) for kind in kinds]
    rows = [tuple(_ref_causal_name(c[1][i, j]) if isinstance(c, tuple)
                  else float(c[i, j]) for c in cols)
            for i in range(nu) for j in range(nv)]
    old = writers._BLOCK_ROWS
    writers._BLOCK_ROWS = {"1": 1, "7": 7, "nv - 1": nv - 1, "default": old}[
        block_rows]
    try:
        for head, spec, between, end, sep in (
                ("", "%.12g", ",", "\r\n", ""),         # CSV
                ("v ", "%.9g", " ", "\n", ""),           # OBJ vertices
                ("[", "%r", ", ", "]", ", ")):           # grid JSON
            template = head + between.join(
                "%s" if isinstance(c, tuple) else spec for c in cols) + end
            got = "".join(writers._row_blocks(template, cols, sep))
            assert got == sep.join(template % row for row in rows)
    finally:
        writers._BLOCK_ROWS = old


@settings(deadline=None, max_examples=100)
@given(kind=st.sampled_from(_KINDS), nu=st.integers(1, 12),
       nv=st.integers(2, 12), seed=st.integers(0, 2 ** 32))
def test_row_text_is_the_text_of_every_cell(kind, nu, nv, seed):
    # a row's one text is that of each of its cells, and the rows built
    # to have one get it: by bits for %r, by value for %.<p>g
    col = _writer_column(kind, nu, nv, random.Random(seed))
    for spec in ("%.12g", "%.9g", "%r"):
        got = writers._row_text(col, spec, ";")
        assert len(got) == nu
        for i, text in enumerate(got):
            if isinstance(col, tuple):
                cells = {_ref_causal_name(q) + ";" for q in col[1][i].tolist()}
            else:
                cells = {spec % x + ";" for x in col[i].tolist()}
            if text is not None:
                assert cells == {text}
            elif kind == "row" or (
                    kind == "row text" and spec != "%r"):
                pytest.fail(f"{kind} row {i} has one {spec} text: {cells}")


@pytest.mark.parametrize("block_rows", [None, 7])
def test_distinct_value_path_matches_reference_bytes(block_rows, tmp_path,
                                                     monkeypatch):
    # x4 and K: six distinct values mixing signed zeros, NaN and +-inf,
    # formatted once each; x1 and Kperp: every value distinct, through
    # the row template
    if block_rows:
        monkeypatch.setattr(writers, "_BLOCK_ROWS", block_rows)
    surface, _, grid = cli._build_surface(GOLDEN["cmc-12x13"])
    sweep = {k: np.array(a) for k, a in cli._sweep(surface, grid).items()}
    shape = sweep["E"].shape
    few = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 2.5], shape)
    every = np.arange(few.size).reshape(shape) * -0.37 + 1e-9
    sweep["z"][..., 3] = sweep["K"] = few
    sweep["z"][..., 0] = sweep["Kperp"] = every
    assert writers._Distinct.of(np.ravel(few), "%.12g") is not None
    assert writers._Distinct.of(np.ravel(every), "%.12g") is None

    for write, ref in ((writers._write_csv, _ref_write_csv),
                       (writers._write_obj, _ref_write_obj)):
        write(tmp_path / "got", sweep)
        ref(tmp_path / "ref", sweep)
        got = (tmp_path / "got").read_bytes()
        assert got == (tmp_path / "ref").read_bytes()
        assert b"-0," in got or b" -0 " in got
    writers._write_grid_json(tmp_path / "s.json", {}, cli.CSV_COLUMNS[:14],
                             writers._grid_columns(sweep))
    assert (tmp_path / "s.json").read_text() == _ref_grid_json(sweep, {})


@pytest.mark.parametrize("block_rows", [None, 7])
def test_geomfuncs_csv_matches_reference_bytes(block_rows, tmp_path,
                                               monkeypatch, capsys):
    if block_rows:
        monkeypatch.setattr(writers, "_BLOCK_ROWS", block_rows)
    cfg = _cmc_golden(6, 5)
    path = write_cfg(tmp_path / "gf.json", cfg)
    out = tmp_path / "gf"
    assert main(["geomfuncs", "--config", path, "--out", str(out)]) == 0
    surface, _, grid = cli._build_surface(cfg)
    values = geometric_functions(surface, *grid.mesh()).as_array()
    _ref_geomfuncs_csv(tmp_path / "ref.csv", grid, values)
    assert ((out / "geomfuncs.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def _ref_geomfuncs_json(cfg, grid, values):
    """The old route: json.dumps of the rows as one list of Python lists."""
    cols = [np.ravel(c) for c in np.broadcast_arrays(*grid.mesh(), *values)]
    return json.dumps({"config": cfg, "columns": cli.GEOMFUNC_COLUMNS,
                       "rows": np.stack(cols, axis=1).tolist()},
                      allow_nan=False)


_PNMC2_30X20 = {
    "family": {"tag": "PNMC2", "a": 1.0, "c": 2.0, "kappa": 1.0, "f0": 1.0,
               "u_min": 0.0, "u_max": 0.8, "h": 1e-3},
    "directrix": {"kind": "latitude", "kappa": 1.0},
    "grid": {"u_min": 0.01, "u_max": 0.79, "nu": 30,
             "v_min": 0.3, "v_max": 6.5, "nv": 20},
}


@pytest.mark.parametrize("cfg, block_rows", [
    (_cmc_golden(6, 5), None), (_cmc_golden(6, 5), 7), (_PNMC2_30X20, None)])
def test_geomfuncs_json_matches_reference_bytes(cfg, block_rows, tmp_path,
                                                monkeypatch, capsys):
    if block_rows:
        monkeypatch.setattr(writers, "_BLOCK_ROWS", block_rows)
    path = write_cfg(tmp_path / "gf.json", cfg)
    out = tmp_path / "gf"
    assert main(["geomfuncs", "--config", path, "--out", str(out),
                 "--format", "json"]) == 0
    surface, _, grid = cli._build_surface(cfg)
    values = geometric_functions(surface, *grid.mesh()).as_array()
    assert ((out / "geomfuncs.json").read_text()
            == _ref_geomfuncs_json(cfg, grid, values))


@pytest.mark.parametrize("args, fmt", [
    (["--format", "obj"], "obj"), ([], "xml"), ([], ["csv"])])
def test_geomfuncs_rejects_other_formats(args, fmt, tmp_path, capsys):
    cfg = _cmc_golden(4, 3)
    if not args:
        cfg["format"] = fmt
    path = write_cfg(tmp_path / "gf.json", cfg)
    out = tmp_path / "gf"
    assert main(["geomfuncs", "--config", path, "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert repr(fmt) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["xml", ["csv"]])
def test_export_rejects_other_formats_before_any_work(fmt, tmp_path, capsys,
                                                      monkeypatch):
    def build(cfg):
        raise AssertionError("built a surface for a rejected format")

    monkeypatch.setattr(cli, "_build_surface", build)
    cfg = _cmc_golden(4, 3)
    cfg["format"] = fmt
    path = write_cfg(tmp_path / "exp.json", cfg)
    out = tmp_path / "exp"
    assert main(["export", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(fmt) in err and "Traceback" not in err
    assert not out.exists()


def test_geomfuncs_batch_matches_per_point_values():
    # NumPy's vectorized sin/cos may round differently from scalar calls,
    # so the batch and the per-point values agree to rounding, not bitwise.
    surface, _, grid = cli._build_surface(_cmc_golden(40, 40))
    batch = geometric_functions(surface, *grid.mesh()).as_array()
    for i, u in enumerate(grid.u_points()):
        for j, v in enumerate(grid.v_points()):
            point = geometric_functions(surface, u, v).as_array()
            assert np.all(np.abs(batch[:, i, j] - point)
                          <= 1e-14 * (1.0 + np.abs(point))), (u, v)


def test_grid_json_writes_nonfinite_as_null(flat_cfg, tmp_path):
    surface, _, grid = cli._build_surface(json.loads(open(flat_cfg).read()))
    sweep = {k: np.array(a) for k, a in cli._sweep(surface, grid).items()}
    sweep["K"][0, 0] = np.nan
    sweep["Kperp"][0, 1] = np.inf
    sweep["h1"][1, 0] = -np.inf

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    writers._write_grid_json(tmp_path / "s.json", {}, cli.CSV_COLUMNS[:14],
                             writers._grid_columns(sweep))
    data = json.loads((tmp_path / "s.json").read_text(), parse_constant=reject)
    rows = data["rows"]
    assert rows[0][9] is None and rows[1][10] is None and rows[12][11] is None
    assert all(isinstance(x, float) for r in rows[2:12] for x in r)


# ---------------------------------------------------------------- fuzzing
# Configs with wrong types, non-finite or out-of-range values and missing
# keys.  Whatever the input, the CLI returns an exit code from 0 to 3.
# Counts and bounds are either small or beyond the grid and step caps
# (refused up front), so every example runs in well under a second.

_MISSING = object()
_JUNK = [float("nan"), float("inf"), float("-inf"), "x", None, [1.0], {},
         True]
_HUGE_INT = 10 ** 400    # a JSON integer too large for a float
_NUMBER = st.sampled_from(_JUNK + [-1.0, 0.0, 0.5, 2.0, 1e300, -1e300,
                                   _HUGE_INT])
_BOUND = st.sampled_from(_JUNK + [-3.0, -1.0, 0.0, 0.5, 1.0, 3.0, 1e300,
                                  -1e300, _HUGE_INT])
_COUNT = st.sampled_from(_JUNK + [-1, 0, 1, 2, 2.5, 8, 10 ** 9, _HUGE_INT])
_STEP = st.sampled_from(_JUNK + [-1e-3, 0.0, 1e-3, 0.05, 1e300, _HUGE_INT])


def _fuzzed(base: dict, odd: dict):
    """base with up to three keys removed or given a value from odd[key].

    A value of base may itself be a strategy.
    """
    def perturb(keys):
        entries = {k: v if isinstance(v, st.SearchStrategy) else st.just(v)
                   for k, v in base.items()}
        entries.update({k: st.one_of(st.just(_MISSING), odd.get(k, _NUMBER))
                        for k in keys})
        return st.fixed_dictionaries(entries)
    return st.sets(st.sampled_from(sorted(base)), max_size=3).flatmap(
        perturb).map(lambda d: {k: v for k, v in d.items() if v is not _MISSING})


_GRID_ODD = {"u_min": _BOUND, "u_max": _BOUND, "v_min": _BOUND,
             "v_max": _BOUND, "nu": _COUNT, "nv": _COUNT}

_FAMILY = _fuzzed({"tag": st.sampled_from(
                      ["Flat", "ConstantK", "Minimal", "CMC", "ParallelH1",
                       "ParallelH2", "PNMC1", "PNMC2"]),
                   "a": 1.0, "kappa": 1.0, "c": 1.0, "f0": 1.0, "b": 1.0,
                   "K": 1.0, "a1": 1.0, "a2": 0.0, "sign_g": 1,
                   "u_min": 0.0, "u_max": 1.0, "h": 0.01},
                  {"tag": st.sampled_from(["nope", 3]), "u_min": _BOUND,
                   "u_max": _BOUND, "h": _STEP, "sign_g": _COUNT})

_DIRECTRIX = _fuzzed({"kind": st.sampled_from(["great", "latitude",
                                               "curvature"]),
                      "kappa": st.sampled_from([1.0, "const:2", "sin-offset:2",
                                                "poly:1,2"]),
                      "h": 0.01},
                     {"kind": st.sampled_from(["nope", 2]),
                      "kappa": st.sampled_from(
                          _JUNK + [0.0, 2.0, 1e300, "poly:1e300,1e300",
                                   "poly:", "nope:1"]),
                      "h": _STEP})

_SURFACE_CONFIG = st.tuples(
    st.sampled_from(["generate", "verify", "geomfuncs"]),
    _fuzzed({"family": _FAMILY, "directrix": _DIRECTRIX,
             "grid": _fuzzed({"u_min": 0.1, "u_max": 0.9, "nu": 4,
                              "v_min": 0.0, "v_max": 1.0, "nv": 3}, _GRID_ODD),
             "tol": 1e-6},
            {"family": _NUMBER, "directrix": _NUMBER, "grid": _NUMBER}))

_PDE_CONFIG = st.tuples(st.just("pde"), _fuzzed(
    {"system": st.sampled_from(["fund", "degenerate", "syst1"]),
     "solution": st.sampled_from(["example1", "example2", "family(1,3)",
                                  "separable"]),
     "kappa": st.sampled_from(["sin-offset:2", "const:2", "poly:1,2"]),
     "epsilon": st.sampled_from([-1, 1]),
     "grid": _fuzzed({"u_min": 0.5, "u_max": 2.5, "nu": 5,
                      "v_min": 0.0, "v_max": 6.2832, "nv": 5}, _GRID_ODD),
     "tol": 1e-8},
    {"system": st.sampled_from(["nope", 1]),
     "solution": st.sampled_from(["family(1e400,1)", "family(1e5e5,1)",
                                  "family(-1,-3)", "nope", 1]),
     "kappa": st.sampled_from(["const:0", "poly:1e300,1e300", "const:x",
                               "nope:1", 2]),
     "epsilon": st.sampled_from(_JUNK + [2, 1.5, "1"]),
     "grid": _NUMBER}))


def _with(base, **update):
    cfg = json.loads(json.dumps(base))
    cfg.update(update)
    return cfg


_CMC_SMALL = _with(_cmc_golden(4, 3))
_PDE_SMALL = {"system": "fund", "solution": "example1",
              "kappa": "sin-offset:2", "epsilon": -1,
              "grid": {"u_min": -0.9, "u_max": 2.9, "nu": 5,
                       "v_min": 0.0, "v_max": 6.2832, "nv": 5}}


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(_SURFACE_CONFIG, _PDE_CONFIG))
@example(case=("generate", _with(_CMC_SMALL, **NONFINITE_GEOMETRY[0][1])))
@example(case=("generate", _with(_CMC_SMALL, **NONFINITE_GEOMETRY[1][1])))
@example(case=("pde", _with(_PDE_SMALL, **NONFINITE_GEOMETRY[2][1])))
@example(case=("pde", _with(_PDE_SMALL, epsilon=2)))
@example(case=("pde", _with(_PDE_SMALL, epsilon=1.5)))
@example(case=("generate", _with(_CMC_SMALL, grid=dict(
    _CMC_SMALL["grid"], nu=float("inf")))))
@example(case=("generate", _with(_CMC_SMALL, family=dict(
    _CMC_SMALL["family"], sign_g=float("inf")))))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_config_exits_with_a_contract_code(case, tmp_path):
    command, cfg = case
    path = write_cfg(tmp_path / "fuzz.json", cfg)
    code = main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert code in (0, 1, 2, 3)
