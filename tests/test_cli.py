import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from meridian4 import cli
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


def test_generate_rejects_grid_outside_family(flat_cfg, tmp_path):
    cfg = json.loads(open(flat_cfg).read())
    cfg["grid"]["u_max"] = 5.0
    bad = write_cfg(tmp_path / "bad2.json", cfg)
    assert main(["generate", "--config", bad]) == 2


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


def test_pde_unknown_solution(tmp_path):
    cfg = write_cfg(tmp_path / "pde5.json", {
        "system": "syst1", "solution": "mystery",
        "grid": {"u_min": 0.0, "u_max": 1.0, "nu": 4,
                 "v_min": 0.0, "v_max": 1.0, "nv": 4},
    })
    assert main(["pde", "--config", cfg]) == 2


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


def test_geomfuncs_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "gf.json", {
        "family": {"tag": "PNMC1", "a": 0.0, "b": 1.0, "kappa": 2.0,
                   "u_min": -0.9, "u_max": 0.9},
        "directrix": {"kind": "latitude", "kappa": 2.0},
        "grid": {"u_min": -0.8, "u_max": 0.8, "nu": 5,
                 "v_min": 0.0, "v_max": 6.0, "nv": 4},
    })
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
])
def test_malformed_config_is_config_error(command, edit, cmc_cfg, tmp_path,
                                          capsys):
    cfg = json.loads(open(cmc_cfg).read())
    edit(cfg)
    bad = write_cfg(tmp_path / "bad.json", cfg)
    assert main([command, "--config", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


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


# ---------------------------------------------------------------- writers
# The per-cell csv.writer / f-string writers that the block writers in
# meridian4.cli replaced, kept as their byte-level reference.

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
    nu, nv = sweep["E"].shape
    rows = [[float(sweep[k][i, j]) for k in ("U", "V")]
            + [float(c) for c in sweep["z"][i, j]]
            + [float(sweep[k][i, j]) for k in
               ("E", "F", "G", "K", "Kperp", "h1", "h2", "Hnormsq")]
            for i in range(nu) for j in range(nv)]
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
          "cmc-91x97": _cmc_golden(91, 97)}


@pytest.mark.parametrize("name, block_rows", [
    ("cmc-12x13", None), ("cmc-12x13", 7), ("flat-9x11", None),
    ("flat-9x11", 7), ("cmc-91x97", None)])
def test_writers_match_reference_bytes(name, block_rows, tmp_path,
                                       monkeypatch, capsys):
    if block_rows:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
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


@pytest.mark.parametrize("block_rows", [None, 7])
def test_geomfuncs_csv_matches_reference_bytes(block_rows, tmp_path,
                                               monkeypatch, capsys):
    if block_rows:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    cfg = _cmc_golden(6, 5)
    path = write_cfg(tmp_path / "gf.json", cfg)
    out = tmp_path / "gf"
    assert main(["geomfuncs", "--config", path, "--out", str(out)]) == 0
    surface, _, grid = cli._build_surface(cfg)
    values = geometric_functions(surface, *grid.mesh()).as_array()
    _ref_geomfuncs_csv(tmp_path / "ref.csv", grid, values)
    assert ((out / "geomfuncs.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


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

    cli._write_grid_json(tmp_path / "s.json", sweep, {})
    data = json.loads((tmp_path / "s.json").read_text(), parse_constant=reject)
    rows = data["rows"]
    assert rows[0][9] is None and rows[1][10] is None and rows[12][11] is None
    assert all(isinstance(x, float) for r in rows[2:12] for x in r)


# ---------------------------------------------------------------- fuzzing
# Configs with wrong types, non-finite or out-of-range values and missing
# keys.  Whatever the input, the CLI returns an exit code from 0 to 3.
# Grids stay at most 8x8, positive steps at least 1e-3, and finite bounds
# small, so every example runs in well under a second.

_MISSING = object()
_JUNK = [float("nan"), float("inf"), float("-inf"), "x", None, [1.0], {},
         True]
_HUGE_INT = 10 ** 400    # a JSON integer too large for a float
_NUMBER = st.sampled_from(_JUNK + [-1.0, 0.0, 0.5, 2.0, 1e300, -1e300,
                                   _HUGE_INT])
_BOUND = st.sampled_from(_JUNK + [-3.0, -1.0, 0.0, 0.5, 1.0, 3.0, _HUGE_INT])
_COUNT = st.sampled_from(_JUNK + [-1, 0, 1, 2, 2.5, 8])
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
