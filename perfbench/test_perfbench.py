"""The benchmark's own tests: configs, output checks and the tracer.

Each output check must accept real CLI output on a small grid and reject
every doctored copy of it. Run with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from meridian4.cli import main as cli_main  # noqa: E402
from spans import EXACT_COUNTS, SPAN_NAMES, layer_metrics  # noqa: E402
from workloads import WORKLOADS, sample_rows  # noqa: E402


def small(name: str, n: int):
    return dataclasses.replace(WORKLOADS[name], n=n)


def produce(workload, seed, tmp_path, capsys):
    """Run the workload in-process; return (config, out_dir, stdout, rc)."""
    cfg = workload.config(seed)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = cli_main(workload.argv(cfg_path, out_dir))
    return cfg, out_dir, capsys.readouterr().out, rc


def rewrite(path: Path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_benchmark_json_matches_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == [
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
    for workload in WORKLOADS.values():
        assert set(workload.expected_spans) <= set(SPAN_NAMES)


def test_config_is_a_function_of_the_seed():
    w = WORKLOADS["generate-cmc-500"]
    assert w.config(5) == w.config(5)
    assert w.config(5) != w.config(6)
    for seed in range(20):
        g = w.config(seed)["grid"]
        assert 0.0 < g["u_min"] < g["u_max"] < 1.0
        assert g["v_max"] - g["v_min"] == pytest.approx(2 * 3.141592653589793)
    assert WORKLOADS["selfcheck"].config(5) is None


def _generate_doctors(cfg, seed):
    nv = cfg["grid"]["nv"]
    first = sample_rows(seed, cfg["grid"]["nu"] * nv)[0] + 1   # +1: header

    def cells(line, col, value):
        parts = line.rstrip("\n").split(",")
        parts[col] = value(parts[col])
        return ",".join(parts) + "\n"

    csv = {
        "header": lambda ls: ["u,v,x1,x2,x3,x4,E,F,G,K,Kperp,h1,h2,H,cu,cv\n"] + ls[1:],
        "row dropped": lambda ls: ls[:-1],
        "E off in one row": lambda ls: ls[:5] + [cells(ls[5], 6, lambda c: "-0.999")] + ls[6:],
        "F off in one row": lambda ls: ls[:3] + [cells(ls[3], 7, lambda c: "1e-6")] + ls[4:],
        "|H| off in one row": lambda ls: ls[:2] + [cells(ls[2], 13, lambda c: "1.01")] + ls[3:],
        "K scaled": lambda ls: ls[:1] + [cells(l, 9, lambda c: repr(float(c) * 1.001))
                                         for l in ls[1:]],
        "x4 shifted": lambda ls: ls[:1] + [cells(l, 5, lambda c: repr(float(c) + 1e-6))
                                           for l in ls[1:]],
        "causal flag": lambda ls: ls[:first] + [cells(ls[first], 15, lambda c: "timelike")]
                                  + ls[first + 1:],
        "not a number": lambda ls: ls[:4] + [cells(ls[4], 8, lambda c: "nan")] + ls[5:],
        "garbage cell": lambda ls: ls[:4] + [cells(ls[4], 12, lambda c: "x")] + ls[5:],
    }
    obj = {
        "face dropped": lambda ls: ls[:-1],
        "vertex dropped": lambda ls: ls[:1] + ls[2:],
        "vertices moved": lambda ls: [l.replace("v ", "v 1", 1) if l.startswith("v ") else l
                                      for l in ls],
        "face indices": lambda ls: [l.replace("f 1 ", "f 2 ") for l in ls],
    }
    return csv, obj


def test_generate_check(tmp_path, capsys):
    w, seed = small("generate-cmc-500", 12), 4
    cfg, out, stdout, rc = produce(w, seed, tmp_path, capsys)
    assert w.check(cfg, out, stdout, rc, seed) == []
    assert w.check(cfg, out, stdout, 3, seed)
    csv_doctors, obj_doctors = _generate_doctors(cfg, seed)
    for file, doctors in (("surface.csv", csv_doctors), ("surface.obj", obj_doctors)):
        original = (out / file).read_text()
        for label, edit in doctors.items():
            rewrite(out / file, edit)
            assert w.check(cfg, out, stdout, rc, seed), f"{file}: {label}"
            (out / file).write_text(original)
    (out / "surface.obj").unlink()
    assert w.check(cfg, out, stdout, rc, seed)


def test_selfcheck_check():
    w = WORKLOADS["selfcheck"]
    table = "".join(f"[PASS] {i:02d} ...\n" for i in range(1, 11))
    assert w.check(None, "-", table + "10/10 acceptance criteria passed\n", 0, 1) == []
    assert w.check(None, "-", table + "9/10 acceptance criteria passed\n", 1, 1)
    assert w.check(None, "-", table + "9/10 acceptance criteria passed\n", 0, 1)
    assert w.check(None, "-", table + "10/10 acceptance criteria passed\n", 1, 1)
    assert w.check(None, "-", "", 0, 1)


def _traced(workload, seed, tmp_path):
    cfg_path = tmp_path / f"config{seed}.json"
    cfg_path.write_text(json.dumps(workload.config(seed)))
    spans_path = tmp_path / f"spans{seed}.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "spans.py"), str(spans_path),
         *workload.argv(cfg_path, tmp_path / f"out{seed}")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return layer_metrics(spans_path)


def test_traced_counts_repeat_and_match_benchmark_json(tmp_path):
    w = small("generate-cmc-500", 20)
    first, table = _traced(w, 1, tmp_path)
    again, _ = _traced(w, 1, tmp_path)
    other, _ = _traced(w, 2, tmp_path)
    for span in w.expected_spans:
        assert first[f"{span}_s"] > 0, span
    assert {row[0] for row in table} >= set(w.expected_spans)
    for name in EXACT_COUNTS:
        assert first[name] == again[name], name
        if name != "cli.write_bytes":   # text width depends on the values
            assert first[name] == other[name], name
    assert first["diffkit.rk4_steps"] == 1000
    assert first["geometry.raw_calls"] == 5
    assert first["cli.write_bytes"] == sum(
        (tmp_path / "out1" / f).stat().st_size for f in ("surface.csv", "surface.obj"))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(
        [*first, "trace.overhead_s"])
