"""Benchmark of the meridian4 CLI: one workload, run as fresh processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run is a fresh ``meridian4`` CLI process, because users pay
interpreter start, imports, profile integration and empty quadrature memos
on every call. Processes run one at a time from this single process, with
no threads, in a pinned single-threaded environment, each with its own
output directory that is deleted once its output has been checked.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` the mean
spawn-to-exit time of the workload process, ``cpu_s`` its mean user plus
system time, ``peak_rss_mb`` its median maximum resident set, and
``setup_s`` the median spawn-to-exit time of a separate process that only
imports meridian4 and builds the workload's surface (see ``probe.py``).

The three times are given at the reference speed of the machine. The
shared host's speed swings by up to 2x for tens of seconds at a time, so
raw times of the same code drift between runs by more than any useful
bound. Before each child starts, this process times a fixed calibration
job (see ``calibrate``); the run's times are scaled by ``CALIBRATION_S``
over the mean calibration time, which cancels the machine's speed over the
same window. The raw times are printed beside them.

``--trace 1`` alternates untraced and traced workload processes and
reports the per-layer metrics of the traced ones (see ``spans.py``), with
``trace.overhead_s`` = traced ``wall_s`` - untraced ``wall_s``.

Workload processes start back to back until ``--seconds`` have passed, so
at least one always runs; with ``--trace 0`` the first set-up probes
alternate with them. A process fails on an unexpected exit code or a
failed output check. The last line of stdout is the JSON result, whose
``failed``/``attempted`` is the run's fail ratio.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for configs, outputs and span files, inside the checkout.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Time of the calibration job at the reference speed: its time in a
#: fast phase on the 2-CPU Xeon container the bounds were set on.
CALIBRATION_S = 0.2
#: Set-up probes per run; their median is setup_s.
SETUP_PROBES = 7
#: No child may outlive this many seconds after the run starts.
RUN_DEADLINE_S = 170.0

#: The `meridian4` console script, spelled out so no install is needed.
CLI = ["-c", "import sys; from meridian4.cli import main; sys.exit(main(sys.argv[1:]))"]


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("PYTHON"):
            del env[key]
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "MERIDIAN_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "BLIS_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "TMPDIR": str(tmp),
    })
    return env


def calibrate() -> float:
    """Time a fixed job of interpreter loops and NumPy element-wise math.

    It has the same two kinds of work as the meridian4 CLI, so it slows
    down with the machine the way the children do.
    """
    import numpy as np
    a = np.linspace(-1.0, 1.0, 20_000)
    t0 = time.perf_counter()
    s = 0
    for i in range(500_000):
        s += i * i % 7
    for _ in range(500):
        a = np.sin(a) * 1.0001 + np.cos(a)
    return time.perf_counter() - t0


class Runner:
    """Spawns children one at a time and measures each with wait4."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env(workdir)
        self.t_start = time.perf_counter()
        #: Calibration times, one taken right before each child.
        self.calibration = []

    def spawn(self, args: list) -> dict:
        """Run `python3 args`; return exit code, wall/cpu seconds, RSS, output."""
        self.calibration.append(calibrate())
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        budget = RUN_DEADLINE_S - (time.perf_counter() - self.t_start)
        if budget <= 0:
            raise ChildTimeout
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=self.workdir)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(errors="replace"),
                "stderr": err_path.read_text(errors="replace")}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start


def environment() -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from spans import EXACT_COUNTS, layer_metrics

    runner = Runner(workdir)
    cfg = workload.config(seed)
    cfg_path = None
    if cfg is not None:
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
    probe = [str(HERE / "probe.py"), str(cfg_path) if cfg_path else "selfcheck"]
    attempted = failed = 0
    problems = []

    def note(what, proc, extra=()):
        nonlocal attempted, failed
        attempted += 1
        faults = list(extra)
        if proc["rc"] != 0 and not faults:
            faults = [f"exit code {proc['rc']}: {proc['stderr'][-400:]}"]
        if faults:
            failed += 1
            problems.extend(f"{what}: {i}" for i in faults)
        return not faults

    # The first probe compiles bytecode and warms the page cache; untimed.
    note("warm-up probe", runner.spawn(probe))
    setup, probes = [], 0

    def setup_probe():
        nonlocal probes
        probes += 1
        proc = runner.spawn(probe)
        if note("setup probe", proc):
            setup.append(proc["wall"])

    def workload_process(k: int, traced: bool) -> dict:
        out_dir = workdir / f"out{k}"
        args = workload.argv(cfg_path, out_dir)
        spans_path = workdir / f"spans{k}.npz"
        args = ([str(HERE / "spans.py"), str(spans_path), *args] if traced
                else [*CLI, *args])
        proc = runner.spawn(args)
        t_check = time.perf_counter()
        try:
            faults = workload.check(cfg, out_dir, proc["stdout"], proc["rc"], seed)
            if traced and not faults:
                proc["layers"], proc["table"] = layer_metrics(spans_path)
                silent = [s for s in workload.expected_spans
                          if not proc["layers"][f"{s}_s"]]
                if silent:
                    faults.append(f"expected spans never fired: {silent}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            spans_path.unlink(missing_ok=True)
        what = f"{'traced' if traced else 'workload'} process {k}"
        note(what, proc, faults)
        proc["ok"] = not faults
        print(f"{what}: wall {proc['wall']:.3f} s, cpu {proc['cpu']:.3f} s, "
              f"rss {proc['rss_mib']:.1f} MiB, checked in "
              f"{time.perf_counter() - t_check:.2f} s, "
              f"{'ok' if proc['ok'] else 'FAILED'}", file=sys.stderr)
        return proc

    plain, traced_runs = [], []
    t_measure = runner.elapsed()
    k = 0
    while True:
        # Probes alternate with workload processes, so that both sample the
        # machine over the same window.
        if not trace and probes < SETUP_PROBES:
            setup_probe()
        plain.append(workload_process(k, False))
        k += 1
        if trace:
            traced_runs.append(workload_process(k, True))
            k += 1
        if runner.elapsed() - t_measure >= seconds:
            break
    while not trace and probes < SETUP_PROBES:
        setup_probe()

    good = [p for p in plain if p["ok"]] or plain
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "processes": len(plain), "setup_probes": probes,
              "measure_s": runner.elapsed() - t_measure}
    if not trace:
        raw = {
            "wall_s": statistics.mean(p["wall"] for p in good),
            # 0 only when every probe failed, which also fails the run.
            "setup_s": statistics.median(setup) if setup else 0.0,
            "cpu_s": statistics.mean(p["cpu"] for p in good),
        }
        speed = CALIBRATION_S / statistics.mean(runner.calibration)
        result["metrics"] = {name: value * speed for name, value in raw.items()}
        result["metrics"]["peak_rss_mb"] = statistics.median(
            p["rss_mib"] for p in good)
        result["raw"] = raw
        result["speed"] = speed
        result["samples"] = {"wall_s": [p["wall"] for p in plain],
                             "setup_s": setup,
                             "calibration_s": runner.calibration}
        return result

    layered = [p for p in traced_runs if p["ok"]]
    metrics = {}
    if layered:
        for name in layered[0]["layers"]:
            values = [p["layers"][name] for p in layered]
            if name in EXACT_COUNTS:
                if len(set(values)) != 1:
                    result["failed"] += 1
                    problems.append(f"count {name} differs between runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in layered)
            - statistics.median(p["wall"] for p in good))
        result["table"] = layered[len(layered) // 2]["table"]
    result["metrics"] = metrics
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meridian4" / "__init__.py").is_file():
        print(f"meridian4 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), workdir)
    except ChildTimeout:
        print(f"run exceeded {RUN_DEADLINE_S:g} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    missing = [n for n in names if n not in result["metrics"]]
    if missing and not result["failed"]:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 3
    for name in missing:     # every traced process failed: report zeros
        result["metrics"][name] = 0.0

    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{result['processes']} workload processes, "
          f"{result['setup_probes']} set-up probes, "
          f"measured {result['measure_s']:.1f} s")
    print(f"env {json.dumps(environment())}")
    for name in names:
        print(f"  {name:<48} {_fmt(result['metrics'][name]):>14} {units[name]}")
    print(f"  {'fail_ratio':<48} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']}/{result['attempted']})")
    if "raw" in result:
        print(f"  reference speed / machine speed over the run: "
              f"{result['speed']:.4f}; raw "
              + ", ".join(f"{n} {v:.4f} s" for n, v in result["raw"].items()))
    if "samples" in result:
        for name, values in result["samples"].items():
            print(f"  samples {name}: " + " ".join(f"{v:.4f}" for v in values))
    if "table" in result:
        print(f"  {'span':<36} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for span, calls, total, self_s in result["table"]:
            print(f"  {span:<36} {calls:>8} {total:>10.4f} {self_s:>10.4f}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
