#!/usr/bin/env python3
"""Benchmark harness for the goodpants CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grow --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

With ``--trace 0`` each command of the workload runs as a fresh
``goodpants`` child process (``python -m goodpants.cli`` on the checkout's
``src``), one child at a time, repeated until ``--seconds`` is spent; this
gives the end-to-end metrics.  With ``--trace 1`` the commands run once as
children and once in-process under spans (see ``spans.py``); this gives the
per-layer metrics.  Outputs are checked against exact reference values in
``reference.json``, never against timings.

The speed of a shared machine drifts by about 20% over minutes, and every
command slows with it.  So the harness times ``calibrate.py``, a fixed piece
of work that uses no goodpants code, before the first and after every
repetition (and set-up), and reports ``setup_s`` and ``wall_s`` rescaled to
the speed at which that calibration takes ``CAL_REF_S`` seconds, using the
mean of the two calibrations around each repetition.  The raw medians and the
calibration times are printed with every result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A command counts as
failed when it crashes, writes a traceback, prints something other than a
JSON report, or its report differs from the reference.  A lemma sweep that
exits 4 with a well-formed report whose ``pass`` is false has run correctly:
it is counted in the per-layer ``cli.failed_frac``, not in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, by_name, layer_self_times, read_spans  # noqa: E402
from workloads import FULL, TRACEBACK, WORKLOADS, Command, Ctx, OutputError, Sizes, commands  # noqa: E402
from workloads import parse_report, setup_commands, trace_pass  # noqa: E402

# setup is repeated and its median reported, so one slow start does not
# read as a regression in set-up time
SETUP_REPS = 5
STARTUP_REPS = 3
# every run must end within 180 s; children still running then are killed
HARD_LIMIT_S = 170.0
# calibrate.py's median time on a 2-core Intel Xeon (Python 3.11.7, numpy
# 2.4.6); it only fixes the scale of setup_s and wall_s
CAL_REF_S = 0.25

VERSION = Command("version", ["--version"], check=None)

# name -> (unit, meaning)
END_TO_END = {
    "setup_s": ("s", "median time to make the inputs (warm-up --version, stored complex), calibrated"),
    "wall_s": ("s", "median time of the command sequence, one fresh child per command, calibrated"),
    "peak_rss_mb": ("MB", "largest ru_maxrss of any one timed child"),
}

# name -> (unit, span whose self time is shown, end-to-end metric it should move, workloads)
PER_LAYER = {
    "cli.startup_s": ("s", None, "wall_s", "sweeps"),
    "cli.build_s": ("s", "cli.build", "wall_s", "grow"),
    "cli.verify_s": ("s", "cli.verify", "wall_s", "certify"),
    "cli.homology_complex_s": ("s", "cli.homology_complex", "wall_s", "homology"),
    "cli.homology_book_s": ("s", "cli.homology_book", "wall_s", "homology"),
    "cli.lemma_hexagon_s": ("s", "cli.lemma_hexagon", "wall_s", "sweeps"),
    "cli.lemma_delta_s": ("s", "cli.lemma_delta", "wall_s", "sweeps"),
    "cli.lemma_two_planes_s": ("s", "cli.lemma_two_planes", "wall_s", "sweeps"),
    "cli.lemma_angle_change_s": ("s", "cli.lemma_angle_change", "wall_s", "sweeps"),
    "cli.failed_frac": ("ratio", None, "failed", "sweeps"),
    "complexes.self_s": ("s", None, "wall_s", "grow"),
    "complexes.grow_until_s": ("s", "complexes.grow_until", "wall_s", "grow"),
    "complexes.surgeries": ("count", None, "wall_s", "grow"),
    "complexes.surgery_ms": ("ms", None, "wall_s", "grow"),
    "complexes.complexity_s": ("s", "complexes.complexity", "wall_s", "grow"),
    "complexes.load_s": ("s", "complexes.load", "wall_s", "certify,homology"),
    "complexes.pants": ("count", None, "wall_s", "certify,homology"),
    "complexes.circles": ("count", None, "wall_s", "certify,homology"),
    "holonomy.self_s": ("s", None, "wall_s", "grow,certify"),
    "holonomy.build_rho_s": ("s", "holonomy.build_rho", "wall_s", "grow,certify"),
    "holonomy.build_rho_us_per_pants": ("us", None, "wall_s", "grow,certify"),
    "holonomy.residual_s": ("s", "holonomy.residual", "wall_s", "grow,certify"),
    "holonomy.p_separated_s": ("s", "holonomy.p_separated", "wall_s", "certify"),
    "holonomy.qi_s": ("s", "holonomy.qi", "wall_s", "certify"),
    "holonomy.qi_samples_per_s": ("1/s", None, "wall_s", "certify"),
    "holonomy.scan_s": ("s", "holonomy.scan", "wall_s", "certify"),
    "holonomy.scan_words": ("count", None, "wall_s", "certify"),
    "holonomy.scan_words_per_s": ("1/s", None, "wall_s", "certify"),
    "holonomy.scan_flagged": ("count", None, "wall_s", "certify"),
    "holonomy.scan_maxrss_mb": ("MB", None, "peak_rss_mb", "certify"),
    "homology.self_s": ("s", None, "wall_s", "homology"),
    "homology.h1_s": ("s", "homology.h1", "wall_s", "homology"),
    "homology.matrix_rows": ("count", None, "wall_s", "homology"),
    "homology.matrix_cols": ("count", None, "wall_s", "homology"),
    "homology.book_s": ("s", "homology.book", "wall_s", "homology"),
    "lemmalab.self_s": ("s", None, "wall_s", "sweeps"),
    "lemmalab.hexagon_s": ("s", "lemmalab.hexagon", "wall_s", "sweeps"),
    "lemmalab.delta_s": ("s", "lemmalab.delta", "wall_s", "sweeps"),
    "lemmalab.two_planes_s": ("s", "lemmalab.two_planes", "wall_s", "sweeps"),
    "lemmalab.angle_change_s": ("s", "lemmalab.angle_change", "wall_s", "sweeps"),
    "lemmalab.delta_rejected_frac": ("ratio", None, "wall_s", "sweeps"),
    "lemmalab.angle_change_rejected_frac": ("ratio", None, "wall_s", "sweeps"),
    "trace.overhead_s": ("s", None, "none (the benchmark's own cost)", "all"),
    "trace.calibration_s": ("s", None, "none (the machine's speed during the run)", "all"),
}


@dataclass
class Child:
    key: str
    rc: int
    wall_s: float
    rss_mb: float
    problems: list[str]
    verdict_failed: bool = False


class Runner:
    """Runs goodpants commands as child processes, one at a time, and checks them."""

    def __init__(self, root: Path, ctx: Ctx, deadline: float):
        self.ctx = ctx
        self.deadline = deadline
        paths = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str, str]:
        """Run one child to its end: exit code, wall s, its own peak RSS in MB, stdout, stderr."""
        out, err = self.ctx.workdir / "stdout", self.ctx.workdir / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.ctx.workdir)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        # wait4 reaped the child; tell Popen so it never waits again
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        return (rc, wall, usage.ru_maxrss / 1024.0, out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"))

    def calibrate(self) -> float:
        """Wall time of calibrate.py, which must print ok."""
        rc, wall, _, stdout, stderr = self.spawn([sys.executable, str(HERE / "calibrate.py")])
        if rc != 0 or stdout.strip() != "ok":
            raise RuntimeError(f"calibration failed (exit {rc}): {stderr.strip()[-500:]}")
        return wall

    def run(self, cmd: Command) -> Child:
        rc, wall, rss, stdout, stderr = self.spawn([sys.executable, "-m", "goodpants.cli", *cmd.args])
        child = Child(cmd.key, rc, wall, rss, [])
        try:
            if cmd.check is None:
                if rc != 0 or not stdout.strip() or TRACEBACK in stderr:
                    raise OutputError(f"exit {rc}, stdout {stdout.strip()!r}")
            else:
                report = parse_report(rc, stdout, stderr)
                child.problems = cmd.check(rc, report, self.ctx)
                child.verdict_failed = cmd.verdict and report.get("pass") is False
        except OutputError as exc:
            child.problems = [str(exc)]
        self.attempted += 1
        if child.problems:
            self.failed += 1
            print(f"FAILED {cmd.key}: {'; '.join(child.problems)}", file=sys.stderr)
            if stderr.strip():
                print(stderr.strip()[-2000:], file=sys.stderr)
        return child


def highest_percentile(n: int):
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def timed_run(workload: str, ctx: Ctx, runner: Runner, seconds: float) -> tuple[dict, dict]:
    cals = [runner.calibrate()]

    def calibrated(raw: float) -> float:
        """Rescale a time just measured by the calibrations on either side of it."""
        cals.append(runner.calibrate())
        return raw * CAL_REF_S / ((cals[-2] + cals[-1]) / 2)

    setups, setups_raw = [], []
    for _ in range(SETUP_REPS):
        children = [runner.run(VERSION)] + [runner.run(cmd) for cmd in setup_commands(workload, ctx)]
        setups_raw.append(sum(c.wall_s for c in children))
        setups.append(calibrated(setups_raw[-1]))
    start = time.perf_counter()
    reps, reps_raw, peak, ran, flagged = [], [], 0.0, 0, 0
    while True:
        children = [runner.run(cmd) for cmd in commands(workload, ctx)]
        reps_raw.append(sum(c.wall_s for c in children))
        reps.append(calibrated(reps_raw[-1]))
        peak = max([peak] + [c.rss_mb for c in children])
        ran += len(children)
        flagged += sum(1 for c in children if c.problems or c.verdict_failed)
        # start another repetition only if it should end within the budget
        if time.perf_counter() - start + reps_raw[-1] + cals[-1] > seconds:
            break
    metrics = {"setup_s": statistics.median(setups), "wall_s": statistics.median(reps), "peak_rss_mb": peak}
    noise = {
        "setup_samples": len(setups),
        "wall_samples": len(reps),
        "wall_highest_percentile": highest_percentile(len(reps)),
        "raw_setup_s": statistics.median(setups_raw),
        "raw_wall_s": statistics.median(reps_raw),
        "raw_wall_s_all": reps_raw,
        "calibration_s": statistics.median(cals),
        "calibration_s_all": cals,
        "failed_frac": flagged / ran,
    }
    return metrics, noise


def traced_run(workload: str, ctx: Ctx, runner: Runner, spans_path: Path) -> tuple[dict, dict]:
    runner.run(VERSION)
    for cmd in setup_commands(workload, ctx):
        runner.run(cmd)
    calibration = runner.calibrate()
    startup = statistics.median(runner.run(VERSION).wall_s for _ in range(STARTUP_REPS))
    children = {c.key: c for c in (runner.run(cmd) for cmd in commands(workload, ctx))}
    untraced = sum(c.wall_s for c in children.values())

    tracer = Tracer(workload)
    try:
        trace_pass(workload, ctx, tracer)
    except Exception:  # the program failed in-process: count it, keep the spans so far
        traceback.print_exc()
        runner.failed += 1
    runner.attempted += 1
    tracer.write(spans_path)
    spans = read_spans(spans_path)
    agg = by_name(spans)
    selfs = layer_self_times(spans)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def count(name, key):
        return sum(s["counters"].get(key, 0) for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"cli.startup_s": startup}
    for name, (_, span, _, _) in PER_LAYER.items():
        if span and span.startswith("cli."):
            child = children.get(span[len("cli."):])
            m[name] = child.wall_s if child else 0.0
        elif span:
            m[name] = total(span)
    m["cli.failed_frac"] = ratio(
        sum(1 for c in children.values() if c.problems or c.verdict_failed), len(children)
    )
    for layer in ("complexes", "holonomy", "homology", "lemmalab"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    surgeries = count("complexes.grow_until", "surgeries")
    m["complexes.surgeries"] = surgeries
    m["complexes.surgery_ms"] = 1000.0 * ratio(total("complexes.grow_until"), surgeries)
    sized = [s for s in spans if s["name"] in ("complexes.grow_until", "complexes.load")]
    m["complexes.pants"] = max((s["counters"]["pants"] for s in sized), default=0)
    m["complexes.circles"] = max((s["counters"]["circles"] for s in sized), default=0)
    m["holonomy.build_rho_us_per_pants"] = 1e6 * ratio(total("holonomy.build_rho"),
                                                       count("holonomy.build_rho", "pants"))
    m["holonomy.qi_samples_per_s"] = ratio(count("holonomy.qi", "samples"), total("holonomy.qi"))
    m["holonomy.scan_words"] = count("holonomy.scan", "words")
    m["holonomy.scan_words_per_s"] = ratio(m["holonomy.scan_words"], total("holonomy.scan"))
    m["holonomy.scan_flagged"] = count("holonomy.scan", "flagged")
    m["holonomy.scan_maxrss_mb"] = agg.get("holonomy.scan", {}).get("maxrss_mb", 0.0)
    m["homology.matrix_rows"] = count("homology.h1", "rows")
    m["homology.matrix_cols"] = count("homology.h1", "cols")
    for sweep in ("delta", "angle_change"):
        rejected = count(f"lemmalab.{sweep}", "rejected")
        m[f"lemmalab.{sweep}_rejected_frac"] = ratio(rejected, count(f"lemmalab.{sweep}", "samples") + rejected)
    # each child pays start-up once; the in-process pass pays it not at all
    traced = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["trace.overhead_s"] = traced + len(children) * startup - untraced
    m["trace.calibration_s"] = calibration
    return m, {"span_self_s": {k: v["self_s"] for k, v in agg.items()}, "spans_file": str(spans_path)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: Sizes = FULL, reference: dict | None = None) -> dict:
    """Run one workload and return its result object (the harness's last line)."""
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    t_start = time.perf_counter()
    work_root = root / ".perfbench"
    workdir = work_root / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(seed=seed, sizes=sizes, workdir=workdir, reference=reference)
    runner = Runner(root, ctx, deadline=t_start + HARD_LIMIT_S)
    load_start = os.getloadavg()[0]
    try:
        if trace:
            spans_path = work_root / "spans" / f"{workload}-seed{seed}.jsonl"
            metrics, detail = traced_run(workload, ctx, runner, spans_path)
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            metrics, detail = timed_run(workload, ctx, runner, seconds)
            units = {k: v[0] for k, v in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = {
        "workload": workload,
        "seed": seed,
        "sizes": sizes.name,
        "machine": machine(),
        "loadavg_1m": {"start": load_start, "end": os.getloadavg()[0]},
        **detail,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print_table(workload, metrics, units, trace, detail)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def print_table(workload: str, metrics: dict, units: dict, trace: bool, detail: dict) -> None:
    print(f"# {workload}")
    if not trace:
        # not an end-to-end metric: it is 0 on most workloads, and on sweeps
        # it depends on the seed; a lemma's exit 4 counts here
        print(f"#   {'failed_frac':36s} {detail['failed_frac']:14.6g} ratio")
        for name in ("raw_setup_s", "raw_wall_s", "calibration_s"):
            print(f"#   {name:36s} {detail[name]:14.6g} s      (uncalibrated)")
    for name, unit in units.items():
        value = metrics[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"#   {name:36s} {text:>14s} {unit:6s}"
        if trace:
            _, span, moves, on = PER_LAYER[name]
            if span is not None:
                line += f" self {detail['span_self_s'].get(span, 0.0):10.6f} s"
            else:
                line += " " * 18
            line += f"  moves {moves} on {on}"
        else:
            line += f"  {END_TO_END[name][1]}"
        print(line)


def main(argv=None, sizes: Sizes = FULL, reference: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "goodpants" / "cli.py").is_file():
        print(f"error: no goodpants sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # the traced pass imports the program from this checkout, as the children do
    sys.path.insert(0, str(root / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), root, sizes, reference)
               for w in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
