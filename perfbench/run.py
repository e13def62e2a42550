"""Sweep benchmark for paretoebm: one workload per run, through the CLI entry point.

    python3 perfbench/run.py --workload ff-sweep --seed 1 --seconds 20 --trace 0

A run writes the workload's inputs from --seed (workloads.py), then calls
`paretoebm.cli.main(["sweep", config, "--seed", seed])` in this process, one
sweep at a time with the default --parallelism of 1, until --seconds have
passed and at least two sweeps are done. Every bundle is checked
(checks.py). A sweep that fails its checks counts all its chains as failed,
and so does every sweep of a run whose sweeps disagree on report.json or on
a count that is deterministic for a seed.

Time metrics are scaled to the speed of a reference machine. A shared host
changes speed in spells that last minutes: on a shared 2-core Xeon host the
same ff-sweep took 10 s in one spell and 18 s in another, so raw wall times of
runs made minutes apart differ by more than any useful bound. A fixed
calibration kernel, independent of the package, runs before the set-up
probes, between sweeps and after the last one; every time metric of the run
is multiplied by CALIBRATION_REF_S over the median kernel time of the run.
Raw times are printed too.

--trace 0 reports the end-to-end metrics of untraced sweeps. --trace 1
alternates traced and untraced sweeps (at least two traced and one
untraced) and reports the per-layer metrics of tracing.py and the tracing
overhead. --size smoke runs few chains and few steps.

Human-readable lines come first: the machine stamp, one line per sweep, one
per metric, and a `missing` line mapping each metric that could not be
measured (a wrap target gone or never called) to the reason. The last line is
one JSON object with the keys correct, attempted and failed (both counting
chains) and metrics, every value a number; a missing metric reads 0 there.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import BundleCheck, check_bundle
from tracing import LAYER_METRICS, Missing, Tracer
from workloads import ROOT, WORKLOADS, Workload, import_package, write_inputs

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
END_TO_END = {"wall_s": "s", "chain_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s", "hv_pcebm": "1"}
OVERHEAD = "trace.overhead_s"
MIN_SWEEPS = 2
SETUP_PROBES = 5
# Median duration of calibration_kernel() on the reference machine: a shared
# 2-core Xeon host, Python 3.11.7, numpy 2.4.6.
CALIBRATION_REF_S = 0.046


@dataclass
class Sweep:
    traced: bool
    wall: float
    check: BundleCheck | None  # None when the sweep or its check raised
    layers: dict | None = None  # traced sweeps: layer metric name -> value or Missing


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without searching parent directories."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
    }


def calibration_kernel() -> float:
    """Seconds for fixed interpreter-bound work on small arrays, the kind of
    work a chain step does, without calling the package."""
    x = np.array([0.3, -0.2, 0.1])
    start = perf_counter()
    for _ in range(2000):
        g = np.stack([x - 0.5, x + 0.5])
        d = g[0] - g[1]
        lam = min(1.0, max(0.0, float((g[1] - g[0]) @ g[1]) / float(d @ d)))
        x = x - 0.001 * (lam * g[0] + (1.0 - lam) * g[1])
    return perf_counter() - start


def calibrate(kernel_times: list[float]) -> None:
    """Add seven kernel timings (about 0.3 s) to the run's calibration."""
    kernel_times.extend(calibration_kernel() for _ in range(7))


def measure_setup(args, directory: Path) -> list[float]:
    """Seconds from launching a fresh interpreter to having imported the
    package and written the inputs, i.e. to where a run calls the sweep."""
    times = []
    for i in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), args.workload, args.size, str(args.seed),
             str(directory / f"probe{i}")],
            check=True,
        )
        times.append(perf_counter() - start)
    return times


def sweep_once(cli, workload: Workload, config: Path, seed: int, tracer: Tracer | None) -> tuple[float, BundleCheck]:
    out = config.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    printed = io.StringIO()
    with tracer.installed() if tracer else nullcontext(), redirect_stdout(printed):
        start = perf_counter()
        code = cli.main(["sweep", str(config), "--seed", str(seed)])
        wall = perf_counter() - start
    if code != 0 or printed.getvalue().strip() != str(out / "report.json"):
        raise RuntimeError(f"sweep exited with {code} and printed {printed.getvalue()!r}")
    return wall, check_bundle(workload, out)


def run_sweeps(cli, workload: Workload, config: Path, args, kernel_times: list[float]) -> list[Sweep]:
    sweeps: list[Sweep] = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = sum(s.traced for s in sweeps)
        untraced = len(sweeps) - traced
        done = traced >= MIN_SWEEPS and untraced >= 1 if args.trace else untraced >= MIN_SWEEPS
        if done and perf_counter() >= deadline:
            return sweeps
        tracer = Tracer() if args.trace and traced <= untraced else None
        try:
            wall, check = sweep_once(cli, workload, config, args.seed, tracer)
        except Exception:  # noqa: BLE001 - a failed sweep is counted, not fatal
            traceback.print_exc()
            sweeps.append(Sweep(tracer is not None, math.nan, None))
            print(f"sweep {len(sweeps)}: failed")
            continue
        finally:
            calibrate(kernel_times)
        layers = {m.name: m.value(tracer, check) for m in LAYER_METRICS} if tracer else None
        sweeps.append(Sweep(tracer is not None, wall, check, layers))
        kind = "traced" if tracer else "untraced"
        print(f"sweep {len(sweeps)} ({kind}): {wall:.3f} s raw, {check.chain_steps} chain-steps, "
              f"report sha256 {check.report_sha256[:16]}")
        for error in check.errors:
            print(f"  check failed: {error}")


def disagreements(sweeps: list[Sweep]) -> list[str]:
    """Names of the deterministic results that differ between sweeps of one seed."""
    checked = [s.check for s in sweeps if s.check]
    names = [
        name for name in ("report_sha256", "chain_steps", "bytes_written")
        if len({getattr(c, name) for c in checked}) > 1
    ]
    traced = [s.layers for s in sweeps if s.layers]
    for metric in LAYER_METRICS:
        if metric.unit != "s" and len({repr(layers[metric.name]) for layers in traced}) > 1:
            names.append(metric.name)
    return names


def layer_results(sweeps: list[Sweep], scale: float) -> dict:
    """Per-layer metrics over the traced sweeps: the median of each time (raw
    seconds), the (repeating) value of each count, or the reason the metric is
    missing; and the scaled tracing overhead."""
    traced = [s for s in sweeps if s.layers]
    untraced = [s.wall for s in sweeps if s.check and not s.traced]
    results = {}
    for metric in LAYER_METRICS:
        values = [s.layers[metric.name] for s in traced]
        missing = next((v for v in values if isinstance(v, Missing)), None)
        if not values:
            results[metric.name] = Missing("no traced sweep succeeded")
        elif missing:
            results[metric.name] = missing
        else:
            results[metric.name] = statistics.median(values) if metric.unit == "s" else values[0]
    if traced and untraced:
        results[OVERHEAD] = scale * (statistics.median(s.wall for s in traced) - statistics.median(untraced))
    else:
        results[OVERHEAD] = Missing("needs a traced and an untraced sweep that succeeded")
    return results


def end_to_end_results(sweeps: list[Sweep], setup_times: list[float], scale: float) -> dict:
    good = [s for s in sweeps if s.check]
    wall = scale * statistics.median(s.wall for s in good) if good else None
    return {
        "wall_s": wall,
        "chain_steps_per_s": good[0].check.chain_steps / wall if good else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": scale * statistics.median(setup_times),
        "hv_pcebm": good[0].check.hv_pcebm if good else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload][args.size]
    cli = import_package()
    print("stamp " + json.dumps(machine_stamp(args), sort_keys=True))
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    kernel_times: list[float] = []
    try:
        calibrate(kernel_times)
        setup_times = [] if args.trace else measure_setup(args, work)
        config = write_inputs(workload, args.seed, work / "inputs")
        calibrate(kernel_times)
        sweeps = run_sweeps(cli, workload, config, args, kernel_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    per_sweep = workload.config["chains"] * len(workload.expected_cells())
    attempted = per_sweep * len(sweeps)
    mismatched = disagreements(sweeps)
    if mismatched:
        print(f"sweeps of seed {args.seed} disagree on: {', '.join(mismatched)}")
        failed = attempted
    else:
        failed = sum(s.check.failed if s.check and not s.check.errors else per_sweep for s in sweeps)
    correct = not mismatched and all(s.check and not s.check.errors for s in sweeps)

    scale = CALIBRATION_REF_S / statistics.median(kernel_times)
    print(f"calibration kernel median {statistics.median(kernel_times):.5f} s: time metrics scaled by {scale:.4f}")
    if setup_times:
        print(f"raw setup_s {statistics.median(setup_times)} s")
    if args.trace:
        units = {m.name: m.unit for m in LAYER_METRICS} | {OVERHEAD: "s"}
        values = layer_results(sweeps, scale)
    else:
        units = END_TO_END
        values = end_to_end_results(sweeps, setup_times, scale)
    metrics, missing = {}, {}
    for name, value in values.items():
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            value = Missing("not measured: no sweep finished")
        if isinstance(value, Missing):
            # The result line holds numbers only: a missing metric is named,
            # with its reason, on the `missing` line and reads 0 there.
            missing[name] = value.reason
            value = 0
            print(f"{name} missing: {missing[name]}")
        else:
            print(f"{name} {value} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    print(f"failed_frac {failed / attempted} 1 ({failed} of {attempted} chains failed)")
    print("missing " + json.dumps(missing, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
