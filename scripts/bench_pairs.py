"""Alternating parent/change pairs of the sweep benchmark, summarized as JSON.

    python3 scripts/bench_pairs.py --base HEAD --change . \\
        --workloads grid-aggregate ff-sweep --seeds 2501 2510 --out BENCH_x.json

Both sides are snapshots, each in a fresh temporary directory that is
deleted when the pairs are done or the script is stopped with SIGTERM. The
parent side is ``git archive REV`` of the --base revision, taken from the
--change checkout's repository; the change side is a copy of the --change
checkout's ``src/`` and ``perfbench/`` as they are before the first pair,
uncommitted edits included, so later edits to the checkout cannot reach a
run.
For each workload and each seed from the first to the last, one pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each
checkout, one after the other; the parent runs first in even pairs. Each run
gives the benchmark's end-to-end metrics (time metrics scaled by its
calibration kernel), its raw ``wall_s``, the median of the raw times of its
sweeps, and ``cpu_s``, the user + system CPU seconds of ``run.py`` and of
every process it waited for (``os.wait4`` on the run's pid). Per metric the
summary gives each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), the pairs the change
wins (ties count for neither), the signed change of the median, positive
when the change is worse, and ``claim_met``: the change won at least 9 in 10
of the pairs and its median is better than the parent's by more than the
parent's interquartile range. ``wall_s`` meets the claim only when the raw
``wall_s`` meets it too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

# metric -> whether lower is better
METRICS = {"wall_s": True, "raw_wall_s": True, "chain_steps_per_s": False, "peak_rss_mb": True,
           "setup_s": True, "hv_pcebm": False, "cpu_s": True}
RAW_SWEEP = re.compile(r"^sweep \d+ \(untraced\): ([0-9.]+) s raw")


def openblas() -> dict:
    """The core and build config of numpy's bundled OpenBLAS, read through ctypes."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        found = {}
        for key, name in (("core", "scipy_openblas_get_corename64_"), ("config", "scipy_openblas_get_config64_")):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            found[key] = fn().decode()
        return found
    return {"core": "unknown", "config": "unknown"}


def stamp() -> dict:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = openblas()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd_found": [k for k in __cpu_dispatch__ if __cpu_features__.get(k)],
        "numpy_simd_not_found": [k for k in __cpu_dispatch__ if not __cpu_features__.get(k)],
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
        "openblas_core": blas["core"],
        "openblas_config": blas["config"],
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", ""),
    }


def archive(rev: str, repo: Path, dest: Path) -> Path:
    """Unpack ``git archive rev`` of the repository at ``repo`` into ``dest``; returns ``dest``."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo, stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as files:
            files.extractall(dest, filter="data")
    return dest


def snapshot(checkout: Path, dest: Path) -> Path:
    """Copy the ``src/`` and ``perfbench/`` of ``checkout``, without bytecode, into ``dest``; returns ``dest``."""
    for part in ("src", "perfbench"):
        shutil.copytree(checkout / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return dest


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        with proc.stdout:
            text = proc.stdout.read()
        # wait4's usage covers the run and every process it waited for.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, proc.args, text, err.read().decode())
    out = text.splitlines()
    result = json.loads(out[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["raw_wall_s"] = statistics.median(float(m.group(1)) for m in map(RAW_SWEEP.match, out) if m)
    metrics["cpu_s"] = usage.ru_utime + usage.ru_stime
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    return metrics


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for name, lower in METRICS.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        quartiles = statistics.quantiles(parent, n=4, method="inclusive")
        better = statistics.median(parent) - statistics.median(change)
        if not lower:
            better = -better
        summary[name] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": quartiles,
            "change_median": statistics.median(change),
            "change_quartiles": statistics.quantiles(change, n=4, method="inclusive"),
            "change_wins": wins,
            "median_change_worse_by": round(-better / statistics.median(parent), 4),
            "claim_met": 10 * wins >= 9 * len(pairs) and better > quartiles[2] - quartiles[0],
        }
    summary["wall_s"]["claim_met"] = summary["wall_s"]["claim_met"] and summary["raw_wall_s"]["claim_met"]
    summary["failed_frac"] = {side: max(p[side]["failed_frac"] for p in pairs) for side in ("parent", "change")}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, metavar="REV", help="git revision of the parent side")
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    change = args.change.resolve()
    base = subprocess.run(["git", "rev-parse", args.base], cwd=change, capture_output=True, text=True, check=True)
    doc = {"machine": stamp(), "base": base.stdout.strip(), "seeds": list(range(args.seeds[0], args.seeds[1] + 1)),
           "workloads": {}}
    # SIGTERM's default action would skip the cleanup of the temporary directories; SystemExit runs it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as copy:
        checkouts = {"parent": archive(args.base, change, Path(base)), "change": snapshot(change, Path(copy))}
        for workload in args.workloads:
            pairs = []
            for i, seed in enumerate(doc["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(checkouts[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(workload, seed, {side: round(pair[side]["wall_s"], 4) for side in ("parent", "change")}, flush=True)
            doc["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
