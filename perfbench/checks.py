"""Output checks for one sweep bundle, computed independently of the package.

A bundle passes when every grid cell is accounted for, every cell's chains
add up to the configured count, every hypervolume is finite and in [0, 1],
`fronts.csv` holds one row per pooled point, and, for two objectives, its
`non_dominated` flags agree with the sort-based check below. The same pass
counts the chain-steps each chain executed and the bytes the bundle holds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Workload


@dataclass
class BundleCheck:
    attempted: int  # chains the config asks for
    failed: int  # chain failures plus the chains of failed cells
    failed_cells: int
    chain_steps: int
    bytes_written: int
    report_sha256: str
    hv_pcebm: float
    errors: list[str] = field(default_factory=list)


def nondominated_2d(points: np.ndarray) -> np.ndarray:
    """Flag the points of an (n, 2) array that no other point dominates.

    Sort by (f0, f1) and sweep: a point survives when it has the least f1
    among points sharing its f0, and every point with a smaller f0 has a
    larger f1. Exact duplicates do not dominate each other.
    """
    f0, f1 = points[:, 0], points[:, 1]
    order = np.lexsort((f1, f0))
    flags = np.zeros(len(points), dtype=bool)
    best_left = math.inf  # least f1 among points with a strictly smaller f0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and f0[order[j]] == f0[order[i]]:
            j += 1
        group_min = f1[order[i]]
        for k in order[i:j]:
            flags[k] = f1[k] == group_min and group_min < best_left
        best_left = min(best_left, group_min)
        i = j
    return flags


def _last_steps(path: Path) -> dict[int, int]:
    """Last recorded step of every chain in a trajectories.csv (steps increase per chain)."""
    last = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            last[int(row[0])] = int(row[1])
    return last


def _check_fronts(path: Path, pooled: int, m: int, errors: list[str]) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != pooled:
        errors.append(f"fronts.csv has {len(rows)} rows, the cells pooled {pooled} points")
        return
    if m != 2 or not rows:
        return
    points = np.array([[float(r[1]), float(r[2])] for r in rows])
    flags = np.array([r[3] == "1" for r in rows])
    wrong = int(np.sum(flags != nondominated_2d(points)))
    if wrong:
        errors.append(f"fronts.csv: {wrong} non_dominated flags disagree with the sort-based check")


def check_bundle(workload: Workload, out: Path) -> BundleCheck:
    """Check the bundle a sweep of `workload` wrote to `out` and count its work."""
    chains = workload.config["chains"]
    expected = workload.expected_cells()
    report_bytes = (out / "report.json").read_bytes()
    report = json.loads(report_bytes)
    errors: list[str] = []
    failed = chains * len(report["failures"])
    seen = set()
    pooled = chain_steps = 0
    hv_pcebm = []
    for cell in report["cells"]:
        key = (cell["method"], float(cell["eta"]), int(cell["steps"]), cell["noise_kind"])
        cell_id = cell["cell_id"]
        if key not in expected or key in seen:
            errors.append(f"{cell_id}: not a cell of the configured grid, or reported twice")
            continue
        seen.add(key)
        cell_dir = out / "cells" / cell_id
        errors_file = cell_dir / "chain_errors.txt"
        chain_failures = len(errors_file.read_text().splitlines()) if errors_file.is_file() else 0
        failed += chain_failures
        if cell["chains"] + chain_failures != chains:
            errors.append(f"{cell_id}: {cell['chains']} chains ok and {chain_failures} failed, config has {chains}")
        hv = cell["hv_all"]
        if not (isinstance(hv, float) and math.isfinite(hv) and 0.0 <= hv <= 1.0):
            errors.append(f"{cell_id}: hv_all {hv!r} is not a finite number in [0, 1]")
        elif cell["method"] == "pcebm":
            hv_pcebm.append(hv)
        pooled += cell["chains"]
        last = _last_steps(cell_dir / "trajectories.csv")
        if len(last) != cell["chains"]:
            errors.append(f"{cell_id}: trajectories.csv holds {len(last)} chains, report says {cell['chains']}")
        steps = int(cell["steps"])
        # Only noiseless mgd chains may stop before the last step.
        short = [s for s in last.values() if s > steps or (cell["method"] != "mgd" and s != steps)]
        if short:
            errors.append(f"{cell_id}: {len(short)} chains end at a step other than {steps}")
        chain_steps += sum(last.values())
    if len(seen) + len(report["failures"]) != len(expected):
        errors.append(
            f"{len(seen)} cells reported and {len(report['failures'])} failed, the grid has {len(expected)}"
        )
    _check_fronts(out / "fronts.csv", pooled, len(report["objective_names"]), errors)
    return BundleCheck(
        attempted=chains * len(expected),
        failed=failed,
        failed_cells=len(report["failures"]),
        chain_steps=chain_steps,
        bytes_written=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        report_sha256=hashlib.sha256(report_bytes).hexdigest(),
        hv_pcebm=statistics.median(hv_pcebm) if hv_pcebm else math.nan,
        errors=errors,
    )
