"""Benchmark problem registry: named objective sets with documented
dimensions and, for the analytic ones, known trade-off fronts for overlays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError
from .energy import (
    EnergyModel,
    FonsecaFlemingBranch,
    ObjectiveSet,
    ShiftedQuadratic,
    Zdt3Branch,
    load_model,
)
from .moo import pareto_filter


@dataclass(frozen=True, eq=False)
class Problem:
    """A named objective set plus the metadata the harness needs."""

    name: str
    objectives: ObjectiveSet
    description: str
    front_points: Callable[[int], np.ndarray] | None = None

    @property
    def m(self) -> int:
        return self.objectives.m

    @property
    def d(self) -> int:
        return self.objectives.d

    @property
    def point_kind(self) -> str:
        return self.objectives.point_kind

    def sequence_dims(self) -> tuple[int, int]:
        model = self.objectives.models[0]
        return model.L, model.A


def _opposing_quadratics() -> Problem:
    a = np.array([1.0, 0.0])
    objectives = ObjectiveSet([ShiftedQuadratic(a), ShiftedQuadratic(-a)])

    def front(n: int) -> np.ndarray:
        t = np.linspace(-1.0, 1.0, n)
        return np.stack([(t - 1.0) ** 2, (t + 1.0) ** 2], axis=1)

    return Problem(
        name="opposing-quadratics",
        objectives=objectives,
        description=(
            "Two quadratics centered at +/-(1, 0) in d=2; the trade-off set is "
            "the segment between the centers and the front is convex."
        ),
        front_points=front,
    )


def _fonseca_fleming() -> Problem:
    n = 3
    objectives = ObjectiveSet(
        [FonsecaFlemingBranch(1, n), FonsecaFlemingBranch(-1, n)]
    )

    def front(k: int) -> np.ndarray:
        c = np.linspace(-1.0 / math.sqrt(n), 1.0 / math.sqrt(n), k)
        s_plus = n * (c - 1.0 / math.sqrt(n)) ** 2
        s_minus = n * (c + 1.0 / math.sqrt(n)) ** 2
        return np.stack([1.0 - np.exp(-s_plus), 1.0 - np.exp(-s_minus)], axis=1)

    return Problem(
        name="fonseca-fleming",
        objectives=objectives,
        description=(
            "The classic two-objective benchmark in d=3 with a non-convex "
            "front; the trade-off set is the diagonal x1=x2=x3 in "
            "[-1/sqrt(3), 1/sqrt(3)]."
        ),
        front_points=front,
    )


def _zdt3_like() -> Problem:
    d = 4
    objectives = ObjectiveSet([Zdt3Branch(0, d), Zdt3Branch(1, d)])

    def front(k: int) -> np.ndarray:
        t = np.linspace(0.0, 0.999, max(k * 20, 200))
        pts = np.stack([t, 1.0 - t * (1.0 + np.sin(10.0 * math.pi * t))], axis=1)
        keep = pareto_filter(pts)
        pts = pts[keep]
        idx = np.linspace(0, len(pts) - 1, min(k, len(pts))).astype(int)
        return pts[idx]

    return Problem(
        name="zdt3-like",
        objectives=objectives,
        description=(
            "Smooth unconstrained variant of the disconnected-front benchmark "
            "in d=4; the sine term leaves alternating dominated gaps in the front."
        ),
        front_points=front,
    )


def _tri_quadratic() -> Problem:
    centers = [np.array([2.0, 0.0]), np.array([-2.0, 0.0]), np.array([0.0, 2.0])]
    objectives = ObjectiveSet([ShiftedQuadratic(c) for c in centers])

    def front(k: int) -> np.ndarray:
        # Trade-off set is the triangle spanned by the centers; sample a
        # barycentric grid and map to objective space.
        rows = []
        side = max(2, int(math.sqrt(max(k, 4))))
        C = np.stack(centers)
        for i in range(side + 1):
            for j in range(side + 1 - i):
                w = np.array([i, j, side - i - j], dtype=float) / side
                x = w @ C
                rows.append([float(np.sum((x - c) ** 2)) for c in centers])
        return np.array(rows)

    return Problem(
        name="tri-quadratic",
        objectives=objectives,
        description=(
            "Three quadratics centered at (2,0), (-2,0), (0,2) in d=2; the "
            "trade-off set is the triangle spanned by the centers."
        ),
        front_points=front,
    )


def _sequence_energies(model_files: Sequence[str]) -> Problem:
    if not model_files:
        raise ConfigError("sequence-energies needs at least one model file")
    models: list[EnergyModel] = [load_model(p) for p in model_files]
    objectives = ObjectiveSet(models)
    return Problem(
        name="sequence-energies",
        objectives=objectives,
        description=f"{len(models)} sequence energies loaded from model files.",
        front_points=None,
    )


_ANALYTIC_BUILDERS = {
    "opposing-quadratics": _opposing_quadratics,
    "fonseca-fleming": _fonseca_fleming,
    "zdt3-like": _zdt3_like,
    "tri-quadratic": _tri_quadratic,
}

PROBLEM_NAMES = (*_ANALYTIC_BUILDERS.keys(), "sequence-energies")


def get_problem(name: str, model_files: Sequence[str] | None = None) -> Problem:
    """Build a registered problem; sequence-energies requires model files and an analytic problem takes none."""
    if name in _ANALYTIC_BUILDERS:
        if model_files:
            raise ConfigError(f"{name} is an analytic problem and takes no model files, got {len(model_files)}")
        return _ANALYTIC_BUILDERS[name]()
    if name == "sequence-energies":
        return _sequence_energies(model_files or [])
    raise ConfigError(f"unknown problem id: {name!r} (known: {', '.join(PROBLEM_NAMES)})")
