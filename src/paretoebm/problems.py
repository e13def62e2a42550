"""Benchmark problem registry: each name builds its ``ObjectiveSet``.

The four analytic sets have the geometry stated beside their builders (and
in the README's problem registry table); ``sequence-energies`` loads one
model per file.
"""

from __future__ import annotations

from typing import Sequence

from .core import ConfigError
from .energy import FonsecaFlemingBranch, ObjectiveSet, ShiftedQuadratic, Zdt3Branch, load_model


_ANALYTIC_BUILDERS = {
    # Quadratics centered at +/-(1, 0) in d=2: the trade-off set is the
    # segment between the centers, and the front is convex. The second
    # center is the first's negation, -0.0 included.
    "opposing-quadratics": lambda: ObjectiveSet([ShiftedQuadratic([1.0, 0.0]), ShiftedQuadratic([-1.0, -0.0])]),
    # The classic benchmark in d=3, with a non-convex front: the trade-off
    # set is the diagonal x1=x2=x3 in [-1/sqrt(3), 1/sqrt(3)].
    "fonseca-fleming": lambda: ObjectiveSet([FonsecaFlemingBranch(1, 3), FonsecaFlemingBranch(-1, 3)]),
    # Smooth unconstrained variant of the disconnected-front benchmark in
    # d=4: the sine term leaves alternating dominated gaps in the front.
    "zdt3-like": lambda: ObjectiveSet([Zdt3Branch(0, 4), Zdt3Branch(1, 4)]),
    # Quadratics centered at (2, 0), (-2, 0), (0, 2) in d=2: the trade-off
    # set is the triangle the centers span.
    "tri-quadratic": lambda: ObjectiveSet([ShiftedQuadratic(c) for c in ([2.0, 0.0], [-2.0, 0.0], [0.0, 2.0])]),
}

PROBLEM_NAMES = (*_ANALYTIC_BUILDERS.keys(), "sequence-energies")


def get_problem(name: str, model_files: Sequence[str] | None = None) -> ObjectiveSet:
    """Build a registered problem's objective set; sequence-energies requires
    model files and an analytic problem takes none."""
    if name in _ANALYTIC_BUILDERS:
        if model_files:
            raise ConfigError(f"{name} is an analytic problem and takes no model files, got {len(model_files)}")
        return _ANALYTIC_BUILDERS[name]()
    if name == "sequence-energies":
        if not model_files:
            raise ConfigError("sequence-energies needs at least one model file")
        return ObjectiveSet([load_model(p) for p in model_files])
    raise ConfigError(f"unknown problem id: {name!r} (known: {', '.join(PROBLEM_NAMES)})")
