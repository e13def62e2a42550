"""Sweep runner and seed-improvement workflow.

A sweep runs a grid of (method, eta, steps, noise) cells, each with a fixed
number of independently seeded chains, then normalizes all final points with
one pooled min-max map and reports hypervolume (and edit-distance statistics
for sequence problems) per cell. Cells already on disk are skipped, writes
are staged and atomically renamed, and the whole bundle is a deterministic
function of the config, so fresh runs and resumed runs produce
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import shutil
from dataclasses import MISSING, dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .core import (
    AMINO_ALPHABET,
    NOISE_GAUSSIAN,
    NOISE_KINDS,
    NOISE_NONE,
    SEQUENCE_LOGITS,
    ConfigError,
    DiscreteSequence,
    InvalidSimplexError,
    SamplerConfig,
    ShapeError,
    SimplexWeights,
    Trajectory,
    decode,
    read_sequences,
    relax,
    sequence_from_str,
    sequence_point,
    sequence_to_str,
    uniform_weights,
)
from .energy import CdTrainConfig, EnergyModel
from .metrics import (
    NormalizationMap,
    ReferencePoint,
    hypervolume_exact,
    hypervolume_mc,
    objective_matrix,
    summarize_edist,
    edit_distance_matrix,
)
from .moo import check_min_norm_m, pareto_filter
from .problems import Problem, get_problem
from .samplers import (
    METHOD_LS_CEBM,
    METHOD_MGD,
    METHOD_PCEBM,
    METHODS,
    ChainFailure,
    ChainSpec,
    RandomInit,
    chain_seeds,
    run_population,
    write_trajectories,
)

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1
MC_HV_SAMPLES = 200_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep/improvement configuration."""

    problem: str
    methods: tuple[str, ...]
    etas: tuple[float, ...]
    steps_grid: tuple[int, ...]
    output_dir: Path
    noise_kinds: tuple[str, ...] = (NOISE_GAUSSIAN,)
    chains: int = 1
    base_seed: int = 0
    model_files: tuple[str, ...] = ()
    training_sequences: str | None = None
    reference_point: tuple[float, ...] | None = None
    ls_lambda: tuple[float, ...] | None = None
    sigma: float | None = None
    alpha: float | None = None
    init_scale: float = 1.0
    init_distribution: str = "normal"
    record_every: int = 1
    grad_tol: float = 1e-6
    alphabet: str = AMINO_ALPHABET
    normalization: dict | None = None  # None is pooled, else {"min": (...), "max": (...)}

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} (known: {', '.join(METHODS)})")
        if not self.etas:
            raise ConfigError("eta grid must be non-empty")
        if not all(e > 0 for e in self.etas):
            raise ConfigError(f"every eta must be positive, got {list(self.etas)}")
        if not self.steps_grid:
            raise ConfigError("steps grid must be non-empty")
        if any(k < 0 for k in self.steps_grid):
            raise ConfigError("steps must be >= 0")
        if not self.noise_kinds:
            raise ConfigError("noise grid must be non-empty")
        for n in self.noise_kinds:
            if n not in NOISE_KINDS:
                raise ConfigError(f"unknown noise kind {n!r}")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        ref = self.reference_point
        if ref is not None and not (ref and all(math.isfinite(v) for v in ref)):
            raise ConfigError(f"reference_point must be a non-empty list of finite numbers, got {list(ref)}")
        if self.normalization is not None:
            lo, hi = self.normalization["min"], self.normalization["max"]
            if not (len(lo) == len(hi) >= 1 and all(-math.inf < a <= b < math.inf for a, b in zip(lo, hi))):
                raise ConfigError(f"normalization needs finite min <= max of equal length, got {lo} and {hi}")


def _as_int(value) -> int:
    """A YAML integer as it is: a float or a bool is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _as_float(value) -> float:
    """A YAML number as a float. A bool is an error, as it is for integer
    keys; a string that float() reads (PyYAML loads ``1e-6`` as one) is read."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _grid(read):
    """A YAML list read entry by entry; a scalar is a list of one."""
    return lambda value: tuple(read(v) for v in (value if isinstance(value, list) else [value]))


def _optional(read):
    return lambda value: None if value is None else read(value)


def _normalization(value) -> dict | None:
    if value is None or value == "pooled":
        return None
    if not (isinstance(value, dict) and set(value) == {"min", "max"}):
        raise TypeError(f"expected 'pooled' or a mapping with keys min and max, got {value!r}")
    return {bound: _grid(_as_float)(value[bound]) for bound in ("min", "max")}


def _model_spec(value) -> tuple[str, int | None]:
    """``{kind: pwm}`` or ``{kind: mlp, hidden: H}`` as (kind, H); a PWM has no H."""
    if not (isinstance(value, dict) and set(value) <= {"kind", "hidden"}):
        raise TypeError(f"expected a mapping with keys kind and hidden, got {value!r}")
    kind = value.get("kind", "pwm")
    if kind not in ("pwm", "mlp"):
        raise ValueError(f"kind must be pwm or mlp, got {kind!r}")
    hidden = _as_int(value.get("hidden", 0)) if kind == "mlp" else None
    if hidden is not None and hidden < 1:
        raise ValueError(f"an mlp model needs a positive 'hidden' size, got {hidden}")
    return kind, hidden


# YAML key -> (field, reader). A reader's TypeError, ValueError or
# OverflowError is a ConfigError naming the key. Defaults live on the dataclasses and bounds in
# their __post_init__; a key the file leaves out keeps the default.
_SWEEP_KEYS = {
    "problem": ("problem", _as_str),
    "methods": ("methods", _grid(_as_str)),
    "eta": ("etas", _grid(_as_float)),
    "steps": ("steps_grid", _grid(_as_int)),
    "output_dir": ("output_dir", _as_str),
    "noise": ("noise_kinds", _grid(_as_str)),
    "chains": ("chains", _as_int),
    "base_seed": ("base_seed", _as_int),
    "model_files": ("model_files", _grid(_as_str)),
    "training_sequences": ("training_sequences", _optional(_as_str)),
    "reference_point": ("reference_point", _optional(_grid(_as_float))),
    "ls_lambda": ("ls_lambda", _optional(_grid(_as_float))),
    "sigma": ("sigma", _optional(_as_float)),
    "alpha": ("alpha", _optional(_as_float)),
    "init_scale": ("init_scale", _as_float),
    "init_distribution": ("init_distribution", _as_str),
    "record_every": ("record_every", _as_int),
    "grad_tol": ("grad_tol", _as_float),
    "alphabet": ("alphabet", _as_str),
    "normalization": ("normalization", _normalization),
}

# The train config's keys: CdTrainConfig's fields, plus the model to train
# and the alphabet of the training sequences.
_TRAIN_KEYS = {
    "model": ("model", _model_spec),
    "cd_steps": ("cd_steps", _as_int),
    "lr": ("lr", _as_float),
    "epochs": ("epochs", _as_int),
    "batch_size": ("batch_size", _as_int),
    "l2": ("l2", _as_float),
    "seed": ("seed", _as_int),
    "cd_eta": ("cd_eta", _as_float),
    "cd_sigma": ("cd_sigma", _optional(_as_float)),
    "alphabet": ("alphabet", _as_str),
}


def read_yaml_config(path, readers: dict) -> dict:
    """Parse a YAML config through a key table into ``{field: value}``.

    The file must be a mapping with ``config_version: 1`` and no key outside
    ``readers``; each present key goes through its reader.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    unknown = sorted(str(k) for k in set(raw) - set(readers) - {"config_version"})
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    version = raw.pop("config_version", None)
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"{path}: config_version must be {CONFIG_VERSION}, got {version!r}")
    values = {}
    for key, value in raw.items():
        name, read = readers[key]
        try:
            values[name] = read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return values


def load_config(path) -> ExperimentConfig:
    """Read a sweep config through ``_SWEEP_KEYS``.

    Relative paths (output_dir, model_files, training_sequences) resolve
    against the config file's directory.
    """
    path = Path(path)
    values = read_yaml_config(path, _SWEEP_KEYS)
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    for key, (name, _) in _SWEEP_KEYS.items():
        if name in required and name not in values:
            raise ConfigError(f"{path}: missing required config key: {key}")
    base = path.parent
    values["output_dir"] = base / values["output_dir"]
    if "model_files" in values:
        values["model_files"] = tuple(str(base / p) for p in values["model_files"])
    if values.get("training_sequences") is not None:
        values["training_sequences"] = str(base / values["training_sequences"])
    cfg = ExperimentConfig(**values)
    for mf in cfg.model_files:
        if not Path(mf).is_file():
            raise ConfigError(f"{path}: model file not found: {mf}")
    if cfg.training_sequences is not None and not Path(cfg.training_sequences).is_file():
        raise ConfigError(f"{path}: training_sequences file not found: {cfg.training_sequences}")
    return cfg


def load_train_config(path) -> tuple[tuple[str, int | None], CdTrainConfig, str]:
    """Read a train config through ``_TRAIN_KEYS``: the model's (kind,
    hidden size), the CdTrainConfig, and the sequences' alphabet."""
    values = read_yaml_config(path, _TRAIN_KEYS)
    model = values.pop("model", _model_spec({}))
    alphabet = values.pop("alphabet", AMINO_ALPHABET)
    return model, CdTrainConfig(**values), alphabet


@dataclass(frozen=True)
class SweepCell:
    index: int
    method: str
    eta: float
    steps: int
    noise_kind: str

    @property
    def cell_id(self) -> str:
        return f"{self.method}_eta{self.eta:g}_k{self.steps}_{self.noise_kind}"


def _noise_grid(cfg: ExperimentConfig, method: str) -> tuple[str, ...]:
    """The noise kinds a method runs with: mgd always runs noiseless, so it
    gets 'none' alone whatever the config's noise grid."""
    return (NOISE_NONE,) if method == METHOD_MGD else cfg.noise_kinds


def sweep_cells(cfg: ExperimentConfig) -> list[SweepCell]:
    """Grid cells in deterministic order; mgd gets a single 'none' cell per
    (eta, steps) regardless of the noise grid."""
    cells = []
    index = 0
    for method in cfg.methods:
        for eta in cfg.etas:
            for steps in cfg.steps_grid:
                for noise in _noise_grid(cfg, method):
                    cells.append(SweepCell(index, method, eta, steps, noise))
                    index += 1
    return cells


def _ls_lambda(cfg: ExperimentConfig, m: int) -> SimplexWeights:
    if cfg.ls_lambda is None:
        return uniform_weights(m)
    if len(cfg.ls_lambda) != m:
        raise ConfigError(f"ls_lambda has {len(cfg.ls_lambda)} entries, problem has m={m}")
    try:
        return SimplexWeights(np.array(cfg.ls_lambda))
    except InvalidSimplexError as exc:
        raise ConfigError(f"ls_lambda: {exc}") from exc


def _check_min_norm_methods(cfg: ExperimentConfig, m: int) -> None:
    """Refuse, before any chain runs, a min-norm method (mgd, pcebm) on more
    objectives than the min-norm solve takes."""
    if METHOD_MGD in cfg.methods or METHOD_PCEBM in cfg.methods:
        check_min_norm_m(m)


def _sampler_config(
    cfg: ExperimentConfig, eta: float, steps: int, noise_kind: str, record_every: int
) -> SamplerConfig:
    """The sampler config that every chain of a sweep cell, or of one method
    in ``improve_seeds``, shares."""
    return SamplerConfig(
        eta=eta,
        steps=steps,
        noise_kind=noise_kind,
        sigma=cfg.sigma,
        alpha=cfg.alpha,
        grad_tol=cfg.grad_tol,
        record_every=record_every,
    )


def _decode_final(trajectory: Trajectory, problem: Problem) -> DiscreteSequence:
    L, A = problem.sequence_dims()
    return decode(sequence_point(trajectory.X[-1], L, A))


def _write_final_points(path, rows, m: int, with_sequence: bool) -> None:
    header = ["chain_id", *[f"f{i}" for i in range(m)]]
    if with_sequence:
        header.append("sequence")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _read_final_points(path, with_sequence: bool):
    chain_ids, values, sequences = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_obj = len(header) - 1 - (1 if with_sequence else 0)
        for row in reader:
            chain_ids.append(int(row[0]))
            values.append([float(v) for v in row[1 : 1 + n_obj]])
            if with_sequence:
                sequences.append(row[-1])
    return chain_ids, np.array(values).reshape(len(values), n_obj), sequences


def _cell_complete(cell_dir: Path) -> bool:
    return (cell_dir / "final_points.csv").is_file() and (cell_dir / "trajectories.csv").is_file()


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def emit_front(
    points,
    labels: Sequence[str],
    path,
    objective_names: Sequence[str] | None = None,
) -> None:
    """Write labeled objective coordinates with a non-dominated flag per row,
    enough to redraw a front scatter with any external plotter.

    ``points`` is an (n, m) array or a sequence of ObjectiveVectors; its
    values must be finite (ValueError otherwise)."""
    labels = list(labels)
    if len(points) != len(labels):
        raise ShapeError(f"{len(points)} points but {len(labels)} labels")
    if len(points):
        V = objective_matrix(points)
        if not np.all(np.isfinite(V)):
            raise ValueError("objective values must be finite")
        m = V.shape[1]
        if objective_names is None:
            objective_names = [f"f{i}" for i in range(m)]
        if len(objective_names) != m:
            raise ShapeError(f"need {m} objective names, got {len(objective_names)}")
        front = np.zeros(len(V), dtype=bool)
        front[pareto_filter(V)] = True
        rows = zip(labels, V.tolist(), front.tolist())
    else:
        objective_names = list(objective_names) if objective_names is not None else []
        rows = ()
    lines = [",".join(["label", *objective_names, "non_dominated"])]
    for label, coords, flag in rows:
        lines.append(f"{label},{','.join(repr(v) for v in coords)},{1 if flag else 0}")
    _atomic_write_text(Path(path), "".join(line + "\n" for line in lines))


@dataclass(frozen=True, eq=False)
class SweepResult:
    output_dir: Path
    report_path: Path
    report: dict


def _run_cell(
    cfg: ExperimentConfig,
    problem: Problem,
    cell: SweepCell,
    config: SamplerConfig,
    init: RandomInit,
    cells_dir: Path,
) -> dict | None:
    """Run one cell's chains and write its directory; returns a failure
    record if the cell could not run. The chains' trajectories are released
    when it returns, before the next cell starts."""
    m = problem.m
    is_sequence = problem.point_kind == SEQUENCE_LOGITS
    try:
        fixed = _ls_lambda(cfg, m) if cell.method == METHOD_LS_CEBM else None
        first = cell.index * cfg.chains
        seeds = chain_seeds(cfg.base_seed, range(first, first + cfg.chains)).tolist()
        specs = [ChainSpec(cell.method, config, init, fixed, seed) for seed in seeds]
        # The cell reads only each chain's final point, so X keeps one row.
        results = run_population(problem.objectives, specs, final_x_only=True)
    except Exception as exc:  # noqa: BLE001 - cell failures must not abort the sweep
        logger.warning("cell %s failed: %s", cell.cell_id, exc)
        return {"cell_id": cell.cell_id, "error": f"{type(exc).__name__}: {exc}"}
    trajectories: list[Trajectory] = []
    chain_ids: list[int] = []
    final_rows = []
    chain_errors = []
    for idx, res in enumerate(results):
        if isinstance(res, ChainFailure):
            chain_errors.append(str(res))
            continue
        trajectories.append(res)
        chain_ids.append(idx)
        row = [idx, *res.F[-1].tolist()]
        if is_sequence:
            row.append(sequence_to_str(_decode_final(res, problem), cfg.alphabet))
        final_rows.append(row)
    tmp_dir = cells_dir / f".tmp-{cell.cell_id}"
    if tmp_dir.exists():
        for leftover in tmp_dir.iterdir():
            leftover.unlink()
    tmp_dir.mkdir(exist_ok=True)
    write_trajectories(
        tmp_dir / "trajectories.csv", trajectories, [f"f{i}" for i in range(m)], chain_ids
    )
    _write_final_points(tmp_dir / "final_points.csv", final_rows, m, is_sequence)
    if chain_errors:
        (tmp_dir / "chain_errors.txt").write_text("".join(e + "\n" for e in chain_errors))
    cell_dir = cells_dir / cell.cell_id
    if cell_dir.exists():
        # A directory without both result files is a leftover partial write.
        shutil.rmtree(cell_dir)
    tmp_dir.rename(cell_dir)
    logger.info(
        "cell %s: %d/%d chains ok", cell.cell_id, len(trajectories), cfg.chains
    )
    return None


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every grid cell, then aggregate one report bundle on disk.

    Layout: <output_dir>/report.json, <output_dir>/fronts.csv, and per cell
    <output_dir>/cells/<cell_id>/{trajectories.csv,final_points.csv,front.csv}.
    Finished cells are skipped on rerun; a fully finished sweep returns
    without touching the bundle.
    """
    problem = get_problem(cfg.problem, cfg.model_files)
    m = problem.m
    reference = ReferencePoint(np.ones(m) if cfg.reference_point is None else np.array(cfg.reference_point))
    if reference.m != m:
        raise ConfigError(f"reference point has m={reference.m}, problem has m={m}")
    fixed_nmap = None
    if cfg.normalization is not None:
        fixed_nmap = NormalizationMap(np.array(cfg.normalization["min"]), np.array(cfg.normalization["max"]))
        if fixed_nmap.m != m:
            raise ConfigError(f"normalization bounds have m={fixed_nmap.m}, problem has m={m}")
    _check_min_norm_methods(cfg, m)
    if METHOD_LS_CEBM in cfg.methods:
        _ls_lambda(cfg, m)  # validate early
    is_sequence = problem.point_kind == SEQUENCE_LOGITS
    training = read_sequences(cfg.training_sequences, cfg.alphabet) if (
        is_sequence and cfg.training_sequences
    ) else None

    out = Path(cfg.output_dir)
    cells_dir = out / "cells"
    report_path = out / "report.json"
    cells = sweep_cells(cfg)
    # One sampler config per cell, and the random start, checked before any chain runs.
    configs = [
        _sampler_config(cfg, cell.eta, cell.steps, cell.noise_kind, cfg.record_every) for cell in cells
    ]
    init = RandomInit(problem.d, cfg.init_distribution, cfg.init_scale)

    if report_path.is_file() and all(_cell_complete(cells_dir / c.cell_id) for c in cells):
        logger.info("sweep already complete: %s", out)
        return SweepResult(out, report_path, json.loads(report_path.read_text()))

    cells_dir.mkdir(parents=True, exist_ok=True)
    cell_failures: list[dict] = []

    for cell, config in zip(cells, configs):
        if _cell_complete(cells_dir / cell.cell_id):
            logger.info("cell %s already on disk, skipping", cell.cell_id)
            continue
        failure = _run_cell(cfg, problem, cell, config, init, cells_dir)
        if failure is not None:
            cell_failures.append(failure)

    # Aggregation: single-threaded, pooled normalization over every final
    # point the sweep produced so cross-method comparisons share one scale.
    per_cell_points: dict[str, np.ndarray] = {}
    per_cell_sequences: dict[str, list[str]] = {}
    pooled = []
    for cell in cells:
        cell_dir = cells_dir / cell.cell_id
        if not _cell_complete(cell_dir):
            continue
        _, values, sequences = _read_final_points(cell_dir / "final_points.csv", is_sequence)
        per_cell_points[cell.cell_id] = values
        per_cell_sequences[cell.cell_id] = sequences
        if values.size:
            pooled.append(values)
    if not pooled:
        raise ConfigError("sweep produced no points; every cell failed")
    nmap = fixed_nmap
    if nmap is None:
        pooled_matrix = np.concatenate(pooled, axis=0)
        nmap = NormalizationMap(pooled_matrix.min(axis=0), pooled_matrix.max(axis=0))

    norm_doc = {
        "min": [float(v) for v in nmap.mins],
        "max": [float(v) for v in nmap.maxs],
        "degenerate": [bool(v) for v in nmap.degenerate],
    }
    objective_names = [f"f{i}" for i in range(m)]
    cell_records = []
    all_front_points: list[np.ndarray] = []
    all_front_labels: list[str] = []
    for cell in cells:
        if cell.cell_id not in per_cell_points:
            continue
        values = per_cell_points[cell.cell_id]
        normalized = nmap.apply_raw(values) if values.size else values.reshape(0, m)
        # emit_front rejects non-finite values before any hypervolume is computed.
        emit_front(
            normalized,
            [cell.method] * len(normalized),
            cells_dir / cell.cell_id / "front.csv",
            objective_names=objective_names,
        )
        if m <= 3:
            hv_all = hypervolume_exact(normalized, reference)
        else:
            hv_all, _ = hypervolume_mc(normalized, reference, MC_HV_SAMPLES, seed=cfg.base_seed)
        hv_pairs = {}
        for i, j in combinations(range(m), 2):
            ref_ij = ReferencePoint(reference.r[[i, j]])
            hv_pairs[f"{i},{j}"] = hypervolume_exact(normalized[:, [i, j]], ref_ij)
        edist_mean = edist_std = None
        if training is not None and per_cell_sequences[cell.cell_id]:
            decoded = [
                sequence_from_str(s, cfg.alphabet) for s in per_cell_sequences[cell.cell_id]
            ]
            edist_mean, edist_std = summarize_edist(decoded, training)
        all_front_points.append(normalized)
        all_front_labels.extend([cell.cell_id] * len(normalized))
        cell_records.append(
            {
                "cell_id": cell.cell_id,
                "method": cell.method,
                "eta": cell.eta,
                "steps": cell.steps,
                "noise_kind": cell.noise_kind,
                "seed": cfg.base_seed,
                "chains": int(values.shape[0]),
                "hv_all": float(hv_all),
                "hv_pairwise": {k: float(v) for k, v in hv_pairs.items()},
                "edist_mean": edist_mean,
                "edist_std": edist_std,
                "normalization": norm_doc,
            }
        )
    emit_front(
        np.concatenate(all_front_points), all_front_labels, out / "fronts.csv",
        objective_names=objective_names,
    )

    report = {
        "config_version": CONFIG_VERSION,
        "problem": cfg.problem,
        "base_seed": cfg.base_seed,
        "chains": cfg.chains,
        "objective_names": objective_names,
        "reference_point": [float(v) for v in reference.r],
        "normalization": norm_doc,
        "cells": cell_records,
        "failures": cell_failures,
    }
    _atomic_write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return SweepResult(out, report_path, report)


@dataclass(frozen=True, eq=False)
class ImprovementReport:
    """Before/after scores for every finished (seed, method) chain, the
    (seed, method) chains that failed with their errors, and per-method
    score distributions (violin-plot-ready raw values). A method with no
    finished chain has no scores and an ``improved_fraction`` of None."""

    entries: tuple[dict, ...]
    per_method: dict
    failures: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {"entries": list(self.entries), "per_method": self.per_method, "failures": list(self.failures)}


def improve_seeds(
    cfg: ExperimentConfig,
    seeds: Sequence[DiscreteSequence],
    scorer: EnergyModel,
) -> ImprovementReport:
    """Run every configured method from every seed sequence and score the
    decoded results with the given scorer model (lower is better).

    Uses the first eta/steps/noise entry of the config grids; a zero-step
    chain records its start, so it reports the seed unchanged. A chain that
    fails is listed under ``failures`` and left out of the entries and scores.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed sequence")
    problem = get_problem(cfg.problem, cfg.model_files)
    if problem.point_kind != SEQUENCE_LOGITS:
        raise ConfigError("improve_seeds needs a sequence problem")
    _check_min_norm_methods(cfg, problem.m)
    L, A = problem.sequence_dims()
    if scorer.d != problem.d:
        raise ShapeError(f"scorer has d={scorer.d}, problem has d={problem.d}")
    for i, seed in enumerate(seeds):
        if len(seed) != L or seed.alphabet_size != A:
            raise ShapeError(f"seed {i} has (L={len(seed)}, A={seed.alphabet_size}), need ({L}, {A})")

    eta = cfg.etas[0]
    steps = cfg.steps_grid[0]
    before = [float(scorer.value(relax(s))) for s in seeds]

    entries: list[dict] = []
    failures: list[dict] = []
    specs = []
    pairs = []
    sampler_seeds = chain_seeds(cfg.base_seed, range(len(cfg.methods) * len(seeds))).tolist()
    for mi, method in enumerate(cfg.methods):
        config = _sampler_config(cfg, eta, steps, _noise_grid(cfg, method)[0], max(1, steps))
        fixed = _ls_lambda(cfg, problem.m) if method == METHOD_LS_CEBM else None
        for si, seed in enumerate(seeds):
            specs.append(
                ChainSpec(method, config, relax(seed), fixed, sampler_seeds[mi * len(seeds) + si])
            )
            pairs.append((mi, si))
    results = run_population(problem.objectives, specs)
    finished = []
    for (mi, si), res in zip(pairs, results):
        if isinstance(res, ChainFailure):
            failures.append(
                {
                    "seed_index": si,
                    "method": cfg.methods[mi],
                    "error": f"{type(res.error).__name__}: {res.error}",
                }
            )
            continue
        finished.append((mi, si, _decode_final(res, problem)))
    # One bit-vector pass over every (seed, final sequence) pair.
    edits = edit_distance_matrix(seeds, [final_seq for _, _, final_seq in finished])
    for f, (mi, si, final_seq) in enumerate(finished):
        entries.append(
            {
                "seed_index": si,
                "method": cfg.methods[mi],
                "before": before[si],
                "after": float(scorer.value(relax(final_seq))),
                "edit_distance": int(edits[si, f]),
                "sequence": sequence_to_str(final_seq, cfg.alphabet),
            }
        )

    per_method = {}
    for method in cfg.methods:
        rows = [e for e in entries if e["method"] == method]
        scores = [e["after"] for e in rows]
        improved = sum(1 for e in rows if e["after"] < e["before"])
        per_method[method] = {
            "scores": scores,
            "improved_fraction": improved / len(rows) if rows else None,
        }
    return ImprovementReport(entries=tuple(entries), per_method=per_method, failures=tuple(failures))


def write_improvement_report(report: ImprovementReport, path) -> None:
    _atomic_write_text(Path(path), json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
