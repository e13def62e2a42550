"""Sweep runner and seed-improvement workflow.

A sweep runs a grid of (method, eta, steps, noise) cells, each with a fixed
number of independently seeded chains, one ``ChainSpecs`` that
``run_population`` runs as one batch, then normalizes all final points with
one pooled min-max map and reports hypervolume (and edit-distance statistics
for sequence problems) per cell. Cells already on disk are skipped, the
others run on one process per CPU and hand back the final points they wrote,
writes are staged and atomically renamed, and the whole bundle is a
deterministic function of the config, so fresh runs, resumed runs and runs
on any number of CPUs produce byte-identical output. The aggregation runs on
the same processes: the sweep's own process fits the pooled normalization
and non-dominated flags, each process writes its cells' fronts and computes
their hypervolumes and edit distances, and the sweep's process writes
``fronts.csv`` and ``report.json``. A process holds one cell at a time: its
recorded columns, one step's arrays, one noise block and one export block.
A cell's ``trajectories.csv`` is formatted and written a block of records at
a time, so its export adds one block, whatever the cell's record count.
"""

from __future__ import annotations

import csv
import fcntl
import json
import logging
import math
import os
import resource
import shutil
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from itertools import combinations
from operator import attrgetter
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

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
    ParetoEbmError,
    SamplerConfig,
    ShapeError,
    SimplexWeights,
    WrongKindError,
    decode_rows,
    read_sequences,
    relax_rows,
    sequence_from_str,
    uniform_weights,
)
from .energy import CdTrainConfig, EnergyModel, ObjectiveSet
from .metrics import (
    edit_distance_matrix,
    hypervolume_exact,
    hypervolume_mc,
    normalize,
    objective_matrix,
    summarize_edist,
)
from .moo import check_min_norm_m, pareto_filter
from .problems import get_problem
from .samplers import (
    METHOD_LS_CEBM,
    METHOD_MGD,
    METHOD_PCEBM,
    METHODS,
    ChainSpecs,
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
        if math.inf in self.etas:
            raise ConfigError(f"every eta must be finite, got {list(self.etas)}")
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
    (eta, steps) regardless of the noise grid. Two cells with one cell id (a
    repeated grid entry, or etas equal to six significant digits) would
    share a directory, so they are a ConfigError."""
    cells = []
    seen = set()
    for method in cfg.methods:
        for eta in cfg.etas:
            for steps in cfg.steps_grid:
                for noise in _noise_grid(cfg, method):
                    cell = SweepCell(len(cells), method, eta, steps, noise)
                    if cell.cell_id in seen:
                        raise ConfigError(f"two grid cells share the cell id {cell.cell_id}; make the grid distinct")
                    seen.add(cell.cell_id)
                    cells.append(cell)
    return cells


def _problem(cfg: ExperimentConfig) -> tuple[ObjectiveSet, SimplexWeights | None]:
    """The config's problem (its objective set) and ls_cebm's weights (None
    without ls_cebm). The one check of the config against its problem, for
    ``run_sweep`` and ``improve_seeds`` alike, before any chain runs or any file
    is written; a misfit is a ConfigError."""
    objectives = get_problem(cfg.problem, cfg.model_files)
    m = objectives.m
    if cfg.reference_point is not None and len(cfg.reference_point) != m:
        raise ConfigError(f"reference point has m={len(cfg.reference_point)}, problem has m={m}")
    if cfg.normalization is not None and len(cfg.normalization["min"]) != m:
        raise ConfigError(f"normalization bounds have m={len(cfg.normalization['min'])}, problem has m={m}")
    if METHOD_MGD in cfg.methods or METHOD_PCEBM in cfg.methods:
        check_min_norm_m(m)
    weights = None
    if METHOD_LS_CEBM in cfg.methods:
        if cfg.ls_lambda is not None and len(cfg.ls_lambda) != m:
            raise ConfigError(f"ls_lambda has {len(cfg.ls_lambda)} entries, problem has m={m}")
        try:
            weights = uniform_weights(m) if cfg.ls_lambda is None else SimplexWeights(np.array(cfg.ls_lambda))
        except InvalidSimplexError as exc:
            raise ConfigError(f"ls_lambda: {exc}") from exc
    if objectives.point_kind == SEQUENCE_LOGITS:
        # Every decoded token needs its own symbol.
        _, A = objectives.sequence_dims()
        if len(set(cfg.alphabet)) != len(cfg.alphabet):
            raise ConfigError(f"alphabet {cfg.alphabet!r} repeats a symbol")
        if len(cfg.alphabet) < A:
            raise ConfigError(f"alphabet {cfg.alphabet!r} has {len(cfg.alphabet)} symbols, the problem has A={A}")
    elif cfg.training_sequences is not None:
        raise ConfigError(f"training_sequences needs a sequence problem, and {cfg.problem} is not one")
    return objectives, weights


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


def _sequence_text(tokens: np.ndarray, alphabet: str) -> list[str]:
    """The rows of an (n, L) token array as text over ``alphabet``."""
    return ["".join(alphabet[t] for t in row) for row in tokens.tolist()]


def _write_final_points(path, rows, m: int, with_sequence: bool) -> None:
    header = ["chain_id", *[f"f{i}" for i in range(m)]]
    if with_sequence:
        header.append("sequence")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_final_points(path, with_sequence: bool) -> tuple[np.ndarray, list[str]]:
    """A cell's final objective values and decoded sequences, as written."""
    values, sequences = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_obj = len(header) - 1 - (1 if with_sequence else 0)
        for row in reader:
            values.append([float(v) for v in row[1 : 1 + n_obj]])
            if with_sequence:
                sequences.append(row[-1])
    return np.array(values).reshape(len(values), n_obj), sequences


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
) -> list[str]:
    """Write labeled objective coordinates with a non-dominated flag per row,
    enough to redraw a front scatter with any external plotter.

    ``points`` is an (n, m) objective array; its values must be finite
    (ValueError otherwise). Returns each row's coordinates as written
    (``repr`` of each value, comma-joined)."""
    labels = list(labels)
    if len(points) != len(labels):
        raise ShapeError(f"{len(points)} points but {len(labels)} labels")
    coords: list[str] = []
    flags: list[bool] = []
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
        coords = [",".join(map(repr, row)) for row in V.tolist()]
        flags = front.tolist()
    elif objective_names is None:
        objective_names = []
    lines = [",".join(["label", *objective_names, "non_dominated"])]
    lines += [f"{label},{text},{1 if flag else 0}" for label, text, flag in zip(labels, coords, flags)]
    _atomic_write_text(Path(path), "".join(line + "\n" for line in lines))
    return coords


@dataclass(frozen=True, eq=False)
class SweepResult:
    output_dir: Path
    report_path: Path
    report: dict


def _run_cell(
    cfg: ExperimentConfig,
    objectives: ObjectiveSet,
    cell: SweepCell,
    config: SamplerConfig,
    init: RandomInit,
    weights: SimplexWeights | None,
    cells_dir: Path,
) -> dict | tuple[np.ndarray, list[str]]:
    """Run one cell's chains and write its directory. Returns a failure
    record if the cell could not run, else the final objective values and
    decoded sequences it wrote to ``final_points.csv`` (the same floats a
    re-read gives, as ``repr`` round-trips). Both files are written from
    the population's columns, with no object per chain; the columns are
    released when it returns, before the next cell starts."""
    start = perf_counter()
    m = objectives.m
    is_sequence = objectives.point_kind == SEQUENCE_LOGITS
    try:
        first = cell.index * cfg.chains
        specs = ChainSpecs(
            cell.method, config, init, chain_seeds(cfg.base_seed, range(first, first + cfg.chains)),
            weights if cell.method == METHOD_LS_CEBM else None,
        )
        # The cell reads only each chain's final point, so X keeps one row.
        results = run_population(objectives, specs, final_x_only=True)
    except Exception as exc:  # noqa: BLE001 - cell failures must not abort the sweep
        logger.warning("cell %s failed: %s", cell.cell_id, exc)
        return {"cell_id": cell.cell_id, "error": f"{type(exc).__name__}: {exc}"}
    ids, steps, final_x, finals = results.finals()
    final_columns = [ids.tolist(), *finals.T.tolist()]
    sequences = []
    if is_sequence:
        sequences = _sequence_text(decode_rows(final_x, *objectives.sequence_dims()), cfg.alphabet)
        final_columns.append(sequences)
    tmp_dir = cells_dir / f".tmp-{cell.cell_id}"
    if tmp_dir.exists():
        for leftover in tmp_dir.iterdir():
            leftover.unlink()
    tmp_dir.mkdir(exist_ok=True)
    write_trajectories(tmp_dir / "trajectories.csv", results, [f"f{i}" for i in range(m)])
    _write_final_points(tmp_dir / "final_points.csv", zip(*final_columns), m, is_sequence)
    failures = results.failures()
    if failures:
        (tmp_dir / "chain_errors.txt").write_text("".join(f"{failure}\n" for failure in failures))
    cell_dir = cells_dir / cell.cell_id
    if cell_dir.exists():
        # A directory without both result files is a leftover partial write.
        shutil.rmtree(cell_dir)
    tmp_dir.rename(cell_dir)
    wall = perf_counter() - start
    # The process's peak resident set so far (ru_maxrss is in KiB on Linux).
    logger.info(
        "cell %s: %d/%d chains ok, %.3f s, %.0f chain-steps/s, pid %d, peak RSS %.1f MB",
        cell.cell_id, ids.size, cfg.chains, wall, int(steps.sum()) / wall, os.getpid(),
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return finals, sequences


def _cpu_count() -> int:
    """The processes a sweep may run its cells on: one per CPU in this
    process's affinity mask (``os.cpu_count()`` where the platform has no
    mask), or one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_cells(
    cells: list[SweepCell], count: int, cost: Callable[[SweepCell], int]
) -> list[list[SweepCell]]:
    """Deal ``cells`` into ``count`` shares, longest processing time first.

    The cells go out by ``cost``, most first and ties by cell index, each to
    the share with the least cost so far (the first such share on a tie).
    Each share lists its cells in cell order."""
    shares: list[list[SweepCell]] = [[] for _ in range(count)]
    loads = [0] * count
    for cell in sorted(cells, key=lambda c: (-cost(c), c.index)):
        k = loads.index(min(loads))
        shares[k].append(cell)
        loads[k] += cost(cell)
    return [sorted(share, key=attrgetter("index")) for share in shares]


def _share_worker(send, fn: Callable, share: list[SweepCell], parent: int) -> None:
    """Run a worker's share and send back its results. A worker whose parent
    (pid ``parent``) is gone stops before its next cell and sends nothing."""
    results = []
    for cell in share:
        if os.getppid() != parent:
            send.close()
            return
        results.append(fn(cell))
    send.send(results)
    send.close()


def _map_cells(
    fn: Callable,
    cells: list[SweepCell],
    cost: Callable[[SweepCell], int],
    describe_lost: Callable[[list[SweepCell]], str],
) -> list:
    """``fn(cell)`` for every cell, in cell order, computed on one process
    per CPU (``_cpu_count``), at most one per cell.

    The cells are split once, by ``_split_cells`` on ``cost``; costs fixed
    by the config make every sweep of it run the same cells in this process:
    share 0. Each other share runs in a worker forked from this process,
    which inherits everything ``fn`` reads without pickling and sends back
    its results alone. A worker that dies before it reports is a
    ParetoEbmError naming its exit code and ``describe_lost`` of its cells.
    A worker whose parent dies finishes only the cell in flight: it checks
    its parent's pid before each cell.
    """
    shares = _split_cells(cells, min(len(cells), _cpu_count()), cost)
    if len(shares) < 2:
        return [fn(cell) for cell in cells]
    import multiprocessing  # only a sweep that forks pays for the import

    context = multiprocessing.get_context("fork")
    parent = os.getpid()
    workers = []
    dead = []
    try:
        for share in shares[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_share_worker, args=(send, fn, share, parent))
            worker.start()
            # Closed before the next fork, so a worker's exit is its pipe's end of file.
            send.close()
            workers.append((worker, receive, share))
        results = dict(zip(map(attrgetter("index"), shares[0]), [fn(cell) for cell in shares[0]]))
        for worker, receive, share in workers:
            try:
                results.update(zip(map(attrgetter("index"), share), receive.recv()))
            except EOFError:
                dead.append((worker, share))
            worker.join()
    finally:
        for worker, receive, _ in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join()
            receive.close()
    if dead:
        exits = ", ".join(f"pid {w.pid} exit code {w.exitcode}" for w, _ in dead)
        lost = [cell for _, share in dead for cell in share]
        raise ParetoEbmError(f"sweep worker died before it reported ({exits}); {describe_lost(lost)}")
    return [results[cell.index] for cell in cells]


@contextmanager
def _sole_writer(directory: Path):
    """Hold an exclusive lock on ``directory``, created if missing, for the
    duration of the block. The lock is a ``flock`` on the directory itself,
    so no file is added to it; the sweep's forked workers share it, and it is
    released when the last of them exits. A directory that another process
    holds is a ConfigError."""
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"output directory {directory} is in use by another sweep") from None
        yield
    finally:
        os.close(fd)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every grid cell, then aggregate one report bundle on disk.

    Layout: <output_dir>/report.json, <output_dir>/fronts.csv, and per cell
    <output_dir>/cells/<cell_id>/{trajectories.csv,final_points.csv,front.csv}.
    Finished cells are skipped on rerun; a fully finished sweep returns
    without touching the bundle. The sweep holds ``output_dir`` alone
    throughout (``_sole_writer``): a directory in use is a ConfigError.
    The other cells run on one process per CPU
    in the affinity mask (see ``_map_cells``), split by chains x (steps + 1),
    and each hands back the final points it wrote; a skipped cell's are read
    from its ``final_points.csv``. This process fits the pooled
    normalization and the pooled non-dominated flags; then the same
    processes aggregate the cells, split by point count: each writes its
    cells' ``front.csv`` and computes their hypervolumes and edit distances,
    and this process writes ``fronts.csv`` and ``report.json``. The bundle
    is the same at any count.
    """
    objectives, weights = _problem(cfg)
    m = objectives.m
    reference = np.ones(m) if cfg.reference_point is None else np.array(cfg.reference_point)
    is_sequence = objectives.point_kind == SEQUENCE_LOGITS
    training = None if cfg.training_sequences is None else read_sequences(cfg.training_sequences, cfg.alphabet)

    out = Path(cfg.output_dir)
    cells_dir = out / "cells"
    report_path = out / "report.json"
    cells = sweep_cells(cfg)
    # One sampler config per cell, and the random start, checked before any chain runs.
    configs = [
        _sampler_config(cfg, cell.eta, cell.steps, cell.noise_kind, cfg.record_every) for cell in cells
    ]
    init = RandomInit(objectives.d, cfg.init_distribution, cfg.init_scale)

    # One writer per output directory: a second sweep into it, or one started
    # while a killed sweep's worker still writes, is refused.
    with _sole_writer(out):
        if report_path.is_file() and all(_cell_complete(cells_dir / c.cell_id) for c in cells):
            logger.info("sweep already complete: %s", out)
            return SweepResult(out, report_path, json.loads(report_path.read_text()))

        cells_dir.mkdir(parents=True, exist_ok=True)
        pending = []
        points: dict[int, tuple[np.ndarray, list[str]]] = {}
        for cell in cells:
            cell_dir = cells_dir / cell.cell_id
            if _cell_complete(cell_dir):
                logger.info("cell %s already on disk, skipping", cell.cell_id)
                points[cell.index] = _read_final_points(cell_dir / "final_points.csv", is_sequence)
            else:
                pending.append(cell)

        def unwritten(lost: list[SweepCell]) -> str:
            ids = [cell.cell_id for cell in lost if not _cell_complete(cells_dir / cell.cell_id)]
            return f"cells left unwritten: {', '.join(ids) or 'none'}. Finished cells stay on disk, so a rerun resumes."

        outcomes = _map_cells(
            lambda cell: _run_cell(cfg, objectives, cell, configs[cell.index], init, weights, cells_dir),
            pending,
            lambda cell: cfg.chains * (cell.steps + 1),
            unwritten,
        )
        cell_failures = []
        for cell, outcome in zip(pending, outcomes):
            if isinstance(outcome, dict):
                cell_failures.append(outcome)
            else:
                points[cell.index] = outcome

        # Aggregation: one pooled normalization over every final point the sweep
        # produced, so cross-method comparisons share one scale.
        start = perf_counter()
        finished = [cell for cell in cells if cell.index in points]
        sizes = {cell.index: len(points[cell.index][0]) for cell in finished}
        if not sum(sizes.values()):
            raise ConfigError(
                f"sweep produced no points: {len(cell_failures)} of {len(cells)} cells failed "
                "and no chain of the other cells finished"
            )
        pooled = np.concatenate([points[cell.index][0] for cell in finished])
        # Rejected before any front or hypervolume is computed; a fixed
        # normalization would clip an infinite value into [0, 1].
        if not np.all(np.isfinite(pooled)):
            raise ValueError("objective values must be finite")
        bounds = cfg.normalization or {"min": pooled.min(axis=0), "max": pooled.max(axis=0)}
        lo, hi = np.array(bounds["min"]), np.array(bounds["max"])
        normalized = normalize(pooled, lo, hi)
        on_front = np.zeros(len(normalized), dtype=bool)
        on_front[pareto_filter(normalized)] = True
        # Each finished cell's rows of the pooled arrays, in cell order.
        offsets = np.cumsum([0, *sizes.values()]).tolist()
        rows = {cell.index: slice(a, b) for cell, a, b in zip(finished, offsets, offsets[1:])}

        norm_doc = {
            "min": [float(v) for v in lo],
            "max": [float(v) for v in hi],
            "degenerate": [bool(v) for v in hi == lo],
        }
        objective_names = [f"f{i}" for i in range(m)]

        def aggregate(cell: SweepCell) -> tuple[dict, str]:
            """A cell's report record and its block of fronts.csv rows; writes its front.csv."""
            cell_id = cell.cell_id
            values = normalized[rows[cell.index]]
            coords = emit_front(
                values, [cell.method] * len(values), cells_dir / cell_id / "front.csv",
                objective_names=objective_names,
            )
            if m <= 3:
                hv_all = hypervolume_exact(values, reference)
            else:
                hv_all, _ = hypervolume_mc(values, reference, MC_HV_SAMPLES, seed=cfg.base_seed)
            if m == 2:
                hv_pairs = {"0,1": hv_all}  # the one pair is the whole front
            else:
                hv_pairs = {
                    f"{i},{j}": hypervolume_exact(values[:, [i, j]], reference[[i, j]])
                    for i, j in combinations(range(m), 2)
                }
            edist_mean = edist_std = None
            sequences = points[cell.index][1]
            if training is not None and sequences:
                decoded = [sequence_from_str(s, cfg.alphabet) for s in sequences]
                edist_mean, edist_std = summarize_edist(decoded, training)
            record = {
                "cell_id": cell_id,
                "method": cell.method,
                "eta": cell.eta,
                "steps": cell.steps,
                "noise_kind": cell.noise_kind,
                "seed": cfg.base_seed,
                "chains": len(values),
                "hv_all": float(hv_all),
                "hv_pairwise": {k: float(v) for k, v in hv_pairs.items()},
                "edist_mean": edist_mean,
                "edist_std": edist_std,
                "normalization": norm_doc,
            }
            block = "".join(
                f"{cell_id},{text},{1 if flag else 0}\n"
                for text, flag in zip(coords, on_front[rows[cell.index]].tolist())
            )
            return record, block

        def unaggregated(lost: list[SweepCell]) -> str:
            return (
                f"cells whose aggregation was lost: {', '.join(cell.cell_id for cell in lost)}. "
                "No report.json or fronts.csv was written; a rerun re-aggregates."
            )

        aggregated = _map_cells(aggregate, finished, lambda cell: sizes[cell.index], unaggregated)
        header = ",".join(["label", *objective_names, "non_dominated"]) + "\n"
        _atomic_write_text(out / "fronts.csv", header + "".join(block for _, block in aggregated))

        report = {
            "config_version": CONFIG_VERSION,
            "problem": cfg.problem,
            "base_seed": cfg.base_seed,
            "chains": cfg.chains,
            "objective_names": objective_names,
            "reference_point": [float(v) for v in reference],
            "normalization": norm_doc,
            "cells": [record for record, _ in aggregated],
            "failures": cell_failures,
        }
        _atomic_write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
        logger.info(
            "aggregation: %d cells, %.3f s, %d process(es)",
            len(finished), perf_counter() - start, min(len(finished), _cpu_count()),
        )
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
    chain records its start, so it reports the seed unchanged. Each method's
    chains, one per seed, are one ``ChainSpecs`` and run as one batch. A chain
    that fails is listed under ``failures`` and left out of the entries and
    scores.
    """
    objectives, weights = _problem(cfg)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed sequence")
    if objectives.point_kind != SEQUENCE_LOGITS:
        raise ConfigError("improve_seeds needs a sequence problem")
    L, A = objectives.sequence_dims()
    if scorer.point_kind != SEQUENCE_LOGITS:
        raise WrongKindError(f"scorer expects {scorer.point_kind!r} points, the problem's are {SEQUENCE_LOGITS!r}")
    if (scorer.L, scorer.A) != (L, A):
        raise ShapeError(f"scorer has (L, A)=({scorer.L}, {scorer.A}), problem has ({L}, {A})")
    for i, seed in enumerate(seeds):
        if len(seed) != L or seed.alphabet_size != A:
            raise ShapeError(f"seed {i} has (L={len(seed)}, A={seed.alphabet_size}), need ({L}, {A})")

    eta = cfg.etas[0]
    steps = cfg.steps_grid[0]
    starts = relax_rows(np.stack([seed.tokens for seed in seeds]), A)
    before = scorer.eval_batch(starts)[0].tolist()

    failures: list[dict] = []
    finished, final_x = [], []
    sampler_seeds = chain_seeds(cfg.base_seed, range(len(cfg.methods) * len(seeds)))
    for mi, method in enumerate(cfg.methods):
        config = _sampler_config(cfg, eta, steps, _noise_grid(cfg, method)[0], max(1, steps))
        specs = ChainSpecs(
            method, config, starts, sampler_seeds[mi * len(seeds) : (mi + 1) * len(seeds)],
            weights if method == METHOD_LS_CEBM else None,
        )
        # Only each chain's final point is read, so X keeps one row.
        results = run_population(objectives, specs, final_x_only=True)
        for failure in results.failures():
            failures.append(
                {
                    "seed_index": failure.index,
                    "method": method,
                    "error": f"{type(failure.error).__name__}: {failure.error}",
                }
            )
        ids, _, x, _ = results.finals()
        finished += [(mi, si) for si in ids.tolist()]
        final_x.append(x)
    # One argmax decodes every final point, one kernel call scores them, and
    # one bit-vector pass gives every (seed, final sequence) edit distance.
    tokens = decode_rows(np.concatenate(final_x), L, A)
    after = scorer.eval_batch(relax_rows(tokens, A))[0].tolist()
    edits = edit_distance_matrix(seeds, tokens)
    text = _sequence_text(tokens, cfg.alphabet)
    entries = [
        {
            "seed_index": si,
            "method": cfg.methods[mi],
            "before": before[si],
            "after": after[f],
            "edit_distance": int(edits[si, f]),
            "sequence": text[f],
        }
        for f, (mi, si) in enumerate(finished)
    ]

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
