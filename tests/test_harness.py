import contextlib
import csv
import dataclasses
import fcntl
import gc
import json
import logging
import os
import pickle
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from paretoebm import harness, samplers
from paretoebm.core import (
    AMINO_ALPHABET,
    ConfigError,
    DiscreteSequence,
    ParetoEbmError,
    SamplerConfig,
    ShapeError,
    SimplexWeights,
    WrongKindError,
    decode,
    relax,
    sequence_from_str,
    sequence_point,
    sequence_to_str,
)
from paretoebm.energy import (
    CdTrainConfig,
    FonsecaFlemingBranch,
    MlpEnergy,
    ObjectiveSet,
    PwmEnergy,
    ShiftedQuadratic,
    Zdt3Branch,
    save_model,
)
from paretoebm.harness import (
    _SWEEP_KEYS,
    _TRAIN_KEYS,
    ExperimentConfig,
    SweepCell,
    emit_front,
    improve_seeds,
    load_config,
    load_train_config,
    run_sweep,
    sweep_cells,
)
from paretoebm.metrics import edit_distance
from paretoebm.moo import MIN_NORM_MAX_M, pareto_filter
from paretoebm.problems import PROBLEM_NAMES, get_problem
from paretoebm.samplers import METHODS

README = Path(__file__).resolve().parents[1] / "README.md"

# The YAML type of every sweep key, stated apart from the table so that a key
# added to the table without a type here fails test_every_key_has_a_type.
SWEEP_TYPES = {
    "problem": str, "methods": str, "noise": str, "output_dir": str, "model_files": str,
    "training_sequences": str, "init_distribution": str, "alphabet": str,
    "steps": int, "chains": int, "base_seed": int, "record_every": int,
    "eta": float, "reference_point": float, "ls_lambda": float, "sigma": float,
    "alpha": float, "init_scale": float, "grad_tol": float,
    "normalization": dict,
}
REFUSED = {int: [2.5, True], float: [True], str: [5], dict: []}


def write_config(path, **overrides):
    doc = {
        "config_version": 1,
        "problem": "opposing-quadratics",
        "methods": ["mgd", "cebm"],
        "eta": [0.1],
        "steps": [20],
        "noise": ["gaussian"],
        "chains": 4,
        "base_seed": 7,
        "output_dir": "out",
    }
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc))
    return path


def save_pwm_models(tmp_path, count, L=4, A=5):
    """Write ``count`` random PWM models; returns their file names."""
    rng = np.random.default_rng(5)
    names = [f"m{i}.model" for i in range(count)]
    for name in names:
        save_model(PwmEnergy(rng.normal(size=(L, A))), tmp_path / name)
    return names


def assert_no_child_left() -> None:
    """Every process this one forked is gone and reaped: waitpid finds none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def snapshot(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


SQRT3 = 1 / np.sqrt(3)
# name -> the model type and the centers each analytic problem documents
# (a zdt3-like set is its two branches, 0 and 1).
DOCUMENTED_MODELS = {
    "opposing-quadratics": (ShiftedQuadratic, [[1, 0], [-1, 0]]),
    "fonseca-fleming": (FonsecaFlemingBranch, [[SQRT3] * 3, [-SQRT3] * 3]),
    "zdt3-like": (Zdt3Branch, None),
    "tri-quadratic": (ShiftedQuadratic, [[2, 0], [-2, 0], [0, 2]]),
}


class TestProblemRegistry:
    @pytest.mark.parametrize(
        "name,m,d",
        [
            ("opposing-quadratics", 2, 2),
            ("fonseca-fleming", 2, 3),
            ("zdt3-like", 2, 4),
            ("tri-quadratic", 3, 2),
        ],
    )
    def test_analytic_problems(self, name, m, d):
        objectives = get_problem(name)
        assert isinstance(objectives, ObjectiveSet)
        assert objectives.m == m and objectives.d == d and objectives.point_kind == "raw"
        model_type, centers = DOCUMENTED_MODELS[name]
        assert all(type(model) is model_type for model in objectives.models)
        if centers is None:
            assert [model.index for model in objectives.models] == [0, 1]
        else:
            np.testing.assert_array_equal([model.center for model in objectives.models], centers)

    def test_unknown_problem_names_id(self):
        with pytest.raises(ConfigError, match="nonexistent-problem"):
            get_problem("nonexistent-problem")

    def test_sequence_energies_from_files(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(2):
            p = tmp_path / f"m{i}.model"
            save_model(PwmEnergy(rng.normal(size=(4, 5))), p)
            paths.append(str(p))
        objectives = get_problem("sequence-energies", model_files=paths)
        assert isinstance(objectives, ObjectiveSet)
        assert objectives.m == 2 and objectives.d == 20
        assert objectives.sequence_dims() == (4, 5)

    def test_sequence_energies_requires_files(self):
        with pytest.raises(ConfigError):
            get_problem("sequence-energies")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.yaml", chains=9))
        assert cfg.problem == "opposing-quadratics"
        assert cfg.chains == 9
        assert cfg.output_dir == tmp_path / "out"

    def test_unknown_keys_fail_loud(self, tmp_path):
        with pytest.raises(ConfigError, match="stepsize"):
            load_config(write_config(tmp_path / "cfg.yaml", stepsize=3))

    def test_version_required(self, tmp_path):
        with pytest.raises(ConfigError, match="config_version"):
            load_config(write_config(tmp_path / "cfg.yaml", config_version=2))

    def test_bad_method(self, tmp_path):
        with pytest.raises(ConfigError, match="sgd"):
            load_config(write_config(tmp_path / "cfg.yaml", methods=["sgd"]))

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(
                write_config(
                    tmp_path / "cfg.yaml",
                    problem="sequence-energies",
                    model_files=["missing.model"],
                )
            )

    def test_scalar_grids_coerced(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.yaml", eta=0.5, steps=10))
        assert cfg.etas == (0.5,) and cfg.steps_grid == (10,)

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("{unclosed")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "cfg.yaml", eta=[]))

    def test_negative_base_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="base_seed"):
            load_config(write_config(tmp_path / "cfg.yaml", base_seed=-1))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("chains", 2.9), ("chains", True), ("chains", "3"), ("chains", None),
            ("base_seed", 1.9), ("base_seed", False),
            ("steps", [10.7]), ("steps", [10, 20.0]), ("steps", True),
            ("record_every", 2.5), ("record_every", True),
        ],
    )
    def test_integer_keys_need_yaml_integers(self, tmp_path, key, value):
        # A float is not truncated and a bool is not read as 0 or 1.
        with pytest.raises(ConfigError, match=f"config key {key}: expected an integer"):
            load_config(write_config(tmp_path / "cfg.yaml", **{key: value}))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("eta", [True]), ("eta", False), ("eta", [0.1, True]),
            ("sigma", True), ("alpha", False), ("init_scale", True), ("grad_tol", True),
            ("reference_point", [1.0, True]), ("ls_lambda", [True, 0.5]),
        ],
    )
    def test_float_keys_refuse_yaml_bools(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"config key {key}: expected a number"):
            load_config(write_config(tmp_path / "cfg.yaml", **{key: value}))

    def test_float_keys_read_numbers(self, tmp_path):
        # An integer is a number, and PyYAML loads an exponent without a dot
        # (1e-6) as a string, which reads as before.
        path = tmp_path / "cfg.yaml"
        write_config(path, eta=[1], sigma=2, alpha=0.5, init_scale=3, reference_point=[1, 1.5], ls_lambda=[0.5, 0.5])
        path.write_text(path.read_text() + "grad_tol: 1e-6\n")
        cfg = load_config(path)
        assert cfg.etas == (1.0,) and cfg.grad_tol == 1e-6
        assert (cfg.sigma, cfg.alpha, cfg.init_scale) == (2.0, 0.5, 3.0)
        assert cfg.reference_point == (1.0, 1.5) and cfg.ls_lambda == (0.5, 0.5)
        assert all(type(v) is float for v in (*cfg.etas, cfg.sigma, cfg.init_scale, *cfg.reference_point))

    @pytest.mark.parametrize("key", ["sigma", "grad_tol", "init_scale"])
    def test_float_keys_refuse_non_numbers(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"config key {key}"):
            load_config(write_config(tmp_path / "cfg.yaml", **{key: "fast"}))

    def test_replaced_base_seed_is_checked(self, tmp_path):
        # --seed overrides base_seed through dataclasses.replace, which
        # validates again.
        cfg = load_config(write_config(tmp_path / "cfg.yaml"))
        with pytest.raises(ConfigError, match="base_seed"):
            dataclasses.replace(cfg, base_seed=-1)


class TestSweepKeyTable:
    def test_every_key_has_a_type(self):
        assert set(SWEEP_TYPES) == set(_SWEEP_KEYS)

    @pytest.mark.parametrize(
        "key,value", [(key, value) for key in _SWEEP_KEYS for value in REFUSED[SWEEP_TYPES.get(key, dict)]]
    )
    def test_key_refuses_a_value_of_another_type(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"config key {key}: expected an? (integer|number|string)"):
            load_config(write_config(tmp_path / "cfg.yaml", **{key: value}))

    @pytest.mark.parametrize("key", [key for key in _SWEEP_KEYS if SWEEP_TYPES.get(key) is float])
    def test_float_key_refuses_nan_before_any_chain(self, tmp_path, monkeypatch, key):
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        nan = float("nan")
        value = {"reference_point": [nan, 1.0], "ls_lambda": [nan, 0.5]}.get(key, nan)
        with pytest.raises(ConfigError, match=key.replace("_", "[_ ]")):
            run_sweep(load_config(write_config(tmp_path / "cfg.yaml", methods=list(METHODS), **{key: value})))
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "normalization,match",
        [
            ({"min": [True, 0.0], "max": [1.0, 1.0]}, "config key normalization: expected a number, got True"),
            ({"min": ["low", 0.0], "max": [1.0, 1.0]}, "config key normalization: could not convert"),
            ({"min": [float("nan"), 0.0], "max": [1.0, 1.0]}, "normalization needs finite min <= max"),
            ({"min": [0.0, 2.0], "max": [1.0, 1.0]}, "normalization needs finite min <= max"),
            ({"min": [0.0], "max": [1.0, 1.0]}, "normalization needs finite min <= max of equal length"),
            ({"min": [0.0, 0.0]}, "config key normalization: expected 'pooled' or a mapping"),
            ("fixed", "config key normalization: expected 'pooled' or a mapping"),
        ],
    )
    def test_bad_normalization_refused_at_load(self, tmp_path, normalization, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path / "cfg.yaml", normalization=normalization))

    @pytest.mark.parametrize("value", [[], [float("nan"), 1.0], [1.0, float("inf")]])
    def test_reference_point_must_be_non_empty_and_finite(self, tmp_path, value):
        with pytest.raises(ConfigError, match="reference_point must be a non-empty list of finite numbers"):
            load_config(write_config(tmp_path / "cfg.yaml", reference_point=value))

    @pytest.mark.parametrize("key", ["problem", "methods", "eta", "steps", "output_dir"])
    def test_key_without_a_default_is_required(self, tmp_path, key):
        path = write_config(tmp_path / "cfg.yaml")
        doc = yaml.safe_load(path.read_text())
        del doc[key]
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=f"missing required config key: {key}$"):
            load_config(path)

    def test_defaults_are_the_dataclass_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.yaml"))
        bare = ExperimentConfig(
            problem=cfg.problem, methods=cfg.methods, etas=cfg.etas, steps_grid=cfg.steps_grid,
            output_dir=cfg.output_dir,
        )
        assert dataclasses.replace(bare, chains=4, base_seed=7) == cfg
        assert (cfg.noise_kinds, cfg.model_files, cfg.normalization) == (("gaussian",), (), None)


def _readme_yaml_block(heading: str) -> str:
    section = README.read_text().split(heading + "\n", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


class TestReadmeAgreesWithTables:
    def test_sweep_block_loads_and_lists_every_key(self, tmp_path):
        block = _readme_yaml_block("### Sweep config (YAML)")
        path = tmp_path / "cfg.yaml"
        path.write_text(block)
        cfg = load_config(path)
        assert cfg.problem == "fonseca-fleming" and cfg.output_dir == tmp_path / "out" / "ff_sweep"
        assert set(yaml.safe_load(block)) == set(_SWEEP_KEYS) | {"config_version"}

    def test_train_block_lists_every_key_at_its_default(self, tmp_path):
        block = _readme_yaml_block("### Train config (YAML)")
        assert set(yaml.safe_load(block)) == set(_TRAIN_KEYS) | {"config_version"}
        path = tmp_path / "train.yaml"
        path.write_text(block)
        assert load_train_config(path) == (("pwm", None), CdTrainConfig(), AMINO_ALPHABET)

    def test_problem_registry_table(self):
        section = README.read_text().split("## Problem registry\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| `")]
        table = {key.strip().strip("`"): (m.strip(), d.strip()) for key, m, d, _ in rows}
        assert tuple(table) == PROBLEM_NAMES
        for name, (m, d) in table.items():
            if name != "sequence-energies":
                objectives = get_problem(name)
                assert (int(m), int(d)) == (objectives.m, objectives.d), name


class TestSweepCells:
    def test_mgd_gets_single_noiseless_cell(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "c.yaml", noise=["gaussian", "uniform"])
        )
        cells = sweep_cells(cfg)
        mgd_cells = [c for c in cells if c.method == "mgd"]
        assert len(mgd_cells) == 1 and mgd_cells[0].noise_kind == "none"
        cebm_cells = [c for c in cells if c.method == "cebm"]
        assert {c.noise_kind for c in cebm_cells} == {"gaussian", "uniform"}

    def test_indices_are_enumeration_order(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.yaml", eta=[0.1, 0.2]))
        cells = sweep_cells(cfg)
        assert [c.index for c in cells] == list(range(len(cells)))


class TestRunSweep:
    def test_minimal_sweep_layout(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "cfg.yaml", methods=["cebm"], chains=1)
        )
        result = run_sweep(cfg)
        cell_dir = tmp_path / "out" / "cells" / "cebm_eta0.1_k20_gaussian"
        assert (cell_dir / "trajectories.csv").is_file()
        assert (cell_dir / "final_points.csv").is_file()
        assert (cell_dir / "front.csv").is_file()
        assert (tmp_path / "out" / "fronts.csv").is_file()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["cells"]) == 1
        cell = report["cells"][0]
        assert {"cell_id", "method", "eta", "steps", "noise_kind", "seed",
                "hv_all", "hv_pairwise", "edist_mean", "edist_std",
                "normalization"} <= set(cell)
        assert result.report == report

    def test_rerun_is_byte_identical_and_skips_work(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.yaml"))
        run_sweep(cfg)
        first = snapshot(tmp_path / "out")
        mtimes = {p: (tmp_path / "out" / p).stat().st_mtime_ns for p in first}
        run_sweep(cfg)
        second = snapshot(tmp_path / "out")
        assert first == second
        assert mtimes == {p: (tmp_path / "out" / p).stat().st_mtime_ns for p in first}

    def test_fresh_sweeps_give_identical_bundles(self, tmp_path):
        cfg_a = load_config(write_config(tmp_path / "a.yaml", output_dir="out_a"))
        cfg_b = load_config(write_config(tmp_path / "b.yaml", output_dir="out_b"))
        run_sweep(cfg_a)
        run_sweep(cfg_b)
        assert snapshot(tmp_path / "out_a") == snapshot(tmp_path / "out_b")

    def test_previous_cell_released_before_next_runs(self, tmp_path, monkeypatch):
        # A cell's population and its batch's columns (the owners of every
        # trajectory's views) must not stay alive while the next cell's
        # chains run. A trajectory is built on access, so a weak reference to
        # one would die at once; the references go to what owns the data.
        previous, alive = [], []

        def tracking(objectives, specs, *, final_x_only=False):
            gc.collect()
            alive.extend(ref() for ref in previous)
            results = samplers.run_population(objectives, specs, final_x_only=final_x_only)
            first = results[0]
            owners = [first.X.base, first.F.base, first.grad_norm.base]
            assert all(isinstance(owner, np.ndarray) and owner.base is None for owner in owners)
            previous[:] = [weakref.ref(results), *map(weakref.ref, owners)]
            return results

        # The spy sees the cells of this process alone, so every cell runs here.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "run_population", tracking)
        run_sweep(load_config(write_config(tmp_path / "cfg.yaml", methods=["cebm", "pcebm", "mgd"])))
        # The population and three columns of each of the first two cells,
        # looked up as the next cell starts.
        assert alive == [None] * 8

    def test_four_objective_sweep_runs_every_chain_without_warning(self, tmp_path, caplog):
        # Four objectives take the min-norm support enumeration.
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                problem="sequence-energies",
                model_files=save_pwm_models(tmp_path, 4),
                methods=["mgd", "pcebm"],
                chains=2,
            )
        )
        with caplog.at_level(logging.WARNING, logger="paretoebm.harness"):
            report = run_sweep(cfg).report
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert report["failures"] == []
        assert [cell["chains"] for cell in report["cells"]] == [2, 2]
        assert set(report) == {
            "config_version", "problem", "base_seed", "chains", "objective_names",
            "reference_point", "normalization", "cells", "failures",
        }

    def test_min_norm_method_above_the_objective_limit_refused(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                problem="sequence-energies",
                model_files=save_pwm_models(tmp_path, MIN_NORM_MAX_M + 1),
                methods=["cebm", "pcebm"],
            )
        )
        with pytest.raises(ConfigError, match=f"at most {MIN_NORM_MAX_M} objectives, got m={MIN_NORM_MAX_M + 1}"):
            run_sweep(cfg)
        assert runs == [] and not (tmp_path / "out").exists()
        monkeypatch.undo()
        # Without a min-norm method the same problem runs.
        report = run_sweep(dataclasses.replace(cfg, methods=("cebm",), steps_grid=(2,), chains=1)).report
        assert [cell["chains"] for cell in report["cells"]] == [1]

    def test_diverging_cell_logged_not_fatal(self, tmp_path):
        # eta=40 on quadratics overflows to non-finite coordinates; those
        # chains fail while the stable cell still completes.
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                methods=["cebm"],
                eta=[40.0, 0.1],
                steps=[400],
                sigma=0.0,
                chains=2,
            )
        )
        result = run_sweep(cfg)
        report = result.report
        stable = [c for c in report["cells"] if c["eta"] == 0.1]
        exploded = [c for c in report["cells"] if c["eta"] == 40.0]
        assert len(stable) == 1 and stable[0]["chains"] == 2
        assert len(exploded) == 1 and exploded[0]["chains"] == 0
        errors = (
            tmp_path / "out" / "cells" / "cebm_eta40_k400_gaussian" / "chain_errors.txt"
        )
        assert errors.is_file()

    def test_all_failed_cell_writes_the_trajectory_header_alone(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "cfg.yaml", methods=["cebm"], eta=[40.0, 0.1], steps=[400], sigma=0.0, chains=2)
        )
        run_sweep(cfg)
        cell_dir = tmp_path / "out" / "cells" / "cebm_eta40_k400_gaussian"
        assert (cell_dir / "trajectories.csv").read_bytes() == b"chain_id,step,f0,f1,lambda0,lambda1,grad_norm\r\n"
        assert (cell_dir / "final_points.csv").read_bytes() == b"chain_id,f0,f1\r\n"

    def test_every_cell_failing_is_named_in_the_refusal(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("injected population failure")

        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "run_population", failing)
        cfg = load_config(write_config(tmp_path / "cfg.yaml", methods=["cebm", "pcebm"]))
        with pytest.raises(ConfigError, match="2 of 2 cells failed and no chain of the other cells finished"):
            run_sweep(cfg)
        assert list((tmp_path / "out" / "cells").iterdir()) == []
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"sigma": float("nan")}, "sigma"),
            ({"sigma": -1.0}, "sigma"),
            ({"alpha": float("nan")}, "alpha"),
            ({"grad_tol": float("nan")}, "grad_tol"),
            ({"record_every": 0}, "record_every"),
            ({"init_scale": float("nan")}, "init scale"),
            ({"init_scale": -1.0}, "init scale"),
            ({"init_scale": 1e308, "init_distribution": "uniform"}, "uniform init scale"),
        ],
    )
    def test_bad_sampler_settings_refused_before_any_chain(self, tmp_path, monkeypatch, overrides, match):
        # Each used to fail every cell (or chain) one by one, or, for a NaN
        # sigma, to switch the noise off without a word.
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        cfg = load_config(write_config(tmp_path / "cfg.yaml", methods=["cebm", "pcebm"], **overrides))
        with pytest.raises(ConfigError, match=match):
            run_sweep(cfg)
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize(
        "overrides",
        [{"eta": [0.1, 0.1000001]}, {"eta": [0.1, 0.1]}, {"methods": ["cebm", "cebm"]}, {"steps": [5, 5]},
         {"noise": ["gaussian", "gaussian"]}],
        ids=["close-etas", "eta", "method", "steps", "noise"],
    )
    def test_grid_cells_sharing_an_id_refused_before_any_chain(self, tmp_path, monkeypatch, overrides, count):
        # Both cells would stage into, and rename onto, one directory.
        monkeypatch.setattr(harness, "_cpu_count", lambda: count)
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        doc = {"problem": "fonseca-fleming", "methods": ["cebm"], "eta": [0.1], "steps": [5], **overrides}
        cfg = load_config(write_config(tmp_path / "cfg.yaml", **doc))
        with pytest.raises(ConfigError, match="two grid cells share the cell id cebm_eta0.1_k5_gaussian;"):
            run_sweep(cfg)
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "alphabet,match",
        [("ACGT", r"alphabet 'ACGT' has 4 symbols, the problem has A=5"), ("AACGT", "alphabet 'AACGT' repeats a symbol")],
        ids=["too-short", "repeated"],
    )
    def test_alphabet_checked_before_any_chain(self, tmp_path, monkeypatch, alphabet, match):
        # Too short, a cell's chains ran before decoding failed; with a repeated
        # symbol two tokens were written as one.
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml", problem="sequence-energies", model_files=save_pwm_models(tmp_path, 2),
                methods=["cebm"], alphabet=alphabet,
            )
        )
        with pytest.raises(ConfigError, match=match):
            run_sweep(cfg)
        assert runs == [] and not (tmp_path / "out").exists()
        monkeypatch.undo()
        assert run_sweep(dataclasses.replace(cfg, alphabet="ACGTW", steps_grid=(2,))).report["failures"] == []

    def test_one_sampler_config_per_cell(self, tmp_path, monkeypatch):
        built, batches, real_config = [], [], harness.SamplerConfig

        def counting(**kwargs):
            built.append(kwargs)
            return real_config(**kwargs)

        def tracking(objectives, specs, *, final_x_only=False):
            batches.append(len(specs))
            return samplers.run_population(objectives, specs, final_x_only=final_x_only)

        # The spies see the cells of this process alone, so every cell runs here.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "SamplerConfig", counting)
        monkeypatch.setattr(harness, "run_population", tracking)
        cfg = load_config(write_config(tmp_path / "cfg.yaml", methods=["mgd", "cebm", "pcebm"], eta=[0.1, 0.2]))
        run_sweep(cfg)
        assert len(built) == len(sweep_cells(cfg)) == 6
        # A ChainSpecs holds its batch's one config.
        assert batches == [4] * 6

    def test_wrong_length_normalization_refused_before_any_chain(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        cfg = load_config(
            write_config(tmp_path / "cfg.yaml", normalization={"min": [0.0, 0.0, 0.0], "max": [8.0, 8.0, 8.0]})
        )
        with pytest.raises(ConfigError, match="normalization bounds have m=3, problem has m=2"):
            run_sweep(cfg)
        assert runs == [] and not (tmp_path / "out").exists()

    def test_zero_step_sweep_writes_every_cell(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.yaml", methods=list(METHODS), steps=[0]))
        report = run_sweep(cfg).report
        cells = sweep_cells(cfg)
        assert [c["cell_id"] for c in report["cells"]] == [c.cell_id for c in cells]
        assert report["failures"] == []
        for cell in cells:
            with open(tmp_path / "out" / "cells" / cell.cell_id / "trajectories.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(int(r["chain_id"]), int(r["step"])) for r in rows] == [(i, 0) for i in range(cfg.chains)]

    def test_fixed_normalization_bounds(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                methods=["cebm"],
                chains=2,
                normalization={"min": [0.0, 0.0], "max": [8.0, 8.0]},
            )
        )
        report = run_sweep(cfg).report
        assert report["normalization"]["min"] == [0.0, 0.0]
        assert report["normalization"]["max"] == [8.0, 8.0]

    def test_uniform_init_distribution(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                methods=["cebm"],
                chains=2,
                init_distribution="uniform",
                init_scale=0.5,
            )
        )
        report = run_sweep(cfg).report
        assert report["cells"][0]["chains"] == 2

    def test_grid_report_has_one_cell_per_combination(self, tmp_path):
        # A small grid still yields the full method x eta x steps matrix of
        # hypervolume scores in one report.
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                problem="fonseca-fleming",
                methods=["mgd", "cebm", "ls_cebm", "pcebm"],
                eta=[0.01, 0.1],
                steps=[10, 20],
                chains=3,
            )
        )
        report = run_sweep(cfg).report
        assert len(report["cells"]) == 4 * 2 * 2
        seen = {(c["method"], c["eta"], c["steps"]) for c in report["cells"]}
        assert len(seen) == 16
        for cell in report["cells"]:
            assert isinstance(cell["hv_all"], float)
            assert set(cell["hv_pairwise"]) == {"0,1"}

    def test_sequence_problem_reports_edist(self, tmp_path):
        rng = np.random.default_rng(1)
        model_path = tmp_path / "m.model"
        save_model(PwmEnergy(rng.normal(size=(6, 4))), model_path)
        train_path = tmp_path / "train.txt"
        train_path.write_text("ACGT0A\n"[:6] + "\n")
        train_path.write_text("ACGTAC\nGGGGGG\n")
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml",
                problem="sequence-energies",
                model_files=["m.model"],
                training_sequences="train.txt",
                alphabet="ACGT",
                methods=["cebm"],
                chains=2,
                steps=[10],
            )
        )
        report = run_sweep(cfg).report
        cell = report["cells"][0]
        assert cell["edist_mean"] is not None and cell["edist_std"] is not None
        finals = (tmp_path / "out" / "cells" / report["cells"][0]["cell_id"] / "final_points.csv").read_text()
        assert "sequence" in finals.splitlines()[0]

    def test_training_file_without_sequences_refused_before_any_cell(self, tmp_path):
        save_model(PwmEnergy(np.zeros((6, 4))), tmp_path / "m.model")
        train_path = tmp_path / "train.txt"
        train_path.write_text("# no sequences here\n\n")
        cfg = load_config(
            write_config(
                tmp_path / "cfg.yaml", problem="sequence-energies", model_files=["m.model"],
                training_sequences="train.txt", alphabet="ACGT", methods=["cebm"], chains=2, steps=[3],
            )
        )
        with pytest.raises(ConfigError) as refused:
            run_sweep(cfg)
        assert str(refused.value) == f"{train_path}: no sequences"
        assert not (tmp_path / "out" / "cells").exists()


def small_sweep(tmp_path, problem):
    """Eight cells of equal cost, so two processes run cells 0, 2, 4, 6 and 1, 3, 5, 7."""
    extra = {}
    if problem == "sequence-energies":
        (tmp_path / "train.txt").write_text("ACGTAC\nGGGGGG\n")
        extra = dict(
            model_files=save_pwm_models(tmp_path, 3, L=6, A=4), training_sequences="train.txt", alphabet="ACGT"
        )
    return load_config(
        write_config(
            tmp_path / "cfg.yaml", problem=problem, methods=list(METHODS), eta=[0.01, 0.1], steps=[10],
            chains=3, **extra,
        )
    )


# name -> (config overrides, whether every cell fails, what the populations must show)
CELL_CASES = {
    "start-overflow": (
        {"problem": "fonseca-fleming", "methods": ["cebm"], "steps": [3], "chains": 16, "sigma": 0.1,
         "init_scale": float(np.finfo(float).max)},
        False,
        lambda items: any(failed(i) and str(i.error) == "coords must be finite (no NaN/Inf); step 0 is not"
                          for i in items) and not all(map(failed, items)),
    ),
    "mid-run-failure": (
        {"problem": "fonseca-fleming", "methods": ["cebm"], "steps": [6], "record_every": 4, "chains": 16,
         "sigma": 5e307},
        False,
        lambda items: any(failed(i) and " step 0 " not in str(i.error) for i in items)
        and not all(map(failed, items)),
    ),
    "mgd-early-stops": (
        {"problem": "fonseca-fleming", "methods": ["mgd"], "eta": [0.5], "steps": [7], "record_every": 4,
         "grad_tol": 0.05, "chains": 16, "init_scale": 0.5},
        False,
        lambda items: any(not failed(i) and i.terminated_early and i.termination_step % 4 for i in items)
        and any(not failed(i) and not i.terminated_early for i in items),
    ),
    "zero-steps": (
        {"methods": list(METHODS), "steps": [0]},
        False,
        lambda items: all(i.steps.tolist() == [0] for i in items),
    ),
    "every-chain-failed": (
        {"methods": ["cebm", "pcebm"], "init_scale": 1e200},
        True,
        lambda items: all(map(failed, items)),
    ),
    "m1-sequence": (
        {"problem": "sequence-energies", "models": 1, "methods": list(METHODS), "steps": [3], "record_every": 2,
         "alphabet": "ACGTW"},
        False,
        lambda items: items[0].m == 1,
    ),
    "m3": (
        {"problem": "tri-quadratic", "methods": list(METHODS), "steps": [5], "record_every": 2},
        False,
        lambda items: items[0].m == 3,
    ),
    "sequence": (
        {"problem": "sequence-energies", "models": 2, "methods": list(METHODS), "steps": [4], "record_every": 3,
         "alphabet": "ACGTW", "chains": 6},
        False,
        lambda items: items[0].X.shape == (1, 20),
    ),
}


def failed(item):
    return isinstance(item, samplers.ChainFailure)


def indexed_cell_files(directory, items, m, decode):
    """A cell's files written the per-chain way, from indexed items, each
    record by a row-by-row csv.writer."""
    trajectories = [(i, item) for i, item in enumerate(items) if not failed(item)]
    with open(directory / "trajectories.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [f"f{i}" for i in range(m)]
        writer.writerow(["chain_id", "step", *names, *[f"lambda{i}" for i in range(m)], "grad_norm"])
        for i, traj in trajectories:
            columns = (traj.steps.tolist(), traj.F.tolist(), traj.lam.tolist(), traj.grad_norm.tolist())
            for step, values, weights, norm in zip(*columns):
                writer.writerow([i, step, *values, *weights, norm])
    with open(directory / "final_points.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain_id", *[f"f{i}" for i in range(m)], *(["sequence"] if decode else [])])
        for i, traj in trajectories:
            writer.writerow([i, *traj.F[-1].tolist(), *([decode(traj.X[-1])] if decode else [])])
    failures = "".join(f"{item}\n" for item in items if failed(item))
    if failures:
        (directory / "chain_errors.txt").write_text(failures)
    return snapshot(directory)


class TestCellFilesFromColumns:
    """A cell's trajectories.csv and final_points.csv come from its
    population's columns; they must be the bytes of the per-chain export."""

    @pytest.mark.parametrize("case", sorted(CELL_CASES))
    def test_files_match_the_per_chain_export(self, tmp_path, monkeypatch, case):
        overrides, all_fail, shows = CELL_CASES[case]
        overrides = dict(overrides)
        models = overrides.pop("models", 0)
        if models:
            overrides["model_files"] = save_pwm_models(tmp_path, models)
        populations = {}

        def population(objectives, specs, *, final_x_only=False):
            results = samplers.run_population(objectives, specs, final_x_only=final_x_only)
            populations[(specs.method, specs.config)] = results
            return results

        # The spy sees the cells of this process alone, so every cell runs here.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "run_population", population)
        cfg = load_config(write_config(tmp_path / "cfg.yaml", **overrides))
        if all_fail:
            with pytest.raises(ConfigError, match="0 of 2 cells failed and no chain of the other cells finished"):
                run_sweep(cfg)
        else:
            run_sweep(cfg)
        objectives, _ = harness._problem(cfg)

        def decode_one(x):
            return sequence_to_str(decode(sequence_point(x, *objectives.sequence_dims())), cfg.alphabet)

        if objectives.point_kind != "sequence-logits":
            decode_one = None
        every_item = []
        for cell in sweep_cells(cfg):
            config = harness._sampler_config(cfg, cell.eta, cell.steps, cell.noise_kind, cfg.record_every)
            items = list(populations[(cell.method, config)])
            every_item += items
            written = snapshot(cfg.output_dir / "cells" / cell.cell_id)
            written.pop("front.csv", None)
            oracle = tmp_path / "oracle" / cell.cell_id
            oracle.mkdir(parents=True)
            assert written == indexed_cell_files(oracle, items, objectives.m, decode_one)
        assert shows(every_item)

    def test_sweep_builds_no_trajectory_per_chain(self, tmp_path, monkeypatch):
        built = []
        trajectory = samplers.Trajectory

        def counting(*args):
            built.append(1)
            return trajectory(*args)

        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(samplers, "Trajectory", counting)
        for problem, models in (("opposing-quadratics", 0), ("sequence-energies", 2)):
            extra = {"model_files": save_pwm_models(tmp_path, models), "alphabet": "ACGTW"} if models else {}
            cfg = load_config(
                write_config(tmp_path / f"{problem}.yaml", problem=problem, methods=list(METHODS),
                             output_dir=f"out-{problem}", **extra)
            )
            report = run_sweep(cfg).report
            assert sum(cell["chains"] for cell in report["cells"]) == 16
        assert built == []
        samplers.run_chain(
            get_problem("opposing-quadratics"), "cebm", samplers.SamplerConfig(eta=0.1, steps=2),
            samplers.RandomInit(2),
        )
        assert built == [1]


class TestCellProcesses:
    def test_split_is_longest_processing_time_first(self):
        def split(steps, count, cost=lambda cell: cell.steps):
            cells = [SweepCell(i, "cebm", 0.1, k, "gaussian") for i, k in enumerate(steps)]
            return [[cell.index for cell in share] for share in harness._split_cells(cells, count, cost)]

        # By cost, most first: cell 1 (8) to share 0, cells 2 and 3 (4 each)
        # to share 1, cell 0 (2) to share 0, cell 4 (1) to the tie's first share.
        assert split([2, 8, 4, 4, 1], 2) == [[0, 1], [2, 3, 4]]
        assert split([5, 5, 5, 5], 2) == [[0, 2], [1, 3]]
        assert split([3, 3], 1) == [[0, 1]]
        assert split([], 0) == []
        # The cost is the caller's: at 10 - steps (8, 2, 6, 6, 9), cell 4 goes
        # first to share 0, cells 0 and 2 to share 1, cell 3 to share 0, cell 1 to share 1.
        assert split([2, 8, 4, 4, 1], 2, lambda cell: 10 - cell.steps) == [[3, 4], [0, 1, 2]]

    def test_cpu_count_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert harness._cpu_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert harness._cpu_count() == 6
        monkeypatch.delattr(os, "fork", raising=False)
        assert harness._cpu_count() == 1

    @pytest.mark.parametrize("problem", ["fonseca-fleming", "sequence-energies"])
    def test_one_and_two_processes_give_identical_bundles(self, tmp_path, monkeypatch, problem):
        cfg = small_sweep(tmp_path, problem)
        cells = sweep_cells(cfg)
        # Cell 4 runs in this process, cells 3 and 5 in the worker.
        failing = {cells[i].cell_id for i in (3, 4, 5)}
        ran = tmp_path / "ran.txt"

        def population(objectives, specs, *, final_x_only=False):
            config = specs.config
            cell_id = f"{specs.method}_eta{config.eta:g}_k{config.steps}_{config.noise_kind}"
            with open(ran, "a") as fh:
                fh.write(f"{os.getpid()} {cell_id}\n")
            if cell_id in failing:
                raise RuntimeError(f"injected failure in {cell_id}")
            return samplers.run_population(objectives, specs, final_x_only=final_x_only)

        monkeypatch.setattr(harness, "run_population", population)
        bundles, pids = [], []
        for count in (1, 2):
            monkeypatch.setattr(harness, "_cpu_count", lambda: count)
            ran.write_text("")
            out = tmp_path / f"out{count}"
            report = run_sweep(dataclasses.replace(cfg, output_dir=out)).report
            assert report["failures"] == [
                {"cell_id": cells[i].cell_id, "error": f"RuntimeError: injected failure in {cells[i].cell_id}"}
                for i in (3, 4, 5)
            ]
            assert_no_child_left()
            bundles.append(snapshot(out))
            pids.append(dict(reversed(line.split()) for line in ran.read_text().splitlines()))
        assert bundles[0] == bundles[1]
        assert set(pids[0].values()) == {str(os.getpid())}
        assert [c.cell_id for c in cells if pids[1][c.cell_id] == str(os.getpid())] == [
            cells[i].cell_id for i in (0, 2, 4, 6)
        ]
        assert len(set(pids[1].values())) == 2

    def test_dead_worker_names_its_unwritten_cells_and_a_rerun_resumes(self, tmp_path, monkeypatch):
        cfg = load_config(
            write_config(tmp_path / "cfg.yaml", problem="fonseca-fleming", methods=list(METHODS), steps=[10], chains=2)
        )
        cells = sweep_cells(cfg)
        cells_dir = cfg.output_dir / "cells"
        parent, real_write = os.getpid(), harness.write_trajectories

        def write_then_die(path, *args, **kwargs):
            real_write(path, *args, **kwargs)
            # The worker runs cells 1 and 3; it dies while staging cell 3.
            if os.getpid() != parent and path.parent.name == f".tmp-{cells[3].cell_id}":
                os._exit(3)

        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "write_trajectories", write_then_die)
        unwritten = re.escape(cells[3].cell_id)
        with pytest.raises(ParetoEbmError, match=rf"exit code 3\); cells left unwritten: {unwritten}\. "):
            run_sweep(cfg)
        assert_no_child_left()
        assert [c.cell_id for c in cells if (cells_dir / c.cell_id).exists()] == [c.cell_id for c in cells[:3]]
        assert (cells_dir / f".tmp-{cells[3].cell_id}" / "trajectories.csv").is_file()
        assert not (cfg.output_dir / "report.json").exists()

        monkeypatch.setattr(harness, "write_trajectories", real_write)
        run_sweep(cfg)
        clean = dataclasses.replace(cfg, output_dir=tmp_path / "clean")
        run_sweep(clean)
        assert snapshot(cfg.output_dir) == snapshot(clean.output_dir)

    def test_worker_whose_parent_is_gone_runs_no_further_cell(self, monkeypatch):
        cells = [SweepCell(i, "cebm", 0.1, 1, "gaussian") for i in range(3)]
        ran = []

        def fn(cell):
            ran.append(cell.index)
            return cell.index

        def reported(parent):
            """What _share_worker writes to a fresh pipe, which it closes."""
            receive, send = os.pipe()
            harness._share_worker(send, fn, cells, parent)
            with open(receive, "rb") as pipe:
                return pipe.read()

        assert pickle.loads(reported(os.getppid())) == [0, 1, 2] and ran == [0, 1, 2]

        # Forked by another process than this one's parent: no cell runs and
        # the pipe closes with nothing written.
        ran.clear()
        assert reported(os.getppid() + 1) == b""
        assert ran == []

        # The parent dies while cell 0 runs: the worker finishes it alone.
        parent = os.getppid()
        monkeypatch.setattr(os, "getppid", lambda: parent + 1 if ran else parent)
        assert reported(parent) == b""
        assert ran == [0]

    def test_worker_whose_share_raises_prints_it_and_exits_1(self, monkeypatch, capfd):
        cells = [SweepCell(i, "cebm", 0.1, 1, "gaussian") for i in range(4)]
        parent = os.getpid()

        def fn(cell):
            if os.getpid() != parent:
                raise RuntimeError(f"injected failure in cell {cell.index}")
            return cell.index

        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        with pytest.raises(ParetoEbmError, match=r"\(pid \d+ exit code 1\); lost: \[1, 3\]$"):
            harness._map_cells(fn, cells, lambda cell: 1, lambda lost: f"lost: {[c.index for c in lost]}")
        assert_no_child_left()
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: injected failure in cell 1" in err

    def test_failing_parent_terminates_and_reaps_its_workers(self, monkeypatch):
        cells = [SweepCell(i, "cebm", 0.1, 1, "gaussian") for i in range(2)]
        parent = os.getpid()
        hold, release = os.pipe()

        def fn(cell):
            if os.getpid() != parent:
                os.read(hold, 1)  # blocks: nothing is ever written
            raise RuntimeError("injected failure in the sweep's process")

        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        try:
            with pytest.raises(RuntimeError, match="injected failure in the sweep's process"):
                harness._map_cells(fn, cells, lambda cell: 1, str)
        finally:
            os.close(hold)
            os.close(release)
        assert_no_child_left()

    def test_cell_log_line_has_wall_time_throughput_and_pid(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        cfg = load_config(write_config(tmp_path / "cfg.yaml", methods=["cebm", "pcebm"]))
        with caplog.at_level(logging.INFO, logger="paretoebm.harness"):
            report_text = run_sweep(cfg).report_path.read_text()
        line = re.compile(
            r"cell (\S+): 4/4 chains ok, \d+\.\d{3} s, (\d+) chain-steps/s, pid (\d+), peak RSS (\d+\.\d) MB"
        )
        logged = [line.fullmatch(r.getMessage()) for r in caplog.records if r.getMessage().startswith("cell ")]
        assert [m.group(1) for m in logged] == [c.cell_id for c in sweep_cells(cfg)]
        assert all(int(m.group(2)) > 0 and int(m.group(3)) == os.getpid() for m in logged)
        # The process's own peak resident set so far, in MB (ru_maxrss is KiB on Linux).
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert all(0 < float(m.group(4)) <= peak + 0.05 for m in logged)
        # The timings and memory go to the log alone; report.json stays deterministic.
        assert "pid" not in report_text and "chain-steps" not in report_text and "RSS" not in report_text

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("problem", ["fonseca-fleming", "sequence-energies"])
    def test_partial_resume_gives_the_fresh_bundle(self, tmp_path, monkeypatch, problem, count):
        # A fresh cell's points come back from the cell in memory, a resumed
        # cell's are read from its final_points.csv; the bundle cannot tell.
        monkeypatch.setattr(harness, "_cpu_count", lambda: count)
        cfg = small_sweep(tmp_path, problem)
        cells = sweep_cells(cfg)
        out = cfg.output_dir
        run_sweep(cfg)
        fresh = snapshot(out)
        (out / "report.json").unlink()
        (out / "fronts.csv").unlink()
        # Cells 0 and 1 are in different shares of a two-process sweep.
        for cell in cells[:2]:
            shutil.rmtree(out / "cells" / cell.cell_id)
        run_sweep(cfg)
        assert snapshot(out) == fresh

    def test_dead_aggregation_worker_names_its_cells_and_a_rerun_re_aggregates(self, tmp_path, monkeypatch):
        cfg = small_sweep(tmp_path, "fonseca-fleming")
        cells = sweep_cells(cfg)
        parent, real_emit = os.getpid(), harness.emit_front

        def die_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real_emit(*args, **kwargs)

        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "emit_front", die_in_a_worker)
        # Every cell has 3 points, so the worker aggregates the odd cells.
        lost = re.escape(", ".join(cells[i].cell_id for i in (1, 3, 5, 7)))
        with pytest.raises(ParetoEbmError, match=rf"exit code 3\); cells whose aggregation was lost: {lost}\. "):
            run_sweep(cfg)
        assert_no_child_left()
        assert not (cfg.output_dir / "report.json").exists()
        assert not (cfg.output_dir / "fronts.csv").exists()

        monkeypatch.setattr(harness, "emit_front", real_emit)
        run_sweep(cfg)
        clean = dataclasses.replace(cfg, output_dir=tmp_path / "clean")
        run_sweep(clean)
        assert snapshot(cfg.output_dir) == snapshot(clean.output_dir)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("bad,normalization", [("nan", None), ("inf", None), ("inf", {"min": [0, 0], "max": [1, 1]})])
    def test_non_finite_resumed_point_refused_before_any_hypervolume(
        self, tmp_path, monkeypatch, bad, normalization, count
    ):
        monkeypatch.setattr(harness, "_cpu_count", lambda: count)
        cfg = dataclasses.replace(small_sweep(tmp_path, "fonseca-fleming"), normalization=normalization)
        run_sweep(cfg)
        (cfg.output_dir / "report.json").unlink()
        path = cfg.output_dir / "cells" / sweep_cells(cfg)[3].cell_id / "final_points.csv"
        header, first, *rest = path.read_text().splitlines(keepends=True)
        chain_id, _, f1 = first.split(",")
        path.write_text("".join([header, f"{chain_id},{bad},{f1}", *rest]))
        hypervolumes = []
        monkeypatch.setattr(harness, "hypervolume_exact", lambda *args: hypervolumes.append(args))
        with pytest.raises(ValueError, match="objective values must be finite"):
            run_sweep(cfg)
        assert hypervolumes == []
        assert not (cfg.output_dir / "report.json").exists()

    def test_aggregation_logs_cells_wall_time_and_processes(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        cfg = load_config(write_config(tmp_path / "cfg.yaml", methods=["cebm", "pcebm"]))
        with caplog.at_level(logging.INFO, logger="paretoebm.harness"):
            report_text = run_sweep(cfg).report_path.read_text()
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("aggregation")]
        assert len(logged) == 1
        assert re.fullmatch(r"aggregation: 2 cells, \d+\.\d{3} s, 1 process\(es\)", logged[0])
        assert "aggregation" not in report_text


def tree(root: Path) -> dict:
    """Every path under root, directories as None and files as their bytes."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


def lock_is_free(directory: Path) -> bool:
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except BlockingIOError:
        return False
    finally:
        os.close(fd)


class TestOutputLock:
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("finished", [False, True], ids=["empty", "finished"])
    def test_held_directory_is_refused_and_left_untouched(self, tmp_path, monkeypatch, count, finished):
        monkeypatch.setattr(harness, "_cpu_count", lambda: count)
        cfg = small_sweep(tmp_path, "fonseca-fleming")
        out = cfg.output_dir
        if finished:
            run_sweep(cfg)
        else:
            out.mkdir()
        before = tree(out)
        held = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(ConfigError, match=f"output directory {re.escape(str(out))} is in use"):
                run_sweep(cfg)
            assert tree(out) == before
        finally:
            os.close(held)
        assert_no_child_left()
        run_sweep(cfg)
        assert lock_is_free(out)

    @pytest.mark.parametrize("count", [1, 2])
    def test_sequential_sweeps_share_a_directory(self, tmp_path, monkeypatch, count):
        monkeypatch.setattr(harness, "_cpu_count", lambda: count)
        cfg = small_sweep(tmp_path, "fonseca-fleming")

        def failing(points):
            raise RuntimeError("injected aggregation failure")

        monkeypatch.setattr(harness, "pareto_filter", failing)
        with pytest.raises(RuntimeError, match="injected aggregation failure"):
            run_sweep(cfg)
        assert lock_is_free(cfg.output_dir)
        monkeypatch.setattr(harness, "pareto_filter", pareto_filter)
        first = run_sweep(cfg).report
        assert lock_is_free(cfg.output_dir)
        assert run_sweep(cfg).report == first
        assert lock_is_free(cfg.output_dir)
        assert_no_child_left()


# A sweep on two processes whose worker, in its first cell, prints its pid
# and blocks until a byte arrives on the stdin it inherited.
ORPHAN_SWEEP = """
import os, sys
from paretoebm import harness
parent, real = os.getpid(), harness.run_population
def population(*args, **kwargs):
    if os.getpid() != parent and not hasattr(population, "held"):
        population.held = True
        print(os.getpid(), flush=True)
        os.read(0, 1)
    return real(*args, **kwargs)
harness._cpu_count = lambda: 2
harness.run_population = population
harness.run_sweep(harness.load_config(sys.argv[1]))
"""


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="waits for the orphan through a pidfd (Linux)")
def test_killed_sweeps_orphan_keeps_the_directory_until_it_exits(tmp_path):
    # Four cells of equal cost: the sweep's process runs cells 0 and 2, its
    # worker cells 1 and 3.
    cfg = load_config(
        write_config(tmp_path / "cfg.yaml", problem="fonseca-fleming", methods=["cebm", "pcebm"], eta=[0.01, 0.1])
    )
    cells, cells_dir = sweep_cells(cfg), cfg.output_dir / "cells"
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    log = tmp_path / "stderr.txt"
    with open(log, "w") as err, subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SWEEP, str(tmp_path / "cfg.yaml")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=env,
    ) as proc:
        assert select.select([proc.stdout], [], [], 60)[0], log.read_text()
        line = proc.stdout.readline()
        assert line, log.read_text()
        orphan = os.pidfd_open(int(line))
        try:
            proc.kill()
            proc.wait()
            # The worker holds the directory's lock while it lives.
            with pytest.raises(ConfigError, match="is in use by another sweep"):
                run_sweep(cfg)
            proc.stdin.write(b"x")
            proc.stdin.flush()
            # It finishes the cell in flight, then exits before its next one.
            assert select.select([orphan], [], [], 60)[0]
        finally:
            with contextlib.suppress(ProcessLookupError):
                signal.pidfd_send_signal(orphan, signal.SIGKILL)
            os.close(orphan)
    assert harness._cell_complete(cells_dir / cells[1].cell_id) and not (cells_dir / cells[3].cell_id).exists()
    run_sweep(cfg)
    clean = dataclasses.replace(cfg, output_dir=tmp_path / "clean")
    run_sweep(clean)
    assert snapshot(cfg.output_dir) == snapshot(clean.output_dir)


# A sweep killed at one point of its write protocol: the sweep's own process
# calls os._exit(75) right before or right after the first call of the named
# function that matches. A forked worker is left to finish its cell in flight.
KILLED_SWEEP = """
import os, sys
from pathlib import Path
from paretoebm import harness
point, count, parent = sys.argv[2], int(sys.argv[3]), os.getpid()
staging = lambda path, *rest: path.name.startswith(".tmp-")
owner, name, before, match = {
    "staged": (Path, "rename", True, staging),
    "renamed": (Path, "rename", False, staging),
    "between-fronts": (harness, "emit_front", False, lambda *args: True),
    "before-report": (harness, "_atomic_write_text", False, lambda path, text: path.name == "fronts.csv"),
}[point]
real = getattr(owner, name)
def killing(*args, **kwargs):
    hit = os.getpid() == parent and match(*args)
    if hit and before:
        os._exit(75)
    result = real(*args, **kwargs)
    if hit:
        os._exit(75)
    return result
setattr(owner, name, killing)
harness._cpu_count = lambda: count
harness.run_sweep(harness.load_config(sys.argv[1]))
"""

# Kill point -> paths under output_dir there and not there when the sweep dies;
# {0} and {2} are the cell ids of the first two cells the sweep's own process runs.
KILL_POINTS = {
    "staged": (["cells/.tmp-{0}/final_points.csv"], ["cells/{0}"]),
    "renamed": (["cells/{0}/final_points.csv"], ["cells/{0}/front.csv", "cells/.tmp-{0}"]),
    "between-fronts": (["cells/{0}/front.csv"], ["cells/{2}/front.csv", "fronts.csv"]),
    "before-report": (["fronts.csv"], []),
}


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("point", KILL_POINTS)
def test_sweep_killed_at_a_write_point_reruns_to_the_fresh_bundle(tmp_path, monkeypatch, point, count):
    cfg = small_sweep(tmp_path, "fonseca-fleming")
    out, ids = cfg.output_dir, [cell.cell_id for cell in sweep_cells(cfg)]
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    log = tmp_path / "stderr.txt"
    with open(log, "w") as err:
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_SWEEP, str(tmp_path / "cfg.yaml"), point, str(count)],
            stdout=err, stderr=err, env=env, timeout=120,
        )
    assert killed.returncode == 75, log.read_text()
    present, absent = KILL_POINTS[point]
    assert [(out / path.format(*ids)).exists() for path in present] == [True] * len(present)
    assert [(out / path.format(*ids)).exists() for path in [*absent, "report.json"]] == [False] * (len(absent) + 1)
    # An orphaned worker holds the directory until it exits.
    deadline = time.monotonic() + 60
    while not lock_is_free(out):
        assert time.monotonic() < deadline, "the killed sweep's worker still holds the output directory"
        time.sleep(0.01)
    monkeypatch.setattr(harness, "_cpu_count", lambda: count)
    run_sweep(cfg)
    clean = dataclasses.replace(cfg, output_dir=tmp_path / "clean")
    run_sweep(clean)
    assert snapshot(out) == snapshot(clean.output_dir)


class TestEmitFront:
    def test_flags_match_pareto_filter(self, tmp_path):
        rng = np.random.default_rng(2)
        points = rng.random((30, 2))
        labels = [f"m{i % 3}" for i in range(30)]
        path = tmp_path / "front.csv"
        emit_front(points, labels, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "label,f0,f1,non_dominated"
        flags = [int(r.rsplit(",", 1)[1]) for r in rows[1:]]
        expect = set(pareto_filter(points))
        assert [i for i, f in enumerate(flags) if f == 1] == sorted(expect)

    def test_three_points_one_nondominated(self, tmp_path):
        points = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.2]])
        path = tmp_path / "front.csv"
        emit_front(points, ["a", "b", "c"], path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 4
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 1

    def test_empty_input_writes_header_only(self, tmp_path):
        path = tmp_path / "front.csv"
        emit_front([], [], path)
        assert path.read_text() == "label,non_dominated\n"

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            emit_front(np.array([[0.1, 0.2]]), [], tmp_path / "x.csv")

    def test_matrix_input_writes_the_same_file(self, tmp_path):
        V = np.round(np.random.default_rng(4).random((50, 3)), 1)
        labels = [f"c{i % 4}" for i in range(50)]
        emit_front(V, labels, tmp_path / "a.csv")
        emit_front(list(V), labels, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        emit_front(np.empty((0, 3)), [], tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == "label,non_dominated\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, tmp_path, bad):
        V = np.array([[0.1, 0.2], [0.3, bad]])
        with pytest.raises(ValueError, match="finite"):
            emit_front(V, ["a", "b"], tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


def make_improve_setup(tmp_path, L=6, A=4, n_seeds=3, steps=40):
    rng = np.random.default_rng(3)
    W = rng.normal(size=(L, A))
    model_path = tmp_path / "scorer.model"
    save_model(PwmEnergy(W), model_path)
    # Adversarial seeds: the highest-energy token at every position.
    worst = np.argmax(W, axis=1)
    seeds = [DiscreteSequence(worst, alphabet_size=A) for _ in range(n_seeds)]
    cfg = load_config(
        write_config(
            tmp_path / "cfg.yaml",
            problem="sequence-energies",
            model_files=["scorer.model"],
            methods=["mgd", "cebm", "ls_cebm", "pcebm"],
            eta=[0.1],
            steps=[steps],
            sigma=0.01,
            alpha=5e-5,
            ls_lambda=[1.0],
            alphabet="ACGT",
            chains=1,
        )
    )
    from paretoebm.energy import load_model

    return cfg, seeds, load_model(model_path)


class TestImproveSeeds:
    def test_zero_steps_is_identity(self, tmp_path):
        cfg, seeds, scorer = make_improve_setup(tmp_path, steps=0)
        report = improve_seeds(cfg, seeds, scorer)
        for entry in report.entries:
            assert entry["after"] == entry["before"]
            assert entry["edit_distance"] == 0

    def test_every_pair_reported_once(self, tmp_path):
        cfg, seeds, scorer = make_improve_setup(tmp_path)
        report = improve_seeds(cfg, seeds, scorer)
        pairs = {(e["method"], e["seed_index"]) for e in report.entries}
        assert len(report.entries) == len(cfg.methods) * len(seeds)
        assert pairs == {(m, i) for m in cfg.methods for i in range(len(seeds))}

    def test_edit_distance_is_from_seed_to_result(self, tmp_path):
        cfg, seeds, scorer = make_improve_setup(tmp_path)
        report = improve_seeds(cfg, seeds, scorer)
        for entry in report.entries:
            seed = sequence_to_str(seeds[entry["seed_index"]], cfg.alphabet)
            assert entry["edit_distance"] == edit_distance(seed, entry["sequence"])

    def test_adversarial_seeds_improved_by_every_method(self, tmp_path):
        cfg, seeds, scorer = make_improve_setup(tmp_path)
        report = improve_seeds(cfg, seeds, scorer)
        for entry in report.entries:
            assert entry["after"] < entry["before"]
        for method in cfg.methods:
            assert report.per_method[method]["improved_fraction"] == 1.0

    def test_failed_chains_recorded_not_raised(self, tmp_path):
        # Noise of std 1e308 overflows every cebm chain; mgd is noiseless.
        cfg, seeds, scorer = make_improve_setup(tmp_path)
        cfg = dataclasses.replace(cfg, methods=("mgd", "cebm"), sigma=1e308)
        report = improve_seeds(cfg, seeds, scorer)
        assert {e["method"] for e in report.entries} == {"mgd"}
        assert len(report.entries) == len(seeds)
        assert [(f["seed_index"], f["method"]) for f in report.failures] == [(i, "cebm") for i in range(len(seeds))]
        assert all(f["error"].startswith("ValueError: ") for f in report.failures)
        assert report.per_method["cebm"] == {"scores": [], "improved_fraction": None}
        assert report.per_method["mgd"]["improved_fraction"] == 1.0
        assert report.to_dict()["failures"] == list(report.failures)

    def test_each_entry_is_its_solo_chain_decoded(self, tmp_path):
        # Method i's chain from seed j starts at relax(seed j) and draws from
        # chain_seeds(base_seed, [i * len(seeds) + j]).
        cfg, _, scorer = make_improve_setup(tmp_path, steps=12)
        rng = np.random.default_rng(8)
        seeds = [DiscreteSequence(rng.integers(0, 4, 6), alphabet_size=4) for _ in range(3)]
        report = improve_seeds(cfg, seeds, scorer)
        objectives = get_problem("sequence-energies", model_files=[str(tmp_path / "scorer.model")])
        sampler_seeds = samplers.chain_seeds(cfg.base_seed, range(len(cfg.methods) * len(seeds))).tolist()
        assert len(report.entries) == len(cfg.methods) * len(seeds)
        for entry in report.entries:
            method, j = entry["method"], entry["seed_index"]
            config = SamplerConfig(
                eta=0.1, steps=12, noise_kind="none" if method == "mgd" else "gaussian", sigma=0.01, alpha=5e-5
            )
            traj = samplers.run_chain(
                objectives, method, config, relax(seeds[j]), seed=sampler_seeds[cfg.methods.index(method) * len(seeds) + j],
                fixed_lambda=SimplexWeights([1.0]) if method == "ls_cebm" else None,
            )
            final = decode(sequence_point(traj.X[-1], 6, 4))
            assert entry["sequence"] == sequence_to_str(final, cfg.alphabet)

    @pytest.mark.parametrize("kind", ["pwm", "mlp"])
    def test_scores_are_the_scorer_kernel_on_each_row_alone(self, tmp_path, kind):
        # The seeds and the final sequences are each scored in one batch; every
        # score must be the scorer's kernel on that row alone, bit for bit.
        cfg, _, scorer = make_improve_setup(tmp_path, steps=12)
        if kind == "mlp":
            scorer = MlpEnergy.random(hidden=16, L=6, A=4, seed=2, scale=0.5)
        rng = np.random.default_rng(9)
        seeds = [DiscreteSequence(rng.integers(0, 4, 6), alphabet_size=4) for _ in range(11)]
        report = improve_seeds(cfg, seeds, scorer)
        assert len(report.entries) == 44
        for entry in report.entries:
            final = sequence_from_str(entry["sequence"], cfg.alphabet)
            assert entry["before"] == scorer.eval_batch(relax(seeds[entry["seed_index"]]).coords[None])[0][0]
            assert entry["after"] == scorer.eval_batch(relax(final).coords[None])[0][0]

    def test_scorer_dimension_checked(self, tmp_path):
        cfg, seeds, _ = make_improve_setup(tmp_path)
        with pytest.raises(ShapeError):
            improve_seeds(cfg, seeds, PwmEnergy.zeros(3, 4))

    def test_scorer_layout_checked(self, tmp_path):
        # d = 24 either way; a (4, 6) scorer would score a misread of every
        # (6, 4) sequence.
        cfg, seeds, _ = make_improve_setup(tmp_path)
        with pytest.raises(ShapeError, match=re.escape("scorer has (L, A)=(4, 6), problem has (6, 4)")):
            improve_seeds(cfg, seeds, PwmEnergy.zeros(4, 6))
        with pytest.raises(WrongKindError, match="scorer expects 'raw' points"):
            improve_seeds(cfg, seeds, MlpEnergy.random(hidden=2, d=24))

    def test_min_norm_method_above_the_objective_limit_refused(self, tmp_path, monkeypatch):
        cfg, seeds, scorer = make_improve_setup(tmp_path)
        model_files = tuple(str(tmp_path / f) for f in save_pwm_models(tmp_path, MIN_NORM_MAX_M + 1, L=6, A=4))
        runs = []
        monkeypatch.setattr(harness, "run_population", lambda *args, **kwargs: runs.append(args))
        for methods in (("mgd",), ("cebm", "pcebm")):
            with pytest.raises(ConfigError, match=f"at most {MIN_NORM_MAX_M} objectives, got m={MIN_NORM_MAX_M + 1}"):
                improve_seeds(dataclasses.replace(cfg, model_files=model_files, methods=methods), seeds, scorer)
        assert runs == []

    def test_analytic_problem_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.yaml"))
        with pytest.raises(ConfigError):
            improve_seeds(cfg, [DiscreteSequence(np.array([0]), alphabet_size=4)], PwmEnergy.zeros(1, 4))


MIN_NORM_LIMIT = f"the min-norm solve takes at most {MIN_NORM_MAX_M} objectives, got m={MIN_NORM_MAX_M + 1}"

# One fault per row: the overrides that break a sweep of every method on two
# PWM models (L=4, A=5), and the ConfigError text both workflows give for it.
# "models" is the number of model files.
CONFIG_FAULTS = {
    "short-alphabet": ({"alphabet": "ACGT"}, "alphabet 'ACGT' has 4 symbols, the problem has A=5"),
    "repeated-symbol": ({"alphabet": "AACGT"}, "alphabet 'AACGT' repeats a symbol"),
    "ls-lambda-length": ({"ls_lambda": [0.2, 0.3, 0.5]}, "ls_lambda has 3 entries, problem has m=2"),
    "mgd-objectives": ({"models": MIN_NORM_MAX_M + 1, "methods": ["mgd", "cebm"]}, MIN_NORM_LIMIT),
    "pcebm-objectives": ({"models": MIN_NORM_MAX_M + 1, "methods": ["cebm", "pcebm"]}, MIN_NORM_LIMIT),
    "reference-point-length": ({"reference_point": [1.0, 1.0, 1.0]}, "reference point has m=3, problem has m=2"),
    "normalization-length": (
        {"normalization": {"min": [0.0] * 3, "max": [1.0] * 3}}, "normalization bounds have m=3, problem has m=2"
    ),
    "model-files-on-analytic": (
        {"problem": "fonseca-fleming"}, "fonseca-fleming is an analytic problem and takes no model files, got 2"
    ),
    "training-on-analytic": (
        {"problem": "fonseca-fleming", "models": 0, "training_sequences": "train.txt"},
        "training_sequences needs a sequence problem, and fonseca-fleming is not one",
    ),
}


@pytest.mark.parametrize("fault", CONFIG_FAULTS)
def test_sweep_and_improve_refuse_a_fault_alike_before_any_chain(tmp_path, monkeypatch, fault):
    overrides, text = dict(CONFIG_FAULTS[fault][0]), CONFIG_FAULTS[fault][1]
    runs = []

    def population(*args, **kwargs):
        runs.append(args)
        return samplers.run_population(*args, **kwargs)

    # The spy sees the cells of this process alone, so every cell runs here.
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    monkeypatch.setattr(harness, "run_population", population)
    (tmp_path / "train.txt").write_text("ACGT\n")
    doc = {
        "problem": "sequence-energies", "methods": list(METHODS), "steps": [2], "chains": 1, "alphabet": "ACGTW",
        "model_files": save_pwm_models(tmp_path, overrides.pop("models", 2)), **overrides,
    }
    cfg = load_config(write_config(tmp_path / "cfg.yaml", **doc))
    seeds = [DiscreteSequence(np.zeros(4, dtype=int), alphabet_size=5)]
    refusals = []
    for run in (lambda: run_sweep(cfg), lambda: improve_seeds(cfg, seeds, PwmEnergy.zeros(4, 5))):
        with pytest.raises(ConfigError) as refused:
            run()
        refusals.append(str(refused.value))
    assert refusals == [text, text]
    assert runs == [] and not cfg.output_dir.exists()
