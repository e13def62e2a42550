import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

from paretoebm import cli
from paretoebm.cli import main
from paretoebm.core import DiscreteSequence
from paretoebm.energy import PwmEnergy, load_model, save_model
from paretoebm.harness import _TRAIN_KEYS

NAN = float("nan")

# The YAML type of every train key, stated apart from the table so that a key
# added to the table without a type here fails test_every_key_has_a_type.
TRAIN_TYPES = {
    "model": dict, "alphabet": str, "cd_steps": int, "epochs": int, "batch_size": int,
    "seed": int, "lr": float, "l2": float, "cd_eta": float, "cd_sigma": float,
}
REFUSED = {int: [2.5, True], float: [True, NAN], str: [5], dict: []}


@pytest.fixture()
def points_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("0.2, 0.8\n0.8, 0.2\n")
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHvCommand:
    def test_two_rectangle_fixture(self, capsys, points_file):
        code, out, _ = run_cli(capsys, "hv", points_file, "--ref", "1.0,1.0")
        assert code == 0
        assert out.strip() == "0.28"

    def test_default_reference_is_ones(self, capsys, points_file):
        code, out, _ = run_cli(capsys, "hv", points_file)
        assert code == 0 and out.strip() == "0.28"

    def test_three_dimensional(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.5 0.5 0.5\n")
        code, out, _ = run_cli(capsys, "hv", path)
        assert code == 0 and out.strip() == "0.125"

    def test_monte_carlo_above_three(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.5 0.5 0.5 0.5\n")
        code, out, _ = run_cli(capsys, "hv", path, "--mc-samples", "200000", "--seed", "1")
        assert code == 0
        estimate, stderr = (float(v) for v in out.split())
        assert abs(estimate - 0.5**4) <= 3 * stderr

    def test_ragged_rows_rejected(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.1 0.2\n0.3\n")
        code, _, err = run_cli(capsys, "hv", path)
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_bad_reference_length(self, capsys, points_file):
        code, _, err = run_cli(capsys, "hv", points_file, "--ref", "1.0")
        assert code == 1
        assert "reference" in json.loads(err)["message"]

    @pytest.mark.parametrize("ref,entry", [("nan,1", "'nan'"), ("a,1", "'a'"), ("1,inf", "'inf'")])
    def test_reference_entry_not_a_finite_number(self, capsys, points_file, ref, entry):
        code, _, err = run_cli(capsys, "hv", points_file, "--ref", ref)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == f"--ref: {entry} is not a finite number"

    @pytest.mark.parametrize("bad", ["nan", "-inf", "x"])
    def test_point_not_a_finite_number_names_file_and_line(self, capsys, tmp_path, bad):
        # A NaN row used to be left out of the front without a word.
        path = tmp_path / "p.txt"
        path.write_text(f"0.2, 0.8\n0.8, 0.2\n0.2 {bad}\n")
        code, _, err = run_cli(capsys, "hv", path)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == f"{path}:3: '{bad}' is not a finite number"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--mc-samples", "0", "--mc-samples must be >= 1, got 0"),
            ("--mc-samples", "-5", "--mc-samples must be >= 1, got -5"),
            ("--seed", "-1", "--seed must be >= 0, got -1"),
        ],
        ids=["zero-samples", "negative-samples", "negative-seed"],
    )
    def test_bad_monte_carlo_settings_refused(self, capsys, tmp_path, monkeypatch, flag, value, message):
        # Refused before hypervolume_mc, whose ValueError would print a traceback, not JSON.
        def never(*args, **kwargs):
            raise AssertionError("hypervolume_mc ran")

        monkeypatch.setattr(cli, "hypervolume_mc", never)
        path = tmp_path / "p.txt"
        path.write_text("0.5 0.5 0.5 0.5\n")
        code, out, err = run_cli(capsys, "hv", path, flag, value)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}


class TestEdistCommand:
    def test_identical_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("ACDY\nWWWW\n")
        code, out, _ = run_cli(capsys, "edist", a, a)
        assert code == 0
        assert out.strip() == "mean=0 std=0"

    def test_alphabet_flag(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("ACGT\n")
        b.write_text("ACGA\n")
        code, out, _ = run_cli(capsys, "edist", a, b, "--alphabet", "ACGT")
        assert code == 0
        assert out.strip() == "mean=1 std=0"

    def test_malformed_sequence_names_location(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("AC!D\n")
        code, _, err = run_cli(capsys, "edist", a, a)
        assert code == 1
        assert "a.txt:1" in json.loads(err)["message"]

    def test_has_no_seed_flag(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("ACDY\n")
        with pytest.raises(SystemExit) as exc:
            main(["edist", str(a), str(a), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestTrainCommand:
    def _write_train_cfg(self, tmp_path, **over):
        doc = {
            "config_version": 1,
            "model": {"kind": "pwm"},
            "cd_steps": 3,
            "lr": 0.15,
            "epochs": 4,
            "batch_size": 100,
            "l2": 0.3,
            "seed": 0,
            "alphabet": "ACGT",
        }
        doc.update(over)
        path = tmp_path / "train.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    def _write_data(self, tmp_path, n=120, L=6):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(L, 4))
        probs = np.exp(-W)
        probs /= probs.sum(axis=1, keepdims=True)
        lines = []
        for _ in range(n):
            toks = [rng.choice(4, p=probs[l]) for l in range(L)]
            lines.append("".join("ACGT"[t] for t in toks))
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_trains_and_saves_model(self, capsys, tmp_path):
        cfg = self._write_train_cfg(tmp_path)
        data = self._write_data(tmp_path)
        out_path = tmp_path / "out.model"
        code, out, _ = run_cli(capsys, "train", data, cfg, out_path)
        assert code == 0
        model = load_model(out_path)
        assert isinstance(model, PwmEnergy)
        assert model.L == 6 and model.A == 4

    def test_seed_flag_overrides(self, capsys, tmp_path):
        cfg = self._write_train_cfg(tmp_path)
        data = self._write_data(tmp_path)
        out1, out2, out3 = (tmp_path / f"m{i}.model" for i in range(3))
        run_cli(capsys, "train", data, cfg, out1, "--seed", "5")
        run_cli(capsys, "train", data, cfg, out2, "--seed", "5")
        run_cli(capsys, "train", data, cfg, out3, "--seed", "6")
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_mlp_needs_hidden(self, capsys, tmp_path):
        cfg = self._write_train_cfg(tmp_path, model={"kind": "mlp"})
        data = self._write_data(tmp_path)
        code, _, err = run_cli(capsys, "train", data, cfg, tmp_path / "m.model")
        assert code == 1
        assert "hidden" in json.loads(err)["message"]

    def test_unknown_train_key(self, capsys, tmp_path):
        cfg = self._write_train_cfg(tmp_path, momentum=0.9)
        data = self._write_data(tmp_path)
        code, _, err = run_cli(capsys, "train", data, cfg, tmp_path / "m.model")
        assert code == 1
        assert "momentum" in json.loads(err)["message"]

    def test_every_key_has_a_type(self):
        assert set(TRAIN_TYPES) == set(_TRAIN_KEYS)

    @pytest.mark.parametrize(
        "key,value",
        [(key, value) for key in _TRAIN_KEYS for value in REFUSED[TRAIN_TYPES.get(key, dict)]]
        + [
            ("seed", -1),
            ("model", "mlp"),
            ("model", {"hiden": 3}),
            ("model", {"kind": "mlp", "hidden": 2.5}),
            ("model", {"kind": "mlp", "hidden": 0}),
            ("model", {"kind": "rbm"}),
        ],
    )
    def test_bad_value_is_a_config_error_before_training(self, capsys, tmp_path, monkeypatch, key, value):
        # Each used to be truncated (2.5 -> 2, true -> 1), to pass silently,
        # or to end in a traceback after training had started.
        monkeypatch.setattr(cli, "cd_train", lambda *args: pytest.fail("training started"))
        cfg = self._write_train_cfg(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "train", self._write_data(tmp_path), cfg, tmp_path / "m.model")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]
        assert not (tmp_path / "m.model").exists()

    def test_negative_seed_flag_is_a_config_error(self, capsys, tmp_path):
        cfg = self._write_train_cfg(tmp_path)
        code, _, err = run_cli(capsys, "train", self._write_data(tmp_path), cfg, tmp_path / "m.model", "--seed", "-1")
        assert code == 1
        assert json.loads(err) == {"error": "ConfigError", "message": "seed must be >= 0, got -1"}

    def test_defaults_train_an_mlp(self, capsys, tmp_path):
        # Every key but the model and the alphabet left at its default.
        path = tmp_path / "train.yaml"
        path.write_text(yaml.safe_dump({"config_version": 1, "model": {"kind": "mlp", "hidden": 3}, "alphabet": "ACGT"}))
        code, out, _ = run_cli(capsys, "train", self._write_data(tmp_path, n=20), path, tmp_path / "m.model")
        assert code == 0 and out.startswith("trained mlp on 20 sequences")
        assert load_model(tmp_path / "m.model").H == 3


class TestSweepCommand:
    def _write_cfg(self, tmp_path, **over):
        doc = {
            "config_version": 1,
            "problem": "opposing-quadratics",
            "methods": ["cebm"],
            "eta": [0.1],
            "steps": [10],
            "chains": 2,
            "base_seed": 3,
            "output_dir": "out",
        }
        doc.update(over)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    def test_sweep_runs(self, capsys, tmp_path):
        cfg = self._write_cfg(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", cfg)
        assert code == 0
        assert (tmp_path / "out" / "report.json").is_file()
        assert out.strip().endswith("report.json")

    def test_bad_problem_id_names_it(self, capsys, tmp_path):
        cfg = self._write_cfg(tmp_path, problem="warp-drive")
        code, _, err = run_cli(capsys, "sweep", cfg)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "warp-drive" in payload["message"]

    def test_seed_override_changes_report(self, capsys, tmp_path):
        cfg_a = self._write_cfg(tmp_path, output_dir="out_a")
        run_cli(capsys, "sweep", cfg_a)
        cfg_b = self._write_cfg(tmp_path, output_dir="out_b")
        run_cli(capsys, "sweep", cfg_b, "--seed", "99")
        report_a = json.loads((tmp_path / "out_a" / "report.json").read_text())
        report_b = json.loads((tmp_path / "out_b" / "report.json").read_text())
        assert report_a["base_seed"] == 3 and report_b["base_seed"] == 99
        assert report_a["cells"][0]["hv_all"] != report_b["cells"][0]["hv_all"]

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "cfg.yaml", "--warp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "over",
        [
            {"normalization": {"min": [True, 0], "max": [1, 1]}},
            {"normalization": {"min": ["low", 0], "max": [1, 1]}},
            {"normalization": {"min": [NAN, 0], "max": [1, 1]}},
            {"normalization": {"min": [0, 0, 0], "max": [1, 1, 1]}},
            {"reference_point": [NAN, 1.0]},
            {"reference_point": []},
            {"output_dir": None},
        ],
    )
    def test_bad_value_is_a_config_error_before_any_chain(self, capsys, tmp_path, over):
        code, _, err = run_cli(capsys, "sweep", self._write_cfg(tmp_path, **over))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert next(iter(over)) in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_a_config_error_before_any_chain(self, capsys, tmp_path, where):
        cfg = self._write_cfg(tmp_path, **({"base_seed": -1} if where == "config" else {}))
        flag = ["--seed", "-1"] if where == "flag" else []
        code, _, err = run_cli(capsys, "sweep", cfg, *flag)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "base_seed" in payload["message"]
        assert not (tmp_path / "out").exists()


class TestImproveCommand:
    def test_end_to_end(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 4))
        model_path = tmp_path / "scorer.model"
        save_model(PwmEnergy(W), model_path)
        seeds_path = tmp_path / "seeds.txt"
        worst = np.argmax(W, axis=1)
        seeds_path.write_text(
            "".join("ACGT"[t] for t in worst) + "\n"
        )
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            yaml.safe_dump(
                {
                    "config_version": 1,
                    "problem": "sequence-energies",
                    "model_files": ["scorer.model"],
                    "methods": ["mgd", "cebm"],
                    "eta": [0.1],
                    "steps": [30],
                    "sigma": 0.01,
                    "chains": 1,
                    "alphabet": "ACGT",
                    "output_dir": "improve_out",
                }
            )
        )
        code, out, _ = run_cli(capsys, "improve", cfg_path, seeds_path, model_path)
        assert code == 0
        report_path = tmp_path / "improve_out" / "improve_report.json"
        assert report_path.is_file()
        report = json.loads(report_path.read_text())
        assert len(report["entries"]) == 2
        assert all(e["after"] < e["before"] for e in report["entries"])
        assert "mgd: improved 100%" in out


    def test_method_without_finished_chain(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 4))
        model_path = tmp_path / "scorer.model"
        save_model(PwmEnergy(W), model_path)
        seeds_path = tmp_path / "seeds.txt"
        seeds_path.write_text("".join("ACGT"[t] for t in np.argmax(W, axis=1)) + "\n")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            yaml.safe_dump(
                {
                    "config_version": 1,
                    "problem": "sequence-energies",
                    "model_files": ["scorer.model"],
                    "methods": ["mgd", "cebm"],
                    "eta": [0.1],
                    "steps": [30],
                    "sigma": 1e308,  # overflows every cebm chain
                    "alphabet": "ACGT",
                    "output_dir": "improve_out",
                }
            )
        )
        code, out, _ = run_cli(capsys, "improve", cfg_path, seeds_path, model_path)
        assert code == 0
        assert "cebm: no chain finished" in out
        assert "mgd: improved 100%" in out
        report = json.loads((tmp_path / "improve_out" / "improve_report.json").read_text())
        assert report["per_method"]["cebm"]["improved_fraction"] is None
        assert [f["method"] for f in report["failures"]] == ["cebm"]


class TestModuleEntryPoint:
    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads on the first chain, and multiprocessing only in a
        # sweep that forks, so neither adds to start-up.
        modules = ["numpy.random", "multiprocessing", "concurrent.futures"]
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, paretoebm.cli; print([m in sys.modules for m in {modules!r}])"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([False] * len(modules))

    def test_python_dash_m(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.5 0.5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "paretoebm", "hv", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.25"
