"""Workloads of the sweep benchmark and the inputs each one needs.

Every workload is one `paretoebm sweep` config. All inputs (the config, the
MLP model files and the training sequences) are generated from the workload
seed; nothing is downloaded. The `smoke` size keeps each workload's problem,
methods, grid and recording with few chains and few steps, so the
benchmark's own tests run in seconds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

METHODS = ["mgd", "cebm", "ls_cebm", "pcebm"]
# sequence-energies models: MlpEnergy.random(hidden=64) over L=50, A=20 (d=1000).
SEQ_L, SEQ_A, MLP_HIDDEN = 50, 20, 64
# Criterion 6's variance-matched noise and concentrated start. With the
# defaults (sigma = sqrt(eta), alpha = eta / 2, unit start) a run's hv_pcebm
# hinges on a few extreme chains and varied by 13-44% (interquartile range
# over median, ten seeds) on seq-sweep and grid-aggregate; with these, by 2%.
# The per-step work is the same either way.
CHAIN_NOISE = {"sigma": 0.02, "alpha": 2e-4, "init_scale": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # sweep config keys other than the input files and output_dir
    models: int = 0  # MLP model files to generate (sequence-energies)
    training: int = 0  # random training sequences to generate (sequence-energies)

    def expected_cells(self) -> set[tuple[str, float, int, str]]:
        """(method, eta, steps, noise) of every grid cell; mgd always runs noiseless."""
        c = self.config
        return {
            (method, float(eta), int(steps), "none" if method == "mgd" else noise)
            for method in c["methods"]
            for eta in c["eta"]
            for steps in c["steps"]
            for noise in c.get("noise", ["gaussian"])
        }


def _ff_sweep(chains: int, steps: int) -> Workload:
    # Criterion 6's sweep for one seed.
    return Workload("ff-sweep", {
        "problem": "fonseca-fleming", "methods": METHODS, "eta": [0.01], "steps": [steps],
        "chains": chains, "record_every": steps, **CHAIN_NOISE,
    })


def _seq_sweep(chains: int, steps: int, training: int) -> Workload:
    return Workload("seq-sweep", {
        "problem": "sequence-energies", "methods": METHODS, "eta": [0.1], "steps": [steps],
        "chains": chains, "record_every": 1, **CHAIN_NOISE,
    }, models=3, training=training)


def _grid_aggregate(chains: int) -> Workload:
    # The README grid with short chains: 40 cells, 40 * chains pooled points.
    return Workload("grid-aggregate", {
        "problem": "fonseca-fleming", "methods": METHODS, "eta": [1e-4, 0.01, 1, 10, 40],
        "steps": [2, 4], "chains": chains, "record_every": 1, **CHAIN_NOISE,
    })


WORKLOADS = {
    "ff-sweep": {"full": _ff_sweep(256, 400), "smoke": _ff_sweep(8, 20)},
    "seq-sweep": {"full": _seq_sweep(32, 200, 50), "smoke": _seq_sweep(4, 5, 5)},
    "grid-aggregate": {"full": _grid_aggregate(256), "smoke": _grid_aggregate(4)},
}


def import_package():
    """Import paretoebm.cli from this checkout's src/, never from anywhere else.

    Exits with an error when the checkout holds no package source, so the
    benchmark cannot report a result for code it did not build.
    """
    package_dir = SRC / "paretoebm"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paretoebm.cli

    if Path(paretoebm.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"perfbench: imported paretoebm from {paretoebm.__file__}, not {package_dir}")
    return paretoebm.cli


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the sweep config (and model files, training set) for one seed; return the config path.

    The sweep writes its bundle to `out/` next to the config. Sequence
    energies are normalized by each model's attainable range, not the pooled
    min-max of the sweep, which one outlying chain can move.
    """
    from paretoebm.core import AMINO_ALPHABET
    from paretoebm.energy import MlpEnergy, save_model

    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    config = {"config_version": 1, **workload.config, "output_dir": "out"}
    if workload.models:
        model_files = []
        lows, highs = [], []
        for k, model_seed in enumerate(rng.integers(2**63, size=workload.models)):
            name = f"model{k}.pebm"
            model = MlpEnergy.random(MLP_HIDDEN, L=SEQ_L, A=SEQ_A, seed=int(model_seed))
            save_model(model, directory / name)
            model_files.append(name)
            # w2 . tanh(...) + b2 stays within b2 +/- sum |w2|.
            reach = float(np.abs(model.w2).sum())
            lows.append(model.b2 - reach)
            highs.append(model.b2 + reach)
        config["normalization"] = {"min": lows, "max": highs}
        tokens = rng.integers(SEQ_A, size=(workload.training, SEQ_L))
        (directory / "training.txt").write_text(
            "".join("".join(AMINO_ALPHABET[t] for t in row) + "\n" for row in tokens)
        )
        config["model_files"] = model_files
        config["training_sequences"] = "training.txt"
    path = directory / "sweep.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True))
    return path
