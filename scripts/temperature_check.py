"""Criterion 6 at its own settings and at both matched temperatures.

    python3 scripts/temperature_check.py --out scripts/temperature_check.json

Criterion 6 (tests/test_acceptance.py) sweeps fonseca-fleming for base
seeds 0-4, each with 4 methods x 256 chains x 400 steps at eta = 0.01,
sigma = 0.02 and alpha = 2e-4, and asserts that pcebm's median hv_all is at
least cebm's. Read as Langevin steps, cebm runs at the temperature
sigma^2 / eta = 0.04 and pcebm at alpha / eta = 0.02. This script runs the
same five sweeps three times: at the criterion's settings, with
alpha = sigma^2 = 4e-4 (both methods at 0.04), and with
sigma = sqrt(alpha) (both at 0.02). It writes each method's hv_all per seed
and its median, each seed's pcebm - cebm, and the machine stamp of
scripts/bench_pairs.py to a JSON file. It is a diagnostic and no test runs
it; the criterion keeps its settings, bound and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from bench_pairs import stamp  # noqa: E402
from paretoebm.harness import ExperimentConfig, run_sweep  # noqa: E402

ETA = 0.01
SEEDS = range(5)
METHODS = ("mgd", "cebm", "ls_cebm", "pcebm")
SETTINGS = {
    "criterion": {"sigma": 0.02, "alpha": 2e-4},
    "matched_at_cebm_temperature": {"sigma": 0.02, "alpha": 0.02**2},
    "matched_at_pcebm_temperature": {"sigma": math.sqrt(2e-4), "alpha": 2e-4},
}


def hv_all(out: Path, base_seed: int, sigma: float, alpha: float) -> dict[str, float]:
    """Each method's hv_all in criterion 6's sweep for one base seed."""
    cfg = ExperimentConfig(
        problem="fonseca-fleming", methods=METHODS, etas=(ETA,), steps_grid=(400,), noise_kinds=("gaussian",),
        chains=256, output_dir=out, base_seed=base_seed, sigma=sigma, alpha=alpha, init_scale=0.1,
        record_every=400,
    )
    return {cell["method"]: cell["hv_all"] for cell in run_sweep(cfg).report["cells"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    doc = {"machine": stamp(), "eta": ETA, "seeds": list(SEEDS), "settings": {}}
    with tempfile.TemporaryDirectory(prefix="temperature-check-") as tmp:
        for name, knobs in SETTINGS.items():
            runs = [hv_all(Path(tmp) / f"{name}-{seed}", seed, **knobs) for seed in SEEDS]
            per_seed = {method: [run[method] for run in runs] for method in METHODS}
            gaps = [run["pcebm"] - run["cebm"] for run in runs]
            doc["settings"][name] = {
                **knobs,
                "temperature": {"cebm": knobs["sigma"] ** 2 / ETA, "pcebm": knobs["alpha"] / ETA},
                "hv_all": per_seed,
                "median_hv_all": {method: statistics.median(values) for method, values in per_seed.items()},
                "pcebm_minus_cebm": gaps,
                "seeds_pcebm_at_least_cebm": sum(gap >= 0 for gap in gaps),
            }
            entry = doc["settings"][name]
            print(
                f"{name}: median hv_all pcebm {entry['median_hv_all']['pcebm']:.4f}, "
                f"cebm {entry['median_hv_all']['cebm']:.4f}; pcebm >= cebm on "
                f"{entry['seeds_pcebm_at_least_cebm']} of {len(gaps)} seeds",
                flush=True,
            )
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
