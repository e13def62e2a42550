"""Golden sweep bundles: the sha256 of two small sweeps' bundles, one per
kernel pair that produced them.

A bundle's bytes are a deterministic function of the config on one machine
(criterion 12), but not across machines: the OpenBLAS core numpy's
scipy-openblas picks at run time and numpy's SIMD loops round some elements
differently. So each entry is keyed by the numpy version, the OpenBLAS core
name, numpy's enabled SIMD dispatch targets and NPY_DISABLE_CPU_FEATURES;
any other key skips, naming itself. A change that alters a bundle on
purpose (a new reduction order in the drift, say) updates the entries it
can measure and says so.

To print the current key and hashes:
    PYTHONPATH=src python tests/test_golden_bundles.py
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from paretoebm.energy import MlpEnergy, save_model
from paretoebm.harness import load_config, run_sweep

PROBLEMS = ("fonseca-fleming", "sequence-energies")

# key -> problem -> sha256 of the bundle (see bundle_sha256).
GOLDEN = {
    # numpy 2.4.6 on an AVX-512 Xeon, each OpenBLAS core selected with OPENBLAS_CORETYPE
    # (SkylakeX is the default; Prescott reads Katmai), with numpy's AVX-512 loops on and off.
    # CI checks the Haswell pair without them.
    ("numpy 2.4.6", "OpenBLAS SkylakeX", "SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "NPY_DISABLE_CPU_FEATURES="): {
        "fonseca-fleming": "ae494d8d60f652e75a646ebd214afa3b3efc18cddc7e5843a5b196bac831b1ad",
        "sequence-energies": "6174cd5bafde231b953e6546a5a35e71d3fa584d0d455b039987cb121b864a2f",
    },
    ("numpy 2.4.6", "OpenBLAS SkylakeX", "SIMD X86_V3", "NPY_DISABLE_CPU_FEATURES=AVX512_ICL AVX512_SPR X86_V4"): {
        "fonseca-fleming": "35ffa99a17436281b174b9439d06adf1749287044db099882e133695982cd0b9",
        "sequence-energies": "6174cd5bafde231b953e6546a5a35e71d3fa584d0d455b039987cb121b864a2f",
    },
    ("numpy 2.4.6", "OpenBLAS Haswell", "SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "NPY_DISABLE_CPU_FEATURES="): {
        "fonseca-fleming": "37b34f62346765bd0e5b6c2cf0a84311ed4cf52ab4371031f23e90d48916d03f",
        "sequence-energies": "ce150cbef0ab42c46a62754b912528983c686f536d77e3ab22e30fde7009c3fe",
    },
    ("numpy 2.4.6", "OpenBLAS Haswell", "SIMD X86_V3", "NPY_DISABLE_CPU_FEATURES=AVX512_ICL AVX512_SPR X86_V4"): {
        "fonseca-fleming": "34090d9a337d75335ba9c082ecabf5b538ea255fce5b151e3223b7aac8542bde",
        "sequence-energies": "ce150cbef0ab42c46a62754b912528983c686f536d77e3ab22e30fde7009c3fe",
    },
    ("numpy 2.4.6", "OpenBLAS Sandybridge", "SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "NPY_DISABLE_CPU_FEATURES="): {
        "fonseca-fleming": "37b34f62346765bd0e5b6c2cf0a84311ed4cf52ab4371031f23e90d48916d03f",
        "sequence-energies": "627b426c686fbfd567d13535c25dc9d4defb844b3f5a5a6d317597f90484c923",
    },
    ("numpy 2.4.6", "OpenBLAS Sandybridge", "SIMD X86_V3", "NPY_DISABLE_CPU_FEATURES=AVX512_ICL AVX512_SPR X86_V4"): {
        "fonseca-fleming": "34090d9a337d75335ba9c082ecabf5b538ea255fce5b151e3223b7aac8542bde",
        "sequence-energies": "627b426c686fbfd567d13535c25dc9d4defb844b3f5a5a6d317597f90484c923",
    },
    ("numpy 2.4.6", "OpenBLAS Katmai", "SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "NPY_DISABLE_CPU_FEATURES="): {
        "fonseca-fleming": "349847e27d9323f7feab599967b842e44179b51c90d1c25a5cf86df9e3c15764",
        "sequence-energies": "6a015ceab940a4af8593f3e8b7fe5a5bf2f87f3f461ce3b9684956ce7f5c1e63",
    },
    ("numpy 2.4.6", "OpenBLAS Katmai", "SIMD X86_V3", "NPY_DISABLE_CPU_FEATURES=AVX512_ICL AVX512_SPR X86_V4"): {
        "fonseca-fleming": "fb591a7273fec5a91ef37854bace17ff424f851e750746ab7cd63d5a1e599c84",
        "sequence-energies": "6a015ceab940a4af8593f3e8b7fe5a5bf2f87f3f461ce3b9684956ce7f5c1e63",
    },
}


def openblas_core() -> str | None:
    """The OpenBLAS core numpy's bundled scipy-openblas runs on, or None
    where numpy bundles no such library."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return None
    # numpy has loaded this library already; dlopen hands back that copy.
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def kernel_key() -> tuple[str, ...]:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    return (
        f"numpy {np.__version__}",
        f"OpenBLAS {openblas_core()}",
        "SIMD " + " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)),
        "NPY_DISABLE_CPU_FEATURES=" + " ".join(sorted(disabled)),
    )


def sweep_config(directory: Path, problem: str):
    """A smoke-size sweep of every method: Fonseca-Fleming (d = 3), or three
    random MLP energies over L = 50, A = 20 (d = 1000), as the benchmark's
    seq-sweep has them."""
    doc = {
        "config_version": 1, "problem": problem, "methods": ["mgd", "cebm", "ls_cebm", "pcebm"],
        "eta": [0.01], "steps": [20], "chains": 8, "record_every": 1, "base_seed": 7,
        "sigma": 0.02, "alpha": 2e-4, "init_scale": 0.1, "output_dir": "out",
    }
    if problem == "sequence-energies":
        doc.update(eta=[0.1], steps=[5], chains=4)
        names = []
        for k in range(3):
            save_model(MlpEnergy.random(64, L=50, A=20, seed=11 + k), directory / f"model{k}.pebm")
            names.append(f"model{k}.pebm")
        rng = np.random.default_rng(7)
        (directory / "train.txt").write_text(
            "".join("".join("ACDEFGHIKLMNPQRSTVWY"[t] for t in row) + "\n" for row in rng.integers(20, size=(5, 50)))
        )
        doc.update(model_files=names, training_sequences="train.txt", normalization={
            "min": [-2.0, -2.0, -2.0], "max": [2.0, 2.0, 2.0],
        })
    path = directory / "sweep.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_config(path)


def bundle_sha256(directory: Path, problem: str) -> str:
    """Run the sweep in ``directory``; sha256 over every bundle file's path
    (relative to the bundle) and bytes, files in sorted order."""
    out = run_sweep(sweep_config(directory, problem)).output_dir
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("problem", PROBLEMS)
def test_bundle_matches_its_golden_hash(tmp_path, problem):
    key = kernel_key()
    if key not in GOLDEN:
        pytest.skip(f"no golden bundles for {key}")
    assert bundle_sha256(tmp_path, problem) == GOLDEN[key][problem], (
        f"the {problem} bundle changed under {key}; if on purpose, update GOLDEN and say so"
    )


if __name__ == "__main__":
    import tempfile

    print(kernel_key())
    for problem in PROBLEMS:
        with tempfile.TemporaryDirectory() as directory:
            print(problem, bundle_sha256(Path(directory), problem))
