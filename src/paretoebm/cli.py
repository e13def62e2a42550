"""Command-line interface: sweep, improve, train, hv, edist.

Every command exits 0 on success; failures print a machine-readable JSON
error to stderr and exit 1 (argparse usage errors exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .core import AMINO_ALPHABET, ConfigError, ParetoEbmError, read_sequences
from .energy import MlpEnergy, PwmEnergy, cd_train, load_model, save_model
from .metrics import ReferencePoint, hypervolume_exact, hypervolume_mc, summarize_edist, unit_reference
from .harness import improve_seeds, load_config, load_train_config, run_sweep, write_improvement_report

logger = logging.getLogger(__name__)


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not a finite number")
    return value


def _read_points(path) -> np.ndarray:
    """One objective vector per line, comma or whitespace separated."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append([_finite(v, f"{path}:{lineno}") for v in stripped.replace(",", " ").split()])
    if not rows:
        raise ConfigError(f"{path}: no points found")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ConfigError(f"{path}: row {i} has {len(row)} values, expected {width}")
    return np.array(rows)


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    result = run_sweep(cfg)
    print(result.report_path)
    return 0


def _cmd_improve(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    seeds = read_sequences(args.seeds, cfg.alphabet)
    scorer = load_model(args.scorer)
    report = improve_seeds(cfg, seeds, scorer)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "improve_report.json"
    write_improvement_report(report, report_path)
    for method, summary in sorted(report.per_method.items()):
        if summary["improved_fraction"] is None:
            print(f"{method}: no chain finished")
        else:
            print(f"{method}: improved {summary['improved_fraction']:.0%} of seeds")
    print(report_path)
    return 0


def _cmd_train(args) -> int:
    (kind, hidden), cfg, alphabet = load_train_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    data = read_sequences(args.data, alphabet)
    if not data:
        raise ConfigError(f"{args.data}: no sequences")
    L, A = len(data[0]), data[0].alphabet_size
    model = PwmEnergy.zeros(L, A) if hidden is None else MlpEnergy.random(hidden, L=L, A=A, seed=cfg.seed)
    trained, history = cd_train(model, data, cfg)
    save_model(trained, args.output)
    print(f"trained {kind} on {len(data)} sequences "
          f"(loss {history[0]:.4f} -> {history[-1]:.4f})")
    print(args.output)
    return 0


def _cmd_hv(args) -> int:
    if args.mc_samples < 1:
        raise ConfigError(f"--mc-samples must be >= 1, got {args.mc_samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    V = _read_points(args.points)
    m = V.shape[1]
    if args.ref:
        reference = ReferencePoint(np.array([_finite(v, "--ref") for v in args.ref.split(",")]))
    else:
        reference = unit_reference(m)
    if reference.m != m:
        raise ConfigError(f"reference point has {reference.m} entries, points have m={m}")
    if m <= 3:
        print(f"{hypervolume_exact(V, reference):.12g}")
    else:
        estimate, stderr = hypervolume_mc(V, reference, args.mc_samples, seed=args.seed)
        print(f"{estimate:.12g} {stderr:.12g}")
    return 0


def _cmd_edist(args) -> int:
    samples = read_sequences(args.samples, args.alphabet)
    training = read_sequences(args.training, args.alphabet)
    mean, std = summarize_edist(samples, training)
    print(f"mean={mean:.12g} std={std:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoebm",
        description="Multi-objective energy-based sampling toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a hyperparameter sweep from a YAML config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the config base seed")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("improve", help="improve seed sequences with every configured method")
    p.add_argument("config")
    p.add_argument("seeds", help="seed sequences, one per line")
    p.add_argument("scorer", help="scorer model file (lower energy is better)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_improve)

    p = sub.add_parser("train", help="train a sequence energy by contrastive divergence")
    p.add_argument("data", help="training sequences, one per line")
    p.add_argument("config", help="training YAML config")
    p.add_argument("output", help="output model file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("hv", help="hypervolume of a point file against a reference")
    p.add_argument("points", help="one objective vector per line")
    p.add_argument("--ref", default=None, help="comma-separated reference point (default all ones)")
    p.add_argument("--mc-samples", type=int, default=1_000_000, help="Monte-Carlo samples for m > 3")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed for m > 3")
    p.set_defaults(func=_cmd_hv)

    p = sub.add_parser("edist", help="edit-distance summary of samples against a training set")
    p.add_argument("samples")
    p.add_argument("training")
    p.add_argument("--alphabet", default=AMINO_ALPHABET)
    p.set_defaults(func=_cmd_edist)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ParetoEbmError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
