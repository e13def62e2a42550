"""scripts/bench_pairs.py's summary on fixed synthetic pairs, and its parent
checkout from git archive; no benchmark runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Parent values 10..19: median 14.5, inclusive quartiles 12.25 and 16.75, an
# interquartile range of 4.5.
PARENT = [10.0 + i for i in range(10)]


def pairs_for(metric_values: dict) -> list[dict]:
    """Ten pairs in which each named metric has the given (parent, change)
    lists and every other metric is equal on both sides."""
    pairs = []
    for i in range(10):
        pair = {"pair": i, "parent": {"failed_frac": 0.0}, "change": {"failed_frac": 0.1 * (i == 3)}}
        for name in bench_pairs.METRICS:
            parent, change = metric_values.get(name, (PARENT, PARENT))
            pair["parent"][name], pair["change"][name] = parent[i], change[i]
        pairs.append(pair)
    return pairs


def shifted(values, by, losses=()):
    """values + by, except at the pairs ``losses``, where the change equals the parent."""
    return [v if i in losses else v + by for i, v in enumerate(values)]


@pytest.mark.parametrize(
    "shift,losses,met",
    [
        (-5.0, (), True),  # 10 of 10 wins, gap 5 > IQR 4.5
        (-6.0, (0,), True),  # 9 of 10 still meets it (median gap 5)
        (-6.0, (0, 9), False),  # 8 of 10 does not
        (-4.5, (), False),  # a gap equal to the IQR does not
        (5.0, (), False),  # worse
    ],
)
def test_claim_rule_on_a_lower_is_better_metric(shift, losses, met):
    summary = bench_pairs.summarize(pairs_for({"peak_rss_mb": (PARENT, shifted(PARENT, shift, losses))}))
    entry = summary["peak_rss_mb"]
    assert entry["parent_median"] == 14.5 and entry["parent_quartiles"] == [12.25, 14.5, 16.75]
    assert entry["change_wins"] == (0 if shift > 0 else 10 - len(losses))
    assert entry["claim_met"] is met
    assert entry["median_change_worse_by"] == round((entry["change_median"] - 14.5) / 14.5, 4)
    # Equal sides: no wins, no claim, no change.
    assert summary["setup_s"]["change_wins"] == 0 and summary["setup_s"]["claim_met"] is False
    assert summary["setup_s"]["median_change_worse_by"] == 0


def test_claim_rule_on_a_higher_is_better_metric():
    summary = bench_pairs.summarize(pairs_for({"chain_steps_per_s": (PARENT, shifted(PARENT, 5.0))}))
    entry = summary["chain_steps_per_s"]
    assert entry["change_wins"] == 10 and entry["claim_met"] is True
    assert entry["median_change_worse_by"] == round(-5.0 / 14.5, 4)
    summary = bench_pairs.summarize(pairs_for({"chain_steps_per_s": (PARENT, shifted(PARENT, -5.0))}))
    assert summary["chain_steps_per_s"]["change_wins"] == 0 and summary["chain_steps_per_s"]["claim_met"] is False


@pytest.mark.parametrize("raw_shift,met", [(-5.0, True), (-4.0, False)])
def test_wall_s_claim_needs_raw_and_scaled_times(raw_shift, met):
    summary = bench_pairs.summarize(
        pairs_for({"wall_s": (PARENT, shifted(PARENT, -5.0)), "raw_wall_s": (PARENT, shifted(PARENT, raw_shift))})
    )
    assert summary["raw_wall_s"]["change_wins"] == 10
    assert summary["raw_wall_s"]["claim_met"] is met
    assert summary["wall_s"]["claim_met"] is met


def test_cpu_seconds_and_failures_are_summarized():
    summary = bench_pairs.summarize(pairs_for({"cpu_s": (PARENT, shifted(PARENT, 1.0))}))
    assert summary["cpu_s"]["change_median"] == 15.5 and summary["cpu_s"]["change_wins"] == 0
    assert summary["failed_frac"] == {"parent": 0.0, "change": pytest.approx(0.1)}


@pytest.mark.skipif(
    subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0,
    reason="git archive needs a git repository with a commit",
)
def test_archive_of_head_holds_the_package_and_the_benchmark_but_no_git(tmp_path):
    base = bench_pairs.archive("HEAD", ROOT, tmp_path / "base")
    assert (base / "src" / "paretoebm" / "__init__.py").is_file()
    assert (base / "perfbench" / "run.py").is_file()
    assert not (base / ".git").exists()
