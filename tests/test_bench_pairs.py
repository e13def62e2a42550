"""scripts/bench_pairs.py's summary on fixed synthetic pairs, its parent
checkout from git archive and its snapshot of the change, and the cleanup
of both on SIGTERM; no benchmark runs."""

import importlib.util
import os
import signal
import subprocess
import sys
import textwrap
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


needs_git_head = pytest.mark.skipif(
    subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0,
    reason="git archive needs a git repository with a commit",
)


@needs_git_head
def test_archive_of_head_holds_the_package_and_the_benchmark_but_no_git(tmp_path):
    base = bench_pairs.archive("HEAD", ROOT, tmp_path / "base")
    assert (base / "src" / "paretoebm" / "__init__.py").is_file()
    assert (base / "perfbench" / "run.py").is_file()
    assert sorted(p.name for p in base.iterdir()) == ["perfbench", "src"]


def test_snapshot_of_the_change_holds_the_package_and_the_benchmark(tmp_path):
    change = bench_pairs.snapshot(ROOT, tmp_path / "change")
    assert (change / "src" / "paretoebm" / "__init__.py").is_file()
    assert (change / "perfbench" / "run.py").is_file()
    assert sorted(p.name for p in change.iterdir()) == ["perfbench", "src"]
    assert not list(change.rglob("__pycache__"))


def test_archive_and_snapshot_of_one_tree_list_the_same_files(tmp_path):
    # A committed tree with files inside and outside the two directories, and
    # bytecode, which git ignores and the snapshot skips.
    repo = tmp_path / "repo"
    files = ["src/pkg/__init__.py", "src/pkg/mod.py", "perfbench/run.py", "perfbench/data/inputs.txt",
             "tests/test_pkg.py", "README.md", "BENCHMARK.json"]
    for name in files:
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(name)
    (repo / ".gitignore").write_text("__pycache__/\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run([*git, *command], cwd=repo, check=True, capture_output=True)
    (repo / "src" / "pkg" / "__pycache__").mkdir()
    (repo / "src" / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"")

    def listing(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    base = bench_pairs.archive("HEAD", repo, tmp_path / "base")
    change = bench_pairs.snapshot(repo, tmp_path / "change")
    assert listing(base) == listing(change)
    assert [p for p in listing(base) if "." in Path(p).name] == sorted(f for f in files if f.startswith(("src/", "perfbench/")))


@needs_git_head
def test_sigterm_inside_the_pairs_removes_both_temporary_directories(tmp_path):
    # The child runs main() with run() replaced by a stub that names its
    # checkout and sleeps, so SIGTERM arrives inside both directory blocks.
    temp = tmp_path / "temp"
    temp.mkdir()
    child = textwrap.dedent(f"""
        import importlib.util, sys, time
        spec = importlib.util.spec_from_file_location("bench_pairs", {str(SCRIPT)!r})
        bench_pairs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_pairs)

        def run(checkout, workload, seed, seconds):
            print(checkout, flush=True)
            time.sleep(60)

        bench_pairs.run = run
        sys.argv = ["bench_pairs.py", "--base", "HEAD", "--change", {str(ROOT)!r}, "--workloads", "ff-sweep",
                    "--seeds", "1", "1", "--out", {str(tmp_path / "out.json")!r}]
        sys.exit(bench_pairs.main())
    """)
    proc = subprocess.Popen(
        [sys.executable, "-c", child], env=dict(os.environ, TMPDIR=str(temp)), stdout=subprocess.PIPE, text=True
    )
    try:
        checkout = Path(proc.stdout.readline().strip())
        assert checkout.parent == temp and checkout.name.startswith("bench-parent-")
        # Names of one length: a longer checkout path alone moves a run's peak.
        names = sorted(p.name for p in temp.iterdir())
        assert [name.split("-")[1] for name in names] == ["change", "parent"]
        assert len({len(name) for name in names}) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.stdout.close()
    assert not list(temp.iterdir())
