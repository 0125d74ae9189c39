"""The pair runner: its summary (fixed numbers in, known quartiles and
counts out), its refusals, its campaign block on two small trees, and
each run's CPU/wall of its test steps."""
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall, rss, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 50,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "units_per_s": {"value": 1.0 / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def test_parse_seeds():
    assert bench_pairs.parse_seeds("401-405") == [401, 402, 403, 404, 405]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5-4")


def test_summarize_fixed_numbers():
    parent_wall = [4.0, 4.4, 3.6, 4.2, 3.8]
    change_wall = [3.0, 3.2, 3.7, 3.1, 3.3]
    pairs = [
        {"parent": _run(p, 80.0), "change": _run(c, 80.0 + (i - 2) * 0.5, failed=i == 4)}
        for i, (p, c) in enumerate(zip(parent_wall, change_wall))
    ]
    out = bench_pairs.summarize(
        pairs, {"wall_s": "lower", "units_per_s": "higher", "peak_rss_mb": "lower"}
    )
    assert out["runs_correct"] is True
    assert out["failed_operations"] == 1
    assert out["attempted_operations"] == 500
    wall = out["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    # Inclusive quartiles of 3.6, 3.8, 4.0, 4.2, 4.4 and of 3.0, 3.1, 3.2, 3.3, 3.7.
    assert wall["parent"] == {"q1": 3.8, "median": 4.0, "q3": 4.2}
    assert wall["change"] == {"q1": 3.1, "median": 3.2, "q3": 3.3}
    assert wall["parent_iqr"] == 0.4
    assert wall["median_change_ratio"] == -0.2
    # The third pair (3.6 -> 3.7) is the only one the change loses.
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (4, 1)
    assert wall["parent_runs"] == parent_wall and wall["change_runs"] == change_wall
    # A higher-is-better rate of the same runs wins and loses the same pairs.
    rate = out["metrics"]["units_per_s"]
    assert (rate["change_better_pairs"], rate["change_worse_pairs"]) == (4, 1)
    rss = out["metrics"]["peak_rss_mb"]
    # Change RSS 79.0, 79.5, 80.0, 80.5, 81.0 against a flat 80.0: two wins, one tie.
    assert (rss["change_better_pairs"], rss["change_worse_pairs"]) == (2, 2)
    assert rss["median_change_ratio"] == 0.0


@pytest.mark.parametrize(
    "change_wall, change_rss, wall_past, rate_past, rss_past",
    [
        # 22.5% slower is inside wall_s's 25% bound, 30% past it.
        (4.9, 80.0, False, False, False),
        (5.2, 80.0, True, True, False),
        # 9.5% more memory is inside peak_rss_mb's 10% bound, 10.5% past it.
        (3.0, 87.6, False, False, False),
        (3.0, 88.4, False, False, True),
    ],
)
def test_summarize_flags_a_median_past_its_bound(change_wall, change_rss, wall_past, rate_past, rss_past):
    pairs = [{"parent": _run(4.0, 80.0), "change": _run(change_wall, change_rss)}] * 3
    better = {"wall_s": "lower", "units_per_s": "higher", "peak_rss_mb": "lower"}
    bounds = {"wall_s": 0.25, "units_per_s": 0.2, "peak_rss_mb": 0.1}
    metrics = bench_pairs.summarize(pairs, better, bounds)["metrics"]
    assert metrics["wall_s"]["bound"] == 0.25
    assert metrics["wall_s"]["past_bound"] is wall_past
    # units_per_s = 1 / wall falls by 18.4% at 4.9 s, inside its 20% bound, and 23.1% at 5.2 s.
    assert metrics["units_per_s"]["past_bound"] is rate_past
    assert metrics["peak_rss_mb"]["past_bound"] is rss_past
    # A metric without a bound records none.
    assert "past_bound" not in bench_pairs.summarize(pairs, better)["metrics"]["wall_s"]


def test_summarize_flags_an_incorrect_run():
    pairs = [{"parent": _run(4.0, 80.0), "change": _run(3.0, 80.0, correct=False)}] * 2
    assert bench_pairs.summarize(pairs, {"wall_s": "lower"})["runs_correct"] is False


@pytest.mark.parametrize("flag", [0, 1])
def test_machine_record_says_whether_imports_write_bytecode(monkeypatch, flag):
    monkeypatch.setattr(bench_pairs, "sys", SimpleNamespace(flags=SimpleNamespace(dont_write_bytecode=flag)))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    machine = {"workload": "spot-check", "seed": 7, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    assert bench_pairs.machine_record(machine) == {
        "python": "3.11.7",
        "numpy": "2.4.6",
        "scipy": "1.17.1",
        "dont_write_bytecode": bool(flag),
        "openblas_num_threads": None,
    }


@pytest.mark.parametrize("value", ["1", "2"])
def test_machine_record_keeps_the_inherited_openblas_threads(monkeypatch, value):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    assert bench_pairs.machine_record({"seed": 7})["openblas_num_threads"] == value


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
def test_a_bad_out_is_refused_before_any_tree_is_built(tmp_path, monkeypatch, capsys, where):
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "bench.json"
    monkeypatch.setattr(bench_pairs, "build_tree", lambda rev, dest: pytest.fail("built a tree"))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD", "--seeds", "0-1", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert f"--out {out} is a directory or lies in a missing one" in capsys.readouterr().err


def test_the_tool_loads_neither_numpy_nor_the_package():
    # A child's ru_maxrss starts at its parent's peak, so the tool must stay small.
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_pairs', {str(_PATH)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'mtstreams')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


def _trees(tmp_path: Path) -> dict[str, Path]:
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    for tree in trees.values():
        shutil.copytree(_ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return trees


def test_campaign_block_of_two_small_trees(tmp_path):
    block = bench_pairs.campaign(_trees(tmp_path), 2, [0, 1])
    assert block["statuses"] == 2
    assert block["status_set"] == "gen --technique random --seed 0 --count 2"
    assert list(block["steps"]) == ["test_jobs1", "test_jobs2", "report", "registry"]
    # Every check passed: each side's --jobs 1 and --jobs 2 results match, in both pairs.
    assert block["runs_correct"] is True and block["failed_operations"] == 0
    assert block["same_bytes"] == dict.fromkeys(bench_pairs.OUTPUTS, True)
    assert block["sha256"]["parent"] == block["sha256"]["change"]
    steps = [f"{step}.{metric}" for step in block["steps"] for metric in ("wall_s", "cpu_s", "peak_rss_mb")]
    rates = ["test_jobs1.statuses_per_cpu_s", "test_jobs2.statuses_per_cpu_s"]
    assert sorted(block["metrics"]) == sorted(steps + rates + ["jobs2_efficiency", "bytes_per_status"])
    for metric in block["metrics"].values():
        assert len(metric["parent_runs"]) == len(metric["change_runs"]) == 2
    size = block["metrics"]["bytes_per_status"]
    assert size["unit"] == "B" and size["parent_runs"] == size["change_runs"]
    assert block["metrics"]["jobs2_efficiency"]["unit"] == "ratio"


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="ascii")
    assert old in text
    path.write_text(text.replace(old, new), encoding="ascii")


def test_campaign_refuses_trees_whose_status_sets_differ(tmp_path):
    trees = _trees(tmp_path)
    _edit(trees["change"] / "src" / "mtstreams" / "statusfile.py", 'HEADER = "MT19937-STATUS v1"', 'HEADER = "MT19937-STATUS v0"')
    with pytest.raises(RuntimeError, match=r"mtstreams verify .* exited 3"):
        bench_pairs.campaign(trees, 2, [0, 1])
    # Refused before any timed step ran.
    assert not (trees["parent"] / bench_pairs.WORK / "results1.jsonl").exists()


def test_campaign_stops_on_a_side_whose_jobs_change_its_results(tmp_path):
    trees = _trees(tmp_path)
    # The change's test appends one line feed to its results at --jobs 2.
    write = "    write_results_jsonl(creport, args.out)\n"
    append = "    if jobs == 2:\n        with open(args.out, 'a') as f:\n            f.write('\\n')\n"
    _edit(trees["change"] / "src" / "mtstreams" / "cli.py", write, write + append)
    with pytest.raises(RuntimeError, match="^change: test --jobs 1 and --jobs 2 wrote different results.jsonl bytes$"):
        bench_pairs.campaign(trees, 2, [0, 1])


def _bench_record(tree: Path, workload: str, seed: int, steps: list) -> None:
    results = tree / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({"steps": steps}), encoding="ascii")


def test_cpu_per_wall_is_the_median_over_a_runs_test_steps(tmp_path):
    # Per iteration: (command, wall s, CPU s, peak RSS MB); only the test steps count.
    iterations = [[["gen", 0.1, 0.2, 20.0], ["test", 0.5, 0.5, 40.0]], [["test", 0.4, 0.56, 40.0]], [["test", 0.5, 0.7, 40.0]]]
    _bench_record(tmp_path, "walkthrough", 3, iterations)
    assert bench_pairs.cpu_per_wall(tmp_path, "walkthrough", 3) == 1.4
    # A run whose first iteration failed recorded no steps.
    (tmp_path / ".bench_run" / "results" / "walkthrough-seed3-trace0.json").write_text("{}", encoding="ascii")
    assert bench_pairs.cpu_per_wall(tmp_path, "walkthrough", 3) is None


def test_each_workload_records_every_runs_cpu_per_wall(tmp_path, monkeypatch):
    def run_bench(tree, workload, seed, seconds):
        # The parent's test steps run on one CPU, the change's on more.
        ratio = {"parent": 1.0, "change": 1.3}[tree.name] + seed / 100
        _bench_record(tree, workload, seed, [[["test", 0.5, 0.5 * ratio, 40.0]]])
        metrics = {"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0}
        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()}}
        return result, {"workload": workload, "seed": seed, "python": "3", "numpy": "2", "scipy": "1"}

    monkeypatch.setattr(bench_pairs, "build_tree", lambda rev, dest: dest.mkdir() or rev)
    monkeypatch.setattr(bench_pairs, "source_tree", lambda rev: rev)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD~1", "--seeds", "1-2", "--out", str(out)])
    assert bench_pairs.main() == 0
    workloads = json.loads(out.read_text(encoding="ascii"))["workloads"]
    assert len(workloads) == 2
    for workload in workloads.values():
        assert workload["test_cpu_per_wall"] == {"parent_runs": [1.01, 1.02], "change_runs": [1.31, 1.32]}
        assert "test_cpu_per_wall" not in workload["metrics"]  # informational, never gated


def test_source_lines_counts_the_lines_of_every_python_file_under_src(tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\nz = 3\n", encoding="ascii")
    (tmp_path / "src" / "pkg" / "b.py").write_text('"""b."""\n\nw = 4', encoding="ascii")  # no final line end, as wc -l
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncode\n", encoding="ascii")
    (tmp_path / "src" / "pkg" / "__pycache__" / "b.cpython-311.pyc").write_bytes(b"\n" * 9)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("assert True\n", encoding="ascii")
    assert bench_pairs.source_lines(tmp_path) == 5


def _tree_of_rev(rev, dest):
    """A tree whose src holds one module with a line per character of REV."""
    (dest / "src").mkdir(parents=True)
    (dest / "src" / "m.py").write_text("x = 1\n" * len(rev), encoding="ascii")
    return rev


def test_campaign_looks_versions_up_before_the_first_pair_and_records_a_missing_one_as_null(tmp_path, monkeypatch):
    import importlib.metadata

    looked_up, real_version = [], importlib.metadata.version

    def version(name):
        looked_up.append(name)
        if name == "scipy":
            raise importlib.metadata.PackageNotFoundError(name)
        return real_version(name)

    def campaign(trees, count, seeds):
        assert sorted(looked_up) == ["numpy", "scipy"]  # a lookup that fails loses no pair
        return {"statuses": count}

    monkeypatch.setattr(importlib.metadata, "version", version)
    monkeypatch.setattr(bench_pairs, "build_tree", _tree_of_rev)
    monkeypatch.setattr(bench_pairs, "source_tree", lambda rev: rev)
    monkeypatch.setattr(bench_pairs, "campaign", campaign)
    out = tmp_path / "bench.json"
    argv = ["bench_pairs.py", "--parent", "HEAD~1", "--seeds", "1-2", "--campaign", "2", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    record = json.loads(out.read_text(encoding="ascii"))
    assert record["versions"] == {"python": platform.python_version(), "numpy": real_version("numpy"), "scipy": None}
    assert record["campaign"] == {"statuses": 2}
    assert record["src_trees"] == {"parent": "HEAD~1", "change": "HEAD"}
    assert record["src_lines"] == {"parent": 6, "change": 4}
