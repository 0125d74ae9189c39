"""The pair runner's summary: fixed numbers in, known quartiles and counts out."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
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
    machine = {"workload": "spot-check", "seed": 7, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    assert bench_pairs.machine_record(machine) == {
        "python": "3.11.7",
        "numpy": "2.4.6",
        "scipy": "1.17.1",
        "dont_write_bytecode": bool(flag),
    }
