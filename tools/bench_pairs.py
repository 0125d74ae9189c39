"""Alternating parent/change pairs of the benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent REV --seeds A-B --out BENCH_<n>.json

Builds a ``git archive`` tree of REV and of HEAD in a temporary directory,
then for every workload and seed runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, alternating which side runs first: the parent in even
pairs, the change (HEAD) in odd ones. T, the workloads and the end-to-end
metrics are those ``BENCHMARK.json`` declares. The output records, per
workload and metric, each side's runs and quartiles, how many pairs the
change won and lost, whether the change's median is worse than the
parent's by more than the metric's declared ``bound`` (a fraction), the
failed operations, and the machine and versions, and whether the runs
wrote bytecode caches.

A run takes about T seconds and shares the host with whatever else runs
there; set TMPDIR to choose where the trees and their outputs go.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'401-410' -> [401, ..., 410]; '7' -> [7]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(pairs: list[dict[str, dict]], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """One workload's pairs -> its summary.

    ``pairs`` holds, per seed, each side's result object (the last stdout
    line of ``bench/run.py``); ``better`` maps each metric to "lower" or
    "higher". A pair counts as won (lost) when the change's value is
    strictly better (worse) than the parent's. A metric named in
    ``bounds`` also records its bound and ``past_bound``: whether the
    change's median is worse than the parent's by more than that fraction
    of the parent's median.
    """
    runs = [pair[side] for pair in pairs for side in SIDES]
    metrics = {}
    for name, direction in better.items():
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"]) - 1.0
        metrics[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "parent": parent,
            "change": change,
            "change_better_pairs": sum(g > 0 for g in gains),
            "change_worse_pairs": sum(g < 0 for g in gains),
            "median_change_ratio": round(ratio, 4),
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "parent_runs": [round(v, 4) for v in values["parent"]],
            "change_runs": [round(v, 4) for v in values["change"]],
        }
        if bounds and name in bounds:
            metrics[name]["bound"] = bounds[name]
            metrics[name]["past_bound"] = sign * ratio > bounds[name]
    return {
        "runs_correct": all(r["correct"] for r in runs),
        "failed_operations": sum(r["failed"] for r in runs),
        "attempted_operations": sum(r["attempted"] for r in runs),
        "metrics": metrics,
    }


def build_tree(rev: str, dest: Path) -> str:
    """Extract ``git archive REV`` into dest; returns the commit's short hash."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    return subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def source_tree(rev: str) -> str:
    """The git tree hash of ``src`` at REV: equal hashes mean identical sources."""
    return subprocess.run(
        ["git", "rev-parse", f"{rev}:src"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One bench/run.py run in tree: (its result object, its machine record)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# machine "))
    return json.loads(lines[-1]), machine


def machine_record(machine: dict) -> dict:
    """A run's machine record, less its workload and seed, with this
    process's ``sys.flags.dont_write_bytecode``. Set by
    PYTHONDONTWRITEBYTECODE, which the runs inherit, it means no import in
    them writes a ``__pycache__``: every process compiles each module whose
    cache is missing or stale, except those ``bench/run.py`` compiles with
    ``compileall`` before its steps."""
    record = {k: v for k, v in machine.items() if k not in ("workload", "seed")}
    record["dont_write_bytecode"] = bool(sys.flags.dont_write_bytecode)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision; the change is HEAD")
    parser.add_argument("--seeds", required=True, help="inclusive seed range A-B, one pair per seed")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    revs = {"parent": args.parent, "change": "HEAD"}

    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        hashes = {side: build_tree(revs[side], trees[side]) for side in SIDES}
        machine: dict = {}
        summaries = {}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    pair[side], machine = run_bench(trees[side], workload, seed, seconds)
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall:.3f}", file=sys.stderr)
                pairs.append(pair)
            summaries[workload] = summarize(pairs, better, bounds)

    machine = machine_record(machine)
    record = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "tool": f"python3 tools/bench_pairs.py --parent {args.parent} --seeds {args.seeds}",
        "parent": hashes["parent"],
        "change": hashes["change"],
        "src_trees": {side: source_tree(revs[side]) for side in SIDES},
        "pairs_per_workload": len(seeds),
        "seeds": seeds,
        "order": "alternating: parent first in even pairs, change first in odd pairs",
        "metrics_note": f"each value is the median that bench/run.py reports for one run of {seconds:g} s, "
        "corrected for the host's speed; quartiles are over the runs of a side",
        "machine": machine,
        "versions": {k: machine[k] for k in ("python", "numpy", "scipy")},
        "workloads": summaries,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
