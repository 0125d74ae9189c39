"""Alternating parent/change pairs, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent REV --seeds A-B [--campaign N] --out FILE

Builds a ``git archive`` tree of REV and of HEAD in a temporary directory,
then runs one pair per seed, alternating which side runs first: the parent
in even pairs, the change (HEAD) in odd ones. Per metric, the output
records each side's runs and quartiles and how many pairs the change won
and lost; it also records the machine, the versions, whether the runs
wrote bytecode caches, and the ``OPENBLAS_NUM_THREADS`` they inherited
(null if unset). ``bench/step.py`` imports NumPy before ``cli.main``, so a
benchmarked ``test`` step never gets the process entry's default of 1:
unset, OpenBLAS starts a worker thread for each further CPU, and where it
shares the main thread's CPU, ``setup_s`` grows. Runs with and without the
variable are not comparable. An ``--out`` that is a directory or lies in a
missing one is refused (exit 2) before any tree is built.

Without ``--campaign``, each pair runs, in each tree and for every
workload, ``python3 bench/run.py --workload W --seed S --seconds T --trace
0`` (about T s). T, the workloads and the end-to-end metrics are those
``BENCHMARK.json`` declares; the ``workloads`` block also records the
failed operations and whether the change's median is worse than the
parent's by more than the metric's ``bound`` (a fraction). It also
records, ungated, each run's ``test_cpu_per_wall``: the median CPU/wall of
its ``test`` steps, read from the run's own record in the tree
(``.bench_run/results/W-seedS-trace0.json``). Near 1.0 for a ``--jobs 2``
step, it marks a host that left the pool's workers on one CPU, whose
figures are not comparable with those of a host that spreads them.

With ``--campaign N``, each tree runs ``python -m mtstreams.cli`` on its own
``src``. Untimed, each tree makes ``gen --technique random --seed A --count
N`` (A the first seed), ``verify`` must find the two sets identical, and
``src`` is byte-compiled. Each side of a pair then runs ``test --jobs 1``,
``test --jobs 2``, ``report`` and ``registry``, each reaped with
``os.wait4`` for its own wall time, CPU time (pool workers included) and
peak RSS, not corrected for the host's speed. The ``campaign`` block adds
statuses per CPU-second of each ``test``, the ``--jobs 2`` efficiency (wall
at 1 over twice the wall at 2), results bytes per status, and
``same_bytes``: per output file, whether the sides wrote the same bytes,
which a change may move on purpose. A failed step, or a side whose ``--jobs
1`` and ``--jobs 2`` results differ or whose bytes change between pairs,
stops the tool with an error naming it. A child's peak RSS starts at this
process's, so this module imports neither NumPy nor the package. At N =
2048 a pair takes about 2 min on 2 cores, so the versions it records are
looked up before the first pair, null for a NumPy or SciPy that is not
installed.

Either way, ``src_trees`` holds each side's git tree hash of ``src`` and
``src_lines`` the number of lines of its ``src/**/*.py``, so a change that
deletes code shows it.

The runs share the host with whatever else runs there; set TMPDIR to
choose where the trees and their outputs go.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WORK = "campaign"  # a campaign tree's directory for its children and their files
CAMPAIGN_STEPS = {
    "test_jobs1": ["test", "--dir", "set", "--jobs", "1", "--out", "results1.jsonl"],
    "test_jobs2": ["test", "--dir", "set", "--jobs", "2", "--out", "results2.jsonl"],
    "report": ["report", "--results", "results1.jsonl", "--out", "report.md"],
    "registry": ["registry", "--results", "results1.jsonl", "--out", "registry.txt"],
}
OUTPUTS = ("results1.jsonl", "report.md", "registry.txt", "registry.json")
CAMPAIGN_COMMAND = "PYTHONPATH=<tree>/src python3 -m mtstreams.cli STEP, in the tree's campaign directory"
CAMPAIGN_NOTE = ("each value is one child process's, reaped with os.wait4: wall, CPU with its pool workers, "
                 "peak RSS; raw, not corrected for the host's speed; quartiles are over the runs of a side")


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


def source_lines(tree: Path) -> int:
    """The line count of ``src/**/*.py`` in tree, as ``wc -l`` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def campaign_machine() -> dict:
    """This host's CPU count and Python version, and the NumPy and SciPy
    versions installed (None for one that is not)."""
    from importlib.metadata import PackageNotFoundError, version

    def installed(name: str) -> str | None:
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": installed("numpy"), "scipy": installed("scipy")}


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


def run_cli(tree: Path, args: list[str]) -> tuple[float, float, float]:
    """(wall s, CPU s, peak RSS MB) of ``python -m mtstreams.cli ARGS`` in
    tree's WORK. wait4 merges the rusage of every process the child reaped,
    so CPU includes pool workers; ``RUSAGE_CHILDREN`` could not give the
    step's own peak, as its maxrss is a high-water mark over all children."""
    work = tree / WORK
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with open(work / "step.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mtstreams.cli", *args], cwd=work, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        output = (work / "step.log").read_text(errors="replace")
        raise RuntimeError(f"mtstreams {' '.join(args)} in {tree} exited {proc.returncode}:\n{output}")
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:  # in chunks: this process's peak RSS is every child's floor
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def campaign(trees: dict[str, Path], count: int, seeds: list[int]) -> dict:
    """The ``campaign`` block of ``count`` statuses, one pair per seed (see the module
    docstring); ``trees`` maps each side to a directory holding ``src``."""
    trees = {side: tree.resolve() for side, tree in trees.items()}
    for tree in trees.values():
        (tree / WORK).mkdir()
        run_cli(tree, ["gen", "--technique", "random", "--seed", str(seeds[0]), "--count", str(count), "--out", "set"])
    run_cli(trees["change"], ["verify", *(a for side in SIDES for a in ("--dir", str(trees[side] / WORK / "set")))])
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True, stdout=subprocess.DEVNULL)
    pairs, digests = [], {}
    for i, seed in enumerate(seeds):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            work = trees[side] / WORK
            steps = {name: run_cli(trees[side], args) for name, args in CAMPAIGN_STEPS.items()}
            metrics = {"jobs2_efficiency": (steps["test_jobs1"][0] / (2 * steps["test_jobs2"][0]), "ratio"),
                       "bytes_per_status": ((work / "results1.jsonl").stat().st_size / count, "B")}
            for name, (wall, cpu, rss) in steps.items():
                metrics |= {f"{name}.wall_s": (wall, "s"), f"{name}.cpu_s": (cpu, "s"), f"{name}.peak_rss_mb": (rss, "MB")}
                if name.startswith("test"):
                    metrics[f"{name}.statuses_per_cpu_s"] = (count / cpu, "1/s")
            # Shaped like a bench/run.py result object; a failed step or check raises.
            pair[side] = {"correct": True, "attempted": len(steps), "failed": 0,
                          "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}}
            run = {name: sha256(work / name) for name in OUTPUTS}
            if sha256(work / "results2.jsonl") != run["results1.jsonl"]:
                raise RuntimeError(f"{side}: test --jobs 1 and --jobs 2 wrote different results.jsonl bytes")
            if digests.setdefault(side, run) != run:
                raise RuntimeError(f"{side}: seed {seed} wrote other bytes than seed {seeds[0]}: {run}")
            print(f"campaign seed {seed} {side}: test --jobs 1 wall_s {steps['test_jobs1'][0]:.3f}", file=sys.stderr)
        pairs.append(pair)
    better = {name: "higher" if m["unit"] in ("1/s", "ratio") else "lower"
              for name, m in pairs[0]["parent"]["metrics"].items()}
    return {
        "statuses": count,
        "status_set": f"gen --technique random --seed {seeds[0]} --count {count}",
        "steps": {name: " ".join(args) for name, args in CAMPAIGN_STEPS.items()},
        "same_bytes": {name: digests["parent"][name] == digests["change"][name] for name in OUTPUTS},
        "sha256": digests,
        **summarize(pairs, better),
    }


def cpu_per_wall(tree: Path, workload: str, seed: int) -> float | None:
    """The median CPU/wall of the ``test`` steps that bench/run.py recorded
    for its last run of workload and seed in tree (raw, not corrected), or
    None if the run recorded none."""
    record = json.loads((tree / ".bench_run" / "results" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="ascii"))
    ratios = [cpu / wall for steps in record.get("steps", []) for command, wall, cpu, _ in steps if command == "test"]
    return round(statistics.median(ratios), 4) if ratios else None


def machine_record(machine: dict) -> dict:
    """A run's machine record, less its workload and seed, with this
    process's ``sys.flags.dont_write_bytecode`` and ``OPENBLAS_NUM_THREADS``
    (None if unset), both of which the runs inherit. Set by
    PYTHONDONTWRITEBYTECODE, the flag means no import in them writes a
    ``__pycache__``: every process compiles each module whose cache is
    missing or stale, except those ``compileall`` writes before the steps
    (``bench/run.py`` and ``--campaign`` both run it)."""
    record = {k: v for k, v in machine.items() if k not in ("workload", "seed")}
    record["dont_write_bytecode"] = bool(sys.flags.dont_write_bytecode)
    record["openblas_num_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision; the change is HEAD")
    parser.add_argument("--seeds", required=True, help="inclusive seed range A-B, one pair per seed")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--campaign", type=int, metavar="N",
                        help="time test, report and registry on N gen random statuses, not the benchmark")
    args = parser.parse_args()
    # The file is written after the last pair: a path that cannot take it is refused first.
    if Path(args.out).is_dir() or not Path(args.out).parent.is_dir():
        parser.error(f"--out {args.out} is a directory or lies in a missing one")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    revs = {"parent": args.parent, "change": "HEAD"}
    machine = campaign_machine() if args.campaign is not None else {}

    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        hashes = {side: build_tree(revs[side], trees[side]) for side in SIDES}
        src_lines = {side: source_lines(trees[side]) for side in SIDES}
        summaries = {}
        for workload in (w["name"] for w in spec["workloads"] if args.campaign is None):
            pairs, placement = [], {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    pair[side], machine = run_bench(trees[side], workload, seed, seconds)
                    placement[side].append(cpu_per_wall(trees[side], workload, seed))
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall:.3f}", file=sys.stderr)
                pairs.append(pair)
            summaries[workload] = summarize(pairs, better, bounds)
            summaries[workload]["test_cpu_per_wall"] = {f"{side}_runs": placement[side] for side in SIDES}
        if args.campaign is not None:
            summaries = campaign(trees, args.campaign, seeds)

    machine = machine_record(machine)
    record = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "tool": f"python3 tools/bench_pairs.py --parent {args.parent} --seeds {args.seeds}",
        "parent": hashes["parent"],
        "change": hashes["change"],
        "src_trees": {side: source_tree(revs[side]) for side in SIDES},
        "src_lines": src_lines,
        "pairs_per_workload": len(seeds),
        "seeds": seeds,
        "order": "alternating: parent first in even pairs, change first in odd pairs",
        "metrics_note": f"each value is the median that bench/run.py reports for one run of {seconds:g} s, "
        "corrected for the host's speed; quartiles are over the runs of a side",
        "machine": machine,
        "versions": {k: machine[k] for k in ("python", "numpy", "scipy")},
        "workloads": summaries,
    }
    if args.campaign is not None:
        record["campaign"] = record.pop("workloads")
        record.update(command=CAMPAIGN_COMMAND, tool=f"{record['tool']} --campaign {args.campaign}",
                      metrics_note=CAMPAIGN_NOTE)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
