"""End-to-end campaign benchmark for mtstreams.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every step is a real CLI call in a fresh
interpreter against the checkout's ``src`` (``python -m mtstreams.cli``),
and every output is checked against ``oracle.py``; see ``bench/README.md``
for the workloads, the metrics and what each layer metric should move.

``--trace 0`` repeats the workload's pipeline while another repetition
still fits in S seconds (at least once) and reports the medians of the
end-to-end metrics, corrected for the shared host's speed (``calibrate``).
``--trace 1`` runs the pipeline once untraced and once traced
(``step.py --spans``, ``test`` with ``--jobs 1``), runs the layer probes,
and reports the per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full records (machine, versions,
seed, per-step figures) and the span file go to ``.bench_run/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
# A run must end within 180 s; steps still running at this point are killed
# and counted as failed, leaving time for the checks and the report.
RUN_DEADLINE_S = 175.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "units_per_cpu_s": "1/s",
    "statuses_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed in the table but left out of the JSON result: each times a short
# window (gen steps of ~1 s, or the 7-13 s of units after set-up), and even
# corrected for the host's speed their ten-run spread came near the largest
# bound a gated metric may have, 0.25 (see README.md).
UNGATED = {"statuses_per_s", "units_per_s", "units_per_cpu_s"}
LAYERS = (
    "cli", "mt19937", "statusfile", "partition", "stats.walks", "stats.complexity",
    "stats.families", "stats.stream", "campaign", "reports",
)


@dataclass
class Step:
    command: str
    args: list[str]
    statuses: int = 0  # statuses a gen step generates and writes
    units: int = 0  # (status, mode) units a test step runs


@dataclass
class Plan:
    """A workload's CLI steps plus what its outputs must be."""

    steps: list[Step]
    technique: str
    seed: int  # the gen --seed
    count: int  # statuses per generated set
    tested: list[int]  # indices the test step runs
    modes: list[str]
    # Statuses for the battery probes: two (status, mode) units, the fewest
    # that run_campaign sends through its pool.
    probe_statuses: list[str] = field(default_factory=list)


# --- workloads ----------------------------------------------------------------
# walkthrough: the README campaign (gen, test --mode both --jobs 2, report,
#   registry, then regenerate and verify). Exercises the pool, both modes,
#   every test family and the campaign layer. 12 statuses is what the run
#   budget affords while the null laws cost ~40 s in every test process.
# spot-check: a 512-status `gen random` set (mti = 624, twist-first), 16 of
#   its statuses tested with --mode int --jobs 1, reported and registered,
#   then the set regenerated and verified. Set-up dominates the test step;
#   the pool and the int/real duplication are bypassed.
# In both, the two gen steps sit at either end of the test step, so that
# statuses_per_s samples the machine at two times ~45 s apart.


def plan_walkthrough(seed: int, d: Path) -> Plan:
    rng = random.Random(f"walkthrough:{seed}")
    count = 12
    base = rng.randrange(2**32 - count)
    s1, s2, res = d / "statuses", d / "statuses2", d / "results.jsonl"
    gen = ["gen", "--technique", "indexed", "--count", str(count), "--seed", str(base)]
    steps = [
        Step("gen", gen + ["--out", str(s1)], statuses=count),
        Step("test", ["test", "--dir", str(s1), "--mode", "both", "--jobs", "2", "--out", str(res)], units=2 * count),
        Step("report", ["report", "--results", str(res), "--format", "md"]),
        Step("registry", ["registry", "--results", str(res), "--out", str(d / "registry.txt")]),
        Step("gen", gen + ["--out", str(s2)], statuses=count),
        Step("verify", ["verify", "--dir", str(s1), "--dir", str(s2)]),
    ]
    probe = [str(s1 / oracle.status_name("indexed", 0))]
    return Plan(steps, "indexed", base, count, list(range(count)), ["int", "real"], probe)


def plan_spot_check(seed: int, d: Path) -> Plan:
    rng = random.Random(f"spot-check:{seed}")
    count = 512
    master = rng.randrange(2**32)
    picks = sorted(rng.sample(range(count), 16))
    s1, s2, res = d / "statuses", d / "statuses2", d / "results.jsonl"
    gen = ["gen", "--technique", "random", "--count", str(count), "--seed", str(master)]
    files = [str(s1 / oracle.status_name("random", i)) for i in picks]
    status_args = [a for f in files for a in ("--status", f)]
    steps = [
        Step("gen", gen + ["--out", str(s1)], statuses=count),
        Step("test", ["test", *status_args, "--mode", "int", "--jobs", "1", "--out", str(res)], units=len(picks)),
        Step("report", ["report", "--results", str(res), "--format", "md"]),
        Step("registry", ["registry", "--results", str(res), "--out", str(d / "registry.txt")]),
        Step("gen", gen + ["--out", str(s2)], statuses=count),
        Step("verify", ["verify", "--dir", str(s1), "--dir", str(s2)]),
    ]
    return Plan(steps, "random", master, count, picks, ["int"], files[:2])


WORKLOADS = {"walkthrough": plan_walkthrough, "spot-check": plan_spot_check}


# --- running steps ------------------------------------------------------------


@dataclass
class StepResult:
    step: Step
    rc: int
    t0_ns: int
    wall_s: float
    cpu_s: float  # the process plus every descendant it reaped (pool workers)
    maxrss_mb: float
    stdout: bytes
    side: dict


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_step(step: Step, tag: str, d: Path, deadline: float, trace: dict | None = None) -> StepResult:
    """Run one CLI step and account for it with os.wait4.

    wait4 returns the child's own rusage merged with that of every
    descendant it waited for, so CPU includes reaped pool workers and
    ru_maxrss is the largest peak of any process in the step.
    """
    sidecar = d / f"{tag}.side.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if trace is None and step.command != "test":
        cmd = [sys.executable, "-m", "mtstreams.cli", *step.args]
    else:
        cmd = [sys.executable, str(BENCH / "step.py"), "--sidecar", str(sidecar)]
        if trace is not None:
            cmd += ["--spans", trace["spans"], "--run-id", trace["run_id"], "--process", tag]
            cmd += trace.get("extra", [])
        cmd += ["--", *step.args]
    out_path = d / f"{tag}.out"
    with open(out_path, "wb") as out, open(d / f"{tag}.err", "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    side = json.loads(sidecar.read_text(encoding="ascii")) if sidecar.exists() else {}
    return StepResult(
        step=step,
        rc=proc.returncode,
        t0_ns=t0,
        wall_s=(t1 - t0) / 1e9,
        cpu_s=ru.ru_utime + ru.ru_stime,
        maxrss_mb=ru.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        side=side,
    )


# --- host speed ---------------------------------------------------------------
# The benchmark's CPUs are shared, and their speed drifts by tens of percent
# over minutes, which no program change causes. Before each step and after
# the last, while no process of the program runs, the runner times a fixed
# reference workload: sweeps of the random-walk DP that the null laws run,
# on arrays of the size m_null(1024) uses. The end-to-end timings are divided
# by the run's slowdown (``host_slowdown``), so they read as seconds on the
# reference host at its usual speed. The reference workload is the
# benchmark's own code, so a change to the program still moves the corrected
# figures one for one.
CALIBRATION_REF_S = 0.34
_CAL_SHAPE = (1025, 2049)
_CAL_SWEEPS = 14


def calibrate() -> float:
    """Seconds for one pass of the reference workload; the first sweep,
    which maps the arrays' pages, is not timed."""
    a, b = np.zeros(_CAL_SHAPE), np.zeros(_CAL_SHAPE)
    a[0, _CAL_SHAPE[1] // 2] = 1.0
    for sweep in range(_CAL_SWEEPS + 1):
        if sweep == 1:
            t0 = time.perf_counter()
        b[:] = 0.0
        b[:, :-1] += 0.5 * a[:, 1:]
        b[:, 1:] += 0.5 * a[:, :-1]
        a, b = b, a
    return time.perf_counter() - t0


def host_slowdown(results: list[StepResult], cal: list[float]) -> float:
    """How much slower the host ran than the reference host.

    The ``test`` step is most of the pipeline, and the speed drifts within
    it, so the samples taken before it and those taken after it weigh
    alike: the mean of the two sides' medians, over CALIBRATION_REF_S, the
    samples' usual median on the reference host (see README.md).
    """
    i = [r.step.command for r in results].index("test")
    return (statistics.median(cal[: i + 1]) + statistics.median(cal[i + 1 :])) / 2 / CALIBRATION_REF_S


# --- correctness --------------------------------------------------------------


class Tally:
    """Operations attempted and failed: CLI steps and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_outputs(workload: str, plan: Plan, results: list[StepResult], tally: Tally) -> None:
    for r in results:
        tally.check(r.rc == 0, f"{r.step.command} exited {r.rc}")
    if any(r.rc != 0 for r in results):
        return
    make_set = oracle.indexed_set if plan.technique == "indexed" else oracle.random_set
    statuses = make_set(plan.seed, plan.count)
    fingerprint = oracle.manifest_fingerprint(plan.technique, plan.seed, statuses)
    for r in results:
        if r.step.command == "gen":
            tally.check(f"fingerprint {fingerprint}\n".encode() in r.stdout, "gen fingerprint")
        elif r.step.command == "report":
            tally.check(_sha(r.stdout) == oracle.FROZEN["report_md_sha256"][workload], "report bytes")
    test = next(r.step for r in results if r.step.command == "test")
    lines = Path(test.args[test.args.index("--out") + 1]).read_text(encoding="ascii").splitlines()
    meta, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    projection = [(x["technique"], x["index"], x["mode"], x["test_id"], x["verdict"], x["draws"]) for x in rows]
    tally.check(
        projection == oracle.result_projection(plan.technique, plan.tested, plan.modes)
        and meta["fingerprint"] == oracle.FROZEN["campaign_fingerprint"][",".join(plan.modes)],
        "results projection",
    )
    registry = next(r.step for r in results if r.step.command == "registry")
    text_path = Path(registry.args[registry.args.index("--out") + 1])
    entries = [(plan.technique, i, _sha(statuses[i])) for i in plan.tested]
    doc = json.loads(text_path.with_suffix(".json").read_text(encoding="ascii"))
    tally.check(
        text_path.read_bytes() == oracle.registry_text(plan.modes, entries)
        and [(e["technique"], e["index"], e["sha256"]) for e in doc["entries"]] == entries,
        "registry bytes",
    )


# --- metrics ------------------------------------------------------------------


def end_to_end(results: list[StepResult], slowdown: float = 1.0) -> dict[str, float]:
    """The pipeline's end-to-end metrics. ``slowdown`` is how much slower
    the host ran than the reference host (see ``calibrate``): times are
    divided by it and rates multiplied by it; 1.0 gives the raw figures."""
    test = next(r for r in results if r.step.command == "test")
    gens = [r for r in results if r.step.command == "gen"]
    setup_s = (test.side["setup_end_ns"] - test.t0_ns) / 1e9
    return {
        "wall_s": sum(r.wall_s for r in results) / slowdown,
        "setup_s": setup_s / slowdown,
        "units_per_s": slowdown * test.step.units / (test.wall_s - setup_s),
        "units_per_cpu_s": slowdown * test.step.units / (test.cpu_s - test.side["setup_cpu_s"]),
        "statuses_per_s": slowdown * sum(r.step.statuses for r in gens) / sum(r.wall_s for r in gens),
        "peak_rss_mb": max(r.maxrss_mb for r in results),
    }


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when nothing was recorded."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when a traced function left no spans to divide by."""
    return num / den if den else 0.0


def _cli_s(r: StepResult) -> float:
    """A step's wall time up to its CLI return, less a test step's set-up."""
    if r.step.command == "test":
        return (r.side["main_end_ns"] - r.side["setup_end_ns"]) / 1e9
    if "main_end_ns" in r.side:
        return (r.side["main_end_ns"] - r.t0_ns) / 1e9
    return r.wall_s


def per_layer(spans: list[dict], plan: Plan, untraced: list[StepResult], traced: list[StepResult], probe: dict) -> dict:
    by_id = {(s["process"], s["id"]): s for s in spans}

    def root(s: dict) -> dict:
        while s["parent"] is not None:
            s = by_id[s["process"], s["parent"]]
        return s

    selfs = tracing.self_times(spans)
    in_probe = [root(s)["name"] == "probe" for s in spans]
    pipe = [s for s, p in zip(spans, in_probe) if not p]
    probed = [s for s, p in zip(spans, in_probe) if p]

    def durs(sel, name, **attrs):
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in sel
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def med(sel, name, **attrs):
        return _quantile(durs(sel, name, **attrs), 0.5)

    m: dict[str, tuple[float, str]] = {}
    m["mt19937.init_genrand_us"] = (med(probed, "mt19937.init_genrand") * 1e6, "us")
    m["mt19937.twist_us"] = (med(probed, "mt19937.twist") * 1e6, "us")
    takes = [s for s in pipe if s["name"] == "mt19937.MtStream.take" and s["process"].endswith("-test")]
    words = sum(s["attrs"]["words"] for s in takes)
    m["mt19937.take_ns_per_word"] = (_ratio(sum(s["end_ns"] - s["start_ns"] for s in takes), words), "ns")
    m["mt19937.advance_s_per_1e7"] = (med(probed, "mt19937.advance", n=10**7), "s")
    for name in ("serialize", "parse", "save", "load"):
        m[f"statusfile.{name}_us"] = (med(pipe, f"statusfile.{name}_status") * 1e6, "us")
    m["statusfile.verify_s"] = (sum(durs(pipe, "statusfile.verify_sets")), "s")
    status_dir = Path(untraced[0].step.args[untraced[0].step.args.index("--out") + 1])
    sizes = [p.stat().st_size for p in status_dir.glob("*.mts")]
    m["statusfile.bytes_per_status"] = (_ratio(sum(sizes), len(sizes)), "count")
    for technique, fn in (("indexed", "generate_indexed"), ("random", "generate_random_spacing"),
                          ("split", "generate_sequence_splitting")):
        m[f"partition.generate_s.{technique}"] = (sum(durs(probed, f"partition.{fn}")), "s")
    m["partition.write_s"] = (med(pipe, "partition.write_status_set"), "s")
    for steps in (128, 1024):
        # The first call per law computes it; later calls hit the cache.
        m[f"stats.walks.null_s.{steps}"] = (
            sum(max(durs(pipe, f"stats.walks.{law}_null", steps=steps), default=0.0) for law in "hmr"), "s"
        )
    m["stats.walks.walk_statistics_s.1024"] = (med(pipe, "stats.walks.walk_statistics", steps=1024), "s")
    m["stats.complexity.berlekamp_massey_s"] = (med(pipe, "stats.complexity.berlekamp_massey"), "s")
    for test_id, draws in sorted(probe["draws"].items()):
        for mode in ("int", "real"):
            m[f"stats.families.{test_id}.{mode}_s"] = (med(spans, "stats.families.run_test", test=test_id, mode=mode), "s")
        m[f"stats.families.{test_id}.draws"] = (draws, "count")
    unit_s = durs(pipe, "campaign.run_battery_on_status")
    words_per_unit = _ratio(words, len(unit_s))
    m["stats.stream.words_generated_per_unit"] = (words_per_unit, "count")
    m["stats.stream.useful_word_ratio"] = (
        _ratio(max(probe["draws"].values(), default=0), words_per_unit * len(plan.modes)), "ratio"
    )
    m["stats.stream.mode_identical_tests"] = (probe["mode_identical_tests"], "count")
    m["campaign.load_entries_s"] = (sum(durs(pipe, "campaign.load_status_entries")), "s")
    m["campaign.unit_s.p50"] = (_quantile(unit_s, 0.5), "s")
    m["campaign.unit_s.p90"] = (_quantile(unit_s, 0.9), "s")
    run1 = sum(durs(probed, "campaign.run_campaign", jobs=1))
    run2 = sum(durs(probed, "campaign.run_campaign", jobs=2))
    m["campaign.run_s.jobs1"] = (run1, "s")
    m["campaign.run_s.jobs2"] = (run2, "s")
    m["campaign.jobs_efficiency"] = (_ratio(run1, 2 * run2), "ratio")
    # Pool units run in workers, whose spans are not kept; the jobs-1 probe
    # ran the same units in this process.
    m["campaign.pool_wait_s"] = (2 * run2 - sum(durs(probed, "campaign.run_battery_on_status")), "s")
    m["campaign.write_results_s"] = (sum(durs(pipe, "campaign.write_results_jsonl")), "s")
    m["campaign.read_results_s"] = (med(pipe, "campaign.read_results_jsonl"), "s")
    m["campaign.registry_s"] = (sum(durs(pipe, "campaign.build_registry")) + sum(durs(pipe, "campaign.write_registry")), "s")
    for fmt in ("md", "csv", "json"):
        m[f"reports.render_s.{fmt}"] = (med(probed, "reports.render_report", format=fmt), "s")
    for command in ("gen", "test", "report", "registry", "verify"):
        m[f"cli.{command}_s"] = (sum(r.wall_s for r in untraced if r.step.command == command), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(t for s, t, p in zip(spans, selfs, in_probe) if not p and s["layer"] == layer), "s")
    # A traced step ends for this purpose when its CLI call returns: the
    # probes and the span dump that follow are not part of the pipeline.
    # Both sides leave out the test step's set-up, whose drift between the
    # two runs would swamp the tracer's cost.
    m["trace.overhead_s"] = (sum(map(_cli_s, traced)) - sum(map(_cli_s, untraced)), "s")
    m["trace.spans"] = (len(spans), "count")
    return m


# --- main ---------------------------------------------------------------------


def machine_record(workload: str, seed: int) -> dict:
    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "limits": "status files are written to and read from the page cache; caches are not dropped "
        "between runs; the CPU may be shared with other tenants",
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_pipeline(
    plan: Plan, d: Path, deadline: float, trace: dict | None = None, cal: list | None = None
) -> list[StepResult]:
    """Run the plan's steps in order; with ``cal``, time the reference
    workload before each step and after the last, appending to ``cal``."""
    results = []
    for i, step in enumerate(plan.steps):
        if cal is not None:
            cal.append(calibrate())
        tag = f"{i}-{step.command}"
        step_trace = None
        if trace is not None:
            step_trace = dict(trace)
            if step.command == "test":
                args = list(step.args)
                args[args.index("--jobs") + 1] = "1"
                step = Step(step.command, args, step.statuses, step.units)
                step_trace["extra"] = ["--probe", "battery", "--probe-arg", ",".join(plan.modes)]
                step_trace["extra"] += [a for f in plan.probe_statuses for a in ("--probe-arg", f)]
        results.append(run_step(step, tag, d, deadline, step_trace))
    if cal is not None:
        cal.append(calibrate())
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mtstreams" / "cli.py").is_file():
        print(f"error: no mtstreams sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=ROOT, check=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    record: dict = {"machine": machine_record(args.workload, args.seed), "trace": args.trace}
    make_plan = WORKLOADS[args.workload]

    def iteration(d: Path, trace: dict | None = None, cal: list | None = None):
        plan = make_plan(args.seed, fresh_dir(d))
        results = run_pipeline(plan, d, deadline, trace, cal)
        check_outputs(args.workload, plan, results, tally)
        return plan, results

    metrics: dict[str, float] = {}
    if args.trace == 0:
        per_iter: list[dict] = []
        while True:
            t0 = time.monotonic()
            cal: list = []
            _, results = iteration(WORK / "work", cal=cal)
            record.setdefault("calibration", []).append(cal)
            if any(r.rc != 0 for r in results):
                break
            slowdown = host_slowdown(results, cal)
            per_iter.append(end_to_end(results, slowdown))
            record.setdefault("raw", []).append(end_to_end(results))
            record.setdefault("slowdown", []).append(slowdown)
            record.setdefault("steps", []).append([(r.step.command, r.wall_s, r.cpu_s, r.maxrss_mb) for r in results])
            now = time.monotonic()
            if now - start + (now - t0) > args.seconds:
                break
        if per_iter:
            metrics = {k: statistics.median(it[k] for it in per_iter) for k in END_TO_END}
        record["iterations"] = per_iter
        units = END_TO_END
    else:
        spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.unlink(missing_ok=True)
        trace = {"spans": str(spans_path), "run_id": f"{args.workload}-seed{args.seed}"}
        plan, untraced = iteration(WORK / "work")
        _, traced = iteration(WORK / "traced", trace)
        res_plain = Path(plan.steps[[s.command for s in plan.steps].index("test")].args[-1])
        res_traced = WORK / "traced" / res_plain.name
        tally.check(
            res_plain.is_file() and res_plain.read_bytes() == res_traced.read_bytes(),
            "results.jsonl identical between --jobs 1 (traced) and the untraced run",
        )
        if not tally.failures:
            probe_step = Step("probe", [])
            trace["extra"] = ["--probe", "layers", "--probe-arg", str(res_plain)]
            layer = run_step(probe_step, "9-probe", WORK / "traced", deadline, trace)
            tally.check(layer.rc == 0, "layer probes")
            test_side = next(r.side for r in traced if r.step.command == "test")
            record["missing_targets"] = sorted({t for r in traced + [layer] for t in r.side.get("missing_targets", [])})
            metrics = per_layer(tracing.load_spans(spans_path), plan, untraced, traced, test_side["probe"])
            record["untraced_e2e"] = end_to_end(untraced)
            record["spans"] = str(spans_path.relative_to(ROOT))
        units = {k: unit for k, (_, unit) in metrics.items()}
        metrics = {k: value for k, (value, _) in metrics.items()}

    correct = not tally.failures
    failed = len(tally.failures)
    record.update(correct=correct, attempted=tally.attempted, failures=tally.failures, metrics=metrics)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="ascii"
    )
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {time.monotonic() - start:.1f} s")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    for raw, slowdown in zip(record.get("raw", []), record.get("slowdown", [])):
        print(f"# host slowdown {slowdown:.4f}; raw wall_s {raw['wall_s']:.3f}, setup_s {raw['setup_s']:.3f}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':45s} {failed / max(1, tally.attempted):14.6g} ratio ({failed} of {tally.attempted} operations failed)")
    for target in record.get("missing_targets", []):
        print(f"# not traced, its metrics read 0: {target}")
    for what in tally.failures:
        print(f"# FAILED: {what}")
    out = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k not in UNGATED},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
