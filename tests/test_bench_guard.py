"""The benchmark's harness still runs against the package.

`bench/` calls package names directly: its tracer wraps functions by name
and its probes build campaigns and views. This runs `bench/step.py`, as
`bench/run.py` does, on a two-status campaign: the traced `test` step with
the battery probes, then the layer probes on its results. A rename or
signature change in `src/` that `bench/` depends on fails here, not first
in a benchmark run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from mtstreams.cli import main

STEP = Path(__file__).resolve().parents[1] / "bench" / "step.py"

# Tracer targets the package no longer has; each reads 0 in a traced run.
KNOWN_MISSING = {
    "mtstreams.stats.stream.StreamView.take_uniforms",
    "mtstreams.stats.stream.StreamView.take_word_bits",
    "mtstreams.stats.stream.StreamView.take_bits",
}


def _step(tmp_path, name, probe, probe_args, cli_args=()):
    sidecar = tmp_path / f"{name}.side.json"
    argv = [
        sys.executable, str(STEP),
        "--sidecar", str(sidecar),
        "--spans", str(tmp_path / f"{name}.spans"),
        "--run-id", "guard",
        "--process", name,
        "--probe", probe,
    ]
    argv += [a for arg in probe_args for a in ("--probe-arg", arg)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no bytecode under bench/
    proc = subprocess.run(
        [*argv, "--", *cli_args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(sidecar.read_text())


def test_bench_step_runs_the_battery_and_layer_probes(tmp_path, capsys):
    status_dir = tmp_path / "set"
    assert main(["gen", "--technique", "indexed", "--count", "2", "--seed", "0", "--out", str(status_dir)]) == 0
    capsys.readouterr()
    results = tmp_path / "results.jsonl"
    probe_statuses = [str(p) for p in sorted(status_dir.glob("*.mts"))]
    test_args = ["test", "--dir", str(status_dir), "--mode", "both", "--jobs", "1", "--out", str(results)]
    side = _step(tmp_path, "test", "battery", ["int,real", *probe_statuses], test_args)
    assert set(side["missing_targets"]) == KNOWN_MISSING
    assert side["probe"]["mode_identical_tests"] == 9
    layers = _step(tmp_path, "layers", "layers", [str(results)])
    assert set(layers["missing_targets"]) == KNOWN_MISSING
