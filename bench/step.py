"""One CLI step of a benchmark pipeline, in a fresh interpreter.

    python bench/step.py --sidecar PATH [--spans PATH --run-id ID
        --process NAME] [--probe battery|layers --probe-arg X ...] -- ARGS...

Runs ``mtstreams.cli.main(ARGS)`` from the checkout's ``src`` and writes a
JSON sidecar with monotonic timestamps the parent lines up with its own.

For a ``test`` step, before handing the process to the CLI, call the
``stats.walks`` null-law functions for every RandomWalk1 step count of
``mini-crush-v1`` (the battery every workload uses), which is what
``run_campaign`` does first. The sidecar's ``setup_end_ns`` and
``setup_cpu_s`` mark the end of that fixed cost; the null laws are
cached, so the step's total work is unchanged.

``--spans``: install the tracer before the step and append its spans to
PATH at the end. ``--probe`` then runs layer probes after the CLI step,
under a ``probe`` root span so they stay apart from the pipeline's spans.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402  (bench/ is on sys.path as the script's directory)
import tracing  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--process", default="")
    parser.add_argument("--probe", choices=("battery", "layers"))
    parser.add_argument("--probe-arg", action="append", default=[])
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.probe and not args.spans:
        parser.error("--probe needs --spans")

    from mtstreams import cli
    from mtstreams.stats import walks
    from mtstreams.stats.battery import MINI_CRUSH_V1

    tracer = None
    side: dict = {"rc": 0}
    if args.spans:
        tracer = tracing.Tracer(args.run_id, args.process)
        side["missing_targets"] = tracer.install()
    if cli_args[:1] == ["test"]:
        for t in MINI_CRUSH_V1.tests:
            if t.family == "RandomWalk1":
                steps = int(t.params["steps"])
                walks.h_null(steps)
                walks.m_null(steps)
                walks.r_null(steps)
        side["setup_end_ns"] = time.monotonic_ns()
        side["setup_cpu_s"] = _cpu_s()
    if cli_args:
        with tracer.span(f"cli.{cli_args[0]}", "cli") if tracer else contextlib.nullcontext():
            side["rc"] = cli.main(cli_args)
        sys.stdout.flush()
    side["main_end_ns"] = time.monotonic_ns()
    if args.probe:
        with tracer.span("probe", "probe"):
            run = probes.battery_probes if args.probe == "battery" else probes.layer_probes
            side["probe"] = run(args.probe_arg)
    if tracer:
        tracer.dump(args.spans)
    Path(args.sidecar).write_text(json.dumps(side), encoding="ascii")
    return side["rc"]


if __name__ == "__main__":
    sys.exit(main())
