"""Time `write_results_jsonl` and `read_results_jsonl` at scale, with no battery run.

    python3 tools/results_io.py [--statuses 4096] [--seed 0]
    python3 tools/results_io.py --results FILE

By default it fabricates a `mini-crush-v1` report over N `random` statuses
in both modes: each test's p-values are seeded uniform draws under its
entry's sub-statistic names (`TestDefinition.statistics`), and the meta
record and every verdict come from `results.campaign_meta` and
`results.result_row`, as a campaign's would. With `--results` it times
the report that an existing results file holds instead. It then writes
the report 5 times and reads the written file 5 times, and prints one JSON
object: the median and every run of each, in seconds, with the file's
rows and bytes.

It imports the package from this checkout's `src`, unless PYTHONPATH names
another one first: `PYTHONPATH=OTHER/src python3 tools/results_io.py`
times that checkout, so two can be compared in alternating processes.
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def fabricated_report(statuses: int, seed: int, modes=("int", "real")):
    """A mini-crush-v1 CampaignReport over ``statuses`` random statuses,
    with seeded uniform p-values."""
    from mtstreams.results import CampaignReport, StatusReport, TestResult, campaign_meta, result_row
    from mtstreams.stats.battery import MINI_CRUSH_V1 as battery

    rng = random.Random(seed)
    eps = battery.threshold
    meta = campaign_meta(battery, eps, modes, [("random", i, f"{rng.getrandbits(256):064x}") for i in range(statuses)])
    reports = []
    for s in meta["statuses"]:
        results = []
        for t in battery.tests:
            p_values = {name: rng.random() for name in t.statistics}
            row = result_row(s["technique"], s["index"], modes[0], t, p_values, eps)
            results.append(TestResult(t, p_values, row["verdict"]))
        reports.append(StatusReport(s["technique"], s["index"], results))
    return CampaignReport(meta=meta, reports=reports)


def timed(fn) -> list[float]:
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--statuses", type=int, default=4096, help="statuses to fabricate (default 4096)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the fabricated p-values (default 0)")
    parser.add_argument("--results", type=Path, default=None, help="time the report of this results file instead")
    args = parser.parse_args()
    sys.path.append(str(ROOT / "src"))
    import mtstreams
    from mtstreams.results import read_results_jsonl, write_results_jsonl

    if args.results is None:
        creport = fabricated_report(args.statuses, args.seed)
        source = f"fabricated: {args.statuses} statuses, seed {args.seed}, modes int,real"
    else:
        creport = read_results_jsonl(args.results)
        source = str(args.results)
    with tempfile.TemporaryDirectory(prefix="results_io.") as tmp:
        path = Path(tmp) / "results.jsonl"
        write_runs = timed(lambda: write_results_jsonl(creport, path))
        read_runs = timed(lambda: read_results_jsonl(path))
        size, rows = path.stat().st_size, len(path.read_bytes().splitlines()) - 1
    print(json.dumps({
        "source": source,
        "package": str(Path(mtstreams.__file__).parent),
        "rows": rows,
        "bytes": size,
        "write_s": round(statistics.median(write_runs), 4),
        "read_s": round(statistics.median(read_runs), 4),
        "write_runs": [round(t, 4) for t in write_runs],
        "read_runs": [round(t, 4) for t in read_runs],
        "python": platform.python_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
