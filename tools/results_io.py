"""Time `write_results_jsonl` and `read_results_jsonl` at scale, with no battery run.

    python3 tools/results_io.py [--statuses 4096] [--seed 0]
    python3 tools/results_io.py --results FILE

By default it fabricates a `mini-crush-v1` results file over N `random`
statuses in both modes: the meta record comes from `results.campaign_meta`,
and each row is printed as text in the row format that
`tests/test_digest.py` freezes, with seeded uniform p-values under the
family's sub-statistic names and the two-sided verdict at the meta's
threshold. The reader refuses any file that is not the writer's bytes, so
`tests/test_results_io.py` checks that a fabricated file rewrites to
itself. With `--results` it times an existing results file instead. It
reads the file 5 times, writes the report that the reading returns 5 times,
and prints one JSON object: the median and every run of each, in seconds,
with the file's rows and bytes.

It imports the package from this checkout's `src`, unless PYTHONPATH names
another one first: `PYTHONPATH=OTHER/src python3 tools/results_io.py`
times that checkout, so two can be compared in alternating processes. It
uses no more of the package than `campaign_meta`, `MINI_CRUSH_V1` and the
reader and writer, so it runs against every checkout that has
`campaign_meta`.
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
# The p-value names of each family, in order, as the frozen row format holds them.
STATISTICS = {
    "LinearComp": ("saturation",),
    "CollisionOver": ("collisions",),
    "ClosePairs": ("min_distance",),
    "RandomWalk1": ("H", "M", "R"),
    "SerialUniformity": ("chi2",),
}


def fabricated_results(path: Path, statuses: int, seed: int, modes=("int", "real")) -> None:
    """Write a mini-crush-v1 results file over ``statuses`` random statuses,
    with seeded uniform p-values."""
    from mtstreams.results import campaign_meta
    from mtstreams.stats.battery import MINI_CRUSH_V1 as battery

    rng = random.Random(seed)
    eps = battery.threshold
    meta = campaign_meta(battery, eps, modes, [("random", i, f"{rng.getrandbits(256):064x}") for i in range(statuses)])
    tests = sorted(battery.tests, key=lambda t: t.id)
    lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    for s in meta["statuses"]:
        technique, index = s["technique"], s["index"]
        p_values = [[rng.random() for _ in STATISTICS[t.family]] for t in tests]
        for mode in meta["modes"]:
            for t, ps in zip(tests, p_values):
                pv = ",".join(f'"{name}":{p:.17g}' for name, p in zip(STATISTICS[t.family], ps))
                verdict = "Fail" if any(p < eps or p > 1.0 - eps for p in ps) else "Pass"
                lines.append(
                    f'{{"type":"result","technique":"{technique}","index":{index},"mode":"{mode}",'
                    f'"test_id":"{t.id}","p_values":{{{pv}}},"verdict":"{verdict}","draws":{t.draws}}}'
                )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


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

    with tempfile.TemporaryDirectory(prefix="results_io.") as tmp:
        if args.results is None:
            source = Path(tmp) / "fabricated.jsonl"
            fabricated_results(source, args.statuses, args.seed)
            label = f"fabricated: {args.statuses} statuses, seed {args.seed}, modes int,real"
        else:
            source, label = args.results, str(args.results)
        path = Path(tmp) / "results.jsonl"
        read_runs = timed(lambda: read_results_jsonl(source))
        creport = read_results_jsonl(source)
        write_runs = timed(lambda: write_results_jsonl(creport, path))
        size, rows = path.stat().st_size, len(path.read_bytes().splitlines()) - 1
    print(json.dumps({
        "source": label,
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
