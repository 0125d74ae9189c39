"""Build the campaign tables and render them as markdown, CSV, or JSON.

Three tables mirror the full-scale reference report shapes: `summary`
(suspect counts per technique and mode), `histogram` (failed-test counts
over suspect statuses), and `pertest` (per-test failure frequency, sorted
descending). `build_tables` computes the rows of all three in one pass over
the (meta status, results) pairs of :func:`mtstreams.results.status_results`,
classifying each status once, and gives each row once per meta mode, since
a status's results stand for every mode; every format renders those same
rows, so the numbers agree across formats byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
from collections import Counter

from mtstreams.names import TABLES
from mtstreams.results import CampaignReport, classify_status, resolve_expected_ids, status_results


def build_tables(creport: CampaignReport, expected_fail_ids=None) -> dict[str, list[dict]]:
    """The summary, histogram and pertest rows, from one pass over the statuses.

    ``expected_fail_ids`` follows :func:`mtstreams.results.resolve_expected_ids`.
    Raises ValueError unless there is one result list per meta status.
    """
    expected_fail_ids = resolve_expected_ids(creport.meta["test_ids"], expected_fail_ids)
    modes = creport.meta["modes"]
    statuses: Counter = Counter()  # technique
    suspects: Counter = Counter()  # technique
    histogram: Counter = Counter()  # (technique, n_failed)
    fails: Counter = Counter()  # (test_id, technique)
    for s, results in status_results(creport):
        technique = s["technique"]
        statuses[technique] += 1
        if classify_status(results, expected_fail_ids) == "Suspect":
            suspects[technique] += 1
            histogram[technique, sum(t.failed for t in results)] += 1
        for t in results:
            fails[t.test_id, technique] += t.failed
    summary = [(technique, n, suspects[technique], suspects[technique] / n) for technique, n in statuses.items()]
    pertest = [(test_id, technique, fails[test_id, technique] / n)
               for test_id in creport.meta["test_ids"] for technique, n in statuses.items()]
    return {
        "summary": _per_mode("summary", summary, modes, lambda r: (r["technique"], r["mode"])),
        "histogram": _per_mode("histogram", [(*cell, count) for cell, count in histogram.items()], modes,
                               lambda r: (r["technique"], r["mode"], r["n_failed"])),
        "pertest": _per_mode("pertest", pertest, modes,
                             lambda r: (-r["fraction"], r["test_id"], r["technique"], r["mode"])),
    }


def _per_mode(name: str, rows: list[tuple], modes: list[str], key) -> list[dict]:
    """Table ``name``'s rows, each given as its values but the mode, once per
    meta mode, as dicts in header order, sorted by ``key``."""
    headers = _TABLE_HEADERS[name]
    at = headers.index("mode")
    return sorted((dict(zip(headers, (*row[:at], mode, *row[at:]))) for row in rows for mode in modes), key=key)


def _display(row: dict) -> dict:
    out = dict(row)
    if "fraction" in out:
        out["fraction"] = f"{100.0 * out['fraction']:.2f}%"
    return out


def _md_table(headers: list[str], rows: list[dict]) -> str:
    cells = [[str(_display(r)[h]) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h) for i, h in enumerate(headers)]
    def line(values: list[str]) -> str:
        return "| " + " | ".join(v.ljust(w) for v, w in zip(values, widths)) + " |"
    parts = [line(headers), line(["-" * w for w in widths])]
    parts.extend(line(c) for c in cells)
    return "\n".join(parts) + "\n"


def _csv_table(name: str, headers: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table"] + headers)
    for r in rows:
        disp = _display(r)
        writer.writerow([name] + [disp[h] for h in headers])
    return buf.getvalue()


_TABLE_HEADERS = {
    "summary": ["technique", "mode", "statuses", "suspects", "fraction"],
    "histogram": ["technique", "mode", "n_failed", "count"],
    "pertest": ["test_id", "technique", "mode", "fraction"],
}

_TABLE_TITLES = {
    "summary": "Suspect statuses per technique and mode",
    "histogram": "Failed-test histogram over suspect statuses",
    "pertest": "Per-test failure frequency (descending)",
}


def render_report(
    creport: CampaignReport,
    tables: list[str],
    fmt: str,
    expected_fail_ids=None,
) -> str:
    """Requested tables in one deterministic string ('md', 'csv', or 'json').

    ``tables`` names at least one table, each once: JSON keys a table by
    its name, so a table given twice could not render the same rows in
    every format.
    """
    unknown = [t for t in tables if t not in TABLES]
    if unknown:
        raise ValueError(f"unknown tables: {unknown}; choose from {TABLES}")
    if not tables:
        raise ValueError(f"no table given; choose from {TABLES}")
    if len(set(tables)) != len(tables):
        raise ValueError(f"a table is given twice: {list(tables)}")
    rows = build_tables(creport, expected_fail_ids)
    if fmt == "json":
        return json.dumps({name: rows[name] for name in tables}, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return "".join(_csv_table(name, _TABLE_HEADERS[name], rows[name]) for name in tables)
    if fmt == "md":
        parts = []
        for name in tables:
            parts.append(f"## {_TABLE_TITLES[name]}\n")
            parts.append(_md_table(_TABLE_HEADERS[name], rows[name]))
        return "\n".join(parts)
    raise ValueError(f"unknown format {fmt!r}; choose from md, csv, json")
