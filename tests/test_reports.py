"""Table rendering: one set of numbers across markdown, CSV, and JSON."""
import csv
import io
import json

import pytest

from mtstreams.reports import TABLES, build_tables, render_report
from mtstreams.results import CampaignReport, StatusReport, TestResult


def _creport():
    rows = [
        ("indexed", 0, {"a": "Pass", "b": "Pass"}),
        ("indexed", 1, {"a": "Fail", "b": "Pass"}),
        ("indexed", 2, {"a": "Fail", "b": "Fail"}),
        ("indexed", 3, {"a": "Pass", "b": "Fail"}),
        ("split", 0, {"a": "Pass", "b": "Pass"}),
        ("split", 1, {"a": "Fail", "b": "Fail"}),
    ]
    reports = [
        StatusReport(
            technique,
            index,
            [
                TestResult(tid, "", {"p": 0.5}, verdict, 1)
                for tid, verdict in sorted(outcome.items())
            ],
        )
        for technique, index, outcome in rows
    ]
    meta = {
        "type": "meta",
        "fingerprint": "f" * 64,
        "modes": ["int"],
        "test_ids": ["a", "b"],
        "statuses": [],
    }
    return CampaignReport(meta=meta, reports=reports)


EXPECTED = frozenset()


def test_summary_rows_values():
    rows = build_tables(_creport(), EXPECTED)["summary"]
    assert rows == [
        {"technique": "indexed", "mode": "int", "statuses": 4, "suspects": 3, "fraction": 0.75},
        {"technique": "split", "mode": "int", "statuses": 2, "suspects": 1, "fraction": 0.5},
    ]


def test_histogram_rows_values():
    rows = build_tables(_creport(), EXPECTED)["histogram"]
    assert rows == [
        {"technique": "indexed", "mode": "int", "n_failed": 1, "count": 2},
        {"technique": "indexed", "mode": "int", "n_failed": 2, "count": 1},
        {"technique": "split", "mode": "int", "n_failed": 2, "count": 1},
    ]


def test_pertest_rows_sorted_descending():
    rows = build_tables(_creport(), EXPECTED)["pertest"]
    assert rows[0] == {"test_id": "a", "technique": "indexed", "mode": "int", "fraction": 0.5}
    assert rows[1] == {"test_id": "a", "technique": "split", "mode": "int", "fraction": 0.5}
    assert rows[2] == {"test_id": "b", "technique": "indexed", "mode": "int", "fraction": 0.5}
    assert rows[3] == {"test_id": "b", "technique": "split", "mode": "int", "fraction": 0.5}
    fractions = [r["fraction"] for r in rows]
    assert fractions == sorted(fractions, reverse=True)


def test_all_formats_carry_the_same_numbers():
    creport = _creport()
    doc = json.loads(render_report(creport, list(TABLES), "json", EXPECTED))
    assert doc["summary"] == [
        {"technique": "indexed", "mode": "int", "statuses": 4, "suspects": 3, "fraction": 0.75},
        {"technique": "split", "mode": "int", "statuses": 2, "suspects": 1, "fraction": 0.5},
    ]

    text_csv = render_report(creport, list(TABLES), "csv", EXPECTED)
    reader = csv.reader(io.StringIO(text_csv))
    csv_rows = list(reader)
    summary_csv = [r for r in csv_rows if r and r[0] == "summary" ]
    assert summary_csv[0] == ["summary", "indexed", "int", "4", "3", "75.00%"]
    assert summary_csv[1] == ["summary", "split", "int", "2", "1", "50.00%"]
    hist_csv = [r for r in csv_rows if r and r[0] == "histogram"]
    assert hist_csv == [
        ["histogram", "indexed", "int", "1", "2"],
        ["histogram", "indexed", "int", "2", "1"],
        ["histogram", "split", "int", "2", "1"],
    ]

    text_md = render_report(creport, list(TABLES), "md", EXPECTED)
    assert "## Suspect statuses per technique and mode" in text_md
    md_lines = [l for l in text_md.splitlines() if l.startswith("|")]
    summary_md = [l for l in md_lines if "indexed" in l and "75.00%" in l]
    assert len(summary_md) == 1
    cells = [c.strip() for c in summary_md[0].strip("|").split("|")]
    assert cells == ["indexed", "int", "4", "3", "75.00%"]


def test_single_table_selection():
    text = render_report(_creport(), ["histogram"], "json", EXPECTED)
    doc = json.loads(text)
    assert set(doc) == {"histogram"}


def test_render_is_deterministic():
    a = render_report(_creport(), list(TABLES), "md", EXPECTED)
    b = render_report(_creport(), list(TABLES), "md", EXPECTED)
    assert a == b


def test_expected_fail_filter_applies():
    doc = json.loads(render_report(_creport(), ["summary"], "json", frozenset({"a"})))
    # With "a" expected, only failures of "b" make a unit Suspect.
    assert doc["summary"][0]["suspects"] == 2
    assert doc["summary"][1]["suspects"] == 1


def test_expected_ids_checked_once_per_render_whichever_tables(monkeypatch):
    import mtstreams.reports as reports

    calls = []
    real_check = reports.check_expected_ids

    def counting_check(creport, expected_fail_ids):
        calls.append(expected_fail_ids)
        return real_check(creport, expected_fail_ids)

    monkeypatch.setattr(reports, "check_expected_ids", counting_check)
    for tables in (list(TABLES), ["pertest"], ["histogram", "histogram"]):
        calls.clear()
        render_report(_creport(), tables, "md", EXPECTED)
        assert len(calls) == 1, tables
        with pytest.raises(ValueError, match="not in battery"):
            render_report(_creport(), tables, "md", frozenset({"zzz"}))


def test_unknown_table_or_format_raise():
    with pytest.raises(ValueError, match="unknown tables"):
        render_report(_creport(), ["bogus"], "json", EXPECTED)
    with pytest.raises(ValueError, match="unknown format"):
        render_report(_creport(), ["summary"], "yaml", EXPECTED)


def test_empty_campaign_renders_headers_only():
    creport = CampaignReport(
        meta={"type": "meta", "modes": [], "test_ids": [], "statuses": []}, reports=[]
    )
    text = render_report(creport, ["summary"], "md", EXPECTED)
    assert "technique" in text
    doc = json.loads(render_report(creport, ["summary"], "json", EXPECTED))
    assert doc["summary"] == []
