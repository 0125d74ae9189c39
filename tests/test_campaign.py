"""Campaign orchestration: determinism, aggregation, registry, JSONL."""
import json
import threading

import numpy as np
import pytest

import mtstreams.campaign as campaign
import mtstreams.stats.stream as stream
from mtstreams.campaign import (
    CampaignConfig,
    StatusEntry,
    campaign_fingerprint,
    load_status_entries,
    parse_status_filename,
    run_campaign,
    status_words,
)
from mtstreams.mt19937 import MtStream, init_genrand
from mtstreams.partition import (
    Technique,
    generate_indexed,
    generate_sequence_splitting,
    status_filename,
    write_status_set,
)
from mtstreams.reports import build_tables
from mtstreams.results import (
    CampaignReport,
    StatusReport,
    TestResult,
    build_registry,
    check_expected_ids,
    classify_status,
    read_results_jsonl,
    write_registry,
    write_results_jsonl,
)
from mtstreams.stats.battery import Battery, TestDefinition, battery_sha256
from mtstreams.stats.families import run_test
from mtstreams.stats.stream import StreamView
from mtstreams.statusfile import StatusFormatError

from support import HalfWriteThenFail, damaged_results, recompute_tables_from_jsonl

FAST = Battery(
    name="fast-unit",
    threshold=1e-10,
    tests=(
        TestDefinition("serial.s", "SerialUniformity", {"n": 20480, "cells": 16}),
        TestDefinition("collisionover.c", "CollisionOver", {"n": 1024, "d": 64, "t": 2}),
        TestDefinition("closepairs.c", "ClosePairs", {"n": 256, "t": 2}),
    ),
)

SATURATING = Battery(
    name="saturating-unit",
    threshold=1e-10,
    tests=(TestDefinition("linearcomp.r0", "LinearComp", {"n_bits": 50000, "bit_offset": 0}),),
)


def _entries(count=3, technique="indexed"):
    return [
        StatusEntry(technique, i, init_genrand(i), f"{i:064x}") for i in range(count)
    ]


def _summary(tables):
    """{(technique, mode): (suspects, statuses, fraction)}, the oracle's shape."""
    return {
        (r["technique"], r["mode"]): (r["suspects"], r["statuses"], r["fraction"])
        for r in tables["summary"]
    }


def _histogram(tables):
    """{(technique, mode): {n_failed: count}}, the oracle's shape."""
    out: dict = {}
    for r in tables["histogram"]:
        out.setdefault((r["technique"], r["mode"]), {})[r["n_failed"]] = r["count"]
    return out


def _pertest(tables):
    """{(test_id, technique, mode): fraction}, the oracle's shape."""
    return {(r["test_id"], r["technique"], r["mode"]): r["fraction"] for r in tables["pertest"]}


def _fabricated(rows):
    """CampaignReport from (technique, index, mode, {test_id: verdict}) rows."""
    test_ids = sorted({tid for *_ , outcome in rows for tid in outcome})
    reports = [
        StatusReport(
            technique,
            index,
            mode,
            [
                TestResult(tid, "", {"p": 0.5}, verdict, 1)
                for tid, verdict in sorted(outcome.items())
            ],
        )
        for technique, index, mode, outcome in rows
    ]
    meta = {
        "type": "meta",
        "fingerprint": "f" * 64,
        "modes": sorted({r.mode for r in reports}),
        "test_ids": test_ids,
        "statuses": [
            {"technique": t, "index": i, "sha256": "0" * 64}
            for t, i in sorted({(r.technique, r.index) for r in reports})
        ],
    }
    return CampaignReport(meta=meta, reports=reports)


def test_run_campaign_meta_and_ordering():
    entries = _entries(2)
    report = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int", "real")))
    assert report.meta["battery"] == "fast-unit"
    assert report.meta["battery_sha256"] == battery_sha256(FAST)
    assert report.meta["threshold"] == 1e-10
    assert report.meta["fingerprint"] == campaign_fingerprint(FAST, 1e-10, ("int", "real"))
    assert report.meta["test_ids"] == ["serial.s", "collisionover.c", "closepairs.c"]
    assert [(r.technique, r.index, r.mode) for r in report.reports] == [
        ("indexed", 0, "int"),
        ("indexed", 0, "real"),
        ("indexed", 1, "int"),
        ("indexed", 1, "real"),
    ]
    for r in report.reports:
        assert [t.test_id for t in r.results] == list(FAST.test_ids)


def test_threshold_override_changes_eps_and_fingerprint(tmp_path):
    config = CampaignConfig(battery=FAST, modes=("int",), threshold=1e-6)
    assert config.eps == 1e-6
    report = run_campaign(_entries(1), config)
    assert report.meta["threshold"] == 1e-6
    assert report.meta["fingerprint"] == campaign_fingerprint(FAST, 1e-6, ("int",))
    assert report.meta["fingerprint"] != campaign_fingerprint(FAST, 1e-10, ("int",))
    # The reader checks verdicts at the file's threshold, not the battery's.
    report = run_campaign(_entries(1), CampaignConfig(battery=FAST, modes=("int",), threshold=0.5))
    path = tmp_path / "half.jsonl"
    write_results_jsonl(report, path)
    assert read_results_jsonl(path).reports[0].n_failed == len(FAST.tests)


def test_config_validation():
    with pytest.raises(ValueError, match="modes"):
        CampaignConfig(battery=FAST, modes=("int", "bogus"))
    with pytest.raises(ValueError, match="duplicate"):
        CampaignConfig(battery=FAST, modes=("int", "int"))
    with pytest.raises(ValueError, match="jobs"):
        CampaignConfig(battery=FAST, jobs=0)


def test_worker_count_does_not_change_output_bytes(tmp_path):
    entries = _entries(3)
    blobs = []
    for jobs in (1, 2, 1, 2):
        report = run_campaign(
            entries, CampaignConfig(battery=FAST, modes=("int", "real"), jobs=jobs)
        )
        path = tmp_path / f"r{len(blobs)}.jsonl"
        write_results_jsonl(report, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


def test_family_dependencies_are_imported_once_before_the_pool_forks(monkeypatch):
    calls = []
    monkeypatch.setattr(campaign, "import_family_dependencies", lambda: calls.append("import"))
    run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int",), jobs=2))
    assert calls == ["import"]
    run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int",), jobs=1))
    assert calls == ["import"]  # no pool, nothing to share


def test_pool_has_no_more_workers_than_statuses(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            return [fn(*x) for x in items]

    class NoFork:
        Pool = SerialPool

    monkeypatch.setattr(campaign, "get_context", lambda method: NoFork)
    entries = _entries(3)
    serial = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int",)))
    for jobs in (2, 3, 64):
        report = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int",), jobs=jobs))
        assert report == serial
    assert sizes == [2, 3, 3]


def test_concurrent_campaigns_do_not_share_inputs():
    config = CampaignConfig(battery=FAST, modes=("int",))
    others = [StatusEntry("random", i, init_genrand(100 + i), f"{i:064x}") for i in range(4)]
    sets = [_entries(4), others]
    lone = [run_campaign(entries, config) for entries in sets]
    start = threading.Barrier(len(sets))
    got = [None] * len(sets)

    def run(i):
        start.wait()
        got[i] = run_campaign(sets[i], config)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sets))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == lone


def test_one_pass_per_status_matches_a_fresh_stream_per_test_and_mode():
    entries = _entries(2)
    creport = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int", "real")))
    assert len(creport.reports) == 4
    for report in creport.reports:
        state = entries[report.index].state
        for definition, result in zip(FAST.tests, report.results):
            fresh = run_test(definition, StreamView(state, report.mode), FAST.threshold)
            assert (result.test_id, result.p_values, result.draws) == (fresh.test_id, fresh.p_values, fresh.draws)


def test_status_words_are_the_longest_prefix_and_read_only():
    state = init_genrand(5)
    words = status_words(state, FAST)
    assert words.size == 20480  # serial.s reads the most
    assert np.array_equal(words, MtStream(state).take(20480))
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0


def test_campaign_raises_on_a_read_past_the_shared_prefix(monkeypatch):
    short = lambda family, params: stream.analytic_draws(family, params) - 1  # noqa: E731
    monkeypatch.setattr(campaign, "analytic_draws", short)
    with pytest.raises(IndexError, match="passes the end"):
        run_campaign(_entries(1), CampaignConfig(battery=FAST, modes=("int",)))


def test_results_jsonl_roundtrip(tmp_path):
    report = run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int",)))
    path = tmp_path / "results.jsonl"
    write_results_jsonl(report, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"
    assert len(lines) == 1 + 2 * len(FAST.tests)
    back = read_results_jsonl(path)
    assert back.meta == report.meta
    assert len(back.reports) == len(report.reports)
    for ours, theirs in zip(report.reports, back.reports):
        assert (ours.technique, ours.index, ours.mode) == (
            theirs.technique,
            theirs.index,
            theirs.mode,
        )
        ours_map = {t.test_id: t for t in ours.results}
        for t in theirs.results:
            assert t.p_values == ours_map[t.test_id].p_values
            assert t.verdict == ours_map[t.test_id].verdict
            assert t.draws == ours_map[t.test_id].draws


def test_pvalues_survive_text_roundtrip_exactly(tmp_path):
    report = run_campaign(_entries(3), CampaignConfig(battery=FAST, modes=("int",)))
    path = tmp_path / "r.jsonl"
    write_results_jsonl(report, path)
    back = read_results_jsonl(path)
    for ours, theirs in zip(report.reports, back.reports):
        for a, b in zip(sorted(ours.results, key=lambda t: t.test_id), theirs.results):
            for key, value in a.p_values.items():
                assert b.p_values[key] == value, (a.test_id, key)


def test_read_results_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_results_jsonl(empty)
    bad_head = tmp_path / "bad.jsonl"
    bad_head.write_text('{"type":"result"}\n')
    with pytest.raises(ValueError, match="meta"):
        read_results_jsonl(bad_head)


def test_read_results_rejects_incomplete_or_inconsistent_files(tmp_path):
    path = tmp_path / "results.jsonl"
    write_results_jsonl(run_campaign(_entries(2), CampaignConfig(battery=FAST)), path)
    read_results_jsonl(path)
    for name, text in damaged_results(path).items():
        damaged = tmp_path / f"{name}.jsonl"
        damaged.write_text(text)
        with pytest.raises(ValueError):
            read_results_jsonl(damaged)


def test_results_files_keep_p_values_0_and_1_and_refuse_impossible_ones(tmp_path):
    creport = run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int",)))
    first, second = creport.reports[0].results[:2]
    for result, p in ((first, 0.0), (second, 1.0)):
        result.p_values = dict.fromkeys(result.p_values, p)
        result.verdict = "Fail"
    path = tmp_path / "results.jsonl"
    write_results_jsonl(creport, path)
    text = path.read_text()
    assert '":0}' in text and '":1}' in text  # %.17g prints 0.0 and 1.0 as ints
    back = {t.test_id: t.p_values for t in read_results_jsonl(path).reports[0].results}
    assert (back[first.test_id], back[second.test_id]) == (first.p_values, second.p_values)
    for p in (float("nan"), float("inf"), True, 1.5, -0.5):
        first.p_values = dict.fromkeys(first.p_values, p)
        with pytest.raises(ValueError, match="not a number in"):
            write_results_jsonl(creport, path)
    assert path.read_text() == text


def test_failed_writes_leave_existing_artifacts_intact(tmp_path, monkeypatch):
    import mtstreams.statusfile as statusfile

    creport = run_campaign(_entries(2), CampaignConfig(battery=FAST))
    paths = [tmp_path / "results.jsonl", tmp_path / "registry.txt", tmp_path / "registry.json"]
    for path in paths:
        path.write_bytes(b"old\n")
    monkeypatch.setattr(statusfile, "open", HalfWriteThenFail, raising=False)
    with pytest.raises(OSError):
        write_results_jsonl(creport, paths[0])
    with pytest.raises(OSError):
        write_registry(build_registry(creport, frozenset()), paths[1], paths[2])
    for path in paths:
        assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
    monkeypatch.undo()
    write_results_jsonl(creport, paths[0])
    assert read_results_jsonl(paths[0]).meta == creport.meta


def test_classify_subset_rule():
    good = StatusReport(
        "indexed", 0, "int", [TestResult("linearcomp.r0", "", {"p": 0.0}, "Fail", 1)]
    )
    assert classify_status(good) == "Good"
    assert classify_status(good, expected_fail_ids=frozenset()) == "Suspect"
    clean = StatusReport("indexed", 0, "int", [TestResult("x", "", {"p": 0.5}, "Pass", 1)])
    assert classify_status(clean, expected_fail_ids=frozenset()) == "Good"
    extra = StatusReport(
        "indexed",
        0,
        "int",
        [
            TestResult("linearcomp.r0", "", {"p": 0.0}, "Fail", 1),
            TestResult("closepairs.c", "", {"p": 0.0}, "Fail", 1),
        ],
    )
    assert classify_status(extra) == "Suspect"


def test_aggregation_on_fabricated_campaign():
    rows = [
        ("indexed", 0, "int", {"a": "Pass", "b": "Pass"}),
        ("indexed", 1, "int", {"a": "Fail", "b": "Pass"}),
        ("indexed", 2, "int", {"a": "Fail", "b": "Fail"}),
        ("split", 0, "int", {"a": "Pass", "b": "Pass"}),
        ("split", 1, "int", {"a": "Pass", "b": "Fail"}),
    ]
    creport = _fabricated(rows)
    tables = build_tables(creport, expected_fail_ids=frozenset())
    assert tables["summary"] == [
        {"technique": "indexed", "mode": "int", "statuses": 3, "suspects": 2, "fraction": 2 / 3},
        {"technique": "split", "mode": "int", "statuses": 2, "suspects": 1, "fraction": 0.5},
    ]
    assert _histogram(tables) == {("indexed", "int"): {1: 1, 2: 1}, ("split", "int"): {1: 1}}
    assert _pertest(tables) == {
        ("a", "indexed", "int"): 2 / 3,
        ("a", "split", "int"): 0.0,
        ("b", "indexed", "int"): 1 / 3,
        ("b", "split", "int"): 0.5,
    }
    # With "a" expected, only failures beyond it make a unit Suspect; the
    # per-test frequencies count every failure either way.
    tables_a = build_tables(creport, expected_fail_ids=frozenset({"a"}))
    assert _summary(tables_a)[("indexed", "int")] == (1, 3, 1 / 3)
    assert _summary(tables_a)[("split", "int")] == (1, 2, 0.5)
    assert _histogram(tables_a) == {("indexed", "int"): {2: 1}, ("split", "int"): {1: 1}}
    assert tables_a["pertest"] == tables["pertest"]


def test_expected_ids_must_exist_in_battery():
    creport = _fabricated([("indexed", 0, "int", {"a": "Pass"})])
    with pytest.raises(ValueError, match="not in battery"):
        check_expected_ids(creport, frozenset({"zzz"}))
    with pytest.raises(ValueError, match="not in battery"):
        build_tables(creport, expected_fail_ids=frozenset({"zzz"}))
    with pytest.raises(ValueError, match="not in battery"):
        build_registry(creport, expected_fail_ids=frozenset({"zzz"}))


def test_registry_requires_good_in_every_mode():
    rows = [
        ("indexed", 0, "int", {"a": "Pass"}),
        ("indexed", 0, "real", {"a": "Pass"}),
        ("indexed", 1, "int", {"a": "Pass"}),
        ("indexed", 1, "real", {"a": "Fail"}),
        ("indexed", 2, "int", {"a": "Fail"}),
        ("indexed", 2, "real", {"a": "Fail"}),
    ]
    registry = build_registry(_fabricated(rows), expected_fail_ids=frozenset())
    assert [(t, i) for t, i, _ in registry.entries] == [("indexed", 0)]
    assert registry.modes == ("int", "real")
    assert registry.expected_fail_ids == ()


def test_write_registry_files(tmp_path):
    rows = [("indexed", 0, "int", {"a": "Pass"}), ("split", 3, "int", {"a": "Pass"})]
    registry = build_registry(_fabricated(rows), expected_fail_ids=frozenset())
    text_path, json_path = tmp_path / "reg.txt", tmp_path / "reg.json"
    write_registry(registry, text_path, json_path)
    lines = text_path.read_text().splitlines()
    assert lines[0] == "# mtstreams registry v1"
    assert lines[1] == f"# fingerprint: {'f' * 64}"
    assert lines[2] == "# expected-fail: "
    assert lines[3] == "# modes: int"
    assert lines[4] == f"indexed 0 {'0' * 64}"
    assert lines[5] == f"split 3 {'0' * 64}"
    doc = json.loads(json_path.read_text())
    assert doc["fingerprint"] == "f" * 64
    assert doc["entries"] == [
        {"technique": "indexed", "index": 0, "sha256": "0" * 64},
        {"technique": "split", "index": 3, "sha256": "0" * 64},
    ]


def test_parse_status_filename():
    assert parse_status_filename("indexed_00042.mts") == ("indexed", 42)
    assert parse_status_filename("split_99999.mts") == ("split", 99999)
    assert parse_status_filename("indexed_123456.mts") == ("indexed", 123456)
    # status_filename never writes a leading zero beyond five digits.
    for bad in (
        "indexed_42.mts",
        "other_00042.mts",
        "indexed_00042.txt",
        "indexed00042.mts",
        "indexed_000001.mts",
        "indexed_0100000.mts",
    ):
        with pytest.raises(StatusFormatError):
            parse_status_filename(bad)


def test_status_filename_round_trips_through_parse():
    for technique in Technique:
        for index in (0, 99999, 100000, 123456):
            name = status_filename(technique, index)
            assert parse_status_filename(name) == (technique.slug, index)


def test_load_status_entries_from_dirs_and_files(tmp_path):
    write_status_set(generate_indexed(0, 2), tmp_path / "a")
    write_status_set(generate_sequence_splitting(9, 50, 2), tmp_path / "b")
    entries = load_status_entries([tmp_path / "a", tmp_path / "b" / "split_00001.mts"])
    assert [(e.technique, e.index) for e in entries] == [
        ("indexed", 0),
        ("indexed", 1),
        ("split", 1),
    ]
    assert entries[0].state == init_genrand(0)
    assert all(len(e.sha256) == 64 for e in entries)


def test_load_status_entries_rejects_duplicates_and_missing(tmp_path):
    write_status_set(generate_indexed(0, 2), tmp_path / "a")
    write_status_set(generate_indexed(5, 2), tmp_path / "c")
    with pytest.raises(StatusFormatError, match="duplicate status identity"):
        load_status_entries([tmp_path / "a", tmp_path / "c"])
    with pytest.raises(FileNotFoundError):
        load_status_entries([tmp_path / "nope"])


def test_fingerprint_sensitivity():
    base = campaign_fingerprint(FAST, 1e-10, ("int", "real"))
    assert campaign_fingerprint(FAST, 1e-10, ("int", "real")) == base
    assert campaign_fingerprint(FAST, 1e-9, ("int", "real")) != base
    assert campaign_fingerprint(FAST, 1e-10, ("int",)) != base
    assert campaign_fingerprint(SATURATING, 1e-10, ("int", "real")) != base


def test_saturating_campaign_end_to_end(tmp_path):
    write_status_set(generate_indexed(0, 2), tmp_path / "set")
    entries = load_status_entries([tmp_path / "set"])
    report = run_campaign(entries, CampaignConfig(battery=SATURATING, modes=("int", "real")))
    for r in report.reports:
        assert r.failed_ids == ["linearcomp.r0"]
        assert classify_status(r, frozenset({"linearcomp.r0"})) == "Good"
    registry = build_registry(report, expected_fail_ids=frozenset({"linearcomp.r0"}))
    assert [(t, i) for t, i, _ in registry.entries] == [("indexed", 0), ("indexed", 1)]
    # Registry carries the real file checksums from the manifest stage.
    by_name = {e.index: e.sha256 for e in entries}
    assert all(sha == by_name[i] for _, i, sha in registry.entries)


def test_reconciliation_matches_independent_recomputation(tmp_path):
    # A loose threshold makes healthy statuses fail tests at a high rate, so
    # the recomputation sees a genuine mixture of verdicts.
    entries = _entries(6)
    report = run_campaign(
        entries, CampaignConfig(battery=FAST, modes=("int", "real"), threshold=0.2)
    )
    verdicts = {t.verdict for r in report.reports for t in r.results}
    assert verdicts == {"Pass", "Fail"}
    path = tmp_path / "results.jsonl"
    write_results_jsonl(report, path)
    oracle = recompute_tables_from_jsonl(path, expected_fail_ids=frozenset())
    tables = build_tables(report, expected_fail_ids=frozenset())
    assert _summary(tables) == oracle["summary"]
    assert sum(s for s, _, _ in oracle["summary"].values()) > 0
    assert _histogram(tables) == oracle["histogram"]
    assert oracle["pertest"], "no per-test rows recomputed"
    assert _pertest(tables) == oracle["pertest"]
