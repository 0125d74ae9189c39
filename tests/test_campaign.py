"""Campaign orchestration: determinism, aggregation, registry, JSONL."""
import concurrent.futures
import copy
import gc
import hashlib
import json
import os
import pathlib
import pickle
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtstreams.campaign as campaign
from mtstreams.campaign import (
    CampaignConfig,
    StatusEntry,
    load_status_entries,
    run_campaign,
    status_words,
)
from mtstreams.mt19937 import MtStream, init_genrand
from mtstreams.partition import generate_indexed, generate_sequence_splitting, write_status_set
from mtstreams.reports import TABLES, build_tables, render_report
from mtstreams.results import (
    DEFAULT_EXPECTED_FAIL_IDS,
    CampaignReport,
    TestResult,
    build_registry,
    campaign_fingerprint,
    campaign_meta,
    classify_status,
    read_results_jsonl,
    resolve_expected_ids,
    status_results,
    write_registry,
    write_results_jsonl,
)
from mtstreams.stats.battery import Battery, TestDefinition, battery_sha256
from mtstreams.stats.families import run_test
from mtstreams.stats.stream import StreamView
from mtstreams.statusfile import TECHNIQUES, StatusFormatError, parse_status_filename, status_filename

from support import HalfWriteThenFail, RecordingContext, damaged_results, mutations, recompute_tables_from_jsonl

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


def _result(test_id, verdict, p=0.5):
    """A result of a SerialUniformity entry named ``test_id``: the tables and
    the classifier read only its id and verdict."""
    return TestResult(TestDefinition(test_id, "SerialUniformity", {"n": 20, "cells": 2}), {"chi2": p}, verdict)


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
    """CampaignReport from (technique, index, {test_id: verdict}) rows."""
    rows = sorted(rows, key=lambda row: row[:2])  # meta order
    test_ids = sorted({tid for *_ , outcome in rows for tid in outcome})
    meta = {
        "type": "meta",
        "fingerprint": "f" * 64,
        "modes": ["int"],
        "test_ids": test_ids,
        "statuses": [{"technique": t, "index": i, "sha256": "0" * 64} for t, i, _ in rows],
    }
    results = [[_result(tid, verdict) for tid, verdict in sorted(outcome.items())] for *_, outcome in rows]
    return CampaignReport(meta=meta, results=results)


def test_status_entries_and_results_keep_value_semantics_through_pickle():
    # The fork pool sends statuses to its workers and results back, pickled.
    entry = _entries(1)[0]
    twin = pickle.loads(pickle.dumps(entry))
    assert twin == entry and hash(twin) == hash(entry)
    assert hash(entry) == hash((entry.technique, entry.index, entry.state, entry.sha256))
    assert entry != StatusEntry(entry.technique, entry.index, entry.state, "f" * 64)
    assert entry != (entry.technique, entry.index, entry.state, entry.sha256)
    with pytest.raises(AttributeError):
        entry.sha256 = "f" * 64
    with pytest.raises(AttributeError):
        del entry.state
    result = run_test(FAST.tests[0], StreamView(entry.state, "int"), FAST.threshold)
    twin = pickle.loads(pickle.dumps(result))
    assert twin == result and twin.draws == result.draws
    assert [p.hex() for p in twin.p_values.values()] == [p.hex() for p in result.p_values.values()]
    twin.verdict = "Fail" if result.verdict == "Pass" else "Pass"  # results stay mutable
    assert twin != result
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)


def test_run_campaign_meta_and_ordering():
    entries = _entries(2)
    report = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int", "real")))
    assert report.meta["battery"] == "fast-unit"
    assert report.meta["battery_sha256"] == battery_sha256(FAST)
    assert report.meta["threshold"] == 1e-10
    assert report.meta["fingerprint"] == campaign_fingerprint(FAST, 1e-10, ("int", "real"))
    assert report.meta["test_ids"] == ["serial.s", "collisionover.c", "closepairs.c"]
    assert report.meta["modes"] == ["int", "real"]
    assert [(s["technique"], s["index"]) for s in report.meta["statuses"]] == [("indexed", 0), ("indexed", 1)]
    assert len(report.results) == 2
    for results in report.results:
        assert [t.test_id for t in results] == list(FAST.test_ids)


@pytest.mark.parametrize("modes", [("int",), ("real",), ("int", "real")])
def test_one_report_per_status_in_every_mode_set(tmp_path, modes):
    report = run_campaign(_entries(3), CampaignConfig(battery=FAST, modes=modes))
    path = tmp_path / "results.jsonl"
    write_results_jsonl(report, path)
    assert len(path.read_text().splitlines()) == 1 + 3 * len(modes) * len(FAST.tests)
    for creport in (report, read_results_jsonl(path)):
        assert [(s["technique"], s["index"]) for s in creport.meta["statuses"]] == [("indexed", i) for i in range(3)]
        assert len(creport.results) == 3
        assert creport.meta["modes"] == list(modes)


def test_threshold_override_changes_eps_and_fingerprint(tmp_path):
    config = CampaignConfig(battery=FAST, modes=("int",), threshold=1e-6)
    assert config.eps == 1e-6
    report = run_campaign(_entries(1), config)
    assert report.meta["threshold"] == 1e-6
    assert report.meta["fingerprint"] == campaign_fingerprint(FAST, 1e-6, ("int",))
    assert report.meta["fingerprint"] != campaign_fingerprint(FAST, 1e-10, ("int",))
    # The reader checks verdicts at the file's threshold, not the battery's:
    # at 0.49 the three p-values of this status (0.26 to 0.52) all fail.
    report = run_campaign(_entries(1), CampaignConfig(battery=FAST, modes=("int",), threshold=0.49))
    path = tmp_path / "half.jsonl"
    write_results_jsonl(report, path)
    assert all(t.failed for t in read_results_jsonl(path).results[0])


def test_config_validation():
    with pytest.raises(ValueError, match="modes"):
        CampaignConfig(battery=FAST, modes=("int", "bogus"))
    with pytest.raises(ValueError, match="duplicate"):
        CampaignConfig(battery=FAST, modes=("int", "int"))
    with pytest.raises(ValueError, match="jobs"):
        CampaignConfig(battery=FAST, jobs=0)
    for bad in (0.0, 0.5):  # the reader refuses a file at such a threshold
        with pytest.raises(ValueError, match="threshold"):
            CampaignConfig(battery=FAST, threshold=bad)


def test_run_campaign_refuses_invalid_entries_before_any_unit_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(campaign, "run_battery_on_status", lambda *args: calls.append(args))
    twice = _entries(2) + _entries(1)
    bad_sha256 = [StatusEntry("indexed", 0, init_genrand(0), "xyz")]
    for entries, message in ((twice, "listed twice"), (bad_sha256, "64 lowercase hex")):
        with pytest.raises(ValueError, match=message):
            run_campaign(entries, CampaignConfig(battery=FAST, modes=("int",)))
    assert calls == []


def test_worker_count_does_not_change_output_bytes(tmp_path):
    # Nor the order of the entries or of the modes: the meta lists both modes
    # in MODES order, and the fingerprint hashes that order.
    entries, both = _entries(3), ("int", "real")
    blobs = []
    for jobs, order, modes in (
        (1, entries, both),
        (2, entries, both),
        (1, entries, both),
        (2, entries, both),
        (2, entries[::-1], both),
        (1, entries, both[::-1]),
    ):
        report = run_campaign(order, CampaignConfig(battery=FAST, modes=modes, jobs=jobs))
        path = tmp_path / f"r{len(blobs)}.jsonl"
        write_results_jsonl(report, path)
        blobs.append(path.read_bytes())
    assert len(set(blobs)) == 1


def _swap_entry(creport):
    """The first result points at the battery's next entry."""
    first, second = creport.results[0][:2]
    first.entry = second.entry


def _flip_verdict(creport):
    result = creport.results[0][0]
    result.verdict = {"Pass": "Fail", "Fail": "Pass"}[result.verdict]


# Edits of a run_campaign report, each giving a file that read_results_jsonl refuses.
BAD_REPORTS = {
    "result_missing": lambda creport: creport.results[0].pop(),
    "status_missing": lambda creport: creport.results.pop(),
    "status_extra": lambda creport: creport.results.append(creport.results[0]),
    "entry_swapped": _swap_entry,
    "substatistic_renamed": lambda creport: setattr(creport.results[0][0], "p_values", {"x": 0.5}),
    "meta_threshold_0.3": lambda creport: creport.meta.update(threshold=0.3),
    "verdict_flipped": _flip_verdict,
}


@pytest.fixture(scope="module")
def fast_report():
    return run_campaign(_entries(3), CampaignConfig(battery=FAST, modes=("int", "real")))


@pytest.mark.parametrize("edit", sorted(BAD_REPORTS))
def test_writer_refuses_a_report_the_reader_would_refuse(fast_report, tmp_path, edit):
    creport = copy.deepcopy(fast_report)
    BAD_REPORTS[edit](creport)
    path = tmp_path / "results.jsonl"
    with pytest.raises(ValueError):
        write_results_jsonl(creport, path)
    assert not path.exists()
    write_results_jsonl(fast_report, path)  # unedited, it writes and reads
    assert len(read_results_jsonl(path).results) == 3


# Every reader of a report's result lists, each given the report and a scratch directory.
CONSUMERS = {
    "write_results_jsonl": lambda creport, tmp_path: write_results_jsonl(creport, tmp_path / "results.jsonl"),
    "build_registry": lambda creport, tmp_path: build_registry(creport),
    "build_tables": lambda creport, tmp_path: build_tables(creport),
    "render_report": lambda creport, tmp_path: render_report(creport, list(TABLES), "md"),
}


@pytest.mark.parametrize("edit", ["status_missing", "status_extra"])
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_every_consumer_refuses_result_lists_that_are_not_one_per_meta_status(fast_report, tmp_path, consumer, edit):
    creport = copy.deepcopy(fast_report)
    BAD_REPORTS[edit](creport)
    with pytest.raises(ValueError, match="result lists for 3 meta statuses"):
        CONSUMERS[consumer](creport, tmp_path)
    CONSUMERS[consumer](fast_report, tmp_path)  # unedited, it is taken


def test_pool_has_no_more_workers_than_statuses(monkeypatch):
    context = RecordingContext()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", context)
    monkeypatch.setattr(campaign, "usable_cpus", lambda: 64)
    entries = _entries(3)
    serial = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int",)))
    for jobs in (2, 3, 64):
        report = run_campaign(entries, CampaignConfig(battery=FAST, modes=("int",), jobs=jobs))
        assert report == serial
    assert context.sizes == [2, 3, 3]


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    context = RecordingContext()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", context)
    config = CampaignConfig(battery=FAST, modes=("int",), jobs=5000)
    monkeypatch.setattr(campaign.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert campaign.usable_cpus() == 2
    run_campaign(_entries(4), config)
    monkeypatch.setattr(campaign.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_campaign(_entries(4), config)  # one CPU: no pool at all
    monkeypatch.delattr(campaign.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    assert campaign.usable_cpus() == 3
    run_campaign(_entries(4), config)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: None)
    assert campaign.usable_cpus() == 1
    assert context.sizes == [2, 3]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_pool_workers_ignore_sigint(monkeypatch):
    # A Ctrl-C reaches every process of the group; only the parent acts on it.
    import functools
    import signal

    @functools.wraps(campaign.run_battery_on_status)
    def disposition(*args):
        return signal.getsignal(signal.SIGINT)

    monkeypatch.setattr(campaign, "run_battery_on_status", disposition)
    work = [(e.state, ("int",), FAST, FAST.threshold) for e in _entries(2)]
    assert list(campaign._run_in_workers(work, [{}, {}], 2)) == [signal.SIG_IGN, signal.SIG_IGN]


@pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity") or campaign.usable_cpus() < 2,
    reason="the pool forks its workers and places them on 2 CPUs",
)
def test_pool_workers_start_on_cpus_of_their_own(tmp_path, monkeypatch):
    # The forked workers inherit the recorder, which only writes down each call.
    calls = tmp_path / "calls"

    def record(pid, cpus):
        with open(calls, "a") as fh:
            fh.write(json.dumps([os.getpid(), sorted(cpus)]) + "\n")

    usable = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(campaign.os, "sched_setaffinity", record)
    report = run_campaign(_entries(4), CampaignConfig(battery=FAST, modes=("int",), jobs=2))
    assert len(report.results) == 4
    per_worker = {}
    for pid, cpus in map(json.loads, calls.read_text().splitlines()):
        per_worker.setdefault(pid, []).append(cpus)
    assert len(per_worker) == 2
    # Each worker asks first for one CPU, another than the other's, then for every usable one.
    (first_a, rest_a), (first_b, rest_b) = per_worker.values()
    assert len(first_a) == len(first_b) == 1 and first_a != first_b
    assert rest_a == rest_b == usable


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_a_dead_worker_is_named_at_its_own_status(monkeypatch):
    # One worker takes the statuses in order, so the first three finish.
    import functools
    import signal

    unit = campaign.run_battery_on_status

    @functools.wraps(unit)
    def dying(state, *rest):
        if state == init_genrand(3):
            os.kill(os.getpid(), signal.SIGKILL)
        return unit(state, *rest)

    monkeypatch.setattr(campaign, "run_battery_on_status", dying)
    entries = _entries(6)
    work = [(e.state, ("int",), FAST, FAST.threshold) for e in entries]
    statuses = [{"technique": e.technique, "index": e.index} for e in entries]
    with pytest.raises(ChildProcessError, match="^a worker process died before status indexed/3 finished$"):
        list(campaign._run_in_workers(work, statuses, 1))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_a_pooled_campaign_returns_after_its_workers_exit(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(campaign, "usable_cpus", lambda: 2)
    run_campaign(_entries(3), CampaignConfig(battery=FAST, modes=("int",), jobs=2))
    assert multiprocessing.active_children() == []


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
    assert len(creport.results) == 2
    for status, results in status_results(creport):
        state = entries[status["index"]].state
        for mode in ("int", "real"):
            for definition, result in zip(FAST.tests, results):
                fresh = run_test(definition, StreamView(state, mode), FAST.threshold)
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
    words = campaign.status_words
    monkeypatch.setattr(campaign, "status_words", lambda state, battery: words(state, battery)[:-1])
    with pytest.raises(IndexError, match="passes the end"):
        run_campaign(_entries(1), CampaignConfig(battery=FAST, modes=("int",)))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("modes", [("int",), ("int", "real")], ids=["int", "both"])
def test_a_written_report_reads_back_equal(tmp_path, modes, jobs):
    # A result holds what its rows hold, so the file loses nothing.
    creport = run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=modes, jobs=jobs))
    path = tmp_path / "results.jsonl"
    write_results_jsonl(creport, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"
    assert len(lines) == 1 + 2 * len(modes) * len(FAST.tests)
    assert read_results_jsonl(path) == creport


def test_results_io_rebuilds_the_meta_battery_once(tmp_path, monkeypatch):
    import mtstreams.results as results

    creport = run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int", "real")))
    path = tmp_path / "results.jsonl"
    calls = []
    meta_battery = results._meta_battery

    def spy(meta):
        calls.append(meta)
        return meta_battery(meta)

    monkeypatch.setattr(results, "_meta_battery", spy)
    write_results_jsonl(creport, path)
    assert len(calls) == 1
    assert read_results_jsonl(path) == creport
    assert len(calls) == 2


def test_read_results_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_results_jsonl(empty)
    bad_head = tmp_path / "bad.jsonl"
    bad_head.write_text('{"type":"result"}\n')
    with pytest.raises(ValueError, match="meta"):
        read_results_jsonl(bad_head)
    not_ascii = tmp_path / "ff.jsonl"
    not_ascii.write_bytes(b"\xff\n")
    with pytest.raises(ValueError) as refused:
        read_results_jsonl(not_ascii)
    assert str(refused.value).startswith(f"{not_ascii}: 'ascii' codec can't decode byte 0xff")


def test_read_results_rejects_incomplete_or_inconsistent_files(tmp_path):
    path = tmp_path / "results.jsonl"
    write_results_jsonl(run_campaign(_entries(2), CampaignConfig(battery=FAST)), path)
    read_results_jsonl(path)
    for name, text in damaged_results(path).items():
        damaged = tmp_path / f"{name}.jsonl"
        damaged.write_text(text)
        with pytest.raises(ValueError):
            read_results_jsonl(damaged)


@pytest.fixture(scope="module")
def fast_results(fast_report, tmp_path_factory):
    path = tmp_path_factory.mktemp("fast") / "results.jsonl"
    write_results_jsonl(fast_report, path)
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_results_file_is_refused_or_is_what_the_writer_gives(fast_results, data):
    mutated = data.draw(mutations(fast_results.read_bytes()))
    path, rewritten = fast_results.with_name("mutated.jsonl"), fast_results.with_name("rewritten.jsonl")
    path.write_bytes(mutated)
    try:
        creport = read_results_jsonl(path)
    except ValueError:
        return
    write_results_jsonl(creport, rewritten)
    assert rewritten.read_bytes() == mutated


def test_a_negative_zero_p_value_is_written_as_0_and_reads_back(tmp_path):
    creport = run_campaign(_entries(1), CampaignConfig(battery=FAST, modes=("int",)))
    result = creport.results[0][0]
    result.p_values = dict.fromkeys(result.p_values, -0.0)
    result.verdict = "Fail"
    path = tmp_path / "results.jsonl"
    write_results_jsonl(creport, path)
    assert '":-0' not in path.read_text()
    assert read_results_jsonl(path) == creport


def test_results_files_keep_p_values_0_and_1_and_refuse_impossible_ones(tmp_path):
    creport = run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int",)))
    first, second = creport.results[0][:2]
    for result, p in ((first, 0.0), (second, 1.0)):
        result.p_values = dict.fromkeys(result.p_values, p)
        result.verdict = "Fail"
    path = tmp_path / "results.jsonl"
    write_results_jsonl(creport, path)
    text = path.read_text()
    assert '":0}' in text and '":1}' in text  # %.17g prints 0.0 and 1.0 as ints
    back = {t.test_id: t.p_values for t in read_results_jsonl(path).results[0]}
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
    good = [_result("linearcomp.r0", "Fail", 0.0)]
    assert classify_status(good, DEFAULT_EXPECTED_FAIL_IDS) == "Good"
    assert classify_status(good, expected_fail_ids=frozenset()) == "Suspect"
    clean = [_result("x", "Pass")]
    assert classify_status(clean, expected_fail_ids=frozenset()) == "Good"
    extra = [_result("linearcomp.r0", "Fail", 0.0), _result("closepairs.c", "Fail", 0.0)]
    assert classify_status(extra, DEFAULT_EXPECTED_FAIL_IDS) == "Suspect"


def test_aggregation_on_fabricated_campaign():
    rows = [
        ("indexed", 0, {"a": "Pass", "b": "Pass"}),
        ("indexed", 1, {"a": "Fail", "b": "Pass"}),
        ("indexed", 2, {"a": "Fail", "b": "Fail"}),
        ("split", 0, {"a": "Pass", "b": "Pass"}),
        ("split", 1, {"a": "Pass", "b": "Fail"}),
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


def test_tables_give_each_status_once_per_meta_mode():
    rows = [
        ("indexed", 0, {"a": "Fail", "b": "Fail"}),
        ("indexed", 1, {"a": "Fail", "b": "Pass"}),
        ("indexed", 2, {"a": "Pass", "b": "Pass"}),
    ]
    creport = _fabricated(rows)
    battery = Battery("fabricated", 1e-10, tuple(t.entry for t in creport.results[0]))
    statuses = [(s["technique"], s["index"], s["sha256"]) for s in creport.meta["statuses"]]
    creport.meta = campaign_meta(battery, 1e-10, ("real", "int"), statuses)
    tables = build_tables(creport, expected_fail_ids=frozenset())
    assert [(r["mode"], r["statuses"], r["suspects"]) for r in tables["summary"]] == [
        ("int", 3, 2),
        ("real", 3, 2),
    ]
    assert [(r["mode"], r["n_failed"], r["count"]) for r in tables["histogram"]] == [
        ("int", 1, 1),
        ("int", 2, 1),
        ("real", 1, 1),
        ("real", 2, 1),
    ]
    assert [(r["test_id"], r["mode"], r["fraction"]) for r in tables["pertest"]] == [
        ("a", "int", 2 / 3),
        ("a", "real", 2 / 3),
        ("b", "int", 1 / 3),
        ("b", "real", 1 / 3),
    ]
    registry = build_registry(creport, expected_fail_ids=frozenset())
    assert [(t, i) for t, i, _ in registry.entries] == [("indexed", 2)]
    assert registry.modes == ("int", "real")


def test_expected_ids_must_exist_in_battery():
    creport = _fabricated([("indexed", 0, {"a": "Pass"})])
    with pytest.raises(ValueError, match="not in battery"):
        resolve_expected_ids(creport.meta["test_ids"], frozenset({"zzz"}))
    with pytest.raises(ValueError, match="not in battery"):
        build_tables(creport, expected_fail_ids=frozenset({"zzz"}))
    with pytest.raises(ValueError, match="not in battery"):
        build_registry(creport, expected_fail_ids=frozenset({"zzz"}))


def test_default_expected_ids_are_those_the_battery_defines():
    # Neither battery defines both ids of DEFAULT_EXPECTED_FAIL_IDS.
    creport = run_campaign(_entries(2), CampaignConfig(battery=FAST, modes=("int",)))
    assert build_registry(creport).expected_fail_ids == ()
    assert build_tables(creport) == build_tables(creport, frozenset())
    creport = run_campaign(_entries(1), CampaignConfig(battery=SATURATING, modes=("int",)))
    assert build_registry(creport).expected_fail_ids == ("linearcomp.r0",)
    assert [(t, i) for t, i, _ in build_registry(creport).entries] == [("indexed", 0)]
    assert build_tables(creport)["summary"][0]["suspects"] == 0
    # Explicit ids stay strict.
    with pytest.raises(ValueError, match="not in battery"):
        build_registry(creport, DEFAULT_EXPECTED_FAIL_IDS)


def test_write_registry_files(tmp_path):
    rows = [("indexed", 0, {"a": "Pass"}), ("split", 3, {"a": "Pass"})]
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
        "random_\u0660\u0660\u0660\u0660\u0661.mts",  # Arabic-Indic digits
        "indexed_\uff10\uff10\uff10\uff14\uff12.mts",  # fullwidth digits
    ):
        with pytest.raises(StatusFormatError):
            parse_status_filename(bad)


def test_status_filename_round_trips_through_parse():
    for technique in TECHNIQUES:
        for index in (0, 99999, 100000, 123456):
            name = status_filename(technique, index)
            assert parse_status_filename(name) == (technique, index)
    for technique, index in (("other", 0), ("split", -1), ("split_0", 1)):
        with pytest.raises(ValueError, match="no status file name"):
            status_filename(technique, index)


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


def test_load_status_entries_reads_each_file_once(tmp_path, monkeypatch):
    write_status_set(generate_indexed(0, 3), tmp_path / "set")
    read_bytes = pathlib.Path.read_bytes
    reads = []

    def counting(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counting)
    entries = load_status_entries([tmp_path / "set"])
    assert sorted(reads) == [status_filename("indexed", i) for i in range(3)]
    monkeypatch.undo()
    for e in entries:
        assert e.sha256 == hashlib.sha256((tmp_path / "set" / status_filename(e.technique, e.index)).read_bytes()).hexdigest()


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
    for results in report.results:
        assert [t.test_id for t in results if t.failed] == ["linearcomp.r0"]
        assert classify_status(results, frozenset({"linearcomp.r0"})) == "Good"
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
    verdicts = {t.verdict for results in report.results for t in results}
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


# --- memory ----------------------------------------------------------------------

# In a fresh interpreter: keep_freed_memory() if argv[1] == "keep", then four
# mini-crush-v1 statuses; prints each status's minor page faults and results.
_FAULTS = """
import json, resource, sys
from mtstreams.campaign import keep_freed_memory, run_battery_on_status
from mtstreams.mt19937 import init_genrand
from mtstreams.stats.battery import MINI_CRUSH_V1

kept = keep_freed_memory() if sys.argv[1] == "keep" else None
faults, results = [], []
for i in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    unit = run_battery_on_status(init_genrand(i), ("int",), MINI_CRUSH_V1, MINI_CRUSH_V1.threshold)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    results.append([[t.test_id, t.p_values, t.verdict] for t in unit])
print(json.dumps({"kept": kept, "faults": faults, "results": results}))
"""


def _faults_run(mode):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS, mode], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc's mallopt thresholds"
)
def test_a_status_reuses_the_pages_the_one_before_it_freed():
    # Counts page faults, not time. Without the thresholds glibc gives each
    # unit's ~8 MB back to the kernel, and every later status faults it in
    # again: about 1960 minor faults each on x86-64 Linux.
    kept, plain = _faults_run("keep"), _faults_run("plain")
    assert kept["kept"] is True
    assert all(f < 200 for f in kept["faults"][1:]), kept["faults"]
    assert kept["results"] == plain["results"]


def test_a_campaign_leaves_the_allocator_and_collector_alone(monkeypatch):
    # keep_freed_memory is the test command's to call; run_campaign never does.
    monkeypatch.setattr(campaign, "keep_freed_memory", lambda: pytest.fail("run_campaign set the allocator"))
    state = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
    for jobs in (1, 2):
        run_campaign(_entries(2), CampaignConfig(battery=FAST, jobs=jobs))
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state, jobs
