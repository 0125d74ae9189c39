"""CLI end-to-end: subcommands, exit codes, determinism, help text."""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtstreams._version import VERSION
from mtstreams.cli import main
from mtstreams.mt19937 import N
from mtstreams.stats.battery import Battery, TestDefinition, dump_battery

from support import INCONSISTENCIES, HalfWriteThenFail, damaged_results, inconsistent_results, record_pool_sizes


FAST_CLI = Battery(
    name="fast-cli",
    threshold=1e-10,
    tests=(
        TestDefinition("serial.s", "SerialUniformity", {"n": 20480, "cells": 16}),
        TestDefinition("collisionover.c", "CollisionOver", {"n": 1024, "d": 64, "t": 2}),
        TestDefinition("closepairs.c", "ClosePairs", {"n": 256, "t": 2}),
    ),
)


@pytest.fixture()
def fast_battery_file(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(dump_battery(FAST_CLI))
    return str(path)


def _gen(out, technique="indexed", count=3, seed=0, extra=()):
    return main(
        ["gen", "--technique", technique, "--count", str(count), "--seed", str(seed), "--out", str(out), *extra]
    )


# --- gen ---------------------------------------------------------------------


def test_gen_writes_set_and_prints_fingerprint(tmp_path, capsys):
    assert _gen(tmp_path / "set") == 0
    out = capsys.readouterr().out
    assert "indexed x3 ->" in out
    assert "fingerprint " in out
    names = sorted(p.name for p in (tmp_path / "set").iterdir())
    assert names == [
        "indexed_00000.mts",
        "indexed_00001.mts",
        "indexed_00002.mts",
        "manifest.txt",
    ]


def test_gen_rerun_is_byte_identical_via_verify(tmp_path, capsys):
    assert _gen(tmp_path / "a", technique="random", seed=42) == 0
    assert _gen(tmp_path / "b", technique="random", seed=42) == 0
    fps = [l for l in capsys.readouterr().out.splitlines() if l.startswith("fingerprint")]
    assert fps[0] == fps[1]
    assert main(["verify", "--dir", str(tmp_path / "a"), "--dir", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "4 identical, 0 differing, 0 unmatched" in out


def test_gen_split_zero_spacing_is_usage_error(tmp_path, capsys):
    for spacing in ("0", "-1"):
        code = _gen(tmp_path / "s", technique="split", extra=("--spacing", spacing))
        assert code == 1
        assert f"usage error: spacing must be > 0, got {spacing}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


def test_gen_split_refuses_a_spacing_of_2_to_the_63_or_more_before_any_warning(tmp_path, capsys):
    # 2^128 is the spacing a jump-ahead would allow; advance skips at most 2^63 - 1.
    for count, spacing in ((2, 2**128), (2, 2**63), (1, 2**63)):
        assert _gen(tmp_path / "s", technique="split", count=count, extra=("--spacing", str(spacing))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: spacing must be below 2^63, got {spacing}\n"
        assert not (tmp_path / "s").exists()


def test_gen_split_warns_before_hours_of_advance(tmp_path, capsys, monkeypatch):
    import mtstreams.partition as partition

    advanced = []

    def fake_advance(state, n):
        advanced.append(n)
        return state

    monkeypatch.setattr(partition, "advance", fake_advance)
    spacing = 10**12
    assert _gen(tmp_path / "far", technique="split", count=3, extra=("--spacing", str(spacing))) == 0
    captured = capsys.readouterr()
    assert advanced == [spacing, spacing]
    assert captured.out.splitlines()[0] == f"split x3 -> {tmp_path / 'far'}"
    assert captured.out.splitlines()[1].startswith("fingerprint ")
    assert len(captured.out.splitlines()) == 2
    assert "warning: split advances 2000000000000 draws, about 9800 s (2.7 h)" in captured.err

    assert _gen(tmp_path / "near", technique="split", count=3, extra=("--spacing", "1000")) == 0
    assert capsys.readouterr().err == ""


def test_gen_refuses_a_directory_with_status_files_it_does_not_write(tmp_path, capsys):
    out = tmp_path / "set"
    assert _gen(out, count=6) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # A smaller set of the same technique, and a set of another technique,
    # would leave statuses the new manifest does not list.
    assert _gen(out, count=3, seed=100) == 2
    assert _gen(out, technique="random", count=3) == 2
    err = capsys.readouterr().err
    assert "indexed_00003.mts" in err and "6 status file(s)" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_gen_rewrites_the_same_set_or_a_superset_in_place(tmp_path, capsys):
    out = tmp_path / "set"
    assert _gen(out, count=3) == 0
    first = (out / "manifest.txt").read_bytes()
    assert _gen(out, count=3) == 0
    assert (out / "manifest.txt").read_bytes() == first
    assert _gen(out, count=5) == 0
    assert sorted(p.name for p in out.glob("*.mts")) == [f"indexed_{i:05d}.mts" for i in range(5)]
    assert len((out / "manifest.txt").read_text().splitlines()) == len(first.decode().splitlines()) + 2
    capsys.readouterr()


def test_gen_flag_validation(tmp_path, capsys):
    assert _gen(tmp_path / "x", count=0) == 1
    assert main(["gen", "--technique", "bogus", "--count", "1", "--out", str(tmp_path)]) == 1
    assert main(["gen", "--count", "1", "--out", str(tmp_path)]) == 1  # missing technique
    assert (
        main(["gen", "--technique", "indexed", "--count", "2", "--seed", str(2**32 - 1), "--out", str(tmp_path / "y")])
        == 1
    )  # seed range overflow
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


# --- test ---------------------------------------------------------------------


def test_test_end_to_end_both_modes(tmp_path, fast_battery_file, capsys):
    assert _gen(tmp_path / "set") == 0
    results = tmp_path / "results.jsonl"
    code = main(
        [
            "test",
            "--dir", str(tmp_path / "set"),
            "--battery", fast_battery_file,
            "--out", str(results),
            "--jobs", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tested 3 statuses x 2 modes with fast-cli" in out
    assert "suspect statuses: 0" in out
    assert "fingerprint " in out
    lines = results.read_text().splitlines()
    assert len(lines) == 1 + 3 * 2 * 3
    meta = json.loads(lines[0])
    assert meta["modes"] == ["int", "real"]
    assert meta["battery"] == "fast-cli"
    modes = {json.loads(l)["mode"] for l in lines[1:]}
    assert modes == {"int", "real"}


def test_test_worker_count_never_changes_bytes(tmp_path, fast_battery_file, capsys):
    assert _gen(tmp_path / "set") == 0
    blobs = []
    for i, jobs in enumerate(("1", "8")):
        out = tmp_path / f"r{i}.jsonl"
        assert (
            main(
                [
                    "test",
                    "--dir", str(tmp_path / "set"),
                    "--battery", fast_battery_file,
                    "--jobs", jobs,
                    "--out", str(out),
                ]
            )
            == 0
        )
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_test_single_mode_and_status_flag(tmp_path, fast_battery_file, capsys):
    assert _gen(tmp_path / "set") == 0
    results = tmp_path / "r.jsonl"
    code = main(
        [
            "test",
            "--status", str(tmp_path / "set" / "indexed_00001.mts"),
            "--battery", fast_battery_file,
            "--mode", "int",
            "--out", str(results),
        ]
    )
    assert code == 0
    lines = results.read_text().splitlines()
    records = [json.loads(l) for l in lines[1:]]
    assert {r["mode"] for r in records} == {"int"}
    assert {r["index"] for r in records} == {1}
    capsys.readouterr()


def test_test_strict_flags_suspects(tmp_path, fast_battery_file, capsys):
    assert _gen(tmp_path / "set", count=2) == 0
    args = [
        "test",
        "--dir", str(tmp_path / "set"),
        "--battery", fast_battery_file,
        "--threshold", "0.2",
        "--expected-fail", "",
        "--out", str(tmp_path / "r.jsonl"),
    ]
    assert main(args) == 0  # without --strict: reported but exit 0
    assert main(args + ["--strict"]) == 3
    out = capsys.readouterr().out
    assert "suspect statuses:" in out


def test_test_usage_errors(tmp_path, fast_battery_file, capsys):
    assert _gen(tmp_path / "set", count=1) == 0
    base = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file]
    assert main(["test", "--battery", fast_battery_file]) == 1  # no inputs
    assert main(base + ["--threshold", "0.7"]) == 1
    assert main(base + ["--jobs", "0"]) == 1
    assert main(base + ["--expected-fail", "nosuch.test"]) == 1
    assert main(base + ["--mode", "imaginary"]) == 1
    capsys.readouterr()


def test_test_refuses_an_empty_battery_file(tmp_path, capsys):
    assert _gen(tmp_path / "set", count=1) == 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"name": "empty", "threshold": 1e-10, "tests": []}))
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", str(empty), "--out", str(tmp_path / "r.jsonl")]
    assert main(argv) == 2
    assert "a battery needs at least one test" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


def test_test_caps_jobs_at_the_usable_cpus(tmp_path, fast_battery_file, capsys, monkeypatch):
    import mtstreams.campaign as campaign

    sizes = record_pool_sizes(monkeypatch, campaign)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _gen(tmp_path / "set", count=3) == 0
    capsys.readouterr()
    base = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--mode", "int"]
    for i, jobs in enumerate((["--jobs", "5000"], [], ["--jobs", "2"])):
        assert main(base + jobs + ["--out", str(tmp_path / f"r{i}.jsonl")]) == 0
        err = capsys.readouterr().err
        assert err == ("note: --jobs 5000 capped at 2, the usable CPUs\n" if jobs[1:] == ["5000"] else ""), jobs
    assert sizes == [2, 2, 2]
    assert (tmp_path / "r0.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()


def test_test_io_errors(tmp_path, fast_battery_file, capsys):
    assert main(["test", "--dir", str(tmp_path / "missing"), "--battery", fast_battery_file]) == 2
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "indexed_00000.mts").write_text("not a status\n")
    assert main(["test", "--dir", str(bad), "--battery", fast_battery_file]) == 2
    assert main(["test", "--dir", str(bad), "--battery", "nosuch-battery"]) == 2
    wide = tmp_path / "wide"
    wide.mkdir()
    text = "\n".join(["MT19937-STATUS v1", str(2**32)] + ["1"] * (N - 1) + [str(N)]) + "\n"  # word 0 needs 33 bits
    (wide / "indexed_00000.mts").write_text(text)
    assert main(["test", "--dir", str(wide), "--battery", fast_battery_file]) == 2
    # A valid status under a name whose index is not in ASCII digits.
    assert _gen(tmp_path / "set", count=2) == 0
    digits = tmp_path / "digits"
    digits.mkdir()
    (tmp_path / "set" / "indexed_00001.mts").rename(digits / "indexed_\u0660\u0660\u0660\u0660\u0661.mts")
    assert main(["test", "--dir", str(digits), "--battery", fast_battery_file]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("out", ["missing/sub/r.jsonl", "set"])
def test_test_refuses_a_bad_out_before_any_unit(tmp_path, fast_battery_file, capsys, monkeypatch, out):
    # A missing directory, and a directory: the results could never be written.
    import mtstreams.campaign as campaign

    def never(*args):
        pytest.fail("a status was loaded or tested before --out was checked")

    assert _gen(tmp_path / "set", count=2) == 0
    capsys.readouterr()
    monkeypatch.setattr(campaign, "load_status_entries", never)
    monkeypatch.setattr(campaign, "run_battery_on_status", never)
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--jobs", "1"]
    argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {tmp_path / out}") and err.count("\n") == 1, err
    rc, modules = _fresh_main(argv)
    assert rc == 2
    assert _within(modules, "numpy", "mtstreams.campaign") == []
    assert not (tmp_path / "missing").exists()


# --- report --------------------------------------------------------------------


@pytest.fixture()
def campaign_results(tmp_path, fast_battery_file):
    assert _gen(tmp_path / "set", count=3) == 0
    results = tmp_path / "results.jsonl"
    assert (
        main(
            [
                "test",
                "--dir", str(tmp_path / "set"),
                "--battery", fast_battery_file,
                "--out", str(results),
            ]
        )
        == 0
    )
    return results


def test_report_all_good_shows_zero_percent(campaign_results, capsys):
    code = main(
        ["report", "--results", str(campaign_results), "--expected-fail", "", "--format", "md"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "## Suspect statuses per technique and mode" in out
    assert "0.00%" in out


def test_report_formats_carry_identical_numbers(campaign_results, tmp_path, capsys):
    json_out = tmp_path / "t.json"
    assert (
        main(
            [
                "report",
                "--results", str(campaign_results),
                "--expected-fail", "",
                "--format", "json",
                "--out", str(json_out),
            ]
        )
        == 0
    )
    doc = json.loads(json_out.read_text())
    assert [r["suspects"] for r in doc["summary"]] == [0, 0]
    assert [r["statuses"] for r in doc["summary"]] == [3, 3]

    assert (
        main(
            ["report", "--results", str(campaign_results), "--expected-fail", "", "--format", "csv"]
        )
        == 0
    )
    csv_text = capsys.readouterr().out
    summary_lines = [l for l in csv_text.splitlines() if l.startswith("summary,")]
    assert summary_lines == [
        "summary,indexed,int,3,0,0.00%",
        "summary,indexed,real,3,0,0.00%",
    ]


def test_report_table_selection_and_errors(campaign_results, tmp_path, capsys):
    assert (
        main(["report", "--results", str(campaign_results), "--tables", "pertest", "--expected-fail", ""]) == 0
    )
    assert main(["report", "--results", str(campaign_results), "--tables", "bogus"]) == 1
    assert main(["report", "--results", str(tmp_path / "none.jsonl")]) == 2
    malformed = tmp_path / "m.jsonl"
    malformed.write_text("{}\n")
    assert main(["report", "--results", str(malformed)]) == 2
    capsys.readouterr()
    not_ascii = tmp_path / "ff.jsonl"
    not_ascii.write_bytes(b"\xff\n")
    assert main(["report", "--results", str(not_ascii)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {not_ascii}: 'ascii' codec can't decode byte 0xff")
    truncated = tmp_path / "battery.json"
    truncated.write_text('{"name": ')
    assert main(["test", "--battery", str(truncated), "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {truncated}: Expecting value")


def test_report_refuses_no_table_or_a_repeated_table(campaign_results, capsys):
    capsys.readouterr()
    for fmt in ("md", "csv", "json"):
        for tables in ("", " , ", "summary,summary", "pertest,histogram,pertest"):
            argv = ["report", "--results", str(campaign_results), "--tables", tables, "--format", fmt]
            assert main(argv) == 1, (fmt, tables)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage error: "), (fmt, tables)


def test_report_and_registry_reject_damaged_results(campaign_results, tmp_path, capsys):
    for name, text in damaged_results(campaign_results).items():
        damaged = tmp_path / f"{name}.jsonl"
        damaged.write_text(text)
        assert main(["report", "--results", str(damaged)]) == 2, name
        reg = tmp_path / "reg.txt"
        assert main(["registry", "--results", str(damaged), "--out", str(reg)]) == 2, name
        assert not reg.exists()
    capsys.readouterr()


@pytest.fixture(scope="module")
def shared_results(tmp_path_factory):
    """A two-status, both-mode mini-crush-v1 campaign, written once."""
    work = tmp_path_factory.mktemp("shared")
    assert _gen(work / "set", count=2) == 0
    results = work / "results.jsonl"
    argv = ["test", "--dir", str(work / "set"), "--battery", "mini-crush-v1", "--out", str(results)]
    assert main(argv) == 0
    return results


@pytest.mark.parametrize("edit", sorted(INCONSISTENCIES))
def test_report_and_registry_refuse_an_inconsistent_meta_or_row(shared_results, tmp_path, capsys, edit):
    # The same file re-serialized without the edit reads.
    for name, code in ((None, 0), (edit, 2)):
        results = tmp_path / f"{name}.jsonl"
        results.write_text(inconsistent_results(shared_results, name))
        assert main(["report", "--results", str(results)]) == code, name
        assert main(["registry", "--results", str(results), "--out", str(tmp_path / "reg.txt")]) == code, name
    err = capsys.readouterr().err
    if edit == "no_battery_definition":
        assert "re-run `test`" in err
    if edit == "modes_disagree":
        assert "indexed/0 real p-values differ from its int rows" in err
    if edit == "substatistic_dropped":
        assert "randomwalk.a: p_values {'H': " in err and "are not H, M, R, in order" in err
    if edit == "substatistic_renamed":
        assert "serial.a: p_values {'chi_square': " in err and "are not chi2, in order" in err


def test_failed_report_write_leaves_the_old_file(campaign_results, tmp_path, capsys, monkeypatch):
    import mtstreams.statusfile as statusfile

    out = tmp_path / "report.md"
    out.write_bytes(b"old\n")
    monkeypatch.setattr(statusfile, "open", HalfWriteThenFail, raising=False)
    assert main(["report", "--results", str(campaign_results), "--out", str(out)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert out.read_bytes() == b"old\n"
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# --- registry --------------------------------------------------------------------


def test_registry_end_to_end(campaign_results, tmp_path, capsys):
    reg = tmp_path / "registry.txt"
    code = main(
        ["registry", "--results", str(campaign_results), "--expected-fail", "", "--out", str(reg)]
    )
    assert code == 0
    assert "3 Good statuses" in capsys.readouterr().out
    lines = reg.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert [l.split()[:2] for l in body] == [
        ["indexed", "0"],
        ["indexed", "1"],
        ["indexed", "2"],
    ]
    twin = json.loads((tmp_path / "registry.json").read_text())
    assert len(twin["entries"]) == 3
    assert twin["fingerprint"] == json.loads(campaign_results.read_text().splitlines()[0])["fingerprint"]


def test_registry_json_out_swaps_twin(campaign_results, tmp_path, capsys):
    code = main(
        [
            "registry",
            "--results", str(campaign_results),
            "--expected-fail", "",
            "--out", str(tmp_path / "reg.json"),
        ]
    )
    assert code == 0
    assert (tmp_path / "reg.json").exists()
    assert (tmp_path / "reg.txt").exists()
    capsys.readouterr()


def test_registry_unknown_expected_id_is_usage_error(campaign_results, capsys):
    code = main(
        ["registry", "--results", str(campaign_results), "--expected-fail", "zzz", "--out", "r.txt"]
    )
    assert code == 1
    capsys.readouterr()


def test_registry_of_empty_results_is_empty(tmp_path, fast_battery_file, capsys):
    empty_set = tmp_path / "empty"
    empty_set.mkdir()
    results = tmp_path / "r.jsonl"
    assert (
        main(
            ["test", "--dir", str(empty_set), "--battery", fast_battery_file, "--out", str(results)]
        )
        == 0
    )
    reg = tmp_path / "reg.txt"
    assert (
        main(["registry", "--results", str(results), "--expected-fail", "", "--out", str(reg)]) == 0
    )
    body = [l for l in reg.read_text().splitlines() if not l.startswith("#")]
    assert body == []
    capsys.readouterr()


def test_registry_entries_retest_good(campaign_results, tmp_path, fast_battery_file, capsys):
    reg = tmp_path / "reg.txt"
    assert (
        main(
            ["registry", "--results", str(campaign_results), "--expected-fail", "", "--out", str(reg)]
        )
        == 0
    )
    body = [l for l in reg.read_text().splitlines() if not l.startswith("#")]
    technique, index, _ = body[0].split()
    status = tmp_path / "set" / f"{technique}_{int(index):05d}.mts"
    assert (
        main(
            [
                "test",
                "--status", str(status),
                "--battery", fast_battery_file,
                "--expected-fail", "",
                "--strict",
                "--out", str(tmp_path / "recheck.jsonl"),
            ]
        )
        == 0
    )
    assert "suspect statuses: 0" in capsys.readouterr().out


# --- verify --------------------------------------------------------------------


def test_verify_detects_single_byte_difference(tmp_path, capsys):
    assert _gen(tmp_path / "a", count=2) == 0
    assert _gen(tmp_path / "b", count=2) == 0
    assert main(["verify", "--dir", str(tmp_path / "a"), "--dir", str(tmp_path / "b")]) == 0
    target = tmp_path / "b" / "indexed_00001.mts"
    raw = bytearray(target.read_bytes())
    raw[20] ^= 0x01
    target.write_bytes(bytes(raw))
    assert main(["verify", "--dir", str(tmp_path / "a"), "--dir", str(tmp_path / "b")]) == 3
    out = capsys.readouterr().out
    assert "differs: indexed_00001.mts" in out


def test_verify_argument_and_io_errors(tmp_path, capsys):
    assert main(["verify", "--dir", str(tmp_path)]) == 1
    assert (
        main(["verify", "--dir", str(tmp_path / "nope"), "--dir", str(tmp_path / "nope2")]) == 2
    )
    capsys.readouterr()


# --- help ----------------------------------------------------------------------


def test_help_documents_battery_and_threshold_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "mini-crush-v1" in text
    assert "1e-10" in text
    for command in ("gen", "report", "registry", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


# --- start-up --------------------------------------------------------------------


def test_cli_import_loads_no_scipy():
    # Start-up stays small: only `test` imports the p-values, and with them decimal.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, mtstreams.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'decimal', '_decimal')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs cli.main(argv) in a fresh interpreter; the last stdout line lists the
# modules loaded by then. The harness loads json only after taking that list.
_RUN_MAIN = """
import sys
from mtstreams.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps({"rc": rc, "modules": modules}))
"""


def _fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()[-1]


def _fresh_main(argv: list[str]) -> tuple[int, list[str]]:
    out = json.loads(_fresh(_RUN_MAIN, *argv))
    return out["rc"], out["modules"]


def _within(modules: list[str], *packages: str) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_stdlib_commands_load_no_numpy_or_scipy(campaign_results, tmp_path):
    # report, registry, verify and gen never touch an array; NumPy costs ~55 ms. A
    # random status's words come from the standard library's MT19937 engine.
    # Nor do they load dataclasses, whose import alone brings inspect, ast and dis.
    assert _gen(tmp_path / "a") == 0 and _gen(tmp_path / "b") == 0
    commands = {
        "gen indexed": ["gen", "--technique", "indexed", "--count", "3", "--out", str(tmp_path / "c")],
        "gen random": ["gen", "--technique", "random", "--count", "3", "--out", str(tmp_path / "d")],
        "report": ["report", "--results", str(campaign_results), "--out", str(tmp_path / "r.md")],
        "registry": ["registry", "--results", str(campaign_results), "--out", str(tmp_path / "reg.txt")],
        "verify": ["verify", "--dir", str(tmp_path / "a"), "--dir", str(tmp_path / "b")],
        "version": ["--version"],
    }
    loaded = {}
    for name, argv in commands.items():
        rc, loaded[name] = _fresh_main(argv)
        assert rc == 0, name
        assert _within(loaded[name], "numpy", "scipy", "dataclasses", "inspect") == [], name
    # Each command imports its own modules: verify compares bytes, so it hashes
    # nothing and parses no JSON.
    assert _within(loaded["verify"], "hashlib", "json", "mtstreams.results", "mtstreams.partition") == []
    assert _within(loaded["gen indexed"], "mtstreams.results", "mtstreams.reports") == []
    for name in ("report", "registry"):
        assert _within(loaded[name], "mtstreams.partition") == [], name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_test_loads_no_multiprocessing(tmp_path, jobs):
    # The workers are plain forks; threading is loaded anyway, by the standard library.
    assert _gen(tmp_path / "set", count=2) == 0
    out = str(tmp_path / "results.jsonl")
    argv = ["test", "--dir", str(tmp_path / "set"), "--mode", "int", "--jobs", jobs, "--out", out]
    rc, modules = _fresh_main(argv)
    assert rc == 0
    assert "mtstreams.campaign" in modules
    assert _within(modules, "multiprocessing", "concurrent.futures") == []


def test_gen_loads_no_scipy_stats_or_campaign(tmp_path):
    rc, modules = _fresh_main(["gen", "--technique", "random", "--count", "2", "--out", str(tmp_path / "s")])
    assert rc == 0
    assert "mtstreams.partition" in modules
    assert _within(modules, "scipy", "mtstreams.stats", "mtstreams.campaign") == []


def test_test_loads_no_scipy(tmp_path):
    # The p-values come from decimal. A None entry in sys.modules makes any
    # import of scipy raise, in the parent and in the workers it forks.
    assert _gen(tmp_path / "set", count=2) == 0
    blocked = "import sys; sys.modules['scipy'] = None\n" + _RUN_MAIN
    for jobs in ("2", "1"):
        out = str(tmp_path / f"results{jobs}.jsonl")
        argv = ["test", "--dir", str(tmp_path / "set"), "--mode", "int", "--jobs", jobs, "--out", out]
        result = json.loads(_fresh(blocked, *argv))
        assert result["rc"] == 0, jobs
        assert _within(result["modules"], "scipy") == ["scipy"], jobs  # only the blocking entry
    assert "decimal" in result["modules"]  # --jobs 1 computed its tails in this process


def test_package_import_loads_no_numpy():
    # A status is bytes: seeding, status files and partition need no NumPy until a
    # bulk draw, and twist runs on the standard library's engine.
    code = (
        "import sys, mtstreams, mtstreams.mt19937, mtstreams.statusfile, mtstreams.partition\n"
        "assert mtstreams.mt19937.twist(mtstreams.mt19937.init_genrand(5489)).mti == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert _fresh(code) == "[]"


# --- process entry ---------------------------------------------------------------


def _entry(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-m", "mtstreams.cli", *argv], env=env, capture_output=True, text=True
    )


def test_process_entry_exits_with_main_codes_and_output(tmp_path):
    version = _entry("--version")
    assert (version.returncode, version.stdout) == (0, f"mtstreams {VERSION}\n")
    missing = _entry()
    assert missing.returncode == 1 and "usage error: missing command" in missing.stderr
    unreadable = _entry("report", "--results", str(tmp_path / "nope.jsonl"))
    assert unreadable.returncode == 2 and unreadable.stderr.startswith("error: ")
    assert _gen(tmp_path / "a", count=3) == 0 and _gen(tmp_path / "b", count=3) == 0
    for name in ("indexed_00000.mts", "indexed_00002.mts"):
        target = tmp_path / "b" / name
        target.write_bytes(target.read_bytes().replace(b"\n", b"\n\n", 1))
    verify = _entry("verify", "--dir", str(tmp_path / "a"), "--dir", str(tmp_path / "b"))
    assert verify.returncode == 3
    assert [line for line in verify.stdout.splitlines() if line.startswith("differs:")] == [
        "differs: indexed_00000.mts",
        "differs: indexed_00002.mts",
    ]
    assert verify.stdout.endswith(" identical, 2 differing, 0 unmatched\n")


# Runs cli.main(argv) in a fresh interpreter on two workers, whatever the
# host, where the worker that takes status indexed/0 SIGKILLs itself, as
# the OOM killer would.
_KILL_A_WORKER = """
import functools, os, signal, sys
import mtstreams.campaign as campaign
from mtstreams.cli import main
from mtstreams.mt19937 import init_genrand

unit = campaign.run_battery_on_status

@functools.wraps(unit)
def dying(state, *rest):
    if state == init_genrand(0):
        os.kill(os.getpid(), signal.SIGKILL)
    return unit(state, *rest)

campaign.run_battery_on_status = dying
campaign.usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_a_dead_worker_ends_test_with_exit_2(tmp_path, fast_battery_file):
    assert _gen(tmp_path / "set", count=6) == 0
    out = tmp_path / "r.jsonl"
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--jobs", "2", "--out", str(out)]
    # A pool that waits forever for the dead worker's unit fails here instead of stalling the suite.
    run = subprocess.run(
        [sys.executable, "-c", _KILL_A_WORKER, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr == "error: a worker process died before status indexed/0 finished\n"
    assert not out.exists()


# Runs cli.main(argv) in a fresh interpreter on up to two workers, whatever
# the host, where the unit of status indexed/3 raises ValueError. stdout
# shows what run_campaign raised.
_FAIL_A_UNIT = """
import functools, sys
import mtstreams.campaign as campaign
from mtstreams.cli import main
from mtstreams.mt19937 import init_genrand

unit, run = campaign.run_battery_on_status, campaign.run_campaign

@functools.wraps(unit)
def failing(state, *rest):
    if state == init_genrand(3):
        raise ValueError("no battery for status 3")
    return unit(state, *rest)

def reporting(entries, config):
    try:
        return run(entries, config)
    except BaseException as exc:
        print(type(exc).__name__, exc)
        raise

campaign.run_battery_on_status = failing
campaign.run_campaign = reporting
campaign.usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_error_in_a_unit_ends_test_with_exit_2(tmp_path, fast_battery_file, jobs):
    assert _gen(tmp_path / "set", count=6) == 0
    out = tmp_path / "r.jsonl"
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--jobs", jobs, "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-c", _FAIL_A_UNIT, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2, run.stderr
    assert run.stdout == "ValueError no battery for status 3\n"  # the unit's own exception, raised again
    assert run.stderr == "error: no battery for status 3\n"
    assert not out.exists()


# Prepended to a script: records the pid of each process forked from it, one
# a line, in the file that $PIDS names. The parent records it, since a worker
# may be killed before it runs a line of its own.
_RECORD_FORKS = """
import os

_fork = os.fork

def _recorded_fork():
    pid = _fork()
    if pid:
        with open(os.environ["PIDS"], "a") as fh:
            fh.write(f"{pid}\\n")
    return pid

os.fork = _recorded_fork
"""

# Runs cli.main(argv) in a fresh interpreter on two workers, whatever the host.
_ON_TWO_WORKERS = """
import sys
import mtstreams.campaign as campaign
from mtstreams.cli import main

campaign.usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def _running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"  # the state follows the parenthesised name


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "script, rc", [(_ON_TWO_WORKERS, 0), (_FAIL_A_UNIT, 2), (_KILL_A_WORKER, 2)], ids=["finishes", "raises", "killed"]
)
def test_no_worker_outlives_test(tmp_path, fast_battery_file, script, rc):
    # On an error the call returns before the pool is shut down: the exit must still end every worker.
    assert _gen(tmp_path / "set", count=6) == 0
    pids = tmp_path / "pids"
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--jobs", "2"]
    argv += ["--out", str(tmp_path / "r.jsonl")]
    # Output to a file, not a pipe, which a leaked worker would hold open past the command's exit.
    with open(tmp_path / "stderr", "w") as stderr:
        run = subprocess.run(
            [sys.executable, "-c", _RECORD_FORKS + script, *argv],
            env=dict(os.environ, PYTHONPATH=_SRC, PIDS=str(pids)),
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            timeout=60,
        )
    assert run.returncode == rc, (tmp_path / "stderr").read_text()
    workers = [int(line) for line in pids.read_text().split()]
    assert len(workers) == 2
    assert [pid for pid in workers if _running(pid)] == []


# Runs cli.main(argv) in a fresh interpreter on two workers, whatever the
# host, where the unit of status indexed/5 SIGKILLs the parent, as the OOM
# killer might.
_KILL_THE_PARENT = """
import functools, os, signal, sys
import mtstreams.campaign as campaign
from mtstreams.cli import main
from mtstreams.mt19937 import init_genrand

unit = campaign.run_battery_on_status

@functools.wraps(unit)
def orphaning(state, *rest):
    if state == init_genrand(5):
        os.kill(os.getppid(), signal.SIGKILL)
    return unit(state, *rest)

campaign.run_battery_on_status = orphaning
campaign.usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_workers_end_when_test_is_killed(tmp_path, fast_battery_file):
    # 150 units a worker fill a pipe: a worker that holds a read end of one
    # would wait on it forever, where it should fail its next write and exit.
    import signal
    import time

    assert _gen(tmp_path / "set", count=300) == 0
    pids = tmp_path / "pids"
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--jobs", "2"]
    argv += ["--out", str(tmp_path / "r.jsonl")]
    run = subprocess.run(
        [sys.executable, "-c", _RECORD_FORKS + _KILL_THE_PARENT, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC, PIDS=str(pids)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
    )
    assert run.returncode == -signal.SIGKILL
    workers = [int(line) for line in pids.read_text().split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 30
    while (alive := [pid for pid in workers if _running(pid)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in alive:  # leave no stray process behind a failure
        os.kill(pid, signal.SIGKILL)
    assert alive == []
    assert not (tmp_path / "r.jsonl").exists()


def test_an_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    import signal

    import mtstreams.campaign as campaign
    from mtstreams import cli

    def interrupted(entries, config):
        raise KeyboardInterrupt

    assert _gen(tmp_path / "set", count=2) == 0
    capsys.readouterr()
    out = tmp_path / "r.jsonl"
    handlers = []
    monkeypatch.setattr(campaign, "run_campaign", interrupted)
    # The entry's process-wide settings, recorded and kept out of this process.
    monkeypatch.setattr(signal, "signal", lambda sig, handler: handlers.append((sig, handler)))
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "argv", ["mtstreams", "test", "--dir", str(tmp_path / "set"), "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        try:
            cli.entry()
        except KeyboardInterrupt:  # let through, it would stop the whole run
            pytest.fail("KeyboardInterrupt escaped the process entry")
    assert exc.value.code == 130
    assert capsys.readouterr() == ("", "interrupted\n")
    assert handlers == [(signal.SIGINT, signal.SIG_IGN)]  # a second Ctrl-C cannot cut the exit short
    assert not out.exists()


# Runs cli.entry() in a fresh interpreter on two workers, whatever the host,
# where the unit of status indexed/5 sends the parent a SIGINT, as a Ctrl-C
# would. Each unit that runs writes a line to the file that $UNITS names, and
# takes 20 ms more.
_INTERRUPT_FROM_A_UNIT = """
import functools, os, signal, time
import mtstreams.campaign as campaign
from mtstreams import cli
from mtstreams.mt19937 import init_genrand

unit = campaign.run_battery_on_status

@functools.wraps(unit)
def slow(state, *rest):
    with open(os.environ["UNITS"], "a") as fh:
        fh.write("unit\\n")
    if state == init_genrand(5):
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(0.02)
    return unit(state, *rest)

campaign.run_battery_on_status = slow
campaign.usable_cpus = lambda: 2
cli.entry()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_an_interrupt_while_units_are_queued_cancels_them(tmp_path, fast_battery_file):
    assert _gen(tmp_path / "set", count=300) == 0
    units = tmp_path / "units"
    argv = ["test", "--dir", str(tmp_path / "set"), "--battery", fast_battery_file, "--jobs", "2"]
    argv += ["--out", str(tmp_path / "r.jsonl")]
    run = subprocess.run(
        [sys.executable, "-c", _INTERRUPT_FROM_A_UNIT, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC, UNITS=str(units)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stderr) == (130, "interrupted\n")
    # The workers are killed in the units they hold; the other ~290 never run.
    assert len(units.read_text().split()) < 20
    assert not (tmp_path / "r.jsonl").exists()


# Runs cli.entry() in a fresh interpreter with a main that loads NumPy and
# prints the process's thread count and its OPENBLAS_NUM_THREADS.
_ENTRY_THREADS = """
import os
import mtstreams.cli as cli

def main():
    import numpy
    print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
    return 0

cli.main = main
cli.entry()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux's /proc")
def test_process_entry_starts_no_blas_thread():
    # The package makes no BLAS call; OpenBLAS would start a spinning worker per further CPU.
    # With the variable unset the process keeps one thread; a caller's own value stands.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for extra, expected in (({}, "1 1\n"), ({"OPENBLAS_NUM_THREADS": "2"}, " 2\n")):
        run = subprocess.run(
            [sys.executable, "-c", _ENTRY_THREADS], env=dict(env, PYTHONPATH=_SRC, **extra), capture_output=True, text=True
        )
        assert run.returncode == 0 and run.stdout.endswith(expected), (extra, run.stdout, run.stderr)


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == VERSION


def test_deeply_nested_json_is_a_parse_error_naming_the_file(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000 + "]" * 3000)
    for argv in (
        ("report", "--results", str(deep)),
        ("registry", "--results", str(deep), "--out", str(tmp_path / "reg.txt")),
        ("test", "--battery", str(deep), "--dir", str(tmp_path)),
    ):
        run = _entry(*argv)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith(f"error: {deep}") and "Traceback" not in run.stderr, run.stderr


def test_main_in_process_leaves_the_collector_alone(campaign_results, tmp_path, capsys):
    # Only the process entry freezes, after main has returned.
    state = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
    assert main(["report", "--results", str(campaign_results)]) == 0
    assert main(["verify", "--dir", str(tmp_path / "set"), "--dir", str(tmp_path / "set")]) == 0
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state
    capsys.readouterr()


def test_module_and_console_script_share_the_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'mtstreams = "mtstreams.cli:entry"' in pyproject
    source = (Path(_SRC) / "mtstreams" / "cli.py").read_text()
    assert source.endswith('\nif __name__ == "__main__":\n    entry()\n')
