"""The results I/O timer: its fabricated file is what the writer prints."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mtstreams.results import read_results_jsonl, write_results_jsonl

_PATH = Path(__file__).resolve().parents[1] / "tools" / "results_io.py"
_SPEC = importlib.util.spec_from_file_location("results_io", _PATH)
results_io = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(results_io)


@pytest.mark.parametrize("modes", [("int",), ("int", "real")], ids=["int", "both"])
def test_a_fabricated_file_reads_and_rewrites_to_its_own_bytes(tmp_path, modes):
    source, rewritten = tmp_path / "fabricated.jsonl", tmp_path / "rewritten.jsonl"
    results_io.fabricated_results(source, 5, seed=1, modes=modes)
    creport = read_results_jsonl(source)
    assert len(creport.reports) == 5
    write_results_jsonl(creport, rewritten)
    assert rewritten.read_bytes() == source.read_bytes()


def test_the_timer_prints_one_json_summary(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["results_io.py", "--statuses", "3"])
    monkeypatch.setattr(sys, "path", list(sys.path))  # main appends this checkout's src
    assert results_io.main() == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 3 * 2 * 9  # statuses x modes x mini-crush-v1 tests
    assert len(summary["read_runs"]) == len(summary["write_runs"]) == results_io.REPEATS
