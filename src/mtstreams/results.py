"""Campaign records and their file formats, on the standard library alone.

A campaign's outcome is a :class:`CampaignReport`: its meta record plus
one :class:`StatusReport` per status, each a list of :class:`TestResult`.
The modes live in the meta alone: the real map w * 2^-32 is lossless, so
one status's results stand for every mode. This module holds those
records, the two-sided verdict rule, the expected-fail rule, the
Good/Suspect classifier, the registry of Good statuses, and the writers
and readers of ``results.jsonl`` and the registry files.

:func:`_results_lines` alone says what a results file is: the lines of a
report, a meta line from :func:`campaign_meta` and a row line per status,
mode and test from :func:`_row_line`. The writer writes them; the reader
makes a report of a file's meta line and first-mode p-values and refuses
the file unless it is exactly that report's lines.
Only running a campaign (``mtstreams.campaign``) needs NumPy or SciPy, so
``report`` and ``registry`` load only this module, ``reports``,
``statusfile`` and ``stats.battery``.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from mtstreams._version import VERSION
from mtstreams.statusfile import TECHNIQUES, write_bytes_atomic

if TYPE_CHECKING:
    from mtstreams.stats.battery import Battery, TestDefinition

MODES = ("int", "real")
DEFAULT_EXPECTED_FAIL_IDS = frozenset({"linearcomp.r0", "linearcomp.r29"})


@dataclass
class TestResult:
    """Outcome of one battery entry (a :class:`~mtstreams.stats.battery.TestDefinition`)
    on one status: the entry itself, its p-values and verdict, all that its
    results rows hold, so :func:`read_results_jsonl` gives back the results
    :func:`write_results_jsonl` was given."""

    __test__ = False  # not a pytest collection target

    entry: TestDefinition
    p_values: dict[str, float]
    verdict: str

    @property
    def test_id(self) -> str:
        return self.entry.id

    @property
    def draws(self) -> int:
        return self.entry.draws

    @property
    def failed(self) -> bool:
        return self.verdict == "Fail"


def _verdict(p_values: dict[str, float], eps: float) -> str:
    for p in p_values.values():
        if p < eps or p > 1.0 - eps:
            return "Fail"
    return "Pass"


@dataclass
class StatusReport:
    """Battery outcome for one status, in battery order, under every meta mode."""

    technique: str
    index: int
    results: list[TestResult]

    @property
    def failed_ids(self) -> list[str]:
        return [r.test_id for r in self.results if r.failed]

    @property
    def n_failed(self) -> int:
        return len(self.failed_ids)


@dataclass
class CampaignReport:
    """A campaign's meta record and one report per meta status, in meta order."""

    meta: dict
    reports: list[StatusReport] = field(default_factory=list)


@dataclass
class QualityRegistry:
    """Statuses classified Good, with the modes their results stand for."""

    fingerprint: str
    expected_fail_ids: tuple[str, ...]
    modes: tuple[str, ...]
    entries: list[tuple[str, int, str]]


def classify_status(report: StatusReport, expected_fail_ids) -> str:
    """Good iff the failed ids are a subset of the expected-failure ids."""
    return "Good" if set(report.failed_ids) <= set(expected_fail_ids) else "Suspect"


def resolve_expected_ids(test_ids, expected_fail_ids=None) -> frozenset[str]:
    """The expected-failure ids for a battery's ``test_ids``: by default those
    of DEFAULT_EXPECTED_FAIL_IDS it defines; explicit ids must all be in it."""
    if expected_fail_ids is None:
        return DEFAULT_EXPECTED_FAIL_IDS & set(test_ids)
    unknown = set(expected_fail_ids) - set(test_ids)
    if unknown:
        raise ValueError(f"expected-fail ids not in battery: {sorted(unknown)}")
    return frozenset(expected_fail_ids)


def _meta_statuses_and_reports(creport: CampaignReport):
    """(meta status, its report) pairs; ValueError unless in meta order."""
    statuses, reports = creport.meta["statuses"], creport.reports
    if [(s["technique"], s["index"]) for s in statuses] != [(r.technique, r.index) for r in reports]:
        raise ValueError("the status reports are not one per meta status, in meta order")
    return zip(statuses, reports)


def build_registry(creport: CampaignReport, expected_fail_ids=None) -> QualityRegistry:
    """Registry of the statuses classified Good, in meta order."""
    expected_fail_ids = resolve_expected_ids(creport.meta["test_ids"], expected_fail_ids)
    entries = [
        (s["technique"], s["index"], s["sha256"])
        for s, r in _meta_statuses_and_reports(creport)
        if classify_status(r, expected_fail_ids) == "Good"
    ]
    return QualityRegistry(
        fingerprint=creport.meta["fingerprint"],
        expected_fail_ids=tuple(sorted(expected_fail_ids)),
        modes=tuple(creport.meta["modes"]),
        entries=entries,
    )


def campaign_fingerprint(battery, eps: float, modes: tuple[str, ...], version: str = VERSION) -> str:
    """Self-describing campaign identity: battery, threshold, modes, version."""
    # Imported here, not at the top, so that `gen` loads no battery module.
    from mtstreams.stats.battery import dump_battery

    blob = "\n".join([dump_battery(battery), "%.17g" % eps, ",".join(modes), version])
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


_SHA256 = re.compile(r"[0-9a-f]{64}")


def campaign_meta(battery, threshold: float, modes, statuses, version: str = VERSION) -> dict:
    """The meta record of a campaign over ``statuses``, (technique, index,
    sha256) triples in any order; the record lists them in (technique,
    index) order, and the modes in MODES order.

    Raises ValueError unless the threshold is a float in (0, 0.5), the modes
    distinct members of MODES, and the statuses distinct, each with a
    technique from TECHNIQUES, a non-negative int index and a SHA-256 of 64
    lowercase hex digits.
    """
    from mtstreams.stats.battery import battery_doc, battery_sha256

    if not isinstance(threshold, float) or not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must be a number in (0, 0.5), got {threshold!r}")
    modes = list(modes)
    if not modes or len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
        raise ValueError(f"modes must be members of {MODES}, at least one and no duplicate, got {modes!r}")
    modes = [m for m in MODES if m in modes]
    records = []
    for technique, index, sha256 in statuses:
        if technique not in TECHNIQUES or type(index) is not int or index < 0:
            raise ValueError(f"status {technique!r}/{index!r} is not a technique and a non-negative int index")
        if type(sha256) is not str or not _SHA256.fullmatch(sha256):
            raise ValueError(f"status sha256 {sha256!r} is not 64 lowercase hex digits")
        records.append({"technique": technique, "index": index, "sha256": sha256})
    records.sort(key=lambda s: (s["technique"], s["index"]))
    if len({(s["technique"], s["index"]) for s in records}) != len(records):
        raise ValueError("a status is listed twice")
    return {
        "type": "meta",
        "version": version,
        "fingerprint": campaign_fingerprint(battery, threshold, tuple(modes), version),
        "battery": battery.name,
        "battery_sha256": battery_sha256(battery),
        "battery_definition": battery_doc(battery),
        "threshold": threshold,
        "modes": modes,
        "test_ids": list(battery.test_ids),
        "statuses": records,
    }


def _row_line(technique: str, index: int, mode: str, result: TestResult, threshold: float) -> str:
    """The row of ``result`` on one status under one mode: its p-values to 17
    significant digits, which round-trips binary64 exactly, and its verdict.

    Raises ValueError unless the p-values are a dict of numbers in [0, 1]
    under exactly the entry's ``statistics``, in order (ints count; bools,
    NaN and infinities do not), and then unless the verdict is theirs at
    ``threshold``.
    """
    entry, p_values, verdict = result.entry, result.p_values, result.verdict
    where = f"{technique}/{index} {entry.id}"
    if not isinstance(p_values, dict) or tuple(p_values) != entry.statistics:
        raise ValueError(f"{where}: p_values {p_values!r} are not {', '.join(entry.statistics)}, in order")
    for key, p in p_values.items():
        if not (isinstance(p, float) or type(p) is int) or not 0 <= p <= 1:
            raise ValueError(f"{where}: p-value {key} = {p!r} is not a number in [0, 1]")
    if verdict != _verdict(p_values, threshold):
        raise ValueError(f"{where}: verdict {verdict!r} is not the one its p-values give")
    # + 0.0 prints -0.0 as 0, which is what a reader parses "-0" back to.
    pv = ",".join([f'"{k}":{v + 0.0:.17g}' for k, v in p_values.items()])
    return (
        f'{{"type":"result","technique":"{technique}","index":{index},'
        f'"mode":"{mode}","test_id":"{entry.id}","p_values":{{{pv}}},'
        f'"verdict":"{verdict}","draws":{entry.draws}}}'
    )


def _meta_battery(meta):
    """The battery of a meta record equal to its :func:`campaign_meta` rebuild, or ValueError."""
    from mtstreams.stats.battery import parse_battery

    if not isinstance(meta, dict) or meta.get("type") != "meta":
        raise ValueError("not a meta record")
    if "battery_definition" not in meta:
        raise ValueError("meta has no battery_definition; re-run `test` to rewrite this file")
    try:
        battery = parse_battery(meta["battery_definition"])
        statuses = [(s["technique"], s["index"], s["sha256"]) for s in meta["statuses"]]
        rebuilt = campaign_meta(battery, meta["threshold"], meta["modes"], statuses, meta["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad meta record: {exc}") from exc
    if meta != rebuilt:
        raise ValueError("meta record differs from the one its own fields give")
    return battery


def _results_lines(creport: CampaignReport, battery: Battery) -> list[str]:
    """The lines of the results file of ``creport``, without line ends: the
    meta record as sorted compact JSON, then one :func:`_row_line` per
    status, meta mode and test, in meta order and tests sorted by id.
    ``battery`` is the meta's, as :func:`_meta_battery` gives it.

    Raises ValueError for a report no file holds: reports and results out
    of order, or results :func:`_row_line` refuses.
    """
    meta = creport.meta
    tests = list(battery.tests)
    file_order = sorted(range(len(tests)), key=lambda i: tests[i].id)
    lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    modes, eps = meta["modes"], meta["threshold"]
    for _, r in _meta_statuses_and_reports(creport):
        if [t.entry for t in r.results] != tests:
            raise ValueError(f"{r.technique}/{r.index}: results are not the battery's entries, in order")
        block = [_row_line(r.technique, r.index, modes[0], r.results[i], eps) for i in file_order]
        lines.extend(block)
        # A later mode's line is the first mode's with the mode replaced: only a
        # slug and an int come before it, so its '"mode":"' is the line's first.
        for mode in modes[1:]:
            lines.extend(line.replace(f'"mode":"{modes[0]}"', f'"mode":"{mode}"', 1) for line in block)
    return lines


def write_results_jsonl(creport: CampaignReport, path: Path | str) -> None:
    """Write the lines :func:`_results_lines` gives, each ended by LF, or
    raise ValueError and write nothing for a report no file holds."""
    lines = _results_lines(creport, _meta_battery(creport.meta))
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_results_jsonl(path: Path | str) -> CampaignReport:
    """The CampaignReport a results file holds: one report per meta status,
    in meta order, its test results in battery order.

    The report is built from the meta line and the ``p_values`` of each
    status's rows under the first meta mode, each result with the verdict
    its p-values give. The file must then be, byte for byte, what
    :func:`write_results_jsonl` writes for that report; anything else
    raises ValueError naming the file, and the first line at fault where
    there is one, rather than being classified.
    """
    path, lineno = Path(path), 0
    try:
        text = path.read_bytes().decode("ascii")
        if not text.endswith("\n"):
            raise ValueError("the last line has no line end" if text else "empty results file")
        lines = text[:-1].split("\n")
        lineno = 1
        meta = json.loads(lines[0])
        battery = _meta_battery(meta)
        tests = sorted(battery.tests, key=lambda t: t.id)
        modes, eps = meta["modes"], meta["threshold"]
        block = len(modes) * len(tests)
        if len(lines) - 1 != len(meta["statuses"]) * block:
            raise ValueError(f"{len(lines) - 1} rows, not one per meta status, mode and test")
        reports = []
        for s, status in enumerate(meta["statuses"]):
            rows = {}
            for k, test in enumerate(tests):
                lineno = 2 + s * block + k
                p_values = json.loads(lines[lineno - 1])["p_values"]
                rows[test.id] = TestResult(test, p_values, _verdict(p_values, eps))
            results = [rows[t.id] for t in battery.tests]
            reports.append(StatusReport(status["technique"], status["index"], results))
        lineno = 0
        creport = CampaignReport(meta=meta, reports=reports)
        want = _results_lines(creport, battery)
        if lines != want:
            lineno = 1 + next(n for n, (got, line) in enumerate(zip(lines, want)) if got != line)
            raise ValueError(_line_fault(lineno, lines[lineno - 1], want[lineno - 1], modes[0]))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        why = exc if isinstance(exc, ValueError) else f"malformed record ({exc!r})"
        raise ValueError(f"{path}:{lineno}: {why}" if lineno else f"{path}: {why}") from exc
    return creport


def _line_fault(lineno: int, got: str, want: str, first_mode: str) -> str:
    """Why line ``lineno`` of a results file, ``got``, is not ``want``, the writer's line."""
    if lineno == 1:
        return "not the meta line the writer prints for its own fields"
    row = json.loads(want)
    where = f"{row['technique']}/{row['index']} {row['mode']}"
    p_texts = {line.partition('"p_values":')[2].partition("}")[0] for line in (got, want)}
    if row["mode"] != first_mode and len(p_texts) == 2:
        return f"{where} p-values differ from its {first_mode} rows"
    return f"not the {where} {row['test_id']} row its p-values give"


def write_registry(registry: QualityRegistry, text_path: Path | str, json_path: Path | str) -> None:
    lines = [
        "# mtstreams registry v1",
        f"# fingerprint: {registry.fingerprint}",
        f"# expected-fail: {','.join(registry.expected_fail_ids)}",
        f"# modes: {','.join(registry.modes)}",
    ]
    lines.extend(f"{t} {i} {sha}" for t, i, sha in registry.entries)
    write_bytes_atomic(text_path, ("\n".join(lines) + "\n").encode("ascii"))
    doc = {
        "fingerprint": registry.fingerprint,
        "expected_fail_ids": list(registry.expected_fail_ids),
        "modes": list(registry.modes),
        "entries": [
            {"technique": t, "index": i, "sha256": sha} for t, i, sha in registry.entries
        ],
    }
    write_bytes_atomic(json_path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii"))
