"""Campaign records and their file formats, on the standard library alone.

A campaign's outcome is a :class:`CampaignReport`: its meta record plus
one :class:`StatusReport` per status, each a list of :class:`TestResult`.
The modes live in the meta alone: the real map w * 2^-32 is lossless, so
one status's results stand for every mode. The writer repeats them under
each meta mode, and the reader refuses a file whose modes disagree. This
module holds those records, the two-sided verdict rule, the expected-fail
rule, the Good/Suspect classifier, the registry of Good statuses, and the
writers and readers of ``results.jsonl`` and the registry files.

It is also the one place that builds a results record: :func:`campaign_meta`
builds the meta line and :func:`result_row` a row. The writer prints what
they return; the reader rebuilds each record of a file with them and
refuses any record that differs from its rebuild. It imports neither NumPy nor
SciPy, so the ``report`` and ``registry`` commands load only this module,
``reports``, ``statusfile`` and ``stats.battery``, with which the reader
rebuilds the battery a file names; running a campaign
(``mtstreams.campaign``) is what needs the numeric stack.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from mtstreams._version import VERSION
from mtstreams.statusfile import write_bytes_atomic

MODES = ("int", "real")
# The partitioning techniques' slugs, as status file names and results carry them.
TECHNIQUES = ("split", "random", "indexed")
DEFAULT_EXPECTED_FAIL_IDS = frozenset({"linearcomp.r0", "linearcomp.r29"})


@dataclass
class TestResult:
    """Outcome of one test on one stream view."""

    __test__ = False  # not a pytest collection target

    test_id: str
    family: str
    p_values: dict[str, float]
    verdict: str
    draws: int
    details: dict = field(default_factory=dict)

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
    meta: dict
    reports: list[StatusReport] = field(default_factory=list)


@dataclass
class QualityRegistry:
    """Statuses classified Good, with the modes their results stand for."""

    fingerprint: str
    expected_fail_ids: tuple[str, ...]
    modes: tuple[str, ...]
    entries: list[tuple[str, int, str]]


def classify_status(report: StatusReport, expected_fail_ids=DEFAULT_EXPECTED_FAIL_IDS) -> str:
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


def check_expected_ids(creport: CampaignReport, expected_fail_ids=None) -> frozenset[str]:
    """:func:`resolve_expected_ids` for the battery of ``creport``."""
    return resolve_expected_ids(creport.meta["test_ids"], expected_fail_ids)


def build_registry(creport: CampaignReport, expected_fail_ids=None) -> QualityRegistry:
    """Registry of the statuses classified Good."""
    expected_fail_ids = check_expected_ids(creport, expected_fail_ids)
    checksums = {
        (s["technique"], s["index"]): s["sha256"] for s in creport.meta["statuses"]
    }
    entries = [
        (r.technique, r.index, checksums[(r.technique, r.index)])
        for r in sorted(creport.reports, key=lambda r: (r.technique, r.index))
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


_KEY_SAFE = re.compile(r"[A-Za-z0-9._-]+")
_SHA256 = re.compile(r"[0-9a-f]{64}")


def campaign_meta(battery, threshold: float, modes, statuses, version: str = VERSION) -> dict:
    """The meta record of a campaign over ``statuses``, (technique, index,
    sha256) triples.

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
    records = []
    for technique, index, sha256 in statuses:
        if technique not in TECHNIQUES or type(index) is not int or index < 0:
            raise ValueError(f"status {technique!r}/{index!r} is not a technique and a non-negative int index")
        if type(sha256) is not str or not _SHA256.fullmatch(sha256):
            raise ValueError(f"status sha256 {sha256!r} is not 64 lowercase hex digits")
        records.append({"technique": technique, "index": index, "sha256": sha256})
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


def result_row(
    technique: str, index: int, mode: str, test_id: str, p_values: dict, draws: int, threshold: float
) -> dict:
    """The results row of one test on one status under one mode, with the
    verdict its p-values give at ``threshold``.

    Raises ValueError unless ``p_values`` is a non-empty dict of numbers in
    [0, 1] (ints count, bools, NaN and infinities do not) under names of
    letters, digits, '.', '_' and '-', which the writer need not escape.
    """
    if not isinstance(p_values, dict) or not p_values:
        raise ValueError(f"{test_id}: p_values {p_values!r} is not a non-empty object")
    for key, p in p_values.items():
        if not _KEY_SAFE.fullmatch(key):
            raise ValueError(f"{test_id}: sub-statistic name needs escaping: {key!r}")
        if not (isinstance(p, float) or type(p) is int) or not 0 <= p <= 1:
            raise ValueError(f"{test_id}: p-value {key} = {p!r} is not a number in [0, 1]")
    return {
        "type": "result",
        "technique": technique,
        "index": index,
        "mode": mode,
        "test_id": test_id,
        "p_values": p_values,
        "verdict": _verdict(p_values, threshold),
        "draws": draws,
    }


def _row_line(row: dict) -> str:
    """A row as the writer prints it, in :func:`result_row`'s key order, with
    p-values to 17 significant digits."""
    _, technique, index, mode, test_id, p_values, verdict, draws = row.values()
    pv = ",".join([f'"{k}":{v:.17g}' for k, v in p_values.items()])
    return (
        f'{{"type":"result","technique":"{technique}","index":{index},'
        f'"mode":"{mode}","test_id":"{test_id}","p_values":{{{pv}}},'
        f'"verdict":"{verdict}","draws":{draws}}}'
    )


def write_results_jsonl(creport: CampaignReport, path: Path | str) -> None:
    """One meta line, then one line per (status, meta mode, test), sorted.

    Each line is what :func:`result_row` gives for the result at the meta's
    threshold; a status's rows repeat under each mode. P-values are printed
    with 17 significant digits, which round-trips binary64 exactly; the
    whole file is a pure function of the inputs.
    """
    meta = creport.meta
    lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    modes, eps = sorted(meta["modes"]), meta["threshold"]
    for r in sorted(creport.reports, key=lambda r: (r.technique, r.index)):
        rows = [
            result_row(r.technique, r.index, modes[0], t.test_id, t.p_values, t.draws, eps)
            for t in sorted(r.results, key=lambda t: t.test_id)
        ]
        lines.extend(_row_line(row) for row in rows)
        for mode in modes[1:]:
            lines.extend(_row_line(dict(row, mode=mode)) for row in rows)
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_results_jsonl(path: Path | str) -> CampaignReport:
    """Rebuild a CampaignReport: one report per status, its test results in
    battery order, without details.

    The meta record must equal :func:`campaign_meta` of the battery its
    ``battery_definition`` describes and of its own ``threshold``,
    ``modes``, ``statuses`` and ``version``. Then come, in the writer's
    order, one row per meta status, meta mode and test, each equal to
    :func:`result_row` of that status, mode and test, the test's ``draws``
    and the p-values of the status's row for the test under its first mode,
    with an int index and draw count (not 1.0 or true). Anything else
    raises ValueError rather than being classified.
    """
    from mtstreams.stats.battery import parse_battery

    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty results file")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict) or meta.get("type") != "meta":
        raise ValueError(f"{path}: first line is not the meta record")
    if "battery_definition" not in meta:
        raise ValueError(f"{path}: meta has no battery_definition; re-run `test` to rewrite this file")
    try:
        battery = parse_battery(meta["battery_definition"])
        statuses = [(s["technique"], s["index"], s["sha256"]) for s in meta["statuses"]]
        rebuilt = campaign_meta(battery, meta["threshold"], meta["modes"], statuses, meta["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad meta record: {exc}") from exc
    if meta != rebuilt:
        raise ValueError(f"{path}: meta record differs from the one its own fields give")
    tests = sorted(battery.tests, key=lambda t: t.id)
    modes, eps = sorted(meta["modes"]), meta["threshold"]
    if len(lines) - 1 != len(statuses) * len(modes) * len(tests):
        raise ValueError(f"{path}: {len(lines) - 1} rows, not one per meta status, mode and test")
    rows = enumerate(lines[1:], start=2)
    reports = []
    try:
        for technique, index, _ in sorted(statuses):
            first: dict[str, dict] = {}  # test id -> its row under the first mode
            for mode in modes:
                for test in tests:
                    lineno, line = next(rows)
                    rec = json.loads(line)
                    if mode == modes[0]:
                        row = first[test.id] = result_row(
                            technique, index, mode, test.id, rec["p_values"], test.draws, eps
                        )
                    else:
                        row = dict(first[test.id], mode=mode)
                    if rec != row or type(rec["index"]) is not int or type(rec["draws"]) is not int:
                        if rec["p_values"] != row["p_values"]:
                            raise ValueError(f"{technique}/{index} {mode} p-values differ from its {modes[0]} rows")
                        raise ValueError(f"not the {technique}/{index} {mode} {test.id} row its p-values give")
            results = [
                TestResult(t.id, t.family, first[t.id]["p_values"], first[t.id]["verdict"], t.draws)
                for t in battery.tests
            ]
            reports.append(StatusReport(technique, index, results))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}:{lineno}: malformed record ({exc!r})") from exc
    return CampaignReport(meta=meta, reports=reports)


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
