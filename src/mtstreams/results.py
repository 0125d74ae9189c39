"""Campaign records and their file formats, on the standard library alone.

A campaign's outcome is a :class:`CampaignReport`: its meta record plus
one :class:`StatusReport` per (status, mode) unit, each a list of
:class:`TestResult`. This module holds those records, the two-sided
verdict rule, the Good/Suspect classifier, the registry of Good statuses,
and the writers and readers of ``results.jsonl`` and the registry files.
It imports neither NumPy nor SciPy, so the ``report`` and ``registry``
commands load only this module, ``reports`` and ``statusfile``; running a
campaign (``mtstreams.campaign``) is what needs the numeric stack.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from mtstreams.statusfile import write_bytes_atomic

MODES = ("int", "real")
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
    """Battery outcome for one (status, mode) unit, in battery order."""

    technique: str
    index: int
    mode: str
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
    """Statuses classified Good in every requested mode."""

    fingerprint: str
    expected_fail_ids: tuple[str, ...]
    modes: tuple[str, ...]
    entries: list[tuple[str, int, str]]


def classify_status(report: StatusReport, expected_fail_ids=DEFAULT_EXPECTED_FAIL_IDS) -> str:
    """Good iff the failed ids are a subset of the expected-failure ids."""
    return "Good" if set(report.failed_ids) <= set(expected_fail_ids) else "Suspect"


def check_expected_ids(creport: CampaignReport, expected_fail_ids) -> None:
    unknown = set(expected_fail_ids) - set(creport.meta["test_ids"])
    if unknown:
        raise ValueError(f"expected-fail ids not in battery: {sorted(unknown)}")


def build_registry(
    creport: CampaignReport, expected_fail_ids=DEFAULT_EXPECTED_FAIL_IDS
) -> QualityRegistry:
    """Registry of statuses classified Good in every requested mode."""
    check_expected_ids(creport, expected_fail_ids)
    modes = tuple(creport.meta["modes"])
    checksums = {
        (s["technique"], s["index"]): s["sha256"] for s in creport.meta["statuses"]
    }
    verdicts: dict[tuple[str, int], dict[str, str]] = {}
    for r in creport.reports:
        verdicts.setdefault((r.technique, r.index), {})[r.mode] = classify_status(
            r, expected_fail_ids
        )
    entries = []
    for (technique, index), by_mode in sorted(verdicts.items()):
        if all(by_mode.get(m) == "Good" for m in modes):
            entries.append((technique, index, checksums[(technique, index)]))
    return QualityRegistry(
        fingerprint=creport.meta["fingerprint"],
        expected_fail_ids=tuple(sorted(expected_fail_ids)),
        modes=modes,
        entries=entries,
    )


def _fmt17(x: float) -> str:
    return "%.17g" % x


_KEY_SAFE = re.compile(r"^[A-Za-z0-9._-]+$")


def _is_p_value(p: object) -> bool:
    """A number in [0, 1], so neither NaN, an infinity nor a bool.

    Ints count: ``%.17g`` writes the p-values 0.0 and 1.0 as 0 and 1.
    """
    return isinstance(p, (int, float)) and not isinstance(p, bool) and 0 <= p <= 1


def _result_line(r: StatusReport, t: TestResult) -> str:
    for key, p in t.p_values.items():
        if not _KEY_SAFE.match(key):
            raise ValueError(f"sub-statistic name needs escaping: {key!r}")
        if not _is_p_value(p):
            raise ValueError(f"{t.test_id}: p-value {key} = {p!r} is not a number in [0, 1]")
    pv = ",".join(f'"{k}":{_fmt17(v)}' for k, v in t.p_values.items())
    return (
        f'{{"type":"result","technique":"{r.technique}","index":{r.index},'
        f'"mode":"{r.mode}","test_id":"{t.test_id}","p_values":{{{pv}}},'
        f'"verdict":"{t.verdict}","draws":{t.draws}}}'
    )


def write_results_jsonl(creport: CampaignReport, path: Path | str) -> None:
    """One meta line, then one line per (status, mode, test), sorted.

    P-values are printed with 17 significant digits, which round-trips
    binary64 exactly; the whole file is a pure function of the inputs.
    """
    lines = [json.dumps(creport.meta, sort_keys=True, separators=(",", ":"))]
    for r in sorted(creport.reports, key=lambda r: (r.technique, r.index, r.mode)):
        for t in sorted(r.results, key=lambda t: t.test_id):
            lines.append(_result_line(r, t))
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_results_jsonl(path: Path | str) -> CampaignReport:
    """Rebuild a CampaignReport (test results in file order, no details).

    The file must be complete and consistent with its meta record: exactly
    one row per meta status, meta mode and meta test id, each with the
    verdict, Pass or Fail, that its p-values give at the meta threshold
    (exact, since p-values are written with 17 significant digits), every
    p-value a number in [0, 1] and a ``draws`` that is a non-negative
    integer. Anything else (a truncated file, a line that is not a JSON
    object, a duplicated row, a row for an unknown status or mode, a NaN,
    bool or out-of-range p-value, any other verdict or draw count) raises
    ValueError rather than being classified.
    """
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty results file")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict) or meta.get("type") != "meta":
        raise ValueError(f"{path}: first line is not the meta record")
    try:
        test_ids = set(meta["test_ids"])
        grouped: dict[tuple[str, int, str], dict[str, TestResult]] = {
            (s["technique"], s["index"], mode): {}
            for s in meta["statuses"]
            for mode in meta["modes"]
        }
        for lineno, line in enumerate(lines[1:], start=2):
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.get("type") != "result":
                raise ValueError(f"{path}:{lineno}: unknown record type")
            unit = grouped.get((rec["technique"], rec["index"], rec["mode"]))
            if unit is None:
                raise ValueError(f"{path}:{lineno}: status or mode not in meta")
            if rec["test_id"] not in test_ids:
                raise ValueError(f"{path}:{lineno}: test id {rec['test_id']!r} not in meta")
            if rec["test_id"] in unit:
                raise ValueError(f"{path}:{lineno}: duplicate row")
            p_values = dict(rec["p_values"])
            for name, p in p_values.items():
                if not _is_p_value(p):
                    raise ValueError(f"{path}:{lineno}: p-value {name} = {p!r} is not a number in [0, 1]")
            verdict = _verdict(p_values, meta["threshold"])
            if rec["verdict"] != verdict:
                raise ValueError(f"{path}:{lineno}: verdict {rec['verdict']!r}, p-values give {verdict}")
            draws = rec["draws"]
            if type(draws) is not int or draws < 0:  # a bool is not a draw count
                raise ValueError(f"{path}:{lineno}: draws {draws!r} is not a non-negative integer")
            unit[rec["test_id"]] = TestResult(
                test_id=rec["test_id"],
                family="",
                p_values=p_values,
                verdict=verdict,
                draws=draws,
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed record ({exc!r})") from exc
    reports = []
    for (technique, index, mode), unit in sorted(grouped.items()):
        missing = sorted(test_ids - set(unit))
        if missing:
            raise ValueError(f"{path}: {technique}/{index} {mode} lacks rows for {missing}")
        reports.append(StatusReport(technique, index, mode, list(unit.values())))
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
