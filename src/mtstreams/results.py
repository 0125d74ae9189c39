"""Campaign records and their file formats, on the standard library alone.

A campaign's outcome is a :class:`CampaignReport`: its meta record plus
one :class:`StatusReport` per status, each a list of :class:`TestResult`.
The modes live in the meta alone: the real map w * 2^-32 is lossless, so
one status's results stand for every mode. The writer repeats them under
each meta mode, and the reader refuses a file whose modes disagree. This
module holds those records, the two-sided verdict rule, the Good/Suspect
classifier, the registry of Good statuses, and the writers and readers of
``results.jsonl`` and the registry files. It imports neither NumPy nor
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


def check_expected_ids(creport: CampaignReport, expected_fail_ids) -> None:
    unknown = set(expected_fail_ids) - set(creport.meta["test_ids"])
    if unknown:
        raise ValueError(f"expected-fail ids not in battery: {sorted(unknown)}")


def build_registry(
    creport: CampaignReport, expected_fail_ids=DEFAULT_EXPECTED_FAIL_IDS
) -> QualityRegistry:
    """Registry of the statuses classified Good."""
    check_expected_ids(creport, expected_fail_ids)
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


def _fmt17(x: float) -> str:
    return "%.17g" % x


_KEY_SAFE = re.compile(r"^[A-Za-z0-9._-]+$")
_SHA256 = re.compile(r"[0-9a-f]{64}")


def _is_p_value(p: object) -> bool:
    """A number in [0, 1], so neither NaN, an infinity nor a bool.

    Ints count: ``%.17g`` writes the p-values 0.0 and 1.0 as 0 and 1.
    """
    return isinstance(p, (int, float)) and not isinstance(p, bool) and 0 <= p <= 1


def _result_line(r: StatusReport, mode: str, t: TestResult) -> str:
    for key, p in t.p_values.items():
        if not _KEY_SAFE.match(key):
            raise ValueError(f"sub-statistic name needs escaping: {key!r}")
        if not _is_p_value(p):
            raise ValueError(f"{t.test_id}: p-value {key} = {p!r} is not a number in [0, 1]")
    pv = ",".join(f'"{k}":{_fmt17(v)}' for k, v in t.p_values.items())
    return (
        f'{{"type":"result","technique":"{r.technique}","index":{r.index},'
        f'"mode":"{mode}","test_id":"{t.test_id}","p_values":{{{pv}}},'
        f'"verdict":"{t.verdict}","draws":{t.draws}}}'
    )


def write_results_jsonl(creport: CampaignReport, path: Path | str) -> None:
    """One meta line, then one line per (status, meta mode, test), sorted.

    A status's rows repeat under each mode. P-values are printed with 17
    significant digits, which round-trips binary64 exactly; the whole file
    is a pure function of the inputs.
    """
    lines = [json.dumps(creport.meta, sort_keys=True, separators=(",", ":"))]
    for r in sorted(creport.reports, key=lambda r: (r.technique, r.index)):
        results = sorted(r.results, key=lambda t: t.test_id)
        for mode in sorted(creport.meta["modes"]):
            lines.extend(_result_line(r, mode, t) for t in results)
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def _meta_battery(meta: dict):
    """The battery a meta record holds, once the record agrees with it.

    Raises ValueError, KeyError or TypeError otherwise.
    """
    from mtstreams.stats.battery import battery_sha256, parse_battery

    if "battery_definition" not in meta:
        raise ValueError("meta has no battery_definition; re-run `test` to rewrite this file")
    threshold, modes = meta["threshold"], meta["modes"]
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"meta threshold {threshold!r} is not in (0, 0.5)")
    if not modes or len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
        raise ValueError(f"meta modes {modes!r} are not distinct modes from {MODES}")
    for s in meta["statuses"]:
        if s["technique"] not in TECHNIQUES or type(s["index"]) is not int or s["index"] < 0:
            raise ValueError(f"meta status {s['technique']!r}/{s['index']!r} is not a technique and index")
        if not _SHA256.fullmatch(s["sha256"]):
            raise ValueError(f"meta sha256 {s['sha256']!r} is not 64 lowercase hex digits")
    identities = [(s["technique"], s["index"]) for s in meta["statuses"]]
    if len(set(identities)) != len(identities):
        raise ValueError("meta lists a status twice")
    battery = parse_battery(meta["battery_definition"])
    expected = {
        "battery": battery.name,
        "battery_sha256": battery_sha256(battery),
        "test_ids": list(battery.test_ids),
        "fingerprint": campaign_fingerprint(battery, threshold, tuple(modes), meta["version"]),
    }
    for key, value in expected.items():
        if meta[key] != value:
            raise ValueError(f"meta {key} disagrees with its battery_definition")
    return battery


def read_results_jsonl(path: Path | str) -> CampaignReport:
    """Rebuild a CampaignReport: one report per status, its test results in
    battery order, without details.

    The meta record must hold the battery's definition and agree with it:
    its battery name, ``battery_sha256``, ordered ``test_ids`` and
    ``fingerprint`` (recomputed from the meta's threshold, modes and
    version). Its threshold must lie in (0, 0.5), its modes be distinct
    modes from MODES, and its statuses be distinct, each with a technique
    from TECHNIQUES, a non-negative integer index and a SHA-256 of 64
    lowercase hex digits.

    The rows must then be complete and consistent with the meta: exactly
    one row per meta status, meta mode and test id, each with the verdict,
    Pass or Fail, that its p-values give at the meta threshold (exact,
    since p-values are written with 17 significant digits), its
    ``p_values`` a non-empty object whose every value is a number in
    [0, 1], and its test's ``draws``. Anything else (a truncated file, a
    line that is not a JSON object, a duplicated row, a row for an unknown
    status or mode, empty or non-object p-values, a NaN, bool or
    out-of-range p-value, any other verdict or draw count) raises
    ValueError rather than being classified. So does a status whose p-values
    differ between two modes, since one result set stands for every mode.
    """
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty results file")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict) or meta.get("type") != "meta":
        raise ValueError(f"{path}: first line is not the meta record")
    try:
        battery = _meta_battery(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad meta record: {exc}") from exc
    tests = {t.id: t for t in battery.tests}
    grouped: dict[tuple[str, int, str], dict[str, TestResult]] = {
        (s["technique"], s["index"], mode): {} for s in meta["statuses"] for mode in meta["modes"]
    }
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.get("type") != "result":
                raise ValueError(f"{path}:{lineno}: unknown record type")
            unit = grouped.get((rec["technique"], rec["index"], rec["mode"]))
            if unit is None or type(rec["index"]) is not int:  # 1.0 and True hash as 1
                raise ValueError(f"{path}:{lineno}: status or mode not in meta")
            test = tests.get(rec["test_id"])
            if test is None:
                raise ValueError(f"{path}:{lineno}: test id {rec['test_id']!r} not in meta")
            if test.id in unit:
                raise ValueError(f"{path}:{lineno}: duplicate row")
            p_values = rec["p_values"]
            if not isinstance(p_values, dict) or not p_values:
                raise ValueError(f"{path}:{lineno}: p_values {p_values!r} is not a non-empty object")
            for name, p in p_values.items():
                if not _is_p_value(p):
                    raise ValueError(f"{path}:{lineno}: p-value {name} = {p!r} is not a number in [0, 1]")
            verdict = _verdict(p_values, meta["threshold"])
            if rec["verdict"] != verdict:
                raise ValueError(f"{path}:{lineno}: verdict {rec['verdict']!r}, p-values give {verdict}")
            draws = rec["draws"]
            if type(draws) is not int or draws != test.draws:  # 20480.0 == 20480
                raise ValueError(f"{path}:{lineno}: draws {draws!r}, {test.id} reads {test.draws}")
            unit[test.id] = TestResult(
                test_id=test.id,
                family=test.family,
                p_values=p_values,
                verdict=verdict,
                draws=draws,
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed record ({exc!r})") from exc
    first_mode = min(meta["modes"])  # its rows sort first: checked complete before compared
    reports = []
    for (technique, index, mode), unit in sorted(grouped.items()):
        missing = [t for t in battery.test_ids if t not in unit]
        if missing:
            raise ValueError(f"{path}: {technique}/{index} {mode} lacks rows for {missing}")
        first = grouped[technique, index, first_mode]
        if any(unit[t].p_values != first[t].p_values for t in battery.test_ids):
            raise ValueError(f"{path}: {technique}/{index} {mode} p-values differ from its {first_mode} rows")
        if mode == first_mode:
            reports.append(StatusReport(technique, index, [unit[t] for t in battery.test_ids]))
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
