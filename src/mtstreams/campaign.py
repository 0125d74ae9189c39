"""Deterministic battery campaigns over sets of statuses.

A work unit is one status. It generates the status's first
max(analytic_draws) words once, as a read-only array, and runs every
battery test once on a zero-copy prefix of it. The real map w * 2^-32 is
checked to give back every one of those words, so the same results stand
for the int and the real pathway, and the unit yields one report per
requested mode. Work units are pure computations, so the worker count
changes wall time only: results are merged by sorting on (technique,
index, mode, test id) and serialized with fixed formatting, making output
bytes independent of scheduling.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

from mtstreams._version import VERSION
import numpy as np

from mtstreams.mt19937 import MtState, MtStream
from mtstreams.stats.battery import Battery, battery_sha256, dump_battery
from mtstreams.stats.families import TestResult, _verdict, import_family_dependencies, run_test
from mtstreams.stats.stream import StreamView, WordPrefix, analytic_draws, check_real_map_lossless
from mtstreams.statusfile import (
    STATUS_SUFFIX,
    StatusFormatError,
    file_sha256,
    load_status,
    write_bytes_atomic,
)

MODES = ("int", "real")
DEFAULT_EXPECTED_FAIL_IDS = frozenset({"linearcomp.r0", "linearcomp.r29"})

# The names partition.status_filename writes: the index zero-padded to five
# digits, wider from 100000 on.
_STATUS_NAME = re.compile(
    r"^(split|random|indexed)_(\d{5}|[1-9]\d{5,})" + re.escape(STATUS_SUFFIX) + "$"
)


@dataclass(frozen=True)
class StatusEntry:
    """One status to test, with its identity and file checksum."""

    technique: str
    index: int
    state: MtState
    sha256: str


@dataclass
class CampaignConfig:
    battery: Battery
    modes: tuple[str, ...] = MODES
    threshold: float | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.modes or any(m not in MODES for m in self.modes):
            raise ValueError(f"modes must be a nonempty subset of {MODES}, got {self.modes}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def eps(self) -> float:
        return self.battery.threshold if self.threshold is None else self.threshold


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


def campaign_fingerprint(battery: Battery, eps: float, modes: tuple[str, ...]) -> str:
    """Self-describing campaign identity: battery, threshold, modes, version."""
    blob = "\n".join([dump_battery(battery), "%.17g" % eps, ",".join(modes), VERSION])
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def parse_status_filename(name: str) -> tuple[str, int]:
    m = _STATUS_NAME.match(name)
    if not m:
        raise StatusFormatError(
            f"status filename {name!r} must match <technique>_<index>{STATUS_SUFFIX} "
            "with technique in {split, random, indexed} and the index zero-padded "
            "to 5 digits (no leading zero beyond 5 digits)"
        )
    return m.group(1), int(m.group(2))


def load_status_entries(paths: list[Path | str]) -> list[StatusEntry]:
    """Load statuses from directories (all *.mts inside) and single files."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.glob(f"*{STATUS_SUFFIX}")))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    entries = []
    seen: set[tuple[str, int]] = set()
    for f in files:
        technique, index = parse_status_filename(f.name)
        if (technique, index) in seen:
            raise StatusFormatError(f"duplicate status identity {technique}/{index} at {f}")
        seen.add((technique, index))
        entries.append(StatusEntry(technique, index, load_status(f), file_sha256(f)))
    entries.sort(key=lambda e: (e.technique, e.index))
    return entries


def status_words(state: MtState, battery: Battery) -> np.ndarray:
    """The first max(analytic_draws) words of the status, read-only.

    Raises ArithmeticError if the real map does not give back every word.
    """
    words = MtStream(state).take(max(analytic_draws(t.family, t.params) for t in battery.tests))
    words.flags.writeable = False
    check_real_map_lossless(words)
    return words


def run_battery_on_status(
    state: MtState, modes: tuple[str, ...], battery: Battery, eps: float
) -> list[TestResult]:
    """Every battery test once, in order, each on a prefix of one word array.

    The results hold for every mode in ``modes``; the views carry the first.
    """
    words = status_words(state, battery)
    return [run_test(t, StreamView(WordPrefix(words), modes[0]), eps) for t in battery.tests]


def _run_unit(work: tuple[MtState, tuple[str, ...], Battery, float]) -> list[TestResult]:
    return run_battery_on_status(*work)


def run_campaign(entries: list[StatusEntry], config: CampaignConfig) -> CampaignReport:
    eps = config.eps
    work = [(e.state, config.modes, config.battery, eps) for e in entries]
    if config.jobs > 1 and len(work) > 1:
        import_family_dependencies()  # once here, shared by every forked worker
        ctx = get_context("fork")
        with ctx.Pool(min(config.jobs, len(work))) as pool:
            outcomes = pool.map(_run_unit, work)
    else:
        outcomes = [_run_unit(w) for w in work]
    reports = [
        StatusReport(entry.technique, entry.index, mode, results)
        for entry, results in zip(entries, outcomes)
        for mode in config.modes
    ]
    reports.sort(key=lambda r: (r.technique, r.index, r.mode))
    meta = {
        "type": "meta",
        "version": VERSION,
        "fingerprint": campaign_fingerprint(config.battery, eps, tuple(config.modes)),
        "battery": config.battery.name,
        "battery_sha256": battery_sha256(config.battery),
        "threshold": eps,
        "modes": list(config.modes),
        "test_ids": list(config.battery.test_ids),
        "statuses": [
            {"technique": e.technique, "index": e.index, "sha256": e.sha256} for e in entries
        ],
    }
    return CampaignReport(meta=meta, reports=reports)


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


def _result_line(r: StatusReport, t: TestResult) -> str:
    for key in t.p_values:
        if not _KEY_SAFE.match(key):
            raise ValueError(f"sub-statistic name needs escaping: {key!r}")
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
    (exact, since p-values are written with 17 significant digits).
    Anything else (a truncated file, a duplicated row, a row for an unknown
    status or mode, any other verdict) raises ValueError rather than being
    classified.
    """
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty results file")
    meta = json.loads(lines[0])
    if meta.get("type") != "meta":
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
            if rec.get("type") != "result":
                raise ValueError(f"{path}:{lineno}: unknown record type")
            unit = grouped.get((rec["technique"], rec["index"], rec["mode"]))
            if unit is None:
                raise ValueError(f"{path}:{lineno}: status or mode not in meta")
            if rec["test_id"] not in test_ids:
                raise ValueError(f"{path}:{lineno}: test id {rec['test_id']!r} not in meta")
            if rec["test_id"] in unit:
                raise ValueError(f"{path}:{lineno}: duplicate row")
            p_values = dict(rec["p_values"])
            verdict = _verdict(p_values, meta["threshold"])
            if rec["verdict"] != verdict:
                raise ValueError(f"{path}:{lineno}: verdict {rec['verdict']!r}, p-values give {verdict}")
            unit[rec["test_id"]] = TestResult(
                test_id=rec["test_id"],
                family="",
                p_values=p_values,
                verdict=verdict,
                draws=rec["draws"],
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
