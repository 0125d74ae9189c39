"""Deterministic battery campaigns over sets of statuses: the runner.

A work unit is one status. It generates the longest prefix any battery
entry reads (the largest ``draws``) once, as a read-only array, and runs
every battery test once on a zero-copy prefix of it. The real map w * 2^-32 is
exact for 32-bit words, and floor(u * 2^32) gives every word back (see
:mod:`mtstreams.stats.stream`), so the same results stand for the int and
the real pathway: the unit yields one report, and the requested modes are
recorded once, in the meta. Work units are pure computations, so the
worker count changes wall time only: reports are sorted on (technique,
index) and serialized with fixed formatting, making output bytes
independent of scheduling. The meta record comes from
:func:`mtstreams.results.campaign_meta` before any unit runs.

This is the module that loads NumPy and the test families; only the
``test`` command imports it. The records it returns, the results and
registry files and the classifier live in :mod:`mtstreams.results`.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from mtstreams.mt19937 import MtState, MtStream
from mtstreams.results import (
    MODES,
    TECHNIQUES,
    CampaignReport,
    StatusReport,
    TestResult,
    campaign_meta,
)
from mtstreams.stats.battery import Battery
from mtstreams.stats.families import run_test
from mtstreams.stats.stream import StreamView, WordPrefix
from mtstreams.statusfile import STATUS_SUFFIX, StatusFormatError, file_sha256, load_status

# Unused here: bench/ (its tracer targets and probes) imports these from this module.
from mtstreams.results import (  # noqa: F401
    build_registry,
    read_results_jsonl,
    write_registry,
    write_results_jsonl,
)

# The names partition.status_filename writes: the index zero-padded to five
# digits, wider from 100000 on.
_STATUS_NAME = re.compile(
    "^(" + "|".join(TECHNIQUES) + r")_(\d{5}|[1-9]\d{5,})" + re.escape(STATUS_SUFFIX) + "$"
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
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        campaign_meta(self.battery, self.eps, self.modes, ())  # the meta's threshold and mode rules

    @property
    def eps(self) -> float:
        return self.battery.threshold if self.threshold is None else self.threshold


def usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parse_status_filename(name: str) -> tuple[str, int]:
    m = _STATUS_NAME.match(name)
    if not m:
        raise StatusFormatError(
            f"status filename {name!r} must match <technique>_<index>{STATUS_SUFFIX} "
            f"with technique in {{{', '.join(TECHNIQUES)}}} and the index zero-padded "
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
    """The status's first words, as many as the battery's longest read, read-only."""
    words = MtStream(state).take(max(t.draws for t in battery.tests))
    words.flags.writeable = False
    return words


def run_battery_on_status(
    state: MtState, modes: tuple[str, ...], battery: Battery, eps: float
) -> list[TestResult]:
    """Every battery test once, in order, each on a prefix of one word array.

    The results hold for every mode in ``modes``; the views carry the first.
    """
    words = status_words(state, battery)
    return [run_test(t, StreamView(WordPrefix(words), modes[0]), eps) for t in battery.tests]


def run_campaign(entries: list[StatusEntry], config: CampaignConfig) -> CampaignReport:
    """Test every status; ``config.jobs`` workers at most, and no more than
    there are statuses or usable CPUs.

    The meta record is built first, so entries that list a status twice or
    carry a malformed ``sha256`` raise ValueError before any unit runs.
    """
    eps = config.eps
    statuses = [(e.technique, e.index, e.sha256) for e in entries]
    meta = campaign_meta(config.battery, eps, config.modes, statuses)
    work = [(e.state, config.modes, config.battery, eps) for e in entries]
    workers = min(config.jobs, len(work), usable_cpus())
    if workers > 1:
        ctx = get_context("fork")
        with ctx.Pool(workers) as pool:
            outcomes = pool.starmap(run_battery_on_status, work)
    else:
        outcomes = [run_battery_on_status(*w) for w in work]
    reports = [StatusReport(e.technique, e.index, results) for e, results in zip(entries, outcomes)]
    reports.sort(key=lambda r: (r.technique, r.index))
    return CampaignReport(meta=meta, reports=reports)
