"""Deterministic battery campaigns over sets of statuses: the runner.

A work unit is one status. It generates the longest prefix any battery
entry reads (the largest ``draws``) once, as a read-only array, and runs
every battery test once on a view that reads a zero-copy prefix of it.
The real map w * 2^-32 is exact for 32-bit words, and floor(u * 2^32)
gives every word back (see README "Modes"), so the same results stand
for the int and the real pathway: the unit yields one result list, and
the status and the requested modes are recorded once, in the meta, which
:func:`mtstreams.results.campaign_meta` builds before any unit runs.
Units are pure computations, run and reported in the meta's (technique,
index) order, so neither the worker count nor the order of the entries
changes the output bytes.

This is the module that loads NumPy and the test families; only the
``test`` command imports it. The records it returns, the results and
registry files and the classifier live in :mod:`mtstreams.results`.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import signal
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (loaded once here, before any fork, not in each worker's first unit)

from mtstreams.mt19937 import MtState, MtStream
from mtstreams.names import MODES
from mtstreams.record import FrozenRecord, Record
from mtstreams.results import CampaignReport, TestResult, campaign_meta
from mtstreams.stats.battery import Battery
from mtstreams.stats.families import run_test
from mtstreams.stats.stream import StreamView
from mtstreams.statusfile import STATUS_SUFFIX, StatusFormatError, load_status_sha256, parse_status_filename

# Unused here: bench/ (its tracer targets and probes) imports these from this module.
from mtstreams.results import (  # noqa: F401
    build_registry,
    read_results_jsonl,
    write_registry,
    write_results_jsonl,
)


class StatusEntry(FrozenRecord):
    """One status to test, with its identity and file checksum."""

    __slots__ = _fields = ("technique", "index", "state", "sha256")

    def __init__(self, technique: str, index: int, state: MtState, sha256: str) -> None:
        self._set(technique=technique, index=index, state=state, sha256=sha256)


class CampaignConfig(Record):
    """A campaign's battery, modes, threshold (None: the battery's) and
    worker count; the constructor applies the meta's threshold and mode rules."""

    __slots__ = _fields = ("battery", "modes", "threshold", "jobs")

    def __init__(
        self, battery: Battery, modes: tuple[str, ...] = MODES, threshold: float | None = None, jobs: int = 1
    ) -> None:
        self.battery = battery
        self.modes = modes
        self.threshold = threshold
        self.jobs = jobs
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        campaign_meta(battery, self.eps, modes, ())

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


# glibc's mallopt parameters (<malloc.h>) and the values keep_freed_memory sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 256 << 20


def keep_freed_memory() -> bool:
    """Have glibc keep freed memory mapped for the rest of the process;
    True if both thresholds were set, False elsewhere.

    A unit's arrays (its 4 MB of words first) are freed when it ends, and by
    default glibc hands them back to the kernel: the next unit maps them
    afresh, about 1960 minor page faults for a ``mini-crush-v1`` status.
    glibc maps a block above the mmap threshold on its own and unmaps it
    when freed, and gives back a free heap top above the trim threshold;
    a ``mini-crush-v1`` unit stays far below 64 and 256 MiB. Setting
    either alone turns off glibc's adjustment of the other and costs more
    faults than setting neither, so the trim threshold is set only once
    the mmap one is. Fork-pool workers inherit the setting.

    A process-wide setting: the ``test`` command calls this before
    :func:`run_campaign`, which leaves a library caller's allocator alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1 and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1


def load_status_entries(paths: list[Path | str]) -> list[StatusEntry]:
    """Load statuses from directories (all *.mts inside) and single files,
    each read once: its SHA-256 is that of the bytes parsed."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.glob(f"*{STATUS_SUFFIX}")))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    entries: dict[tuple[str, int], StatusEntry] = {}
    for f in files:
        key = parse_status_filename(f.name)
        if key in entries:
            raise StatusFormatError(f"duplicate status identity {key[0]}/{key[1]} at {f}")
        entries[key] = StatusEntry(*key, *load_status_sha256(f))
    return list(entries.values())


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
    return [run_test(t, StreamView(words, modes[0]), eps) for t in battery.tests]


def run_campaign(entries: list[StatusEntry], config: CampaignConfig) -> CampaignReport:
    """Test every status; ``config.jobs`` workers at most, and no more than
    there are statuses or usable CPUs. The result lists follow the meta's
    statuses, whatever the order of ``entries``.

    The meta record is built first, so entries that list a status twice or
    carry a malformed ``sha256`` raise ValueError before any unit runs. A
    worker that dies mid-unit raises ChildProcessError naming the first
    status that did not finish.
    """
    eps = config.eps
    meta = campaign_meta(config.battery, eps, config.modes, [(e.technique, e.index, e.sha256) for e in entries])
    states = {(e.technique, e.index): e.state for e in entries}
    work = [(states[s["technique"], s["index"]], config.modes, config.battery, eps) for s in meta["statuses"]]
    workers = min(config.jobs, len(work), usable_cpus())
    outcomes = _run_in_workers(work, meta["statuses"], workers) if workers > 1 else (run_battery_on_status(*w) for w in work)
    # list reads the outcomes to their end, where a pool shuts down; closing: an interrupt cancels the rest.
    with contextlib.closing(outcomes):
        return CampaignReport(meta=meta, results=list(outcomes))


def _start_worker(cpus) -> None:
    """A pool worker's initializer: ignore SIGINT, then, if ``cpus`` is a
    queue, move to the CPU taken from it and allow every usable CPU again.

    A kernel that does not balance load leaves a forked worker on its
    parent's CPU, and there it stays once its affinity is widened again;
    a kernel that does may still move it. An OSError leaves it where it is.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpus is None:
        return
    try:
        usable = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus.get()})
        os.sched_setaffinity(0, usable)
    except OSError:
        pass


def _run_in_workers(work: list[tuple], statuses: list[dict], workers: int) -> Iterator[list[TestResult]]:
    """Run the units through the ``map`` of a pool of forked workers, which
    ignore SIGINT and start on CPUs of their own where the platform lets
    them; yield the outcomes in the order of ``work``.

    If a worker dies, the pool fails every unit it had not finished, and
    the first of them in ``work`` order is named. On an error, an
    interrupt or the generator's close, a thread of its own shuts the pool
    down, cancelling the units not yet queued for a worker, and the call
    returns at once. That thread keeps the pool alive until the units are
    cancelled (a pool collected sooner runs them all), and it alone waits
    for the few the workers hold; the interpreter waits for it at exit. (A
    join here could be cut short by a second interrupt, leaving the pool's
    shutdown waiting forever.)
    """
    import threading
    from concurrent.futures import ProcessPoolExecutor  # imports that one worker skips
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    context = get_context("fork")
    cpus = None
    if hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity"):
        usable = sorted(os.sched_getaffinity(0))
        cpus = context.SimpleQueue()
        for i in range(workers):  # cycled: a worker that found the queue empty would wait forever
            cpus.put(usable[i % len(usable)])
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(cpus,))
    done = 0  # the outcomes yielded
    try:
        for done, results in enumerate(pool.map(run_battery_on_status, *zip(*work)), 1):
            yield results
    except BaseException as exc:
        threading.Thread(target=pool.shutdown, kwargs={"cancel_futures": True}).start()
        if isinstance(exc, BrokenProcessPool):
            s = statuses[done]
            name = f"{s['technique']}/{s['index']}"
            raise ChildProcessError(f"a worker process died before status {name} finished") from exc
        raise
    pool.shutdown()
