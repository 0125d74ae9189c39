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
import pickle
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
    the mmap one is. Forked workers inherit the setting.

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
    status, in meta order, whose results never came.
    """
    eps = config.eps
    meta = campaign_meta(config.battery, eps, config.modes, [(e.technique, e.index, e.sha256) for e in entries])
    states = {(e.technique, e.index): e.state for e in entries}
    work = [(states[s["technique"], s["index"]], config.modes, config.battery, eps) for s in meta["statuses"]]
    workers = min(config.jobs, len(work), usable_cpus())
    outcomes = _run_in_workers(work, meta["statuses"], workers) if workers > 1 else (run_battery_on_status(*w) for w in work)
    # closing: an interrupt between two units still ends the workers.
    with contextlib.closing(outcomes):
        return CampaignReport(meta=meta, results=list(outcomes))


def _run_in_workers(work: list[tuple], statuses: list[dict], workers: int) -> Iterator[list[TestResult]]:
    """Run the units on ``workers`` forked processes; yield their results
    in the order of ``work``.

    Worker w ignores SIGINT, moves to the w-th usable CPU (cycled) and back
    to them all, as a kernel that does not balance load would leave it on
    its parent's CPU, then runs ``work[w::workers]`` and writes each unit's
    pickled (ok, results or exception) to a pipe of its own: unit k is read
    from pipe k % workers. A unit's exception is raised again here; a pipe
    that ends early raises ChildProcessError naming the status it owed. The
    workers are killed and reaped when the generator ends, raises or closes.
    """
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            pid = os.fork()
            if pid == 0:
                try:
                    for pipe in pipes:  # held here, a read end keeps a dead parent's full pipe blocking this worker
                        pipe.close()
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C reaches the group; the parent acts on it
                    with contextlib.suppress(AttributeError, OSError):  # no affinity calls, or refused: stay put
                        usable = sorted(os.sched_getaffinity(0))
                        os.sched_setaffinity(0, {usable[w % len(usable)]})
                        os.sched_setaffinity(0, usable)
                    with open(write_end, "wb") as out:
                        for args in work[w::workers]:
                            try:
                                outcome = (True, run_battery_on_status(*args))
                            except Exception as exc:
                                outcome = (False, exc)
                            out.write(pickle.dumps(outcome))
                            out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)  # the work raised: never back into the parent's code
            pids.append(pid)
            os.close(write_end)
        for k, status in enumerate(statuses):
            try:
                ok, outcome = pickle.load(pipes[k % workers])
            except (EOFError, pickle.UnpicklingError):  # the worker ended before writing it whole
                name = f"{status['technique']}/{status['index']}"
                raise ChildProcessError(f"a worker process died before status {name} finished") from None
            if not ok:
                raise outcome
            yield outcome
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
