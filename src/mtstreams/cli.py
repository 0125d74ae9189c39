"""Command-line entry point.

Subcommands: gen, test, report, registry, verify. Every invocation is
deterministic: identical inputs and flags yield identical output bytes and
exit codes. Exit codes: 0 success; 1 usage; 2 I/O or parse failure, a
``test --out`` that is a directory or lies in a missing one (refused
before any status loads), or a ``test`` unit that raised or worker that
died; 3 strict-mode quality failure or verify difference; 130
interrupted (SIGINT).

Each command loads only what it runs: the parser needs only the names in
:mod:`mtstreams.names`, and each ``_cmd_*`` function imports its own
modules. ``verify`` loads ``statusfile`` (and the generator core's status
record) and compares bytes, with no hashing and no JSON. ``gen`` loads
``partition``; with ``--technique indexed`` or ``random`` that is the
standard library alone, since a status is 2496 bytes, seeding is pure
Python and a random status's words come from the standard library's
MT19937, while ``split`` imports NumPy to skip draws. ``report`` loads
``results`` and ``reports``, ``registry`` loads ``results``, and both read
the battery module to rebuild a file's battery. ``test`` imports
``campaign`` and the battery, which bring NumPy and the test families,
and ``concurrent.futures`` with ``multiprocessing`` only when it forks
workers. The families' chi-square and Poisson p-values compute the
incomplete gamma tails in the standard library's ``decimal``, which
``test`` loads with them; no command loads SciPy. The package's records
are plain ``__slots__`` classes (:mod:`mtstreams.record`), whose
definitions load no ``inspect``.

A process gives back no memory it is about to reuse or drop. ``test``
calls :func:`mtstreams.campaign.keep_freed_memory` before the campaign, so
under glibc each status reuses the pages the one before it freed instead
of faulting them in again. The process entry, :func:`entry`, starts no
idle BLAS thread, and it freezes the collector's objects after
:func:`main` returns, so the exit scans none of them; :func:`main` itself
leaves an in-process caller's environment and collector alone.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn

from mtstreams._version import VERSION
from mtstreams.names import DEFAULT_EXPECTED_FAIL_IDS, MODES, TABLES, TECHNIQUES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_QUALITY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT

DEFAULT_EXPECTED = ",".join(sorted(DEFAULT_EXPECTED_FAIL_IDS))

# advance() is linear in the draws it skips: 0.049 s per 10^7 draws on a
# 2-core x86-64 host (Python 3.11, NumPy 2.4). Above WARN_ADVANCE_DRAWS,
# gen --technique split says on stderr how long it expects to take.
ADVANCE_S_PER_DRAW = 0.049e-7
WARN_ADVANCE_DRAWS = 10**9


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _id_list(raw: str) -> frozenset[str]:
    """A comma-separated list of test ids; blank items are dropped."""
    return frozenset(s for s in (part.strip() for part in raw.split(",")) if s)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mtstreams", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mtstreams {VERSION}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a status set + manifest")
    gen.add_argument("--technique", required=True, choices=TECHNIQUES)
    gen.add_argument("--count", type=int, required=True, help="number of statuses")
    gen.add_argument(
        "--seed",
        type=int,
        default=0,
        help="indexed: first seed; split: base seed; random: master seed (default 0)",
    )
    gen.add_argument(
        "--spacing",
        type=int,
        default=10**6,
        help="split only: draws between consecutive statuses (default 1000000)",
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_gen)

    test = sub.add_parser("test", help="run a battery campaign")
    test.add_argument("--dir", action="append", default=[], help="directory of *.mts statuses (repeatable)")
    test.add_argument("--status", action="append", default=[], help="single status file (repeatable)")
    test.add_argument("--battery", default="mini-crush-v1", help="built-in name or battery JSON path (default mini-crush-v1); an entry may read at most 2^28 words")
    test.add_argument("--mode", choices=["int", "real", "both"], default="both")
    test.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="two-sided failure threshold epsilon (default: the battery's; 1e-10 for mini-crush-v1)",
    )
    test.add_argument("--jobs", type=int, default=None, help="worker count, capped at the usable CPUs (default: the usable CPUs); affects wall time only, never output bytes")
    test.add_argument("--out", default="results.jsonl", help="results JSONL path (default results.jsonl)")
    test.add_argument("--strict", action="store_true", help="exit 3 if any status is Suspect")
    test.add_argument(
        "--expected-fail",
        type=_id_list,
        default=None,
        help=f"ids exempted from strict classification (default {DEFAULT_EXPECTED}, where present in the battery)",
    )
    test.set_defaults(func=_cmd_test)

    report = sub.add_parser("report", help="render campaign tables")
    report.add_argument("--results", required=True, help="results JSONL path")
    report.add_argument("--tables", default=",".join(TABLES), help=f"comma list from {{{','.join(TABLES)}}} (default all)")
    report.add_argument("--format", choices=["md", "csv", "json"], default="md")
    report.add_argument("--expected-fail", type=_id_list, default=None, help=f"classification exemptions (default {DEFAULT_EXPECTED}, where present in the battery)")
    report.add_argument("--out", default=None, help="write to file instead of stdout")
    report.set_defaults(func=_cmd_report)

    registry = sub.add_parser("registry", help="write the Good-status registry")
    registry.add_argument("--results", required=True, help="results JSONL path")
    registry.add_argument("--expected-fail", type=_id_list, default=None, help=f"expected-failure ids (default {DEFAULT_EXPECTED}, where present in the battery)")
    registry.add_argument("--out", required=True, help="registry text path; a .json twin is written beside it")
    registry.set_defaults(func=_cmd_registry)

    verify = sub.add_parser("verify", help="byte-compare two status directories")
    verify.add_argument("--dir", action="append", default=[], help="directory (give exactly twice)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    from mtstreams.mt19937 import ADVANCE_LIMIT
    from mtstreams.partition import (
        generate_indexed,
        generate_random_spacing,
        generate_sequence_splitting,
        write_status_set,
    )

    try:
        if args.technique == "split":
            draws = (args.count - 1) * args.spacing
            # A spacing the generator refuses gets its usage error below, not a warning.
            if draws > WARN_ADVANCE_DRAWS and args.spacing < ADVANCE_LIMIT:
                secs = draws * ADVANCE_S_PER_DRAW
                print(
                    f"warning: split advances {draws} draws, about {secs:.0f} s ({secs / 3600:.1f} h) "
                    f"at {ADVANCE_S_PER_DRAW * 1e7:g} s per 10^7 draws",
                    file=sys.stderr,
                )
            sset = generate_sequence_splitting(args.seed, args.spacing, args.count)
        elif args.technique == "random":
            sset = generate_random_spacing(args.seed, args.count)
        else:
            sset = generate_indexed(args.seed, args.count)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fingerprint = write_status_set(sset, args.out)
    print(f"{args.technique} x{args.count} -> {args.out}")
    print(f"fingerprint {fingerprint}")
    return EXIT_OK


def _cmd_test(args: argparse.Namespace) -> int:
    inputs = list(args.dir) + list(args.status)
    if not inputs:
        raise UsageError("give at least one --dir or --status")
    # The results are written after the last unit: a path that cannot take them is refused first.
    out = Path(args.out)
    if out.is_dir():
        raise IsADirectoryError(f"--out {args.out} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"--out {args.out}: no directory {out.parent}")

    from mtstreams.campaign import CampaignConfig, keep_freed_memory, load_status_entries, run_campaign, usable_cpus
    from mtstreams.results import classify_status, resolve_expected_ids, write_results_jsonl
    from mtstreams.stats.battery import load_battery

    battery = load_battery(args.battery)
    modes = MODES if args.mode == "both" else (args.mode,)
    cpus = usable_cpus()
    try:
        jobs = cpus if args.jobs is None else args.jobs
        config = CampaignConfig(battery=battery, modes=modes, threshold=args.threshold, jobs=jobs)
        expected = resolve_expected_ids(battery.test_ids, args.expected_fail)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if jobs > cpus:
        print(f"note: --jobs {jobs} capped at {cpus}, the usable CPUs", file=sys.stderr)
    entries = load_status_entries(inputs)
    keep_freed_memory()
    creport = run_campaign(entries, config)
    write_results_jsonl(creport, args.out)
    suspects = [r for r in creport.reports if classify_status(r, expected) == "Suspect"]
    print(f"tested {len(entries)} statuses x {len(modes)} modes with {battery.name}")
    print(f"wrote {args.out}")
    print(f"fingerprint {creport.meta['fingerprint']}")
    print(f"suspect statuses: {len(suspects)}")
    if args.strict and suspects:
        return EXIT_QUALITY
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from mtstreams.reports import render_report
    from mtstreams.results import read_results_jsonl
    from mtstreams.statusfile import write_bytes_atomic

    creport = read_results_jsonl(args.results)
    tables = [t.strip() for t in args.tables.split(",") if t.strip()]
    try:
        text = render_report(creport, tables, args.format, args.expected_fail)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_bytes_atomic(args.out, text.encode("ascii"))
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_registry(args: argparse.Namespace) -> int:
    from mtstreams.results import build_registry, read_results_jsonl, write_registry

    creport = read_results_jsonl(args.results)
    try:
        registry = build_registry(creport, args.expected_fail)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text_path = Path(args.out)
    if text_path.suffix == ".json":
        json_path = text_path
        text_path = text_path.with_suffix(".txt")
    else:
        json_path = text_path.with_suffix(".json")
    write_registry(registry, text_path, json_path)
    print(f"registry: {len(registry.entries)} Good statuses -> {text_path}, {json_path}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if len(args.dir) != 2:
        raise UsageError("verify needs exactly two --dir arguments")
    from mtstreams.statusfile import verify_sets

    report = verify_sets(args.dir[0], args.dir[1])
    for rel in report.differing:
        print(f"differs: {rel}")
    for rel in report.only_a:
        print(f"only in {args.dir[0]}: {rel}")
    for rel in report.only_b:
        print(f"only in {args.dir[1]}: {rel}")
    print(
        f"{len(report.identical)} identical, {len(report.differing)} differing, "
        f"{len(report.only_a) + len(report.only_b)} unmatched"
    )
    return EXIT_OK if report.ok else EXIT_QUALITY


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise UsageError("missing command (try --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # StatusFormatError and UnicodeDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> NoReturn:
    """The process entry of ``python -m mtstreams.cli`` and the ``mtstreams``
    script: run :func:`main` and exit with its code.

    ``OPENBLAS_NUM_THREADS`` is 1 unless the caller sets it: the package
    makes no BLAS call, and NumPy's OpenBLAS would otherwise start a worker
    thread for each further CPU when it loads, which spins and costs CPU.
    After ``main``, ``gc.freeze()`` moves every live object out of the
    collector's reach, so the interpreter's final collection has nothing to
    scan. The process is about to drop them all, and the scan cost 9-17 ms
    per stdlib-only command, 20 ms once NumPy was loaded.

    A SIGINT (Ctrl-C) prints one line on stderr in place of a traceback and
    exits 130, the shell's code for it. ``test``'s pool workers ignore it,
    and so does the process once interrupted, while its exit waits for them
    to finish the units they hold. A results file is written whole or not
    at all.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        rc = main()
    except KeyboardInterrupt:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # while the exit waits for any workers
        print("interrupted", file=sys.stderr)
        rc = EXIT_INTERRUPTED
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    entry()
