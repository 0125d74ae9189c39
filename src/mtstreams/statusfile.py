"""Bit-exact on-disk form of a generator status, its name, and directory verification.

Format (ASCII, LF line endings, no trailing whitespace):

    line 1:        MT19937-STATUS v1
    lines 2-625:   mt[0] .. mt[623], decimal, no leading zeros
    line 626:      mti

Canonical form is enforced on parse so that serialize(parse(f)) == f holds
byte for byte; that is what makes `diff -r`-style verification meaningful.

The module, and the generator core whose statuses it reads and writes,
load only the standard library, so ``verify`` and the results and report
writers never load NumPy. It imports ``hashlib`` where it hashes, so
``verify``, which compares bytes, loads none.
"""
from __future__ import annotations

import os
import re
from pathlib import Path

from mtstreams.mt19937 import N, MtState
from mtstreams.names import TECHNIQUES
from mtstreams.record import Record

HEADER = "MT19937-STATUS v1"
STATUS_SUFFIX = ".mts"

# ASCII digits only: \d would take any Unicode decimal digit, which int() reads.
_STATUS_NAME = re.compile(
    "(" + "|".join(TECHNIQUES) + r")_([0-9]{5}|[1-9][0-9]{5,})" + re.escape(STATUS_SUFFIX)
)

_DECIMAL = re.compile(r"(0|[1-9][0-9]*)")
# Every line after the header, each a canonical decimal, in one match.
_DECIMAL_LINES = re.compile(r"(?:(?:0|[1-9][0-9]*)\n)+")


class StatusFormatError(ValueError):
    """A status file that violates the canonical format."""


def status_filename(technique: str, index: int) -> str:
    """The name :func:`parse_status_filename` reads back; ValueError if none."""
    name = f"{technique}_{index:05d}{STATUS_SUFFIX}"
    if not _STATUS_NAME.fullmatch(name):
        raise ValueError(f"no status file name for {technique!r}/{index!r}")
    return name


def parse_status_filename(name: str) -> tuple[str, int]:
    """(technique, index) of a name :func:`status_filename` writes."""
    m = _STATUS_NAME.fullmatch(name)
    if not m:
        raise StatusFormatError(
            f"status filename {name!r} is not <technique>_<index>{STATUS_SUFFIX}, technique in "
            f"{{{', '.join(TECHNIQUES)}}}, index zero-padded to 5 digits (no leading zero beyond)"
        )
    return m.group(1), int(m.group(2))


def serialize_status(state: MtState) -> str:
    return f"{HEADER}\n" + ("%d\n" * N) % state.words + f"{state.mti}\n"


def parse_status(text: str) -> MtState:
    if not text.endswith("\n") or "\r" in text:
        raise StatusFormatError("file must use LF endings and end with a newline")
    lines = text[:-1].split("\n")
    if len(lines) != N + 2:
        raise StatusFormatError(f"expected {N + 2} lines, got {len(lines)}")
    if lines[0] != HEADER:
        raise StatusFormatError(f"bad header {lines[0]!r}")
    if not _DECIMAL_LINES.fullmatch(text, len(HEADER) + 1):
        lineno, raw = next((i, raw) for i, raw in enumerate(lines[1:], start=2) if not _DECIMAL.fullmatch(raw))
        raise StatusFormatError(f"line {lineno}: not a canonical decimal: {raw!r}")
    values = list(map(int, lines[1:]))
    try:
        return MtState(values[:N], values[N])  # checks words and mti, refuses the all-zero state
    except ValueError as exc:
        raise StatusFormatError(str(exc)) from exc


def write_bytes_atomic(path: Path | str, data: bytes) -> None:
    """Write data through a temporary file beside path, then rename it over.

    Readers see the old file or the new one, never a part; a write that
    fails leaves an existing file as it was. A path that exists but is not a
    regular file (a device, a pipe) is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_status(path: Path | str, state: MtState) -> bytes:
    """Write the status file; returns the bytes written."""
    data = serialize_status(state).encode("ascii")
    Path(path).write_bytes(data)
    return data


def load_status(path: Path | str) -> MtState:
    return load_status_sha256(path)[0]


def load_status_sha256(path: Path | str) -> tuple[MtState, str]:
    """The status and the SHA-256 of the bytes it was parsed from, in one read."""
    import hashlib

    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise StatusFormatError(f"{path}: not ASCII: {exc}") from exc
    try:
        return parse_status(text), hashlib.sha256(data).hexdigest()
    except StatusFormatError as exc:
        raise StatusFormatError(f"{path}: {exc}") from exc


# The package does not call it; bench/ traces it by name.
def file_sha256(path: Path | str) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class VerifyReport(Record):
    """Byte-level comparison of two status-set directories: the relative
    paths found identical, differing, and only under the first or the second."""

    __slots__ = _fields = ("identical", "differing", "only_a", "only_b")

    def __init__(self, identical: list[str], differing: list[str], only_a: list[str], only_b: list[str]) -> None:
        self.identical = identical
        self.differing = differing
        self.only_a = only_a
        self.only_b = only_b

    @property
    def ok(self) -> bool:
        return not (self.differing or self.only_a or self.only_b)


def _regular_files(root: Path) -> set[str]:
    """Paths relative to root of the regular files below it. Like
    `Path.rglob`, it does not descend into symlinked directories."""
    files: set[str] = set()
    pending = [""]
    while pending:
        rel = pending.pop()
        with os.scandir(root / rel) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    pending.append(os.path.join(rel, entry.name))
                elif entry.is_file():
                    files.add(os.path.join(rel, entry.name))
    return files


def verify_sets(dir_a: Path | str, dir_b: Path | str) -> VerifyReport:
    """Recursive byte comparison of all regular files under two directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            raise FileNotFoundError(f"not a directory: {d}")
    files_a, files_b = _regular_files(dir_a), _regular_files(dir_b)
    identical: list[str] = []
    differing: list[str] = []
    for rel in sorted(files_a & files_b):
        same = (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()
        (identical if same else differing).append(rel)
    return VerifyReport(identical, differing, sorted(files_a - files_b), sorted(files_b - files_a))
