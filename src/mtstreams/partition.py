"""Status-set generation via three partitioning techniques, plus overlap risk.

- Sequence splitting: one base stream, statuses saved every `spacing` draws.
- Random spacing: a master generator's outputs fill each 624-word status.
- Indexed sequence: status i is the full seeding expansion of seed start+i.

A StatusSet is a pure function of its provenance; writing a set produces
stable filenames and a manifest, so regeneration is byte-identical. A set's
technique is a slug of :data:`mtstreams.statusfile.TECHNIQUES`.
"""
from __future__ import annotations

import hashlib
import math
from itertools import islice
from pathlib import Path

from mtstreams.mt19937 import ADVANCE_LIMIT, N, WORD_MASK, MtState, advance, blocks, init_genrand
from mtstreams.record import Record
from mtstreams.statusfile import STATUS_SUFFIX, save_status, serialize_status, status_filename, write_bytes_atomic

MANIFEST_NAME = "manifest.txt"


class StatusSet(Record):
    """A technique's statuses, status i at position i, and the parameters that made them."""

    __slots__ = _fields = ("technique", "statuses", "provenance")

    def __init__(self, technique: str, statuses: list[MtState], provenance: dict) -> None:
        self.technique = technique
        self.statuses = statuses
        self.provenance = provenance


def _check_seed_and_count(seed: int, name: str, count: int) -> None:
    if not 0 <= seed <= WORD_MASK:
        raise ValueError(f"{name} must be an unsigned 32-bit integer, got {seed}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")


def generate_sequence_splitting(base_seed: int, spacing: int, count: int) -> StatusSet:
    """Status i = the base stream advanced by i * spacing draws.

    Status 0 is the freshly seeded state. Spacing must be >= 1: at 0 all
    statuses would coincide. It must be below 2^63, the bound of
    :func:`~mtstreams.mt19937.advance`.
    """
    _check_seed_and_count(base_seed, "base_seed", count)
    if spacing < 1:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if spacing >= ADVANCE_LIMIT:
        raise ValueError(f"spacing must be below 2^63, got {spacing}")
    state = init_genrand(base_seed)
    statuses = [state]
    for _ in range(count - 1):
        state = advance(state, spacing)
        statuses.append(state)
    provenance = {"seed": base_seed, "spacing": spacing, "count": count}
    return StatusSet("split", statuses, provenance)


def generate_random_spacing(master_seed: int, count: int) -> StatusSet:
    """Each status's 624 words are consecutive outputs of a master stream.

    Statuses set mti = 624 so their first use performs a full twist. No
    status can be all zero: the master starts at mti = 624, so each block of
    624 words is one whole twisted block, tempered; tempering maps only 0 to
    0; and a twisted block is all zero only if the 19937-bit state is,
    which ``init_genrand`` never gives and no twist of a non-zero state reaches.
    """
    _check_seed_and_count(master_seed, "master_seed", count)
    master = blocks(init_genrand(master_seed))
    statuses = [MtState(block, N) for block in islice(master, count)]
    provenance = {"seed": master_seed, "count": count}
    return StatusSet("random", statuses, provenance)


def generate_indexed(start: int, count: int) -> StatusSet:
    """Status i = init_genrand(start + i)."""
    _check_seed_and_count(start, "start", count)
    if start + count - 1 > WORD_MASK:
        raise ValueError(f"seed range [{start}, {start + count - 1}] exceeds 32 bits")
    statuses = [init_genrand(start + i) for i in range(count)]
    provenance = {"seed": start, "count": count}
    return StatusSet("indexed", statuses, provenance)


def write_status_set(sset: StatusSet, out_dir: Path | str) -> str:
    """Write status files plus a manifest; returns the set fingerprint.

    Raises FileExistsError, before writing anything, when ``out_dir`` holds
    a status file that the set does not write. Rewriting the same set, or
    a superset of it, in place is allowed. However a rewrite ends, it leaves
    no manifest that vouches for bytes the directory no longer holds: an
    old manifest goes before the first file it lists gets other bytes.

    The fingerprint is the SHA-256 of the manifest bytes, which in turn
    lists the SHA-256 of every status file, so it pins the whole set.
    """
    out_dir = Path(out_dir)
    files = [(status_filename(sset.technique, index), index, state) for index, state in enumerate(sset.statuses)]
    if out_dir.is_dir():
        # A reader of the directory takes every status file in it, so one
        # this set does not rewrite would be tested as part of the set.
        stale = sorted({p.name for p in out_dir.glob(f"*{STATUS_SUFFIX}")} - {name for name, _, _ in files})
        if stale:
            raise FileExistsError(
                f"{out_dir} holds {len(stale)} status file(s) this set does not write, "
                f"first {stale[0]}; write the set to an empty directory"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / MANIFEST_NAME
    listed = _listed(manifest_path)
    lines = ["# mtstreams manifest v1", f"# technique: {sset.technique}"]
    lines.extend(f"# {key}: {sset.provenance[key]}" for key in sorted(sset.provenance))
    for name, index, state in files:
        if name in listed:
            digest = hashlib.sha256(serialize_status(state).encode("ascii")).hexdigest()
            if listed[name] != f"{digest} {sset.technique} {index}":
                manifest_path.unlink()
                listed = {}
        digest = hashlib.sha256(save_status(out_dir / name, state)).hexdigest()
        lines.append(f"{name} {digest} {sset.technique} {index}")
    manifest = "\n".join(lines) + "\n"
    write_bytes_atomic(manifest_path, manifest.encode("ascii"))
    return hashlib.sha256(manifest.encode("ascii")).hexdigest()


def _listed(manifest_path: Path) -> dict[str, str]:
    """An existing manifest's status lines as file name -> rest of the line; empty if there is none."""
    if not manifest_path.is_file():
        return {}
    lines = manifest_path.read_text("ascii", "replace").splitlines()
    return dict(line.partition(" ")[::2] for line in lines if not line.startswith("#"))


def overlap_probability(period_log2: int, streams: int, length: int) -> float:
    """Birthday-style overlap probability for k streams of length L.

    P(overlap) ~ 1 - exp(-k(k-1) * L / 2^period_log2), valid in the sparse
    regime k * L << 2^period_log2; clamped to [0, 1]. Computed on the log
    scale so huge periods do not underflow intermediate terms.
    """
    if period_log2 < 0 or streams < 1 or length < 0:
        raise ValueError("arguments must be nonnegative, with streams >= 1")
    if streams == 1 or length == 0:
        return 0.0
    pairs_draws = streams * (streams - 1) * length
    log_x = math.log(pairs_draws) - period_log2 * math.log(2.0)
    if log_x > 4.0:
        return 1.0
    x = math.exp(log_x)
    return min(1.0, max(0.0, -math.expm1(-x)))
