"""Expected artifacts, computed without importing mtstreams.

The status sets come from a plain-Python MT19937 (the reference
recurrence, 2002 seeding and tempering written out word by word), so a gen
fingerprint that matches here is bit-exact for every seed. The text
formats (status file, manifest, registry) and the campaign facts in
``frozen.json`` were captured from the package at the commit that added
this benchmark; they change only when a file format changes on purpose.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

N, M = 624, 397
MASK = 0xFFFFFFFF

FROZEN = json.loads((Path(__file__).parent / "frozen.json").read_text(encoding="ascii"))


def init_genrand(seed: int) -> list[int]:
    mt = [seed]
    for i in range(1, N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & MASK)
    return mt


def twist(mt: list[int]) -> None:
    for i in range(N):
        y = (mt[i] & 0x80000000) | (mt[(i + 1) % N] & 0x7FFFFFFF)
        mt[i] = mt[(i + M) % N] ^ (y >> 1) ^ (0x9908B0DF if y & 1 else 0)


def temper(y: int) -> int:
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    y ^= y >> 18
    return y & MASK


def status_bytes(words: list[int], mti: int) -> bytes:
    return ("MT19937-STATUS v1\n" + "".join(f"{w}\n" for w in words) + f"{mti}\n").encode("ascii")


def indexed_set(start: int, count: int) -> list[bytes]:
    return [status_bytes(init_genrand(start + i), N) for i in range(count)]


def random_set(master_seed: int, count: int) -> list[bytes]:
    """Status i holds the master stream's tempered draws 624*i .. 624*i+623."""
    mt = init_genrand(master_seed)
    out = []
    for _ in range(count):
        twist(mt)
        out.append(status_bytes([temper(w) for w in mt], N))
    return out


def status_name(technique: str, index: int) -> str:
    return f"{technique}_{index:05d}.mts"


def manifest_fingerprint(technique: str, seed: int, statuses: list[bytes]) -> str:
    lines = ["# mtstreams manifest v1", f"# technique: {technique}", f"# count: {len(statuses)}", f"# seed: {seed}"]
    for i, data in enumerate(statuses):
        lines.append(f"{status_name(technique, i)} {hashlib.sha256(data).hexdigest()} {technique} {i}")
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def result_projection(technique: str, indices: list[int], modes: list[str]) -> list[tuple]:
    """(technique, index, mode, test_id, verdict, draws) rows in file order."""
    tests = FROZEN["tests"]
    return [
        (technique, i, mode, test_id, tests[test_id]["verdict"], tests[test_id]["draws"])
        for i in indices
        for mode in sorted(modes)
        for test_id in sorted(tests)
    ]


def registry_text(modes: list[str], entries: list[tuple[str, int, str]]) -> bytes:
    lines = [
        "# mtstreams registry v1",
        f"# fingerprint: {FROZEN['campaign_fingerprint'][','.join(modes)]}",
        f"# expected-fail: {','.join(FROZEN['expected_fail'])}",
        f"# modes: {','.join(modes)}",
    ]
    lines.extend(f"{t} {i} {sha}" for t, i, sha in entries)
    return ("\n".join(lines) + "\n").encode("ascii")
