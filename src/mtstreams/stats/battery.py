"""Ordered test batteries and the built-in `mini-crush-v1`.

A battery's identity is its name, threshold, and the ordered test list;
the canonical JSON form below is what gets hashed into campaign
fingerprints, so key order and float formatting are fixed.

Each family has one function here whose keywords are its parameters: it
checks their bounds and returns the words an entry reads. :data:`FAMILIES`
pairs it with the family's p-value names in order, the one place a
sub-statistic is named; a :class:`TestDefinition` keeps the two as
``draws`` and ``statistics``. Standard library only, so the
results reader can rebuild a file's battery, and check its rows, without NumPy.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from mtstreams.record import FrozenRecord

# Words one battery entry may read per status: 1 GiB of uint32, which every
# worker holds at once (see `campaign.status_words`).
MAX_DRAWS = 2**28
# Test ids go into results rows unescaped, like the sub-statistic names below.
_ID = re.compile(r"[A-Za-z0-9._-]+")


def _linear_comp(*, n_bits: int, bit_offset: int) -> int:
    if n_bits < 1000:
        raise ValueError(f"n_bits must be >= 1000, got {n_bits}")
    if not 0 <= bit_offset <= 31:
        raise ValueError(f"bit_offset must be in [0, 31], got {bit_offset}")
    return n_bits


def _collision_over(*, n: int, d: int, t: int) -> int:
    if n < 2**10:
        raise ValueError(f"n must be >= 1024, got {n}")
    if d < 2 or t < 1:
        raise ValueError(f"need d >= 2 and t >= 1, got d={d}, t={t}")
    if d > 2**32:
        raise ValueError(f"d must be <= 2^32, the cells a 32-bit word can address, got {d}")
    if t > 62 or d**t > 2**62:  # d >= 2, so t > 62 gives d^t > 2^62 too
        raise ValueError(f"cell count d^t too large to index, got d={d}, t={t}")
    if d**t < 4 * n:
        raise ValueError(f"sparse regime requires d^t >= 4n; d^t={d**t}, 4n={4 * n}")
    return n + t - 1


def _close_pairs(*, n: int, t: int) -> int:
    if n < 2**8:
        raise ValueError(f"n must be >= 256, got {n}")
    if not 2 <= t <= 8:
        raise ValueError(f"t must be in [2, 8], got {t}")
    return n * t


def _random_walk(*, walks: int, steps: int) -> int:
    if walks < 10**3:
        raise ValueError(f"walks must be >= 1000, got {walks}")
    if steps % 2 or not 8 <= steps <= 4096:
        raise ValueError(f"steps must be even and in [8, 4096], got {steps}")
    return -(-walks * steps // 32)


def _serial_uniformity(*, n: int, cells: int) -> int:
    if not 2 <= cells <= 2**32:
        raise ValueError(f"cells must be in [2, 2^32], the cells a 32-bit word can address, got {cells}")
    if n < 10 * cells:
        raise ValueError(f"n must be >= 10 * cells, got n={n}, cells={cells}")
    return n


# Family name -> (parameter check returning the draws, p-value names in order).
FAMILIES = {
    "LinearComp": (_linear_comp, ("saturation",)),
    "CollisionOver": (_collision_over, ("collisions",)),
    "ClosePairs": (_close_pairs, ("min_distance",)),
    "RandomWalk1": (_random_walk, ("H", "M", "R")),
    "SerialUniformity": (_serial_uniformity, ("chi2",)),
}


class TestDefinition(FrozenRecord):
    """One battery entry: stable id, family name, family parameters.

    The id is letters, digits, '.', '_' and '-'. The parameters must be
    exactly the family's, each an int (not a bool).
    ``draws`` is the number of words the entry reads, at most MAX_DRAWS, and
    ``statistics`` the names of the p-values its result gives, in order;
    the constructor derives both, and equality leaves them out.
    """

    __test__ = False  # not a pytest collection target
    _fields = ("id", "family", "params")
    __slots__ = _fields + ("draws", "statistics")

    def __init__(self, id: str, family: str, params: dict | None = None) -> None:
        params = {} if params is None else params
        if not isinstance(id, str) or not _ID.fullmatch(id):
            raise ValueError(f"test id {id!r} must be letters, digits, '.', '_' or '-'")
        if family not in FAMILIES:
            raise ValueError(f"test {id}: unknown family: {family}")
        draws_of, statistics = FAMILIES[family]
        for name, value in params.items():
            if type(value) is not int:
                raise ValueError(f"test {id}: parameter {name} must be an integer, got {value!r}")
        try:
            draws = draws_of(**params)
        except TypeError as exc:  # a missing or unknown parameter name
            raise ValueError(f"test {id}: {family} parameters: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"test {id}: {exc}") from exc
        if draws > MAX_DRAWS:
            raise ValueError(f"test {id}: reads {draws} words, more than MAX_DRAWS = 2^28")
        self._set(id=id, family=family, params=params, draws=draws, statistics=statistics)


class Battery(FrozenRecord):
    """A named, ordered tuple of entries with unique ids, and the two-sided
    failure threshold its campaigns use unless given another."""

    __slots__ = _fields = ("name", "threshold", "tests")

    def __init__(self, name: str, threshold: float, tests) -> None:
        if not isinstance(name, str):
            raise ValueError(f"battery name must be a string, got {name!r}")
        if not isinstance(threshold, float) or not 0.0 < threshold < 0.5:
            raise ValueError(f"threshold must be a number in (0, 0.5), got {threshold!r}")
        if not tests:
            raise ValueError("a battery needs at least one test")
        ids = [t.id for t in tests]
        if len(set(ids)) != len(ids):
            raise ValueError("battery test ids must be unique")
        self._set(name=name, threshold=threshold, tests=tuple(tests))

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.tests)


MINI_CRUSH_V1 = Battery(
    name="mini-crush-v1",
    threshold=1e-10,
    tests=(
        TestDefinition("linearcomp.r0", "LinearComp", {"n_bits": 50000, "bit_offset": 0}),
        TestDefinition("linearcomp.r29", "LinearComp", {"n_bits": 50000, "bit_offset": 29}),
        TestDefinition("collisionover.a", "CollisionOver", {"n": 2**14, "d": 1024, "t": 2}),
        TestDefinition("collisionover.b", "CollisionOver", {"n": 2**13, "d": 32, "t": 4}),
        TestDefinition("closepairs.a", "ClosePairs", {"n": 2**13, "t": 2}),
        TestDefinition("closepairs.b", "ClosePairs", {"n": 2**12, "t": 3}),
        TestDefinition("randomwalk.a", "RandomWalk1", {"walks": 10**4, "steps": 128}),
        TestDefinition("randomwalk.b", "RandomWalk1", {"walks": 10**4, "steps": 1024}),
        TestDefinition("serial.a", "SerialUniformity", {"n": 10**6, "cells": 1024}),
    ),
)

BUILTIN_BATTERIES = {MINI_CRUSH_V1.name: MINI_CRUSH_V1}


def battery_doc(battery: Battery) -> dict:
    """The battery as a JSON document, the form a battery file holds."""
    return {
        "name": battery.name,
        "threshold": battery.threshold,
        "tests": [{"id": t.id, "family": t.family, "params": t.params} for t in battery.tests],
    }


def parse_battery(doc: dict) -> Battery:
    """The battery a JSON document describes (KeyError or TypeError if malformed)."""
    tests = tuple(TestDefinition(t["id"], t["family"], dict(t["params"])) for t in doc["tests"])
    return Battery(name=doc["name"], threshold=doc["threshold"], tests=tests)


def dump_battery(battery: Battery) -> str:
    """Canonical JSON form (stable bytes; test order preserved)."""
    return json.dumps(battery_doc(battery), sort_keys=True, separators=(",", ":")) + "\n"


def battery_sha256(battery: Battery) -> str:
    return hashlib.sha256(dump_battery(battery).encode("ascii")).hexdigest()


def load_battery(name_or_path: str) -> Battery:
    """A built-in battery by name, or a battery definition file by path."""
    if name_or_path in BUILTIN_BATTERIES:
        return BUILTIN_BATTERIES[name_or_path]
    path = Path(name_or_path)
    if not path.is_file():
        raise FileNotFoundError(f"unknown battery {name_or_path!r} (not built-in, not a file)")
    try:
        return parse_battery(json.loads(path.read_text(encoding="ascii")))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise ValueError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"{path}: malformed battery file: {exc!r}") from exc
