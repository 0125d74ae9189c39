"""Ordered test batteries and the built-in `mini-crush-v1`.

A battery's identity is its name, threshold, and the ordered test list;
the canonical JSON form below is what gets hashed into campaign
fingerprints, so key order and float formatting are fixed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from mtstreams.stats.families import validate_params


@dataclass(frozen=True)
class TestDefinition:
    """One battery entry: stable id, family name, family parameters."""

    __test__ = False  # not a pytest collection target

    id: str
    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Battery:
    name: str
    threshold: float
    tests: tuple[TestDefinition, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 0.5:
            raise ValueError(f"threshold must be in (0, 0.5), got {self.threshold}")
        ids = [t.id for t in self.tests]
        if len(set(ids)) != len(ids):
            raise ValueError("battery test ids must be unique")
        for t in self.tests:
            try:
                validate_params(t.family, t.params)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"test {t.id}: {exc}") from exc
        object.__setattr__(self, "tests", tuple(self.tests))

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


def dump_battery(battery: Battery) -> str:
    """Canonical JSON form (stable bytes; test order preserved)."""
    doc = {
        "name": battery.name,
        "threshold": battery.threshold,
        "tests": [{"id": t.id, "family": t.family, "params": t.params} for t in battery.tests],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def battery_sha256(battery: Battery) -> str:
    return hashlib.sha256(dump_battery(battery).encode("ascii")).hexdigest()


def load_battery(name_or_path: str) -> Battery:
    """A built-in battery by name, or a battery definition file by path."""
    if name_or_path in BUILTIN_BATTERIES:
        return BUILTIN_BATTERIES[name_or_path]
    path = Path(name_or_path)
    if not path.is_file():
        raise FileNotFoundError(f"unknown battery {name_or_path!r} (not built-in, not a file)")
    doc = json.loads(path.read_text(encoding="ascii"))
    try:
        tests = tuple(
            TestDefinition(t["id"], t["family"], dict(t["params"])) for t in doc["tests"]
        )
        return Battery(name=doc["name"], threshold=float(doc["threshold"]), tests=tests)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed battery file {path}: {exc}") from exc
