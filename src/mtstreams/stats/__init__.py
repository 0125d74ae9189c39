"""Statistical test battery over generator output streams.

Submodules:

- ``stream``: views of one status's words, read as words, as uniforms
  w * 2^-32 (exact in binary64, so both pathways see the same numbers)
  or as bits.
- ``pvalues``: chi-square and Poisson p-value machinery.
- ``complexity``: Berlekamp-Massey linear complexity and its exact null law.
- ``walks``: exact null distributions of random-walk statistics.
- ``families``: the test families and their dispatch.
- ``battery``: ordered test batteries, including the built-in mini-crush-v1.
"""
from mtstreams.results import TestResult
from mtstreams.stats.battery import (
    MINI_CRUSH_V1,
    Battery,
    TestDefinition,
    battery_sha256,
    dump_battery,
    load_battery,
)
from mtstreams.stats.families import run_test
from mtstreams.stats.stream import Mode, StreamView

__all__ = [
    "Battery",
    "MINI_CRUSH_V1",
    "Mode",
    "StreamView",
    "TestDefinition",
    "TestResult",
    "battery_sha256",
    "dump_battery",
    "load_battery",
    "run_test",
]
