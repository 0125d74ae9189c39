"""Parallel MT19937 stream statuses: generation, testing, and registries.

The package generates sets of 32-bit Mersenne Twister statuses with three
partitioning techniques (sequence splitting, random spacing, indexed
sequence), runs a desk-scale statistical battery over them with two-sided
p-value verdicts, and produces bitwise-repeatable campaign reports plus a
registry of statuses whose only failures are the expected LinearComp pair.

Importing the package loads no NumPy: the generator core and the
partitioning techniques are imported on first access to one of their names.
"""
import importlib

from mtstreams._version import VERSION as __version__
from mtstreams.statusfile import (
    StatusFormatError,
    load_status,
    parse_status,
    save_status,
    serialize_status,
    verify_sets,
)

# Names resolved on first access (PEP 562), with the module that defines them.
_LAZY = {
    **dict.fromkeys(
        (
            "MtState",
            "MtStream",
            "ZeroStateError",
            "advance",
            "init_genrand",
            "twist",
        ),
        "mtstreams.mt19937",
    ),
    **dict.fromkeys(
        (
            "StatusSet",
            "Technique",
            "generate_indexed",
            "generate_random_spacing",
            "generate_sequence_splitting",
            "overlap_probability",
            "write_status_set",
        ),
        "mtstreams.partition",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "MtState",
    "MtStream",
    "StatusFormatError",
    "StatusSet",
    "Technique",
    "ZeroStateError",
    "__version__",
    "advance",
    "generate_indexed",
    "generate_random_spacing",
    "generate_sequence_splitting",
    "init_genrand",
    "load_status",
    "overlap_probability",
    "parse_status",
    "save_status",
    "serialize_status",
    "twist",
    "verify_sets",
    "write_status_set",
]
