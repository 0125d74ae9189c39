"""Parallel MT19937 stream statuses: generation, testing, and registries.

The package generates sets of 32-bit Mersenne Twister statuses with three
partitioning techniques (sequence splitting, random spacing, indexed
sequence), runs a desk-scale statistical battery over them with two-sided
p-value verdicts, and produces bitwise-repeatable campaign reports plus a
registry of statuses whose only failures are the expected LinearComp pair.

Each name is imported from the module that defines it, for example
``from mtstreams.mt19937 import init_genrand``. Importing the package
itself loads no NumPy.
"""
from mtstreams._version import VERSION as __version__
