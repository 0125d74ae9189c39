"""The names that the command line shares with the modules behind it.

Defined here, apart from those modules, so that building the parser loads
none of them.
"""

# The partitioning techniques' slugs, as file names, results and registries carry them.
TECHNIQUES = ("split", "random", "indexed")
# The pathways a campaign's results stand for, in results order.
MODES = ("int", "real")
# The report's tables, in the order it renders them by default.
TABLES = ("summary", "histogram", "pertest")
# The tests a status may fail and still be Good: the paper's designated LinearComp pair.
DEFAULT_EXPECTED_FAIL_IDS = frozenset({"linearcomp.r0", "linearcomp.r29"})
