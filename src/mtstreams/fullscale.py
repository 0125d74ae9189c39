"""Full-scale reference figures, kept as documentation fixtures only.

These numbers come from a full-scale campaign: 4096 MT19937 statuses per
technique, each run through the complete 106-test TestU01 Big Crush battery
(integer and real pathways), roughly 33 CPU-years of computing. The source
names no failure threshold; this package assumes 1e-10, its own battery's
default. The figures are NOT reproducible with the desk-scale battery this
package ships, and no test compares desk-scale percentages against them;
they exist so reports and docs can cite the scale this tool mirrors.

Techniques use the same slugs as the rest of the package: ``split``
(sequence splitting), ``random`` (random spacing), ``indexed`` (indexed
sequence). "Suspect" means a status failing beyond the two expected
LinearComp entries. Histogram keys are the total number of failed tests
per suspect status; cells the source table left blank are omitted. Each
row's histogram fits unexpected failures that are Poisson per status, with
the mean fitted from its Suspect count (``tests/test_fullscale.py``).
"""

FULL_SCALE_STATUS_COUNT = 4096
FULL_SCALE_BATTERY_SIZE = 106

# Suspect statuses out of 4096 (identical across the three hardware/compiler
# configurations of the reference campaign).
FULL_SCALE_SUSPECTS = {
    ("random", "int"): (1185, 28.93),
    ("random", "real"): (1185, 28.93),
    ("split", "int"): (1156, 28.22),
    ("split", "real"): (1156, 28.22),
    ("indexed", "int"): (1139, 27.8),
    ("indexed", "real"): (1128, 27.53),
}

# Failed-test-count histogram over suspect statuses; no status failed more
# than 6 of the 106 tests.
FULL_SCALE_HISTOGRAM = {
    ("indexed", "int"): {3: 964, 4: 156, 5: 18, 6: 1},
    ("indexed", "real"): {3: 951, 4: 158, 5: 19},
    ("split", "int"): {3: 971, 4: 164, 5: 21},
    ("split", "real"): {3: 971, 4: 161, 5: 24},
    ("random", "int"): {3: 990, 4: 172, 5: 21, 6: 2},
    ("random", "real"): {3: 987, 4: 175, 5: 21, 6: 2},
}

# The most discriminating Big Crush tests (real pathway): failure percentage
# per technique, ordered by the indexed-sequence column.
FULL_SCALE_TOP_TESTS = {
    "11:CollisionOver": {"indexed": 1.51, "random": 1.42, "split": 1.39},
    "74:RandomWalk1": {"indexed": 1.44, "random": 0.95, "split": 0.9},
    "12:CollisionOver": {"indexed": 1.27, "random": 1.68, "split": 1.66},
    "24:ClosePairs": {"indexed": 1.17, "random": 0.88, "split": 1.0},
    "76:RandomWalk1": {"indexed": 1.12, "random": 1.05, "split": 1.12},
    "25:ClosePairs": {"indexed": 1.03, "random": 1.07, "split": 1.07},
    "22:ClosePairs": {"indexed": 1.03, "random": 1.05, "split": 1.22},
    "79:RandomWalk1": {"indexed": 1.0, "random": 0.93, "split": 1.0},
    "75:RandomWalk1": {"indexed": 0.93, "random": 1.03, "split": 0.98},
    "78:RandomWalk1": {"indexed": 0.93, "random": 1.07, "split": 1.15},
    "23:ClosePairs": {"indexed": 0.9, "random": 1.2, "split": 0.78},
    "77:RandomWalk1": {"indexed": 0.88, "random": 1.17, "split": 1.0},
}

# Sequence splitting at full scale spaces statuses 10^12 draws apart.
FULL_SCALE_SPLIT_SPACING = 10**12
