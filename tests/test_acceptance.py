"""Acceptance gate: the ten load-bearing properties of the artifact.

Each criterion is one test function, so a verbose run prints exactly one
pass/fail line per criterion. The heavyweight entries (calibration over 500
statuses, the 64-status reconciliation campaign, the 4-run repeatability
check) run the real battery end to end; everything else is oracle-backed
and fast.
"""
import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from mtstreams.cli import main
from mtstreams.campaign import CampaignConfig, StatusEntry, run_campaign
from mtstreams.mt19937 import (
    N,
    MtState,
    MtStream,
    advance,
    init_genrand,
)
from mtstreams.partition import (
    generate_indexed,
    generate_random_spacing,
    generate_sequence_splitting,
    overlap_probability,
    write_status_set,
)
from mtstreams.reports import TABLES, render_report
from mtstreams.results import read_results_jsonl
from mtstreams.stats.battery import MINI_CRUSH_V1, TestDefinition
from mtstreams.stats.complexity import berlekamp_massey
from mtstreams.stats.families import run_test
from mtstreams.stats.pvalues import (
    chi2_pvalue,
    poisson_left_pvalue,
)
from mtstreams.stats.stream import Mode, StreamView
from mtstreams.stats.walks import h_null, m_null, r_null
from mtstreams.statusfile import load_status, parse_status, serialize_status

from support import (
    SplitMix32,
    bit_lane,
    chi2_sf_oracle,
    complexity_count,
    poisson_left_oracle,
    recompute_tables_from_jsonl,
    toy_overlap_frequency,
)

FIXTURES = Path(__file__).parent / "fixtures" / "reference_outputs.json"

LINEARCOMP_IDS = ("linearcomp.r0", "linearcomp.r29")


def test_criterion_01_reference_equivalence_bit_exact():
    fixtures = json.loads(FIXTURES.read_text())
    assert set(fixtures) == {"0", "1", "4357", "5489"}
    for seed_text, expected in fixtures.items():
        outputs = MtStream(init_genrand(int(seed_text))).take(1000)
        assert outputs.tolist() == expected, f"seed {seed_text}"


def test_criterion_02_linearcomp_designated_failure_all_techniques():
    sets = {
        "indexed": generate_indexed(0, 10),
        "random": generate_random_spacing(7, 10),
        "split": generate_sequence_splitting(3, 10**4, 10),
    }
    definitions = [
        TestDefinition("linearcomp.r0", "LinearComp", {"n_bits": 50000, "bit_offset": 0}),
        TestDefinition("linearcomp.r29", "LinearComp", {"n_bits": 50000, "bit_offset": 29}),
    ]
    for technique, sset in sets.items():
        assert len(sset.statuses) == 10
        for index, state in sset.statuses:
            for definition in definitions:
                result = run_test(definition, StreamView(state, Mode.INT), 1e-10)
                lane = bit_lane(MtStream(state).take(50000), definition.params["bit_offset"])
                assert berlekamp_massey(lane) == 19937, (technique, index)
                assert result.verdict == "Fail", (technique, index)
                assert result.p_values["saturation"] < 1e-10
    # The nonlinear control generator passes the identical test.
    for definition in definitions:
        control = run_test(definition, StreamView(SplitMix32(99), Mode.INT), 1e-10)
        lane = bit_lane(SplitMix32(99).take(50000), definition.params["bit_offset"])
        assert abs(berlekamp_massey(lane) - 25000) <= 3
        assert control.verdict == "Pass"


def test_criterion_03_null_distribution_oracles():
    # Walk H/M/R null laws equal exhaustive enumeration at l=16, exactly.
    l = 16
    h = np.zeros(l + 1)
    m = np.zeros(l + 1)
    r = np.zeros(l // 2 + 1)
    weight = 1.0 / (1 << l)
    for bits in itertools.product((0, 1), repeat=l):
        pos = peak = returns = heads = 0
        for b in bits:
            pos += 1 if b else -1
            heads += b
            peak = max(peak, pos)
            returns += pos == 0
        h[heads] += weight
        m[peak] += weight
        r[returns] += weight
    assert np.array_equal(h_null(l), h)
    assert np.array_equal(m_null(l), m)
    assert np.array_equal(r_null(l), r)

    # Complexity census over all 1024 sequences of length 10, exactly.
    n = 10
    census = {length: 0 for length in range(n + 1)}
    for value in range(1 << n):
        bits = np.array([(value >> i) & 1 for i in range(n)], dtype=np.uint8)
        census[berlekamp_massey(bits)] += 1
    assert census == {length: complexity_count(length, n) for length in range(n + 1)}

    # Tail probabilities against high-precision oracles: chi-square within
    # 1e-10 absolute at 22 points, the Poisson left tail exactly at 28 points
    # (both correctly rounded).
    chi2_grid = [
        (1, 0.5), (1, 4.0), (1, 25.0), (2, 1.0), (2, 10.0), (3, 0.25),
        (3, 7.81), (4, 13.3), (5, 1.0), (5, 11.07), (7, 30.0), (10, 3.94),
        (10, 18.31), (15, 25.0), (20, 8.26), (20, 45.31), (31, 31.0),
        (50, 90.0), (100, 70.0), (100, 161.0), (127, 127.0), (255, 310.0),
    ]
    assert len(chi2_grid) >= 20
    for df, x in chi2_grid:
        assert chi2_pvalue(x, df) == pytest.approx(chi2_sf_oracle(x, df), abs=1e-10)
    poisson_grid = [
        (0.5, 0), (0.5, 3), (1.0, 0), (1.0, 1), (1.0, 3), (2.0, 6), (4.0, 0),
        (4.0, 4), (8.0, 15), (16.0, 5), (32.0, 32), (32.0, 12), (32.0, 60),
        (64.0, 64), (128.0, 96), (128.0, 128), (128.0, 170), (200.0, 150),
        (512.0, 512), (512.0, 400), (1000.0, 1100), (10000.0, 9900),
        (127.9921875, 64), (127.9921875, 128), (127.9921875, 200),
        (31.99609375, 8), (31.99609375, 32), (31.99609375, 70),
    ]
    assert len(poisson_grid) >= 20
    for lam, observed in poisson_grid:
        assert poisson_left_pvalue(observed, lam) == poisson_left_oracle(observed, lam)


@pytest.mark.slow
def test_criterion_04_calibration_500_statuses():
    entries = [
        StatusEntry("indexed", i, init_genrand(i), "0" * 64) for i in range(500)
    ]
    config = CampaignConfig(
        battery=MINI_CRUSH_V1, modes=("int",), jobs=os.cpu_count() or 1
    )
    creport = run_campaign(entries, config)
    family_of = {t.id: t.family for t in MINI_CRUSH_V1.tests}
    pooled: dict[str, list[float]] = {}
    for report in creport.reports:
        unexpected = [f for f in report.failed_ids if f not in LINEARCOMP_IDS]
        assert unexpected == [], (report.index, unexpected)
        for result in report.results:
            if family_of[result.test_id] == "LinearComp":
                continue
            pooled.setdefault(family_of[result.test_id], []).extend(
                result.p_values.values()
            )
    assert set(pooled) == {"CollisionOver", "ClosePairs", "RandomWalk1", "SerialUniformity"}
    for family, pvalues in sorted(pooled.items()):
        ks = scipy.stats.kstest(pvalues, "uniform", method="asymp").pvalue
        assert ks > 1e-3, (family, len(pvalues), ks)


def test_criterion_05_sequence_splitting_continuity():
    spacing, count = 10**4, 8
    sset = generate_sequence_splitting(2024, spacing, count)
    statuses = dict(sset.statuses)
    for i in range(count - 1):
        assert advance(statuses[i], spacing) == statuses[i + 1], i
    # The concatenated segments equal one uninterrupted run.
    long_run = MtStream(init_genrand(2024)).take(spacing * count)
    for i in range(count):
        segment = MtStream(statuses[i]).take(spacing)
        assert np.array_equal(segment, long_run[i * spacing : (i + 1) * spacing]), i


@pytest.mark.slow
def test_criterion_06_bitwise_repeatability_across_worker_counts(tmp_path):
    assert main(["gen", "--technique", "indexed", "--count", "16", "--seed", "0", "--out", str(tmp_path / "set")]) == 0
    blobs = []
    for run, jobs in enumerate(("1", "8", "1", "8")):
        out = tmp_path / f"results_{run}.jsonl"
        code = main(
            [
                "test",
                "--dir", str(tmp_path / "set"),
                "--jobs", jobs,
                "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    assert len(blobs[0]) > 0


def test_criterion_07_status_format_roundtrip_and_verify(tmp_path):
    rng = np.random.default_rng(314159)
    for _ in range(100):
        state = MtState(
            mt=rng.integers(0, 2**32, size=N, dtype=np.uint32),
            mti=int(rng.integers(0, N + 1)),
        )
        assert parse_status(serialize_status(state)) == state
    assert main(["gen", "--technique", "random", "--count", "4", "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "--technique", "random", "--count", "4", "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    # Every status file gen ships is the ASCII format: a header, 624 canonical
    # decimal words and mti, each line LF-terminated, and a fixed point of
    # serialize(load(f)).
    statuses = [f"random_{i:05d}.mts" for i in range(4)]
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["manifest.txt"] + statuses
    for name in statuses:
        data = (tmp_path / "a" / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name
        lines = data.decode("ascii").split("\n")[:-1]
        assert len(lines) == 1 + N + 1, name
        assert lines[0] == "MT19937-STATUS v1", name
        for line in lines[1:]:
            assert line.isdigit() and str(int(line)) == line and int(line) < 2**32, (name, line)
        assert int(lines[-1]) == N, name  # random spacing: the next draw twists
        assert serialize_status(load_status(tmp_path / "a" / name)).encode("ascii") == data, name
    assert main(["verify", "--dir", str(tmp_path / "a"), "--dir", str(tmp_path / "b")]) == 0


def test_criterion_08_generation_speed_4096_statuses(tmp_path):
    start = time.monotonic()
    sset = generate_indexed(0, 4096)
    write_status_set(sset, tmp_path / "bulk")
    elapsed = time.monotonic() - start
    files = list((tmp_path / "bulk").glob("*.mts"))
    assert len(files) == 4096
    assert elapsed < 10.0, f"generation took {elapsed:.2f}s"


def test_criterion_09_overlap_estimator_against_monte_carlo():
    estimate = overlap_probability(16, streams=8, length=256)
    empirical = toy_overlap_frequency(16, streams=8, length=256, trials=10**5)
    assert abs(estimate - empirical) <= 0.20 * empirical, (estimate, empirical)
    assert overlap_probability(16, streams=1, length=10**6) == 0.0
    assert overlap_probability(16, streams=8, length=0) == 0.0
    periods = [8, 16, 32, 64]
    ks = [1, 2, 4, 8, 16]
    lengths = [0, 1, 16, 256, 4096]
    for period in periods:
        for k_lo, k_hi in zip(ks, ks[1:]):
            for length in lengths:
                assert overlap_probability(period, k_lo, length) <= overlap_probability(period, k_hi, length)
        for k in ks:
            for l_lo, l_hi in zip(lengths, lengths[1:]):
                assert overlap_probability(period, k, l_lo) <= overlap_probability(period, k, l_hi)
    for p_lo, p_hi in zip(periods, periods[1:]):
        for k in ks:
            for length in lengths:
                assert overlap_probability(p_hi, k, length) <= overlap_probability(p_lo, k, length)


@pytest.mark.slow
def test_criterion_10_report_reconciliation_64_status_campaign(tmp_path):
    assert main(["gen", "--technique", "indexed", "--count", "22", "--seed", "0", "--out", str(tmp_path / "i")]) == 0
    assert main(["gen", "--technique", "random", "--count", "21", "--seed", "11", "--out", str(tmp_path / "r")]) == 0
    assert main(["gen", "--technique", "split", "--count", "21", "--seed", "4", "--spacing", "100000", "--out", str(tmp_path / "s")]) == 0
    results = tmp_path / "results.jsonl"
    code = main(
        [
            "test",
            "--dir", str(tmp_path / "i"),
            "--dir", str(tmp_path / "r"),
            "--dir", str(tmp_path / "s"),
            "--out", str(results),
        ]
    )
    assert code == 0
    creport = read_results_jsonl(results)
    assert len(creport.reports) == 64  # one per status; the meta names both modes
    assert creport.meta["modes"] == ["int", "real"]

    for expected in (frozenset(), frozenset(LINEARCOMP_IDS)):
        recomputed = recompute_tables_from_jsonl(results, expected)
        doc = json.loads(render_report(creport, list(TABLES), "json", expected))

        want_summary = [
            {
                "technique": technique,
                "mode": mode,
                "statuses": total,
                "suspects": suspects,
                "fraction": fraction,
            }
            for (technique, mode), (suspects, total, fraction) in sorted(
                recomputed["summary"].items()
            )
        ]
        assert doc["summary"] == want_summary

        want_histogram = [
            {"technique": technique, "mode": mode, "n_failed": n, "count": c}
            for (technique, mode) in sorted(recomputed["summary"])
            for n, c in sorted(recomputed["histogram"].get((technique, mode), {}).items())
        ]
        assert doc["histogram"] == want_histogram

        want_pertest = {
            (row["test_id"], row["technique"], row["mode"]): row["fraction"]
            for row in doc["pertest"]
        }
        assert want_pertest == recomputed["pertest"]
        fractions = [row["fraction"] for row in doc["pertest"]]
        assert fractions == sorted(fractions, reverse=True)

    # With nothing expected, every unit is Suspect through the linearcomp pair.
    everything_suspect = recompute_tables_from_jsonl(results, frozenset())
    for (technique, mode), (suspects, total, fraction) in everything_suspect["summary"].items():
        assert suspects == total and fraction == 1.0, (technique, mode)
        assert everything_suspect["histogram"][(technique, mode)] == {2: total}
    # With the linearcomp pair expected, every status is Good.
    all_good = recompute_tables_from_jsonl(results, frozenset(LINEARCOMP_IDS))
    for (technique, mode), (suspects, total, fraction) in all_good["summary"].items():
        assert suspects == 0 and fraction == 0.0
    for test_id in LINEARCOMP_IDS:
        for key, fraction in all_good["pertest"].items():
            if key[0] == test_id:
                assert fraction == 1.0, key
