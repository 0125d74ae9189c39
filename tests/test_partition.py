"""Partitioning techniques: continuity, determinism, manifests, overlap."""
import numpy as np
import pytest

from mtstreams.mt19937 import N, MtStream, advance, init_genrand
from mtstreams.partition import (
    MANIFEST_NAME,
    generate_indexed,
    generate_random_spacing,
    generate_sequence_splitting,
    overlap_probability,
    write_status_set,
)
from mtstreams.statusfile import status_filename, verify_sets

from support import HalfWriteThenFail, toy_overlap_frequency


def test_sequence_splitting_status_zero_is_fresh_state():
    sset = generate_sequence_splitting(42, spacing=1000, count=1)
    assert sset.statuses == [init_genrand(42)]


def test_sequence_splitting_continuity():
    spacing, count = 1000, 8
    sset = generate_sequence_splitting(2024, spacing, count)
    long_run = MtStream(init_genrand(2024)).take(spacing * count)
    for i, state in enumerate(sset.statuses):
        segment = MtStream(state).take(spacing)
        assert np.array_equal(segment, long_run[i * spacing : (i + 1) * spacing]), i
    for i, (a, b) in enumerate(zip(sset.statuses, sset.statuses[1:])):
        assert advance(a, spacing) == b, i


def test_sequence_splitting_rejects_zero_spacing_in_strict_mode():
    with pytest.raises(ValueError):
        generate_sequence_splitting(1, spacing=0, count=2)


# Manifest fingerprints of 512-status random sets, frozen when their words
# were drawn by MtStream; the standard-library engine writes the same bytes.
RANDOM_512_FINGERPRINTS = {
    0: "98fae79c18fec3f7f1b6893da0123eecd85168b11f9bb81fd8beb8b966938b92",
    2**32 - 1: "8dc8e5656ed20659cc3bd02d9269ad7e2145b8d43b5b978ee39a84d4c62d215f",
}


def test_random_spacing_words_are_master_outputs(tmp_path):
    count = 5
    sset = generate_random_spacing(42, count)
    master = MtStream(init_genrand(42)).take(N * count)
    for i, state in enumerate(sset.statuses):
        assert np.array_equal(np.frombuffer(state.mt, "<u4"), master[i * N : (i + 1) * N]), i
        assert state.mti == N
    # The NumPy master stream, run end to end, pins every word of a full set.
    count = 512
    for seed, fingerprint in RANDOM_512_FINGERPRINTS.items():
        sset = generate_random_spacing(seed, count)
        words = b"".join(state.mt for state in sset.statuses)
        assert words == MtStream(init_genrand(seed)).take(N * count).astype("<u4").tobytes(), seed
        assert write_status_set(sset, tmp_path / str(seed)) == fingerprint, seed


def test_random_spacing_statuses_pairwise_distinct():
    sset = generate_random_spacing(42, 256)
    seen = {s.mt for s in sset.statuses}
    assert len(seen) == 256


def test_indexed_matches_init_genrand():
    sset = generate_indexed(100, 10)
    for i, state in enumerate(sset.statuses):
        assert state == init_genrand(100 + i), i


def test_indexed_overlapping_ranges_share_exactly_the_overlap():
    a = generate_indexed(0, 8).statuses
    b = generate_indexed(4, 8).statuses
    for i in range(4):
        assert b[i] == a[i + 4]
    assert len({s.mt for s in a} | {s.mt for s in b}) == 12


def test_indexed_rejects_seed_overflow():
    with pytest.raises(ValueError):
        generate_indexed(2**32 - 4, 5)
    generate_indexed(2**32 - 4, 4)


def test_status_filename_convention():
    assert status_filename("split", 7) == "split_00007.mts"
    assert status_filename("random", 0) == "random_00000.mts"
    assert status_filename("indexed", 12345) == "indexed_12345.mts"


def test_write_set_regeneration_is_byte_identical(tmp_path):
    fp_a = write_status_set(generate_indexed(0, 6), tmp_path / "a")
    fp_b = write_status_set(generate_indexed(0, 6), tmp_path / "b")
    assert fp_a == fp_b
    report = verify_sets(tmp_path / "a", tmp_path / "b")
    assert report.ok and len(report.identical) == 7  # 6 statuses + manifest


def test_manifest_contents(tmp_path):
    write_status_set(generate_sequence_splitting(5, 100, 3), tmp_path)
    manifest = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert manifest[0] == "# mtstreams manifest v1"
    assert "# technique: split" in manifest
    assert "# spacing: 100" in manifest
    assert "# seed: 5" in manifest
    assert "# count: 3" in manifest
    body = [line for line in manifest if not line.startswith("#")]
    assert len(body) == 3
    name, sha, slug, index = body[0].split()
    assert name == "split_00000.mts"
    assert len(sha) == 64
    assert slug == "split"
    assert index == "0"


def test_failed_manifest_write_leaves_the_old_manifest(tmp_path, monkeypatch):
    import mtstreams.statusfile as statusfile

    write_status_set(generate_indexed(0, 2), tmp_path)
    before = (tmp_path / MANIFEST_NAME).read_bytes()
    monkeypatch.setattr(statusfile, "open", HalfWriteThenFail, raising=False)
    with pytest.raises(OSError):
        write_status_set(generate_indexed(0, 3), tmp_path)
    assert (tmp_path / MANIFEST_NAME).read_bytes() == before
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_interrupted_rewrite_leaves_no_manifest_over_mixed_bytes(tmp_path, monkeypatch):
    import mtstreams.partition as partition

    write_status_set(generate_indexed(0, 4), tmp_path)
    save_status, calls = partition.save_status, []

    def fail_on_third(path, state):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return save_status(path, state)

    monkeypatch.setattr(partition, "save_status", fail_on_third)
    with pytest.raises(OSError):
        write_status_set(generate_indexed(100, 4), tmp_path)
    assert not (tmp_path / MANIFEST_NAME).exists()
    monkeypatch.undo()
    fresh = write_status_set(generate_indexed(100, 4), tmp_path / "fresh")
    assert write_status_set(generate_indexed(100, 4), tmp_path) == fresh


def test_an_interrupted_new_set_leaves_nothing(tmp_path, monkeypatch):
    import mtstreams.partition as partition

    save_status, calls = partition.save_status, []

    def interrupt_on_third(path, state):
        calls.append(path)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return save_status(path, state)

    monkeypatch.setattr(partition, "save_status", interrupt_on_third)
    with pytest.raises(KeyboardInterrupt):
        write_status_set(generate_indexed(0, 8), tmp_path / "set")
    assert list(tmp_path.iterdir()) == []


def test_overlap_probability_edge_cases():
    assert overlap_probability(16, streams=1, length=10**6) == 0.0
    assert overlap_probability(16, streams=8, length=0) == 0.0
    with pytest.raises(ValueError):
        overlap_probability(16, streams=0, length=1)


def test_overlap_probability_matches_monte_carlo():
    cases = [(16, 8, 256), (16, 4, 512), (16, 16, 64)]
    for period_log2, k, length in cases:
        estimate = overlap_probability(period_log2, k, length)
        empirical = toy_overlap_frequency(period_log2, k, length, trials=10**5)
        assert abs(estimate - empirical) <= 0.20 * empirical, (
            period_log2,
            k,
            length,
            estimate,
            empirical,
        )


def test_overlap_probability_monotone_grid():
    periods = [8, 16, 32, 64, 128]
    ks = [1, 2, 4, 8, 16]
    lengths = [0, 1, 16, 256, 4096]
    for period in periods:
        for k_lo, k_hi in zip(ks, ks[1:]):
            for length in lengths:
                assert overlap_probability(period, k_lo, length) <= overlap_probability(
                    period, k_hi, length
                )
        for k in ks:
            for l_lo, l_hi in zip(lengths, lengths[1:]):
                assert overlap_probability(period, k, l_lo) <= overlap_probability(
                    period, k, l_hi
                )
    for p_lo, p_hi in zip(periods, periods[1:]):
        for k in ks:
            for length in lengths:
                assert overlap_probability(p_hi, k, length) <= overlap_probability(
                    p_lo, k, length
                )


def test_huge_period_overlap_is_tiny():
    value = overlap_probability(19937, streams=4096, length=10**12)
    assert 0.0 <= value < 1e-300
