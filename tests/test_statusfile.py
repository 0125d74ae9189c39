"""Status file format: canonical round trips and malformed-input rejection."""
import numpy as np
import pytest
from hypothesis import given, settings

from mtstreams.mt19937 import N, MtState, init_genrand
from mtstreams.statusfile import (
    HEADER,
    StatusFormatError,
    file_sha256,
    load_status,
    parse_status,
    save_status,
    serialize_status,
    verify_sets,
    write_bytes_atomic,
)

from support import HalfWriteThenFail, mutations


def random_state(rng):
    words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
    if not words.any():
        words[0] = 1
    return MtState(words, int(rng.integers(0, N + 1)))


def test_round_trip_identity_100_random_states():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        s = random_state(rng)
        text = serialize_status(s)
        assert parse_status(text) == s
        assert serialize_status(parse_status(text)) == text


def test_serialized_shape():
    text = serialize_status(init_genrand(5489))
    lines = text.split("\n")
    assert lines[0] == HEADER
    assert len(lines) == N + 3  # header + 624 words + mti + trailing empty
    assert lines[-1] == ""
    assert lines[624] == str(init_genrand(5489).words[623])
    assert lines[625] == str(N)
    assert text.encode("ascii")


def test_word_payload_2496_bytes():
    s = parse_status(serialize_status(init_genrand(0)))
    assert len(s.mt) == 624 * 4 == 2496


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace(HEADER, "MT19937-STATUS v2", 1),
        lambda t: t.replace("\n", "\n\n", 1),  # blank line
        lambda t: "\n".join(t.split("\n")[:-3]) + "\n",  # word missing
        lambda t: t[:-1],  # no trailing newline
        lambda t: t.replace("\n", " \n", 1),  # trailing whitespace
        lambda t: t.replace("\n", "\r\n", 1),  # CRLF
    ],
)
def test_parse_rejects_malformed(mutate):
    text = serialize_status(init_genrand(9))
    with pytest.raises(StatusFormatError):
        parse_status(mutate(text))


def test_parse_rejects_leading_zeros_and_big_values():
    text = serialize_status(init_genrand(9))
    lines = text.split("\n")
    padded = lines[:]
    padded[1] = "0" + padded[1] if padded[1] != "0" else "00"
    with pytest.raises(StatusFormatError):
        parse_status("\n".join(padded))
    big = lines[:]
    big[1] = str(2**32)
    with pytest.raises(StatusFormatError):
        parse_status("\n".join(big))
    bad_mti = lines[:]
    bad_mti[625] = "625"
    with pytest.raises(StatusFormatError, match=r"mti must be in \[0, 624\], got 625"):
        parse_status("\n".join(bad_mti))


def test_parse_rejects_all_zero_state():
    lines = [HEADER] + ["0"] * N + ["624"]
    with pytest.raises(StatusFormatError, match="all-zero state"):
        parse_status("\n".join(lines) + "\n")


def test_parse_623_words_is_structured_error():
    lines = [HEADER] + ["1"] * 623 + ["624"]
    with pytest.raises(StatusFormatError) as err:
        parse_status("\n".join(lines) + "\n")
    assert "lines" in str(err.value)


def test_save_load_and_checksum(tmp_path):
    s = init_genrand(4357)
    path = tmp_path / "indexed_00000.mts"
    save_status(path, s)
    assert load_status(path) == s
    assert len(file_sha256(path)) == 64
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_load_error_includes_path(tmp_path):
    path = tmp_path / "split_00000.mts"
    path.write_text("garbage\n")
    with pytest.raises(StatusFormatError) as err:
        load_status(path)
    assert "split_00000.mts" in str(err.value)


def test_verify_sets_reflexive_and_detects_flip(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for i in range(3):
        for d in (a, b):
            save_status(d / f"indexed_{i:05d}.mts", init_genrand(i + 1))
    same = verify_sets(a, a)
    assert same.ok and len(same.identical) == 3
    both = verify_sets(a, b)
    assert both.ok

    data = bytearray((b / "indexed_00001.mts").read_bytes())
    data[20] ^= 1
    (b / "indexed_00001.mts").write_bytes(bytes(data))
    flipped = verify_sets(a, b)
    assert not flipped.ok
    assert flipped.differing == ["indexed_00001.mts"]
    assert len(flipped.identical) == 2

    (b / "extra.txt").write_text("x\n")
    assert verify_sets(a, b).only_b == ["extra.txt"]


def test_verify_sets_walks_subdirectories_but_not_symlinked_ones(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        (d / "nested" / "deeper").mkdir(parents=True)
        save_status(d / "nested" / "deeper" / "indexed_00000.mts", init_genrand(1))
        (d / "top.txt").write_text("same\n")
    (a / "nested" / "only_a.txt").write_text("a\n")
    (b / "nested" / "deeper" / "top.txt").write_text("b\n")
    (a / "link").symlink_to(a / "nested", target_is_directory=True)
    (b / "top_link.txt").symlink_to(b / "top.txt")
    report = verify_sets(a, b)
    assert report.identical == ["nested/deeper/indexed_00000.mts", "top.txt"]
    assert report.differing == []
    assert report.only_a == ["nested/only_a.txt"]
    # A symlinked file counts as the file it names.
    assert report.only_b == ["nested/deeper/top.txt", "top_link.txt"]
    # The walk lists what `Path.rglob` lists of regular files.
    for d in (a, b):
        rglob = {str(p.relative_to(d)) for p in d.rglob("*") if p.is_file()}
        assert rglob == set(verify_sets(d, d).identical)


def test_verify_sets_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        verify_sets(tmp_path / "nope", tmp_path)


def test_write_bytes_atomic_replaces_whole_files(tmp_path):
    path = tmp_path / "out.txt"
    write_bytes_atomic(path, b"first\n")
    write_bytes_atomic(path, b"second\n")
    assert path.read_bytes() == b"second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_bytes_atomic_failure_leaves_the_old_file(tmp_path, monkeypatch):
    import mtstreams.statusfile as statusfile

    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    monkeypatch.setattr(statusfile, "open", HalfWriteThenFail, raising=False)
    with pytest.raises(OSError):
        write_bytes_atomic(path, b"new contents\n" * 100)
    monkeypatch.undo()

    def no_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(statusfile.os, "replace", no_rename)
    with pytest.raises(OSError):
        write_bytes_atomic(path, b"new contents\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@settings(max_examples=300, deadline=None)
@given(data=mutations(serialize_status(init_genrand(5489)).encode("ascii")))
def test_a_status_that_parses_serializes_to_its_own_text(data):
    text = data.decode("latin-1")
    try:
        state = parse_status(text)
    except StatusFormatError:
        return
    assert serialize_status(state) == text
