"""Byte contract: frozen SHA-256 digests of a small fixed campaign.

Four indexed statuses (seed 0) are tested with mini-crush-v1 in both modes,
and in each mode alone, then reported in every format and put through the
registry. A refactor of generation, testing or reporting must leave every
digest unchanged; a change that alters bytes on purpose updates them here and
says why in CHANGES.md.
"""
import hashlib

import pytest

from mtstreams.cli import main

DIGESTS = {
    "results.jsonl": "06426c9b824075cd15c27e1dc54388b085c8adf9a8abf62c17d6642000d15479",
    "report.md": "f8b6ae37e663b6b93360228d55be10c5c97bd8b2c8b79e3c373326c7cd774118",
    "report.csv": "e6bea84edfb93d621cfda15670e5cc74aa84e00badda48cbe47c4a9cd325bda3",
    "report.json": "4d3d60e89ace09845825c425a4144545d9abc648b6636acf15e10a91279e01bd",
    "registry.txt": "66900656788515599e0f7fe0e09273fa1e93d6068a25dc1cbeac11b90b391bf1",
    "registry.json": "b83e491803659b1e5af6460887f3adfb224a9b7f7c6b3d2d6bd185925d5c7ae2",
}
REAL_ONLY_RESULTS = "114e698f44be91411f346ab8ce0daafcd57dc2889ecdb1afcbf63080483a8d26"
SINGLE_MODE_DIGESTS = {
    "int": {
        "results.jsonl": "746d14a693fb72b77fe3e61b84840b27e01a9f3ed986a6a64c390c63c4bb6a10",
        "report.md": "aa52fbd1fd3d7f73b081e575bc64f0bafe6731ab70f39480d22c0bd4ca67bdd8",
        "report.csv": "5ba6337940d1c2a08b6eb9b2d32976ca10ff13a671e5d17abe8a1affb4506a31",
        "report.json": "f95b8cf20e0b853117d5cdfbf53cf986cc79bd7a7febf0b76efcdf7a887f8a51",
        "registry.txt": "4e18ff2f9ab3c71909c5ee2813615497f7198f5285568b8684e31d838807315d",
        "registry.json": "4cb70b91762a634db5d943b01440eeb655b87d24ed3c2a455855b692279e0bf1",
    },
    "real": {
        "results.jsonl": REAL_ONLY_RESULTS,
        "report.md": "94c3a4102bb2b5dce3dc752fda6838b507b3b1b5669534d33f075e94b427ee9d",
        "report.csv": "b184dcbbcf6ad0a1f77f37a02c4e1c3cd96cea1dbec9cbcc8ef595873fc06cf1",
        "report.json": "0fe2ac97ecb5313e1ff7e05a2ae0faf188df65b4e9ad911b349c49428bf57bfd",
        "registry.txt": "eb926de20694a1dc704b2c9ff3615fb3b387d9d7bfdf79a6e6137621924db52f",
        "registry.json": "388063abefcc00ef5cf44b6c93b51648047c263fcb6ae77c5cb047a83269c52a",
    },
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def status_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest") / "set"
    assert main(["gen", "--technique", "indexed", "--count", "4", "--seed", "0", "--out", str(out)]) == 0
    return out


def _campaign(status_dir, work, mode, jobs):
    results = work / "results.jsonl"
    args = ["test", "--dir", str(status_dir), "--mode", mode, "--jobs", jobs, "--out", str(results)]
    assert main(args) == 0
    return results


def _artifact_digests(status_dir, work, mode, jobs) -> dict[str, str]:
    """Test in one mode set, then report in every format and register."""
    results = _campaign(status_dir, work, mode, jobs)
    for fmt in ("md", "csv", "json"):
        out = work / f"report.{fmt}"
        assert main(["report", "--results", str(results), "--format", fmt, "--out", str(out)]) == 0
    assert main(["registry", "--results", str(results), "--out", str(work / "registry.txt")]) == 0
    return {name: _sha(work / name) for name in DIGESTS}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_both_modes_campaign_digests_are_frozen(status_dir, tmp_path, jobs):
    assert _artifact_digests(status_dir, tmp_path, "both", jobs) == DIGESTS


@pytest.mark.parametrize("mode", sorted(SINGLE_MODE_DIGESTS))
def test_single_mode_campaign_digests_are_frozen(status_dir, tmp_path, mode):
    assert _artifact_digests(status_dir, tmp_path, mode, "1") == SINGLE_MODE_DIGESTS[mode]


def test_real_mode_campaign_reproduces_the_real_rows(status_dir, tmp_path):
    for sub in ("both", "real"):
        (tmp_path / sub).mkdir()
    both = _campaign(status_dir, tmp_path / "both", "both", "1")
    real = _campaign(status_dir, tmp_path / "real", "real", "1")
    assert _sha(real) == REAL_ONLY_RESULTS
    real_rows = [line for line in both.read_text().splitlines()[1:] if '"mode":"real"' in line]
    assert real.read_text().splitlines()[1:] == real_rows
    assert len(real_rows) == 4 * 9
