"""Byte contract: frozen SHA-256 digests of a small fixed campaign.

Four indexed statuses (seed 0) are tested with mini-crush-v1 in both modes,
then reported in every format and put through the registry. A refactor of
generation, testing or reporting must leave every digest unchanged; a change
that alters bytes on purpose updates them here and says why in CHANGES.md.
"""
import hashlib

import pytest

from mtstreams.cli import main

DIGESTS = {
    "results.jsonl": "5623079bba2a1431553d282f5fb47aba3480baf3cb83998816b1efe2585432d8",
    "report.md": "f8b6ae37e663b6b93360228d55be10c5c97bd8b2c8b79e3c373326c7cd774118",
    "report.csv": "e6bea84edfb93d621cfda15670e5cc74aa84e00badda48cbe47c4a9cd325bda3",
    "report.json": "4d3d60e89ace09845825c425a4144545d9abc648b6636acf15e10a91279e01bd",
    "registry.txt": "66900656788515599e0f7fe0e09273fa1e93d6068a25dc1cbeac11b90b391bf1",
    "registry.json": "b83e491803659b1e5af6460887f3adfb224a9b7f7c6b3d2d6bd185925d5c7ae2",
}
REAL_ONLY_RESULTS = "6a91e5598112dc52c619cabf0943b6d6298a9e2a64c628a252488ef8d1fbe0e4"


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_both_modes_campaign_digests_are_frozen(status_dir, tmp_path, jobs):
    results = _campaign(status_dir, tmp_path, "both", jobs)
    for fmt in ("md", "csv", "json"):
        out = tmp_path / f"report.{fmt}"
        assert main(["report", "--results", str(results), "--format", fmt, "--out", str(out)]) == 0
    assert main(["registry", "--results", str(results), "--out", str(tmp_path / "registry.txt")]) == 0
    assert {name: _sha(tmp_path / name) for name in DIGESTS} == DIGESTS


def test_real_mode_campaign_reproduces_the_real_rows(status_dir, tmp_path):
    for sub in ("both", "real"):
        (tmp_path / sub).mkdir()
    both = _campaign(status_dir, tmp_path / "both", "both", "1")
    real = _campaign(status_dir, tmp_path / "real", "real", "1")
    assert _sha(real) == REAL_ONLY_RESULTS
    real_rows = [line for line in both.read_text().splitlines()[1:] if '"mode":"real"' in line]
    assert real.read_text().splitlines()[1:] == real_rows
    assert len(real_rows) == 4 * 9
