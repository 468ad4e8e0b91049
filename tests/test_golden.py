"""Golden outputs: the CLI's files for small fixed configs, pinned by sha256.

The digests were taken from the code before any refactoring that claims to
keep behaviour, and must never be regenerated to make such a change pass: a
mismatch means an output byte moved. Each run happens inside ``tmp_path``
with a relative dataset path, because the ``# dataset = ...`` echo line is
part of every CSV's bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from forceknn.cli import EXIT_OK, main

GEN_ARGV = ["gen", "--out", "data.csv", "--n-pos", "60", "--n-neg", "72",
            "--n-samples", "240", "--rng-seed", "7"]

ONLINE_ARGV = ["online", "--dataset", "data.csv", "--out", "out", "--runs", "3",
               "--seed-size", "12", "--k", "5", "--l-value", "100,50,80", "--rng-seed", "2"]

STATIC_ARGV = ["grid", "--dataset", "data.csv", "--out", "static.csv", "--mode", "static",
               "--k", "3,11,31", "--metric", "cosine,euclidean,manhattan,minkowski:3",
               "--l-value", "50,70,100", "--train-fraction", "0.2,1.0", "--static-seeds", "2"]

# Every default axis (840 cells, the k > training size ones infeasible).
STATIC_DEFAULT_ARGV = ["grid", "--dataset", "data.csv", "--out", "static-default.csv",
                       "--mode", "static"]

ONLINE_GRID_ARGV = ["grid", "--dataset", "data.csv", "--out", "online.csv", "--mode", "online",
                    "--k", "3,13", "--metric", "cosine,manhattan", "--l-value", "60,100",
                    "--runs", "2", "--seed-size", "12"]

GOLDEN = {
    "out/records-l100.jsonl":
        "84cdf09d66bffdbba129626091d659ec47ffe6d643dd9199ee94bf8c58643e72",
    "out/records-l50.jsonl":
        "e6fa29a4cb5137c30152573696d0174180969d4d02b71ac52f2a011f8f9514e7",
    "out/records-l80.jsonl":
        "7609a7ff42558940891a3d4b601879ab62d84032956e7937e6ac97fc1cb6ec67",
    "out/summary.csv":
        "a7232a89d023898f2c9702da887e8b251c9eb9630388f7ffa9ff0be7e0656b2e",
    "out/windows.csv":
        "b350bf8787b8f2b127e004d0adee8c3b49abea169f7405ec794528a9bdd73c1f",
    "static.csv":
        "66269e55e99bead8bc01f4c1bf1fde90e536a34201007c36445da61aa9e105ee",
    "static-default.csv":
        "6f16892dcd9d3efd3a8e6a7dd9e67209cf98ac3a448133563953822153a1d1c3",
    "online.csv":
        "c203e0367fcb7f5da25a4ce373a2227eca01645d6361bdd9e48a3537ee993662",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (GEN_ARGV, ONLINE_ARGV, STATIC_ARGV, STATIC_DEFAULT_ARGV, ONLINE_GRID_ARGV):
            assert main(argv) == EXIT_OK
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
