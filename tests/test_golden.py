"""Golden outputs: SHA-256 of the --output CSV of every subcommand.

The digests pin the exact bytes the simulator writes at a fixed seed, so any
change to the noise stream, the detection rule, the reductions or the
rendering shows up here.  Trial counts are small; 70000 = 2^16 + 4464 spans
one full and one partial chunk.  magic-square runs twice: 5000 trials per
state use only a prefix of each state's first chunk, and 70000 trials per
state give every state several chunks.  Every case runs at several
worker counts against the same digest.
"""

import hashlib

import pytest

from threshdet.cli import main

SEED = "20140731"
TRIALS = "70000"

GOLDEN = {
    "detect-probs": (
        ["detect-probs", "--alpha", "0.6,0.8", "--noise", "gaussian",
         "--trials", TRIALS],
        "4117a0a27a9f0f8b7a4f0572ae4b9340cd6325247f9e578b65786e42d384a482"),
    "born": (
        ["born", "--trials", TRIALS],
        "9543b9ffda0e00a3b3a26f19160e3c361feaf337c4c4d5f268bf297634da177d"),
    "tomography": (
        ["tomography", "--alpha", "0.6,0.8i", "--trials", TRIALS],
        "484937098772277e9c57eefb4041d318923a962576487a46f90bbd004a6d75d8"),
    "magic-square": (
        ["magic-square", "--states", "3", "--trials", "5000"],
        "d0f3bdec6607a8fba94be7a01710a0d11af5420bfc74ffc8f5cf0198d8e6f934"),
    "magic-square-multichunk": (
        ["magic-square", "--states", "2", "--trials", TRIALS],
        "546994ff125a89fe12e3abdef83a6dc32d34950718b39fc54155b47b02331821"),
    "chsh-joint-sphere": (
        ["chsh-joint", "--noise", "sphere", "--trials", TRIALS],
        "7f705c7ef1d2ddfe7847d15e08fa3ac1fc2a037262b2b75a5f6aa7544fd1472a"),
    "chsh-joint-gaussian": (
        ["chsh-joint", "--noise", "gaussian", "--trials", TRIALS],
        "44ce4d8c3e1356e689478af367117ac043c054a650d8a1912e9b8de89da2c690"),
    "chsh-local": (
        ["chsh-local", "--trials", TRIALS],
        "1e2aa8a3892d8e2df82585583902c1664e67a37ecec552a9e0ded176d170a6c2"),
    "chsh-local-gaussian": (
        ["chsh-local", "--noise", "gaussian", "--trials", TRIALS],
        "f4243c01feea99c16d80505e8f0d384a9765c6bf864b400e43978718f1f38e86"),
    "bell-state": (
        ["bell-state", "--trials", TRIALS],
        "3d7d2082473db9436cfe429f687936935b0ca1657ff57ebb0e3ba3edc5698893"),
    "two-dim": (
        ["two-dim", "--trials", TRIALS],
        "d43f847cfc754e6be63bcdf35b96a263b35542557c8b56e003fd2e0c7476420e"),
    "oracle": (
        ["oracle", "--alpha", "0.8,0.6", "--s", "1", "--gamma", "2",
         "--mc-trials", TRIALS],
        "8f4fc0daf60b60b4d4a3a77ce6cf3c29249857187d17772ce1664717b9c603fe"),
}


def output_digest(argv, workers, path) -> str:
    code = main([*argv, "--seed", SEED, "--workers", str(workers),
                 "--output", str(path)])
    assert code == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, workers, tmp_path, capsys):
    argv, expected = GOLDEN[case]
    assert output_digest(argv, workers, tmp_path / "out.csv") == expected
