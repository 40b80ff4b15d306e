"""Golden outputs: SHA-256 of every form a subcommand writes.

The digests pin the exact bytes the simulator writes at a fixed seed: the
--output file as CSV and as JSON, and the text printed to stdout.  Any
change to the noise stream, the detection rule, the reductions or the
rendering shows up here.  Trial counts are small; 70000 = 2^16 + 4464 spans
one full and one partial chunk.  magic-square runs twice: 5000 trials per
state use only a prefix of each state's first chunk, and 70000 trials per
state give every state several chunks.  Every case runs at several
worker counts against the same digest.  ``replay`` draws nothing and
rejects ``--workers``; it runs on each of three printed realizations.
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


# (--format json file, stdout) of each GOLDEN case.
JSON_AND_STDOUT = {
    "bell-state": (
        "88e4e2cd9e49e1e7478d4bee4ea1b82ac236848817ec77efa06f9b7e1c1038a8",
        "ee378144c0f8feb1a17b47f0040303d521c323e1c14c0c91615b3c64e2b4d59e"),
    "born": (
        "f82a67c97c8d706e20e4b8f9a8e73f01a69843ac0f4b22aa1cf369b6482fb2a8",
        "8d57774dcd1a940bcdb9521375958874fbe7d4f2df893cb3a232f001e6722778"),
    "chsh-joint-gaussian": (
        "5588eae183fa62ae312316e445c29940ce412bde989f64f97432c02007d38588",
        "43ce297bd900dfd387d5cd40f760eb131789622ea217f2ac55b0bc2115977f93"),
    "chsh-joint-sphere": (
        "b064af7e166dbf00fe29e20178191e9bbed2a428aabb643784fe8396fc82fa92",
        "37acafbe4136368c38512d13d07e2f0f6f90c42ba32b644c51b8e55a8aa4ae8e"),
    "chsh-local": (
        "ab906da76e6f5033802d63b76df86833c500d0054b69f9fe98b5b3a2a0434fab",
        "38f38f5f56018207dfc7d53c9a51ee7e2ddcfb6d726d62171bf22fa1be28afa2"),
    "chsh-local-gaussian": (
        "f414715c01b5661bdc0cf53f07ff5177f278df148e88e55446f1810ba000cc72",
        "007ce430e49c737f91f69eb43c6a7868cf090f60d8ab1f7c3f804cffc92e2e3a"),
    "detect-probs": (
        "cf8812810b3faa5821a147debd1c058ed9f9202b58aa6da88acc83838c019af4",
        "9d9c0fe1ff24a55d1a518b295c21ef1a14c961857f6f65f9674604cd7f6b587e"),
    "magic-square": (
        "12005ad31edb5697d80061da6fbd57fbe1bbd89f6330406f4410241654fef69d",
        "3aa13080828c964a2520b57f8f9261cb0147022def7c031d5f1da45372ec9fdf"),
    "magic-square-multichunk": (
        "7a001fbf6d7ed97de3b6b6e26180e1070d2b9ad19a37a4677505a284ba64aa63",
        "3d0c2f83e2879a91ea85d3de6314675c041f2dd7b0c42dfce0a6ac6628f89e0c"),
    "oracle": (
        "9a4d3cc84925a93db30471a2316f508efafbdc991dc28de6d5bafe3793fd7fb0",
        "64d8859da4956c89bb4034e72499cf9c5604bf739127bd6b3b4241579e6b2a76"),
    "tomography": (
        "40cb483fcb68d3c4afb9feffa89f40afcaa3894757228ef26b0b928a47381ce1",
        "a0f5b53c87db203a9d3d9f11a3e48761c01f8dcc9c0fbb3cfd53d0e04aad4344"),
    "two-dim": (
        "ed8506a9bafa20422e3cd278c45b763dc5e9d19cbe14e432c8fe4a2535ae295c",
        "d9ffd4242c7d44e5a5cef65e922f888cb48da0d786504db953cf4addbdc554f7"),
}

# replay: flags, the realization, (CSV, JSON, stdout) digests.  The
# realizations are those of the replay tests in test_cli.py, which pin the
# table rows themselves.
REPLAY = {
    "detect-probs": (
        ["--gamma", "0.9"],
        "0.2197,-0.7169\n-0.5290,0.3974\n",
        ("04bd32f4b3e6b769b96346824a81c7d5a515764825a78b9a63a0e833b3d1c8b5",
         "9ea72902cb9ec957915efb1e9297eb554146f50f87d04114f2ce91fcd13011fb",
         "7c9a43b10527b1a8a5dfebf316f75b617234e5e0f2e0d9eba74963855ff8020b")),
    "magic-square": (
        ["--s", "0"],
        "-0.3151,0.5498\n-0.9092,0.1208\n-0.0581,-0.5120\n0.4560,-0.3460\n",
        ("9bb18c25426180fe275d068f8d46f502cef60827e4460c04ee1fa1e40e4cb847",
         "2357b995fe8421cf1b0619ec5d1a7677679bb07165d653bbedc48c79f06d97ff",
         "ceb5c8f37d2881623b82267a0597366f6cb4c8f2c517535c5dc43fb541427777")),
    "chsh-local": (
        ["--s", "0"],
        "-0.165,0.2046\n0.8316,0.6696\n0.5690,-0.2230\n0.2321,-0.1111\n",
        ("291403af39497ef1104e831df882e3aeee0c25de6b75bfabb6edb73caf90b6a2",
         "ff75e698de6547c3a1e234fd467421a50469a6d5c8fc95b980cb5d9416a6c882",
         "a5f73c6fe6f6f74889fae3f03acd819cdf5cf7f2ea44d4b100984f759a9552df")),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digest(argv, workers, path) -> str:
    code = main([*argv, "--seed", SEED, "--workers", str(workers),
                 "--output", str(path)])
    assert code == 0
    return sha256(path.read_bytes())


def file_and_stdout_digests(argv, workers, fmt, path, capsys):
    capsys.readouterr()
    digest = output_digest([*argv, "--format", fmt], workers, path)
    return digest, sha256(capsys.readouterr().out.encode())


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, workers, tmp_path, capsys):
    argv, expected = GOLDEN[case]
    assert output_digest(argv, workers, tmp_path / "out.csv") == expected


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_json_and_stdout(case, workers, tmp_path, capsys):
    argv, _ = GOLDEN[case]
    assert file_and_stdout_digests(argv, workers, "json", tmp_path / "out",
                                   capsys) == JSON_AND_STDOUT[case]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(REPLAY))
def test_golden_inject(case, workers, tmp_path, capsys):
    """Replaying an injected realization gives the pinned bytes, and no
    worker count can change them: ``replay`` rejects ``--workers``."""
    flags, vector, (csv, json, stdout) = REPLAY[case]
    vec, out = tmp_path / "vec.txt", tmp_path / "out"
    vec.write_text(vector)
    argv = ["replay", str(vec), *flags]
    assert main([*argv, "--workers", str(workers),
                 "--output", str(out)]) == 1
    assert not out.exists()
    for fmt, expected in (("csv", csv), ("json", json)):
        capsys.readouterr()
        assert main([*argv, "--format", fmt, "--output", str(out)]) == 0
        assert (sha256(out.read_bytes()),
                sha256(capsys.readouterr().out.encode())) == (expected, stdout)
