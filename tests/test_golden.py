"""Golden outputs: SHA-256 of every form a subcommand writes.

The digests pin the exact bytes the simulator writes at a fixed seed: the
--output file as CSV and as JSON, and the text printed to stdout.  Any
change to the noise stream, the detection rule, the reductions or the
rendering shows up here.  Trial counts are small; 70000 = 4·2^14 + 4464
spans four full chunks and one partial one.  magic-square runs twice: 5000
trials per state use only a prefix of each state's first chunk, and 70000
trials per state give every state several chunks.  Every case runs at
several worker counts against the same digest.  ``replay`` draws nothing and
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
        "fcca55cc852812d2b58d104010952adb4fc3254746321be0fea2bfb838fbf790"),
    "born": (
        ["born", "--trials", TRIALS],
        "ec75d64aee431adf5a4dbbfc0d573e2db39c1a6e17e1207178c130238467dd72"),
    "tomography": (
        ["tomography", "--alpha", "0.6,0.8i", "--trials", TRIALS],
        "af5b72522ad949eda5d99b156d50ba833a9918c2c534698467b99e5f08031e9c"),
    "magic-square": (
        ["magic-square", "--states", "3", "--trials", "5000"],
        "ca4495136654c5a6330d134b67587cd892ff319ccf6a4e7fa0dc5b2e84ce3ac6"),
    "magic-square-multichunk": (
        ["magic-square", "--states", "2", "--trials", TRIALS],
        "00c390df6adfc399ad36ef23aed15b4454f1f2a6428113a56fa516bca0c750c0"),
    "chsh-joint-sphere": (
        ["chsh-joint", "--noise", "sphere", "--trials", TRIALS],
        "0d17f5cad64775aa8089b717b81d755dfbfa520ff51fc2ae4eacaffd0552ba57"),
    "chsh-joint-gaussian": (
        ["chsh-joint", "--noise", "gaussian", "--trials", TRIALS],
        "274038a7a0e3a8cc154305a7e51fbd0b5b69e1b6e3ff339e4c3f2b515827c9f7"),
    "chsh-local": (
        ["chsh-local", "--trials", TRIALS],
        "acd1ac31a3bbf679ad0d49c84639bdaaf26730d893d4ad5cb7e2bb89cdf8ba6b"),
    "chsh-local-gaussian": (
        ["chsh-local", "--noise", "gaussian", "--trials", TRIALS],
        "f22fafe77cab7be932538d81e459a616578d864c31c3606cdafe528efe64189f"),
    "bell-state": (
        ["bell-state", "--trials", TRIALS],
        "b6488c132b0a367108436b49280993f5161d8061ed1f3ca8a1272bda8b6ecfbb"),
    "two-dim": (
        ["two-dim", "--trials", TRIALS],
        "029201a51d9c4a6663a1d0a6bfa3bd3592335524c2b6331fed33e0de7fbc15d1"),
    "oracle": (
        ["oracle", "--alpha", "0.8,0.6", "--s", "1", "--gamma", "2",
         "--mc-trials", TRIALS],
        "70083db5e3260b9eaa8c888be4cbc8fac9c62d299249f918f15036c82e1fb5a8"),
}


# (--format json file, stdout) of each GOLDEN case.
JSON_AND_STDOUT = {
    "bell-state": (
        "6e2feb41e1d95f05961f99de2b581c106bb4476b5cf04edc9d4f6d5eb49bbdc7",
        "521720ed869c57d3c9bf9bc7c3af60c0210caa9af7a57a2a0ef1df90b75d9b6e"),
    "born": (
        "abe901f1e80b794d11124f5c1733aa361275a9c5038f0525fc4db124684ca8db",
        "960dcb21720c34c69310fda4cd6f80980ebcf235e41fbd8863f3c30159e0a68b"),
    "chsh-joint-gaussian": (
        "2f4b590de6e7f248a3078bf837429239b7e5685916ba53f6cb12aa5d59f5490a",
        "9f60e1bd4a985ff266ecc1de8b632ac085c5bbdd922ce9301a7c0ff578edd8f1"),
    "chsh-joint-sphere": (
        "05590a923cffbe3c090ee9e96af79ae97ff23a1663ec022e0ddf3ea00de51293",
        "a6b16583126ba76a453ee339fda2e333e3ff85e75d73022a698edf9a9afc5c6f"),
    "chsh-local": (
        "60c91133f086862fbedffed0fd054d89cd5797fb41052559afaa942489986355",
        "e725b080c369fb5c82549acd89a9fe753c9350075b051818b77bd191a3beea8c"),
    "chsh-local-gaussian": (
        "8f060ac9745e8ac0d09d51d34c5946cf3d6bedc90323000588221a8f0bae5ad4",
        "c1e411a67b78b4f209c31c85c3a99df8cef69ed0a6460b9397a08018e2660a2c"),
    "detect-probs": (
        "df33822a9c5c5590a1c94a1eb9751644db6c8e2a50615160e4fe2d43ab868324",
        "aef27ff20301ff2787869f7fb7396456ae14ed4f0675aa1c679652c821829ebf"),
    "magic-square": (
        "0847045669ee2e6d5214bab90ce38c24fff4144a0bb11e891087ebfa45eab0bb",
        "c4481bcef40a13e24976f2b1fd58c6c0c0ca3d486a6a1c509f7093ee9039f062"),
    "magic-square-multichunk": (
        "2d791dda611fd261e55a3d6a1e56a022d3f4906fadddf8f40f1d75410902e06e",
        "8c3498f010e72a4606412517dfab10901ff1c0ae8e3d9bf24ccd4db4bb7bf3c6"),
    "oracle": (
        "5a616b9c148b09821db5bd471d6ac479374ce0ed229342f6bbd3d87e6292fc05",
        "be6693c44ef45eb1208e6c10e2911c9420855a59711fba7a93eaa7302a55fa88"),
    "tomography": (
        "87233ff0e0685f14c3a0b3f9be6b5a7ec8d42e2f1752abed7fb4bad5f16c9b8c",
        "c71abdaa7e5fe17240dda7b21f857c0584e347ee6dfa5c40d77be0e33c740310"),
    "two-dim": (
        "0461529a02c55a24014b7aeb7ccaebde6d700f7f50b31ae4529272a8c2d3581c",
        "004130a0d7ffe30a5bd2da4ec9a3e8adeaca425df441ad8109799802017b45ec"),
}

# replay: flags, the realization, (CSV, JSON, stdout) digests.  The
# realizations are those of the replay tests in test_cli.py, which pin the
# table rows themselves.
REPLAY = {
    "detect-probs": (
        ["--gamma", "0.9"],
        "0.2197,-0.7169\n-0.5290,0.3974\n",
        ("8739a0ff53def2aaaf237147de9a30ad8066d983f1ae95b15a0f3631d79936ff",
         "98472316528f283f1b4010909e529b5ac8dbcb8ba3992a36028a542c8da4ccbb",
         "7b65aef07202fdad589866c2aba36c501593a02bcfdf68209a30cf0bcc2ccae4")),
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
