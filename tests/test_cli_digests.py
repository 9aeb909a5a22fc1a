"""CLI output bytes for fixed seeds, pinned by SHA-256.

Refactors must keep these outputs byte-identical.  A digest may change only
with a change that says which output moved and why.
"""

from __future__ import annotations

import hashlib

from shortcutforge.cli import main

# (output name, argv).  A ".txt" name is passed after --out and a ".json" name
# after --json, and the file is hashed; a ".out" name hashes stdout instead.
STEPS = (
    ("dag.txt", ("gen", "--family", "random_dag", "--n", "64", "--p", "0.1", "--seed", "5")),
    ("cyc.txt", ("gen", "--family", "random_digraph", "--n", "60", "--p", "0.025",
                 "--seed", "3")),
    ("deep.txt", ("gen", "--family", "random_dag", "--n", "40", "--p", "0.1", "--k", "3",
                  "--seed", "4")),
    ("w.txt", ("gen", "--family", "weighted_random", "--n", "60", "--p", "0.03",
               "--W", "20", "--seed", "6")),
    ("auto.txt", ("shortcut", "--input", "cyc.txt", "--diameter", "4", "--seed", "1")),
    ("small.txt", ("shortcut", "--input", "dag.txt", "--diameter", "4", "--seed", "1",
                   "--mode", "small")),
    ("large.txt", ("shortcut", "--input", "deep.txt", "--diameter", "24", "--seed", "1",
                   "--mode", "large")),
    ("folklore.txt", ("shortcut", "--input", "dag.txt", "--diameter", "6", "--seed", "1",
                      "--mode", "folklore")),
    ("tcspanner.txt", ("shortcut", "--input", "cyc.txt", "--diameter", "4", "--seed", "1",
                       "--mode", "tcspanner")),
    ("hopset.txt", ("hopset", "--input", "w.txt", "--beta", "12", "--eps", "1/4",
                    "--seed", "1")),
    ("decomp.out", ("decomp", "--input", "dag.txt", "--ell", "8")),
    ("closure.out", ("decomp", "--input", "dag.txt", "--ell", "8", "--closure")),
    ("verify_small.out", ("verify", "--graph", "dag.txt", "--edges", "small.txt",
                          "--mode", "shortcut", "--diameter", "4")),
    ("verify_small_d1.out", ("verify", "--graph", "dag.txt", "--edges", "small.txt",
                             "--mode", "shortcut", "--diameter", "1")),
    ("verify_hopset.out", ("verify", "--graph", "w.txt", "--edges", "hopset.txt",
                           "--mode", "hopset", "--beta", "12", "--eps", "1/4")),
    ("verify_hopset.json", ("verify", "--graph", "w.txt", "--edges", "hopset.txt",
                            "--mode", "hopset", "--beta", "12", "--eps", "1/4")),
    # Forward ids: every edge runs from a smaller id to a larger one, so the
    # ids are already a topological order, though not the one Tarjan assigns.
    ("grid.txt", ("gen", "--family", "grid_dag", "--n", "400", "--seed", "0")),
    ("layered.txt", ("gen", "--family", "layered", "--n", "300", "--p", "0.1",
                     "--seed", "2")),
    ("grid_small.txt", ("shortcut", "--input", "grid.txt", "--diameter", "4",
                        "--seed", "1", "--mode", "small")),
    ("grid_large.txt", ("shortcut", "--input", "grid.txt", "--diameter", "20",
                        "--seed", "1", "--mode", "large")),
    ("grid_closure.out", ("decomp", "--input", "grid.txt", "--ell", "8", "--closure")),
    ("layered_small.txt", ("shortcut", "--input", "layered.txt", "--diameter", "4",
                           "--seed", "1", "--mode", "small")),
    ("layered_large.txt", ("shortcut", "--input", "layered.txt", "--diameter", "20",
                           "--seed", "1", "--mode", "large")),
    ("layered_closure.out", ("decomp", "--input", "layered.txt", "--ell", "8",
                             "--closure")),
)

# Steps that fail verification, with a witness; every other step exits 0.
EXIT_CODES = {"verify_small_d1.out": 1}

EXPECTED = {
    "dag.txt": "21200ce5bb38581efa46b81264a974879caf4f87ac7a24df2d0a8545d1d4d61a",
    "cyc.txt": "1ed6681566cc2e4ffd2bb5a96fcf9ae0c2c0c54fcdfb78e56d794cf54375731e",
    "deep.txt": "a811be738f375dab75e3de30ef7dc9630f1657a1c927418cb4c4cf83f5186ea3",
    "w.txt": "763327e01350b6c05c245c9e79d6c50cdc0db421904e763c08a3726dead39b46",
    "auto.txt": "61a6a51bbe09e78b8765d5e2518c0d5856c0f8634498302de372c7c855da8524",
    "small.txt": "b137305c7ecdc4638267d9a8ed85d04cee34923803e8d4d7e6a73b0f44acdcc3",
    "large.txt": "9cb27334d3e85f771b240c3463a2676e93bcec19902e3c12dd80fe9ab35b91b3",
    "folklore.txt": "c1462efe3ca10e9deadb568cc4ae8c0782a096305b572d2347abe784d131ea9d",
    # tc_spanner returns one ShortcutSet, so its rows are sorted by (u, v)
    # like every other mode; the comment and header lines and the sorted rows
    # are those of the backbone-first order written before.
    "tcspanner.txt": "7a10b250c2611d1eb60d9dc2674d1af849840adc77736ee3b91f1616b7cf03b8",
    # The large-hop route keeps each inner row's tag instead of "recursive";
    # only the tag column and the "edge counts:" line differ from before.
    "hopset.txt": "aaf2178cd57fd05ae76617b54f018c3f769997aa7860c4a7d01db7f23a5c5048",
    "decomp.out": "ddd886ad9226ed0f37ffffd5d2c325c4ea6ed3f39396d69ccc920d07e8747e3c",
    "closure.out": "ddd886ad9226ed0f37ffffd5d2c325c4ea6ed3f39396d69ccc920d07e8747e3c",
    "verify_small.out": "058346c617ddc943c7e8eef5bf251b864936b72e9132d13fa8d5702854a607fa",
    "verify_small_d1.out": "022bb19a65194cdc9890380e0b6b4b180c3a941711706b5dceb19aa9bbe170e6",
    "verify_hopset.out": "253cdd4685c0ca1bb28276e5df27b6f5d81d61b9595ba079a4c107418f49119d",
    "verify_hopset.json": "d3f18e9db4b1ba2fce14ed8f97bbd9fab36785b5723deae957b0906e1c5a623e",
    "grid.txt": "5e6d8d3a049f61a81963785dbd753f67941322f4eeee82e29793d456c670fc5d",
    "layered.txt": "3b4e798a8e454fd9e7941ec76ccd97d36eba35f01b71ad2a1465aba2d39255d1",
    "grid_small.txt": "3af935f3eb4b7017a54f183e9f97eda47a14abea379dbd4ddc312955ac7e8c92",
    "grid_large.txt": "90740e9de648d74d3a8cca992ff6e69d64f9f8b68b4bfd17548a6522433914d0",
    "grid_closure.out": "f71d4e31bfbd4eaf5127a38ecb7447ed55a49fb76c3d34c182667d5d1692a423",
    "layered_small.txt": "d6ea1f9f76f2eef78085c014bea4f1f0995361b278b15a89fad1449dea37433f",
    "layered_large.txt": "712b5bb4b82185a675cf0def3b2b24a190b09160f31dc8bc5386d72967746a38",
    "layered_closure.out": "097ddb4ecdb1032def27b67b9312fdb2ec7d244d77f101fbca7b5489e5d64850",
}


def test_cli_outputs_match_pinned_digests(tmp_path, capsys, monkeypatch):
    # Bare file names: the verify report names its edge file.
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in STEPS:
        capsys.readouterr()
        code = EXIT_CODES.get(name, 0)
        if name.endswith(".out"):
            assert main(list(argv)) == code
            data = capsys.readouterr().out.encode()
        else:
            flag = "--json" if name.endswith(".json") else "--out"
            assert main([*argv, flag, name]) == code
            data = (tmp_path / name).read_bytes()
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == EXPECTED


# Every bench algorithm, comma grids of D, beta and c, and seed ranges.
BENCH_CONFIG = """\
algorithm=folklore family=random_digraph n=40 density=1.5 D=4,6 c=0.5 seeds=0:2
algorithm=small_diam family=random_dag n=64 p=0.15 D=4 c=0.2,3 seeds=1
algorithm=large_d family=grid_dag n=100 D=10 c=2 seeds=0,2
algorithm=hopset_small family=weighted_random n=30 p=0.2 W=8 beta=12 eps=1/4 seeds=1
algorithm=hopset_large family=weighted_random n=40 p=0.15 W=8 beta=16,24 eps=1/3 c=2 seeds=0:2
"""

BENCH_EXPECTED = "6389fcd9fd5be6110943fe123da5c154a2ab8f112465c4876ee06f7494d2ae03"


def _bench_rows(tmp_path, config: str) -> list[bytes]:
    """The bench CSV lines for ``config``, each without wall_ms, its last column."""
    (tmp_path / "bench.cfg").write_text(config)
    out = tmp_path / "rows.csv"
    assert main(["bench", "--config", str(tmp_path / "bench.cfg"), "--out", str(out)]) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    assert lines[0].endswith(b",wall_ms\r\n")
    return [line[: line.rindex(b",")] + b"\r\n" for line in lines]


def test_bench_csv_matches_pinned_digest(tmp_path):
    # wall_ms, the last column, is a timing and the only column left out.
    lines = _bench_rows(tmp_path, BENCH_CONFIG)
    assert len(lines) == 14
    assert hashlib.sha256(b"".join(lines)).hexdigest() == BENCH_EXPECTED


# Nice paths of h = beta // 12 >= 2 hops: the small-hop route at beta 24 and
# 36, with weights up to 8 and with every weight 1, so many ties.
BENCH_MULTIHOP_CONFIG = """\
algorithm=hopset_small family=weighted_random n=40 p=0.15 W=8 beta=24,36 eps=1/4 seeds=0:3
algorithm=hopset_small family=weighted_random n=48 p=0.08 W=1 beta=24,36 eps=1/3 c=2 seeds=0:2
"""

BENCH_MULTIHOP_EXPECTED = "8fb93d132b233ccdec9cfb8fe39db4d0be97d02fc791f37215be4357a366c30f"


def test_bench_multihop_csv_matches_pinned_digest(tmp_path):
    lines = _bench_rows(tmp_path, BENCH_MULTIHOP_CONFIG)
    assert len(lines) == 11
    assert hashlib.sha256(b"".join(lines)).hexdigest() == BENCH_MULTIHOP_EXPECTED
