"""census, verify and posets output pinned byte for byte.

Each digest is the SHA-256 of a command's JSON output with every
`wall_time` removed, re-serialised with sorted keys; the values were
taken from the engines before they moved behind `census.ENGINES`.  The
cover-multiplicity digest pins the witness graph, the first to reach the
largest group in the order search's yield order; it was taken from that
search before it gained its negation mode, and still holds now that the
question is counted per cover graph.  The `verify --range 4..5 --big`
digest was re-pinned when the poset-enumeration-oracle line for n = 5
joined that run; the rest of its output is unchanged.  The `verify
--range 0..4 --big` digest pins the n = 0 lines and the n = 4 oracle
line; it was taken before each check's sizes moved into its
`verify._CHECKS` row.

TEXT_GOLDEN pins the table and CSV output of short runs of every
command, as the SHA-256 of stdout with each census `wall_time` field
masked.  The input files are CI's 4-vertex graph, the bowtie (two red
triangles sharing a vertex) and CI's formula for the chain
x1 < x2 < x3.
"""

import hashlib
import json
import re

import pytest

from obtf.cli import main

GOLDEN = {
    ("census", "G", "1..5"): "f2335996e5b9daa077a15c33067f89afaefd8e37b099e3fe2c2874b33ccc1007",
    ("census", "H", "1..5"): "e6f3f027b2e2aaee8a3d63fcb1bd91bdbc7be4190813e231eea19696130b19df",
    ("census", "F", "1..6"): "f2a598f5b7624a59f674df9d14b8827d3727853bc230f9f2a9cc99ba7dce8772",
    ("census", "B", "1..7"): "b646dfd015298d8db1be62f432e8f17137700be6a28762aa27d3358ddd1a0605",
    ("verify", None, "1..4"): "fcf42cd84add68bc5dcfccb3cb4175e400f9f615d85935be76910094fb53fc37",
    ("verify", None, "4..5 --big"): "9332f49c924455c0c0e381f34cbcd376635cbc385b9d5c2be5bcb34cfb795501",
    ("verify", None, "0..4 --big"): "db60b5796c3c1c1b4f3f9f3abe050a7c653bff0de57e48e359bf8b55f218b40b",
    ("posets", "cover-multiplicity", "6"):
        "63e9da4f0cd76d03643c2f45cc73fba7ff059685e2476b1e54993c3102791910",
}
SLOW = {("verify", None, "4..5 --big")}    # about 7 s

INPUTS = {
    "graph.txt": "n 4\n1 2 B\n2 3 R\n3 4 R\n1 4 R\n",
    "bowtie.txt": "n 5\n1 2 R\n1 3 R\n2 3 R\n3 4 R\n3 5 R\n4 5 R\n",
    "chain.txt": "n 3\n-1 2\n-2 3\n",
}
TEXT_GOLDEN = {
    ("census --quantity G --n 1..4", "table"):
        "f715e8d5031ba7e7eb9a63bd6c1076e4e16d7b16942af55d836b583e1a947c40",
    ("census --quantity G --n 1..4", "csv"):
        "fd9572e9c11173407cee684188fd81dfd7a55807776c13352cddbd7892619654",
    ("census --quantity F --n 2..5", "table"):
        "ce2b784bd528d738351d65461e302a860c4123478e118dc5420d80c726845042",
    ("census --quantity F --n 2..5", "csv"):
        "962428a729f83ac7da42c0b6705dddf5b415e95274211c1e7856dce4db8c58f8",
    ("verify --range 1..3", "table"):
        "4d8ffa3a5d0fadb23a33edc87e4c2199f8e0f75a78461820b4eaa29083363cc6",
    ("verify --range 1..3", "csv"):
        "290ab7b9c16b0f3c2db97ac1cfd8f360da98d818b7d28351713ad8edf5b65a03",
    ("verify --range 0..2 --big", "table"):
        "2f9da8fdb336f39e5e33448c2a025b9edc5c96589ec0af618a4ae421aa72b352",
    ("verify --range 0..2 --big", "csv"):
        "79cc0eec3743bd9e6c6642affb9b9b4ceb13bfe166baa365659d2cf8d273d0f9",
    ("analyze graph.txt", "table"):
        "d1574e466356bfb41351e732a81cc0b5f22ee493e3a838b9e811a9f6229c06f9",
    ("analyze graph.txt", "csv"):
        "b7eda74a22fbe7589bef14e294f44637c3ff52ca5c288219ac367d1fd479280b",
    ("analyze bowtie.txt", "table"):
        "1efcd9ef1ccbf7cfbb6d0ab7275ba379447c61285beab31f8d779a0bb3718d96",
    ("analyze bowtie.txt", "csv"):
        "7e745214b372ae9e87ce21aafdd15a65dc8b0225e2f9b563c28cc54fa95a4932",
    ("posets --n 0", "table"):
        "d95ae1f8eb9549f0862b2d72f1b1af08a1c571d317b2d9eaec7938e53426790f",
    ("posets --n 0", "csv"):
        "b1081c45e8aa23d00eaff70b462d8f901643b2dd4a2fc9bd34e4d1b3fb684556",
    ("posets --n 3", "table"):
        "951cc43e741cccec4ec94b1e005cd6b9274f67cc6a5ef6e08a8e210e5b7ebca7",
    ("posets --n 3", "csv"):
        "03f49facd8fb4f6bae8c38ca7ace094f9d37b4b4294929575396f60a6a23d693",
    ("posets --cover-multiplicity 1", "table"):
        "5e44a00031dcd039f5b65ad7857ba0e87e62c6fe0123abb0daf08fb2af0cd4a4",
    ("posets --cover-multiplicity 1", "csv"):
        "1d36e7cdd16ea3693f0139983b7b5f72f83a1e7448a3d474df3e5c8f24501f76",
    ("posets --cover-multiplicity 5", "table"):
        "4b3a1444ca7276a014e938622e1adb8dcd83ddfba44d5dfeb05bc71a19606266",
    ("posets --cover-multiplicity 5", "csv"):
        "8ec9099301cffdc6088f4e7648322efead448c2ee6d323784fcf74ca02d3f6b6",
    ("posets --formula chain.txt", "table"):
        "19ddd59765f567e9d9258ad5ae75cb40ff250d59c940df05c1b01bd78580a3e5",
    ("posets --formula chain.txt", "csv"):
        "0d2f05167f1ec64b89bdc7113ef5cf3ac79e65c9583df00b06e4714fa46d98db",
}
# census writes wall_time with six decimals; verify's ratio lines do too,
# so only census output is masked
WALL_TIME = re.compile(r"\b\d+\.\d{6}\b")


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


@pytest.mark.parametrize("command,quantity,sizes", [
    pytest.param(*key, marks=[pytest.mark.slow] if key in SLOW else [])
    for key in sorted(GOLDEN, key=str)])
def test_output_digest(capsys, monkeypatch, tmp_path, command, quantity, sizes):
    monkeypatch.delenv("OBTF_CACHE", raising=False)   # verify would recheck it
    if command == "census":
        argv = ["census", "--quantity", quantity, "--n", sizes,
                "--cache", str(tmp_path / "c.jsonl")]
    elif command == "verify":
        argv = ["verify", "--range", *sizes.split()]
    else:
        argv = [command, f"--{quantity}", sizes]
    assert main(argv + ["--format", "json"]) == 0
    masked = json.dumps(_strip_wall_time(json.loads(capsys.readouterr().out)), sort_keys=True)
    assert hashlib.sha256(masked.encode()).hexdigest() == GOLDEN[command, quantity, sizes]


def _text_output(capsys, tmp_path, command, fmt):
    """stdout of one command line, its input names written as files in
    tmp_path, and census given a fresh cache there."""
    argv = command.split()
    if argv[0] == "census":
        argv += ["--cache", str(tmp_path / "c.jsonl")]
    for i, word in enumerate(argv):
        if word in INPUTS:
            path = tmp_path / word
            path.write_text(INPUTS[word])
            argv[i] = str(path)
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    return WALL_TIME.sub("-", out) if argv[0] == "census" else out


@pytest.mark.parametrize("command,fmt", sorted(TEXT_GOLDEN))
def test_text_digest(capsys, monkeypatch, tmp_path, command, fmt):
    monkeypatch.delenv("OBTF_CACHE", raising=False)
    out = _text_output(capsys, tmp_path, command, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_GOLDEN[command, fmt]
