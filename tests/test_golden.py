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
"""

import hashlib
import json

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
