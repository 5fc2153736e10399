"""The benchmark workloads as fixed sequences of `obtf` invocations.

A pass is one run of a workload's command list on an empty census cache.
Every command prints JSON so its output can be checked; the checks live
in `checks.py`.  Only `analyze` depends on the seed: its graph files are
written by `graphs.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from checks import EXPECTED, Check, check_analyze, check_census, check_json, check_verify
from graphs import make_graphs

CENSUS_RANGES = (("G", "1..5"), ("H", "1..5"), ("F", "1..6"), ("B", "1..7"))
CACHE_NAME = "cache.jsonl"


@dataclass(frozen=True)
class Command:
    label: str          # unique within a workload; keys the pinned digests
    argv: tuple         # arguments after `obtf`
    check: Check
    digest: Optional[str]  # the output digest pinned in expected.json, if any


def _census(q: str, ns: str, cache: str, label: str) -> Command:
    argv = ("census", "--quantity", q, "--n", ns, "--cache", cache,
            "--workers", "1", "--format", "json")
    return Command(label, argv, check_census, EXPECTED["census"][label])


def build(name: str, seed: int, work: Path) -> list[Command]:
    """The workload's commands, with its input files written into `work`."""
    cache = str(work / CACHE_NAME)
    if name == "census":
        cold = [_census(q, ns, cache, f"census {q} {ns}") for q, ns in CENSUS_RANGES]
        warm = [_census(q, ns, cache, f"census {q} {ns} warm") for q, ns in CENSUS_RANGES]
        label = "posets cover-multiplicity 6"
        cover = Command(label, ("posets", "--cover-multiplicity", "6", "--format", "json"),
                        check_json, EXPECTED["census"][label])
        return cold + [cover] + warm
    if name == "analyze":
        pinned = EXPECTED["analyze"].get(str(seed), {})
        commands = []
        for file_name, text in make_graphs(seed):
            path = work / file_name
            path.write_text(text)
            label = f"analyze {file_name}"
            commands.append(Command(label, ("analyze", str(path), "--format", "json"),
                                    check_analyze(text), pinned.get(label)))
        return commands
    if name == "verify":
        label = "verify 1..4"
        return [Command(label, ("verify", "--range", "1..4", "--workers", "1",
                                "--format", "json"),
                        check_verify, EXPECTED["verify"][label])]
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("census", "analyze", "verify")


def reset(work: Path) -> None:
    """Start a pass on an empty census cache."""
    (work / CACHE_NAME).unlink(missing_ok=True)
