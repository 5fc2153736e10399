"""Host-speed probe: a fixed amount of interpreter work that runs no obtf code.

`run.py` times this script in a fresh interpreter before and after every
obtf command and scales the command's time by the probe's, because on a
shared host the same command's time drifts by 15-30% over minutes.  The
probe does what an obtf command does, minus obtf: it starts an
interpreter, loads the standard-library modules `obtf.cli` loads, and
runs integer-bitmask transitive closures like the orientation sweep's
inner loop.  Changing it changes every normalised figure.
"""

import argparse  # noqa: F401  (loaded for the start-up cost only)
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import hashlib  # noqa: F401
import json  # noqa: F401
import pathlib  # noqa: F401

ROUNDS = 3000
SIZE = 12


def closures(rounds: int) -> int:
    """Close `rounds` pseudo-random SIZE x SIZE bit matrices (Warshall) and
    count the distinct results."""
    x = 12345
    seen = set()
    for _ in range(rounds):
        rows = []
        for _ in range(SIZE):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            rows.append(x & 0xFFF)
        for k in range(SIZE):
            rk, bit = rows[k], 1 << k
            for i in range(SIZE):
                if rows[i] & bit:
                    rows[i] |= rk
        seen.add(tuple(rows))
    return len(seen)


if __name__ == "__main__":
    closures(ROUNDS)
