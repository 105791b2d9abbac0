"""Pace process: measures how fast the CPU runs Python while a sample runs.

On a shared host the CPU's speed changes by more than 1.5x from one second
to the next, with the load of other tenants.  ``run.py`` starts this process
on the same CPU as each sample, so the two take turns in short time slices
and see the same speed.  The pace does fixed chunks of work and logs the
monotonic clock and its own CPU time after each; chunks per CPU second over
a stage's wall-clock window give the speed the stage ran at.  The work is
the kind that dominates hopfreal: exact rational arithmetic into a dict.

    python3 perfbench/pace.py CPU     # runs until a line arrives on stdin

prints ``{"t": [...], "cpu": [...]}`` in nanoseconds, one entry per chunk.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from array import array
from fractions import Fraction


def chunk(x: Fraction) -> dict:
    acc = {}
    for i in range(500):
        k = i % 97
        acc[k] = acc.get(k, 0) + x * (i % 13 + 1)
    return acc


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    x = Fraction(7, 11)
    marks, cpu = array("q"), array("q")
    while not select.select([sys.stdin], [], [], 0)[0]:
        chunk(x)
        marks.append(time.monotonic_ns())
        cpu.append(time.process_time_ns())
    json.dump({"t": marks.tolist(), "cpu": cpu.tolist()}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
