"""Seconds from ``Database(snapshot)`` to its first answer, in a fresh interpreter.

Usage: ``python perfbench/first_answer.py SNAPSHOT SOURCE TARGET K``.
Prints the seconds on standard output.  The package import comes before the
clock starts; whatever ``Database`` loads or builds lazily, on open or on
its first query, is inside the timed interval, as it is for a program that
opens a database once.
"""

import sys
import time
from pathlib import Path

sys.path[0:1] = [str(Path(__file__).resolve().parent.parent / "src")]

from repro import Database  # noqa: E402
from repro.core.query import Query  # noqa: E402

if __name__ == "__main__":
    snapshot, (source, target, k) = sys.argv[1], map(int, sys.argv[2:5])
    query = Query(source, target, k)
    started = time.perf_counter()
    with Database(snapshot) as db:
        db.query(query).result()
        elapsed = time.perf_counter() - started
    print(repr(elapsed))
