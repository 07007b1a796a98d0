"""A fixed computation run as its own process: the ``reprove`` workload's
reference.

A prover call is mostly a fresh interpreter importing modules, then a
short pure-Python search.  This program does the same kind of work in
about half the time, with nothing from hammerkit: it imports a fixed set
of standard-library modules, then ranks fixed random feature sets by
brute force.  The benchmark runs it after every prover call, in the same
worker thread, so both see the host at the same moment.

Usage::

    python3 perfbench/reference_process.py
"""

import argparse  # noqa: F401  (imported for its start-up cost)
import collections  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import fractions  # noqa: F401
import json  # noqa: F401
import pathlib  # noqa: F401
import random
import re  # noqa: F401
import typing  # noqa: F401

SETS = 600
VOCABULARY = 400
QUERIES = 12


def main() -> int:
    rng = random.Random(0)
    vocab = [f"f{i}" for i in range(VOCABULARY)]
    sets = [frozenset(rng.sample(vocab, rng.randint(3, 30))) for _ in range(SETS)]
    total = 0
    for query in sets[:QUERIES]:
        scored = sorted((len(query ^ s), i) for i, s in enumerate(sets) if s & query)
        total += sum(i for _, i in scored[:40])
    return 0 if total > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
