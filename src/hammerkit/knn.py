"""Modified k-nearest-neighbours premise ranking over numbered statements.

Statements are numbered in linear order and are binary feature vectors,
so squared Euclidean distance is the size of the feature-set symmetric
difference.  An inverted index maps each feature to the increasing
numbers of the statements having it; only statements sharing a feature
with the query are candidates.  Neighbours vote for themselves and their
dependencies, weighted by closeness, and premises are ranked by total
weight.  Numbers go in and come out; callers map them to statements.

One index covers a whole corpus.  What a target may use is given as
sorted, disjoint ``(start, stop)`` spans of the numbering: a posting or
dependency list is cut to the spans by bisection, or taken whole when it
lies inside one span.

With n statements and q query features, c of them shared, candidate i's
distance is ``sizes[i] + q - 2c`` and its key ``base[i] - 2nc``, where
the index stores ``base[i] = sizes[i] * n + i``.  The key is ``(d2 - q) *
n + i``: one C-level sort of plain ints orders candidates by distance,
then number, and ``divmod`` by n gives both back.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence


@dataclass
class FeatureIndex:
    """Posting lists of statement numbers, increasing, so distance ties
    resolve to the earlier statement; ``base`` as the module describes."""

    postings: dict[str, list[int]]
    base: list[int]


def build_index(features: Mapping | Sequence, order: Sequence) -> FeatureIndex:
    """Index the statements of ``order``: statement ``i`` is ``order[i]``,
    with features ``features[order[i]]``."""
    postings: dict[str, list[int]] = {}
    base, n = [], len(order)
    for i, key in enumerate(order):
        fs = frozenset(features[key])
        base.append(len(fs) * n + i)
        for f in fs:
            postings.setdefault(f, []).append(i)
    return FeatureIndex(postings, base)


def _cut(numbers: list[int], spans: Sequence[tuple[int, int]]) -> list[int]:
    """The members of the increasing list ``numbers`` inside the spans:
    the list itself when it is empty or lies inside one span."""
    if not numbers:
        return numbers
    first, last = numbers[0], numbers[-1]
    for lo, hi in spans:
        if first < hi:
            if lo <= first and last < hi:
                return numbers
            break
    out: list[int] = []
    for lo, hi in spans:
        out += numbers[bisect_left(numbers, lo) : bisect_left(numbers, hi)]
    return out


def k_nearest(
    index: FeatureIndex,
    query: Iterable[str],
    k: int,
    spans: Sequence[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """The k candidates nearest the query feature set, as (number, squared
    distance) pairs, nearest first, ties to the lower number.  With
    ``spans``, candidates must lie inside them."""
    if k < 1:
        raise ValueError("k must be at least 1")
    qs = frozenset(query)
    base, n = index.base, len(index.base)
    hits: list[int] = []
    for p in filter(None, map(index.postings.get, qs)):
        hits += p if spans is None else _cut(p, spans)
    keys = [base[i] - 2 * n * c for i, c in Counter(hits).items()]
    keys.sort()
    return [(i, d + len(qs)) for d, i in map(divmod, keys[:k], repeat(n))]


def rank_premises(
    neighbors: Sequence[tuple[int, int]],
    deps: Sequence[list[int]],
    spans: Sequence[tuple[int, int]],
    n_premises: int,
) -> list[tuple[int, float]]:
    """The top ``n_premises`` (number, weight) pairs, by falling weight,
    ties by number.  Neighbour ``(i, d2)`` votes 1 / (1 + d2) for i and
    for the members of ``deps[i]`` inside the spans, summed in neighbour
    order.  ``deps[i]`` must be increasing numbers below i, as a corpus's
    linear order gives, so one neighbour votes for a number at most once."""
    if n_premises < 0:
        raise ValueError(f"premise count {n_premises} is negative")
    relevance: dict[int, float] = {}
    get = relevance.get
    for i, d2 in neighbors:
        weight = 1.0 / (1 + d2)
        relevance[i] = get(i, 0.0) + weight
        for j in _cut(deps[i], spans):
            relevance[j] = get(j, 0.0) + weight
    # By number, then stably by falling weight: two sorts with C-level keys.
    ranked = sorted(relevance)
    ranked.sort(key=relevance.__getitem__, reverse=True)
    return [(i, relevance[i]) for i in ranked[:n_premises]]
