"""Modified k-nearest-neighbours premise ranking.

Statements are binary feature vectors, so squared Euclidean distance is
the size of the feature-set symmetric difference.  An inverted index maps
each feature to the statements having it; only statements sharing at
least one feature with the query are candidates.  Neighbours vote for
their recorded dependencies and for themselves, weighted by closeness,
and premises are ranked by total weight.

One index covers a whole corpus.  Statements are numbered in linear
order and posting lists hold those numbers in increasing order, so what
a target may use is given as spans of the order: each posting list is
cut to a span by bisection, and nothing is rebuilt per target.

The k nearest are the first k candidates in sorted order of distance,
then number.  Each pair is sorted as the one int ``d2 * n + i`` (n
statements), so one C-level sort of plain ints picks them; the pairs are
unique, so this is what ``heapq.nsmallest`` would pick.  Each comes back
as a ``Neighbor``, a named tuple of its id, distance and weight.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence


class Neighbor(NamedTuple):
    id: object
    d2: int  # squared Euclidean distance = |features Δ query|
    weight: float


@dataclass
class FeatureIndex:
    """Inverted feature index over statements in linear order.

    Statement ``i`` of the order is ``ids[i]`` and has ``sizes[i]``
    features.  Posting lists hold these numbers in increasing order, so
    distance ties resolve to the earlier statement deterministically.
    """

    postings: dict[str, list[int]]
    ids: list
    sizes: list[int]
    position: dict


def build_index(features: Mapping, order: Sequence) -> FeatureIndex:
    """Index the statements in ``order`` by their features."""
    ids = list(order)
    postings: dict[str, list[int]] = {}
    sizes = []
    for i, tid in enumerate(ids):
        fs = frozenset(features[tid])
        sizes.append(len(fs))
        for f in fs:
            postings.setdefault(f, []).append(i)
    return FeatureIndex(postings, ids, sizes, {tid: i for i, tid in enumerate(ids)})


def within(numbers: list[int], spans: Sequence[tuple[int, int]]) -> list[int]:
    """The members of the increasing list ``numbers`` that lie in one of
    the sorted, disjoint ``(start, stop)`` spans, in order."""
    out: list[int] = []
    for lo, hi in spans:
        out += numbers[bisect_left(numbers, lo) : bisect_left(numbers, hi)]
    return out


def k_nearest(
    index: FeatureIndex,
    query: Iterable[str],
    k: int,
    spans: Sequence[tuple[int, int]] | None = None,
) -> list[Neighbor]:
    """The k candidates closest to the query feature set.

    Candidates must share a feature with the query and, when ``spans`` is
    given, lie in one of its sorted, disjoint ``(start, stop)`` ranges of
    positions in the linear order.  Ties in distance go to the statement
    earlier in the linear order.  Weight is 1 / (1 + d2).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    qs = frozenset(query)
    if spans is None:
        spans = ((0, len(index.ids)),)
    hits: list[int] = []
    for f in qs:
        hits += within(index.postings.get(f, []), spans)
    overlap = Counter(hits)
    # (d2, i) as the int d2 * n + i: it sorts the same way, and faster.
    sizes, nq, n = index.sizes, len(qs), len(index.ids)
    nearest = sorted([(sizes[i] + nq - 2 * c) * n + i for i, c in overlap.items()])[:k]
    return [
        Neighbor(index.ids[i], d2, 1.0 / (1 + d2))
        for d2, i in map(divmod, nearest, repeat(n))
    ]


def rank_premises(
    index: FeatureIndex,
    neighbors: Sequence[Neighbor],
    deps: Mapping,
    n_premises: int,
) -> list[tuple[object, float]]:
    """Premises ranked by summed neighbour weight.

    Each neighbour votes for its dependencies and for itself.  Output is
    sorted by relevance, ties by linear order, truncated to n_premises.
    """
    if n_premises < 0:
        raise ValueError(f"premise count {n_premises} is negative")
    relevance: dict = {}
    for nb in neighbors:
        for tid in {nb.id, *deps.get(nb.id, ())}:
            relevance[tid] = relevance.get(tid, 0.0) + nb.weight
    # By linear order, then stably by falling relevance: two sorts whose
    # keys are C-level lookups.
    ranked = sorted(relevance, key=index.position.__getitem__)
    ranked.sort(key=relevance.__getitem__, reverse=True)
    return [(tid, relevance[tid]) for tid in ranked[:n_premises]]
