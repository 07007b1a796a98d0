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
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class Neighbor:
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
    overlap: Counter = Counter()
    for f in qs:
        posting = index.postings.get(f, [])
        for lo, hi in spans:
            overlap.update(posting[bisect_left(posting, lo) : bisect_left(posting, hi)])
    sizes, nq = index.sizes, len(qs)
    nearest = heapq.nsmallest(k, [(sizes[i] + nq - 2 * c, i) for i, c in overlap.items()])
    return [Neighbor(index.ids[i], d2, 1.0 / (1 + d2)) for d2, i in nearest]


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
    relevance: dict = {}
    for nb in neighbors:
        votes = set(deps.get(nb.id, ())) | {nb.id}
        for tid in votes:
            relevance[tid] = relevance.get(tid, 0.0) + nb.weight
    ranked = sorted(
        relevance.items(), key=lambda kv: (-kv[1], index.position[kv[0]])
    )
    return ranked[:n_premises]
