"""Checks that do not trust the code they check.

``ReferenceRanker`` recomputes the learner's premise ranking by brute
force.  Accessibility comes from ``corpus.thy`` ancestry and the order of
entries in the ``.tt`` files, not from ``accessible_set``.  Every
accessible conjunct that shares a feature with the goal is a candidate;
its distance is the size of the feature-set symmetric difference, ties
going to the earlier conjunct in linear order.  The k nearest vote,
with weight 1 / (1 + distance), for themselves and for their recorded
dependencies inside the accessible pool; premises are ranked by summed
weight, ties again to linear order.  The votes are summed in neighbour
order, so the weights equal the program's bit for bit.

The ranker is also the ``select`` workload's reference computation: it
runs after every ``suggest`` call, and the learner's time is reported
relative to its time.
"""

from __future__ import annotations

import re
from pathlib import Path

from gen import THEORY_LINE, is_definition

_AX = re.compile(r"^tt\(\s*([A-Za-z0-9_]+)\s*,\s*ax\s*,", re.M)


def read_layout(corpus_dir: Path) -> tuple[list[str], dict[str, set[str]], dict[str, list[str]]]:
    """Theories in build order, each theory's strict ancestors, and each
    theory's theorem names in file order, read from the corpus files."""
    theories: list[str] = []
    parents: dict[str, list[str]] = {}
    for m in THEORY_LINE.finditer((corpus_dir / "corpus.thy").read_text(encoding="utf-8")):
        theories.append(m.group(1))
        parents[m.group(1)] = [a.strip() for a in m.group(2).split(",") if a.strip()]
    ancestors: dict[str, set[str]] = {}
    for thy in theories:
        closure: set[str] = set()
        for p in parents[thy]:
            closure |= {p} | ancestors[p]
        ancestors[thy] = closure
    names = {
        thy: _AX.findall((corpus_dir / f"{thy}.tt").read_text(encoding="utf-8"))
        for thy in theories
    }
    return theories, ancestors, names


def count_targets(corpus_dir: Path) -> int:
    """Non-definition theorems, counted from the ``.tt`` files."""
    _, _, names = read_layout(corpus_dir)
    return sum(1 for ns in names.values() for n in ns if not is_definition(n))


class ReferenceRanker:
    """The learner's ranking by brute force over plain Python data.

    Everything ``rank`` reads (features, pools, dependencies) is copied out
    of the corpus at construction, with conjuncts numbered in linear
    order, so a ranking runs no hammerkit code and its time does not
    move when hammerkit changes; ``ids`` maps the numbers back to the
    corpus's conjunct ids.
    """

    def __init__(self, corpus, corpus_dir: Path, extract) -> None:
        theories, ancestors, names = read_layout(corpus_dir)
        self.ids: list = []
        spans: dict[str, range] = {}  # theorem name -> numbers of its conjuncts
        for thy in theories:
            for name in names[thy]:
                cids = corpus.theorem(corpus.by_name[name]).conjunct_ids()
                spans[name] = range(len(self.ids), len(self.ids) + len(cids))
                self.ids.extend(cids)
        number = {cid: i for i, cid in enumerate(self.ids)}
        self.features = [extract(corpus.conjunct_statement(cid)) for cid in self.ids]
        self.deps = [
            sorted(number[d] for d in corpus.theorem(cid.theorem).dependencies[cid.index - 1])
            for cid in self.ids
        ]
        # Accessible conjuncts, in linear order: the ancestor theories'
        # and the target's own theory's up to the target.
        self.pools: dict[str, list[int]] = {}
        for thy in theories:
            older = [i for t in theories if t in ancestors[thy] for n in names[t] for i in spans[n]]
            own = names[thy]
            for pos, name in enumerate(own):
                self.pools[name] = older + [i for n in own[:pos] for i in spans[n]]

    def rank(self, query: frozenset, target_name: str, k: int, n: int) -> list:
        """The top ``n`` (conjunct number, weight) pairs for the target
        ``target_name``, whose features are ``query``."""
        pool = self.pools[target_name]
        # The candidates, found through an index of the pool built afresh
        # as the learner builds its own, so that the two do the same kind
        # of work.
        postings: dict[str, list[int]] = {}
        for i in pool:
            for f in self.features[i]:
                postings.setdefault(f, []).append(i)
        candidates = {i for f in query for i in postings.get(f, ())}
        scored = sorted((len(self.features[i] ^ query), i) for i in candidates)
        members = set(pool)
        relevance: dict[int, float] = {}
        for d2, i in scored[:k]:
            weight = 1.0 / (1 + d2)
            for voted in {i} | {d for d in self.deps[i] if d in members}:
                relevance[voted] = relevance.get(voted, 0.0) + weight
        ranked = sorted(relevance.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]


def recorded_deps(corpus, name: str) -> set:
    """The union of a theorem's recorded per-conjunct dependencies."""
    return set().union(*corpus.theorem_named(name).dependencies)


def dependency_labels(corpus, name: str) -> set[str]:
    return {corpus.conjunct_label(c) for c in recorded_deps(corpus, name)}
