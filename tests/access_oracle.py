"""The accessibility relations as sets of theorems, to check the corpus's
spans against.

This is the accessibility the spans replaced: each relation answered as
the set of theorems a target may use, computed from the theorem table
and the theory graph alone, with no numbering.  ``numbers`` maps such a
set to the conjunct numbers that ``corpus.accessible_set`` must cover.
"""

from __future__ import annotations

from hammerkit.corpus import AccessRelation, Corpus, TheoremId


def linear_order(corpus: Corpus) -> list[TheoremId]:
    """Theory build order refined by naming order."""
    return sorted(corpus.theorems, key=lambda t: (corpus.theories.index(t.theory), t.seq))


def theory_closure(corpus: Corpus, theory: str) -> set[str]:
    """The theory and all its transitive ancestors."""
    out: set[str] = set()
    todo = [theory]
    while todo:
        t = todo.pop()
        if t not in out:
            out.add(t)
            todo.extend(corpus.ancestors[t])
    return out


def accessible_set(
    corpus: Corpus, target: TheoremId, relation: AccessRelation
) -> set[TheoremId]:
    """Theorems assumed available when attacking ``target``."""
    if relation is AccessRelation.EXACT_DEPS:
        return set(corpus.exact_deps(target))
    if relation is AccessRelation.TRANSITIVE_DEPS:
        out: set[TheoremId] = set()
        todo = list(corpus.exact_deps(target))
        while todo:
            tid = todo.pop()
            if tid not in out:
                out.add(tid)
                todo.extend(corpus.exact_deps(tid))
        return out
    if relation is AccessRelation.LOADED_THEORIES:
        closure = theory_closure(corpus, target.theory)
        return {
            t
            for t in corpus.theorems
            if t.theory in closure and (t.theory != target.theory or t.seq < target.seq)
        }
    order = linear_order(corpus)
    return set(order[: order.index(target)])


def numbers(corpus: Corpus, tids: set[TheoremId]) -> set[int]:
    """The numbers of the theorems' conjuncts, counted along the linear
    order."""
    out, n = set(), 0
    for tid in linear_order(corpus):
        size = len(corpus.theorem(tid).conjuncts)
        if tid in tids:
            out.update(range(n, n + size))
        n += size
    return out


def covered(spans) -> set[int]:
    """The numbers inside the spans, which must be sorted, non-empty and
    apart: each ends before the next one starts."""
    assert all(lo < hi for lo, hi in spans)
    assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    return {i for lo, hi in spans for i in range(lo, hi)}
