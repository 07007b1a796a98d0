"""The clause builder to check ``microres._instance`` against.

This is the composition the one-walk builder replaced: the unifier
applied to every literal with ``apply_subst``, then a walk that drops
duplicate literals and renames the variables v0, v1, ... in order of
appearance, then a walk that weighs the result.  Three walks per
conclusion where the search now makes one, so it is only fit for tests.
"""

from __future__ import annotations

from hammerkit.provers.microres import Clause, Literal, Term, apply_subst


def canon(lits: list[Literal]) -> Clause:
    """Deduplicate and rename variables to v0.. in order of appearance."""
    seen: dict[str, Term] = {}

    def walk(t: Term) -> Term:
        if t[0] == "v":
            if t[1] not in seen:
                seen[t[1]] = ("v", f"v{len(seen)}")
            return seen[t[1]]
        return ("f", t[1], tuple(walk(a) for a in t[2]))

    out = []
    for pos, p, args in dict.fromkeys(lits):
        out.append((pos, p, tuple(walk(a) for a in args)))
    return tuple(dict.fromkeys(out))


def term_weight(t: Term) -> int:
    if t[0] == "v":
        return 1
    return 1 + sum(term_weight(a) for a in t[2])


def weight(c: Clause) -> int:
    return sum(1 + sum(term_weight(a) for a in args) for _, _, args in c)


def instance(lits: list[Literal], s: dict) -> tuple[Clause, int]:
    """The canonical clause of ``lits`` under ``s``, and its weight."""
    c = canon([(pos, p, tuple(apply_subst(a, s) for a in args)) for pos, p, args in lits])
    return c, weight(c)
