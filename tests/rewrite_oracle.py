"""The rewriter to check ``microres``'s memoized normal forms against.

This is the demodulator the memoized one replaced: it walks the whole
term again after every rewrite step and remembers nothing between
calls, so it repeats work the prover's search can ill afford and is only
fit for tests.  Rules are ``(index, left, right)`` triples in
registration order; the first one whose left side matches wins.
"""

from __future__ import annotations

from hammerkit.provers.microres import Literal, Term, _match, apply_subst


def normalize(t: Term, demods: list, used: set[int]) -> Term:
    """Rewrite t to normal form under the oriented unit equations,
    adding the index of every rule applied to ``used``."""
    while True:
        if t[0] == "f":
            t = ("f", t[1], tuple(normalize(a, demods, used) for a in t[2]))
        rewritten = False
        for idx, l, r in demods:
            s = _match(l, t, {})
            if s is not None:
                t = apply_subst(r, s)
                used.add(idx)
                rewritten = True
                break
        if not rewritten:
            return t


def demodulate(lits: list[Literal], demods: list, used: set[int]) -> list[Literal]:
    if not demods:
        return list(lits)
    return [
        (pos, p, tuple(normalize(a, demods, used) for a in args))
        for pos, p, args in lits
    ]
