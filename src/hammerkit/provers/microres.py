"""A small saturation prover for the problems this toolkit emits.

Given-clause saturation: binary resolution with factoring, equality by
paramodulation and equality resolution, demodulation with unit equations
oriented by a Knuth-Bendix ordering, forward subsumption, and weight/age
clause selection.  Every conclusion of the given clause comes from one
generator, ``_inferences``, in a fixed order, and the search stops in one
place, as soon as the empty clause arrives.  Nowhere near a competitive
system, but complete enough for modest problems and it reports verdicts
and derivations in the same SZS dialect the big provers use, so the rest
of the pipeline treats it uniformly.

Terms are tuples: ("v", name) or ("f", sym, args).  A literal is
(positive, predicate, args); equality is the predicate "=".  A clause is
a tuple of literals with canonically numbered variables.

Run as ``python -m hammerkit.provers.microres FILE --timeout T`` it
proves one problem and prints the verdict.  ``serve`` answers such calls
one after another: each request line is a JSON list of the arguments
that would follow the module name, and each reply is one line, the JSON
list ``[exit code, output]`` with exactly what the one-problem command
would have printed and returned.  The harness forks its workers from the
running interpreter, which has this module imported already, and each
forked worker runs ``serve`` on its pipes.
"""

from __future__ import annotations

import argparse
import heapq
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Iterator, TextIO

from ..corpus import ParseError
from ..fof import BinOp, Eq, FofFormula, FofProblem, FofVar, Not, Pred
from ..tptp import _atom_name, parse_problem, print_formula

Term = tuple
Literal = tuple  # (positive: bool, pred: str, args: tuple[Term, ...])
Clause = tuple  # of Literal


# ------------------------------------------------------------ clausification


class _OutOfTime(Exception):
    """The deadline passed before clausification finished."""


class _Clausifier:
    """Clausal normal form.  The CNF of nested equivalences grows
    exponentially, so the products check the deadline as they go."""

    def __init__(self, deadline: float | None = None) -> None:
        self.counter = 0
        self.skolems = 0
        self.deadline = deadline

    def check_clock(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OutOfTime

    def fresh_var(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def nnf(self, f: FofFormula, sign: bool, env: dict, scope: tuple):
        """Negation normal form with on-the-fly skolemization.  env maps
        source variable names to terms; scope lists the universal
        variables governing fresh skolem functions."""
        if isinstance(f, Pred):
            return (sign, f.sym, tuple(self.term(a, env) for a in f.args))
        if isinstance(f, Eq):
            return (sign, "=", (self.term(f.lhs, env), self.term(f.rhs, env)))
        if isinstance(f, Not):
            return self.nnf(f.body, not sign, env, scope)
        if isinstance(f, BinOp):
            if f.op != "<=>":
                # a => b is ~a | b: only the left side flips its sign.
                op = "and" if (f.op == "&") == sign else "or"
                lsign = sign if f.op != "=>" else not sign
                return (op, self.nnf(f.lhs, lsign, env, scope), self.nnf(f.rhs, sign, env, scope))
            # <=> expands by cases; both polarities of both sides.  This is
            # the one place a subformula is duplicated, so the clock is
            # checked here and the work between two checks stays linear.
            self.check_clock()
            if sign:
                return (
                    "and",
                    ("or", self.nnf(f.lhs, False, env, scope), self.nnf(f.rhs, True, env, scope)),
                    ("or", self.nnf(f.rhs, False, env, scope), self.nnf(f.lhs, True, env, scope)),
                )
            return (
                "or",
                ("and", self.nnf(f.lhs, True, env, scope), self.nnf(f.rhs, False, env, scope)),
                ("and", self.nnf(f.rhs, True, env, scope), self.nnf(f.lhs, False, env, scope)),
            )
        # Quantifier: universal under the current sign stays a variable,
        # existential becomes a skolem term over the universal scope.
        universal = (f.kind == "!") == sign
        env = dict(env)
        if universal:
            for v in f.vars:
                name = self.fresh_var()
                env[v] = ("v", name)
                scope = scope + (("v", name),)
        else:
            for v in f.vars:
                self.skolems += 1
                env[v] = ("f", f"sk{self.skolems}", scope)
        return self.nnf(f.body, sign, env, scope)

    def term(self, t, env) -> Term:
        if isinstance(t, FofVar):
            if t.name not in env:
                # Free variables are read as universally quantified.
                env[t.name] = ("v", self.fresh_var())
            return env[t.name]
        return ("f", t.sym, tuple(self.term(a, env) for a in t.args))

    def clauses(self, f: FofFormula, negate: bool) -> list[tuple]:
        return self._cnf(self.nnf(f, not negate, {}, ()))

    def _cnf(self, tree) -> list[tuple]:
        """Clauses as tuples of literals.  Each product keeps the first
        occurrence of every literal and clause and drops tautologies;
        multiplied out blindly, nested equivalences repeat their clauses
        exponentially often."""
        if tree[0] == "and":
            return self._cnf(tree[1]) + self._cnf(tree[2])
        if tree[0] != "or":
            return [(tree,)]
        left = self._cnf(tree[1])
        right = self._cnf(tree[2])
        out: dict[tuple, None] = {}
        for l in left:
            for r in right:
                self.check_clock()
                lits = dict.fromkeys(l + r)
                if not any((not sign, p, args) in lits for sign, p, args in lits):
                    out[tuple(lits)] = None
        return list(out)


# --------------------------------------------------------------- clause ops


def _canon(lits: list[Literal]) -> Clause:
    """Deduplicate and rename variables to v0.. in order of appearance,
    giving a structural identity for duplicate detection."""
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


def _rename(c: Clause, tag: str) -> Clause:
    def walk(t: Term) -> Term:
        if t[0] == "v":
            return ("v", t[1] + tag)
        return ("f", t[1], tuple(walk(a) for a in t[2]))

    return tuple((pos, p, tuple(walk(a) for a in args)) for pos, p, args in c)


def _walk_binding(t: Term, s: dict) -> Term:
    while t[0] == "v" and t[1] in s:
        t = s[t[1]]
    return t


def _occurs(name: str, t: Term, s: dict) -> bool:
    t = _walk_binding(t, s)
    if t[0] == "v":
        return t[1] == name
    return any(_occurs(name, a, s) for a in t[2])


def unify(a: Term, b: Term, s: dict) -> dict | None:
    a = _walk_binding(a, s)
    b = _walk_binding(b, s)
    if a == b:
        return s
    if a[0] == "v":
        if _occurs(a[1], b, s):
            return None
        s2 = dict(s)
        s2[a[1]] = b
        return s2
    if b[0] == "v":
        return unify(b, a, s)
    if a[1] != b[1] or len(a[2]) != len(b[2]):
        return None
    for x, y in zip(a[2], b[2]):
        s = unify(x, y, s)
        if s is None:
            return None
    return s


def _unify_args(xs: tuple, ys: tuple, s: dict) -> dict | None:
    for x, y in zip(xs, ys):
        s = unify(x, y, s)
        if s is None:
            return None
    return s


def apply_subst(t: Term, s: dict) -> Term:
    t = _walk_binding(t, s)
    if t[0] == "v":
        return t
    return ("f", t[1], tuple(apply_subst(a, s) for a in t[2]))


def _apply_clause(lits, s) -> list[Literal]:
    return [(pos, p, tuple(apply_subst(a, s) for a in args)) for pos, p, args in lits]


def _match(pat: Term, t: Term, s: dict) -> dict | None:
    """One-way matching for subsumption."""
    if pat[0] == "v":
        if pat[1] in s:
            return s if s[pat[1]] == t else None
        s2 = dict(s)
        s2[pat[1]] = t
        return s2
    if t[0] == "v" or pat[1] != t[1] or len(pat[2]) != len(t[2]):
        return None
    for x, y in zip(pat[2], t[2]):
        s = _match(x, y, s)
        if s is None:
            return None
    return s


def subsumes(c: Clause, d: Clause) -> bool:
    """Does c theta-subsume d?"""
    if len(c) > len(d):
        return False

    def go(i: int, s: dict) -> bool:
        if i == len(c):
            return True
        pos, p, args = c[i]
        for dpos, dp, dargs in d:
            if dpos != pos or dp != p or len(dargs) != len(args):
                continue
            s2 = s
            for x, y in zip(args, dargs):
                s2 = _match(x, y, s2)
                if s2 is None:
                    break
            if s2 is not None and go(i + 1, s2):
                return True
        return False

    return go(0, {})


def _is_tautology(c: Clause) -> bool:
    lits = set(c)
    for pos, p, args in c:
        if pos and p == "=" and len(args) == 2 and args[0] == args[1]:
            return True
        if (not pos, p, args) in lits:
            return True
    return False


def _term_weight(t: Term) -> int:
    if t[0] == "v":
        return 1
    return 1 + sum(_term_weight(a) for a in t[2])


def _weight(c: Clause) -> int:
    return sum(1 + sum(_term_weight(a) for a in args) for _, _, args in c)


def _var_counts(t: Term, out: dict[str, int]) -> None:
    if t[0] == "v":
        out[t[1]] = out.get(t[1], 0) + 1
    else:
        for a in t[2]:
            _var_counts(a, out)


def _kbo_greater(l: Term, r: Term) -> bool:
    """Knuth-Bendix ordering with unit symbol weights and precedence by
    (arity, name).  A genuine reduction ordering, so l -> r instances
    can be used as terminating rewrite rules."""
    if l == r or l[0] == "v":
        return False
    cl: dict[str, int] = {}
    cr: dict[str, int] = {}
    _var_counts(l, cl)
    _var_counts(r, cr)
    if any(cl.get(v, 0) < n for v, n in cr.items()):
        return False
    wl, wr = _term_weight(l), _term_weight(r)
    if wl != wr:
        return wl > wr
    if r[0] == "v":
        return False
    pl = (len(l[2]), l[1])
    pr = (len(r[2]), r[1])
    if pl != pr:
        return pl > pr
    for a, b in zip(l[2], r[2]):
        if a != b:
            return _kbo_greater(a, b)
    return False


def _orient(l: Term, r: Term) -> tuple[Term, Term] | None:
    """The equation l = r as a rewrite rule, KBO-larger side first, or
    None if the ordering puts neither side above the other."""
    if _kbo_greater(l, r):
        return l, r
    if _kbo_greater(r, l):
        return r, l
    return None


def _positions(t: Term, path: tuple = ()):
    """All non-variable subterm positions, as (path, subterm)."""
    if t[0] == "v":
        return
    yield path, t
    for i, a in enumerate(t[2]):
        yield from _positions(a, path + (i,))


def _replace(t: Term, path: tuple, repl: Term) -> Term:
    if not path:
        return repl
    i = path[0]
    return (
        "f",
        t[1],
        tuple(_replace(a, path[1:], repl) if k == i else a for k, a in enumerate(t[2])),
    )


def _paramod_sides(c: Clause):
    """Usable orientations (lit_index, from, to) of positive equations.
    Orientable equations rewrite one way only; the rest go both ways,
    skipping bare-variable sides whose unifiers would be unbounded."""
    for i, (pos, p, args) in enumerate(c):
        if not pos or p != "=":
            continue
        l, r = args
        rule = _orient(l, r)
        if rule:
            yield i, *rule
        else:
            if l[0] != "v":
                yield i, l, r
            if r[0] != "v":
                yield i, r, l


def _normalize(t: Term, demods: list, used: set[int]) -> Term:
    """Rewrite t to normal form under the oriented unit equations.
    Terminates because every step strictly shrinks the term under the
    KBO weight."""
    while True:
        if t[0] == "f":
            t = ("f", t[1], tuple(_normalize(a, demods, used) for a in t[2]))
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


def _demodulate(lits: list[Literal], demods: list, used: set[int]) -> list[Literal]:
    if not demods:
        return list(lits)
    return [
        (pos, p, tuple(_normalize(a, demods, used) for a in args))
        for pos, p, args in lits
    ]


# ------------------------------------------------------------- proof search


@dataclass
class _Entry:
    clause: Clause
    parents: tuple[int, ...]
    source: str | None  # input formula name, None for derived/equality


@dataclass
class Result:
    status: str
    used: list[str]
    generated: int


def _inferences(
    given_r: Clause, gi: int, active: list[int], entries: list[_Entry]
) -> Iterator[tuple[list[Literal], tuple[int, ...]]]:
    """Every conclusion of the given clause (renamed apart as given_r),
    as (literals, parent indices), in a fixed order: factoring, equality
    resolution, then for each active clause and a fresh copy of the given
    clause itself, resolution, paramodulation from the given clause into
    the partner and from the partner into the given clause."""
    for i, (pi, pp, pa) in enumerate(given_r):
        for j in range(i + 1, len(given_r)):
            qi, qp, qa = given_r[j]
            if pi == qi and pp == qp and len(pa) == len(qa):
                s = _unify_args(pa, qa, {})
                if s is not None:
                    yield _apply_clause([l for k, l in enumerate(given_r) if k != j], s), (gi,)
    for i, (pi, pp, pa) in enumerate(given_r):
        if not pi and pp == "=":
            s = unify(pa[0], pa[1], {})
            if s is not None:
                yield _apply_clause([l for k, l in enumerate(given_r) if k != i], s), (gi,)
    for ai in active + [gi]:
        other = _rename(entries[ai].clause, "a")
        for i, (pi, pp, pa) in enumerate(given_r):
            for j, (qi, qp, qa) in enumerate(other):
                if pi != qi and pp == qp and len(pa) == len(qa):
                    s = _unify_args(pa, qa, {})
                    if s is not None:
                        lits = [l for k, l in enumerate(given_r) if k != i]
                        lits += [l for k, l in enumerate(other) if k != j]
                        yield _apply_clause(lits, s), (gi, ai)
        for src, si, dst, di in ((given_r, gi, other, ai), (other, ai, given_r, gi)):
            for ei, l, r in _paramod_sides(src):
                rest = [x for k, x in enumerate(src) if k != ei]
                for lj, (qpos, qp, qargs) in enumerate(dst):
                    for aj, arg in enumerate(qargs):
                        for path, sub in _positions(arg):
                            s = unify(l, sub, {})
                            if s is None:
                                continue
                            new_args = qargs[:aj] + (_replace(arg, path, r),) + qargs[aj + 1 :]
                            lits = rest + [x for k, x in enumerate(dst) if k != lj]
                            yield _apply_clause(lits + [(qpos, qp, new_args)], s), (si, di)


def saturate(
    inputs: list[tuple[Clause, str | None]],
    deadline: float | None,
    max_clauses: int,
) -> Result:
    entries: list[_Entry] = []
    by_weight: list[tuple[int, int]] = []
    by_age: list[tuple[int, int]] = []
    seen: set[Clause] = set()
    active: list[int] = []
    demods: list[tuple[int, Term, Term]] = []

    def push(lits: list[Literal], parents: tuple[int, ...], source: str | None) -> bool:
        used: set[int] = set()
        lits = _demodulate(lits, demods, used)
        # Literals refuting themselves contribute nothing.
        lits = [
            l for l in lits if l[0] or l[1] != "=" or l[2][0] != l[2][1]
        ]
        if used:
            parents = parents + tuple(sorted(used))
        c = _canon(lits)
        if c in seen or _is_tautology(c):
            return False
        seen.add(c)
        idx = len(entries)
        entries.append(_Entry(c, parents, source))
        heapq.heappush(by_weight, (_weight(c), idx))
        heapq.heappush(by_age, (idx, idx))
        if len(c) == 1 and c[0][0] and c[0][1] == "=":
            # Renamed apart so rule variables never collide with the
            # variables of the clauses being rewritten.
            rule = _orient(*_rename(c, "_d")[0][2])
            if rule:
                demods.append((idx, *rule))
        return not c  # empty clause

    for c, src in inputs:
        if push(list(c), (), src):
            break

    processed: set[int] = set()
    steps = 0
    # Nothing is pushed after the empty clause, so the search is over
    # exactly when the newest entry is the empty clause.
    while (by_weight or by_age) and entries[-1].clause:
        if deadline is not None and time.monotonic() > deadline:
            return Result("Timeout", [], len(entries))
        if len(entries) > max_clauses:
            return Result("GaveUp", [], len(entries))
        steps += 1
        # Mostly lightest-first, with a periodic oldest-first pick for
        # fairness.
        queue = by_age if steps % 5 == 0 else by_weight
        while queue:
            _, gi = heapq.heappop(queue)
            if gi not in processed:
                break
        else:
            continue
        processed.add(gi)
        given = entries[gi].clause
        # Rules registered after this clause arrived may simplify it;
        # if any fire, the rewritten form replaces it in the queue.  A
        # unit equation must not rewrite itself to triviality, so the
        # clause's own rule is excluded.
        used_d: set[int] = set()
        renorm = _demodulate(
            list(given), [d for d in demods if d[0] != gi], used_d
        )
        if used_d:
            push(renorm, (gi,) + tuple(sorted(used_d)), None)
            continue
        if any(subsumes(entries[a].clause, given) for a in active):
            continue
        for lits, parents in _inferences(_rename(given, "g"), gi, active, entries):
            if push(lits, parents, None):
                break
        else:
            active.append(gi)

    if not entries or entries[-1].clause:
        # Paramodulation never rewrites from a variable side and there is
        # no equality factoring, so a saturated set with equality is not
        # known to be satisfiable.
        if any(lit[1] == "=" for e in entries for lit in e.clause):
            return Result("GaveUp", [], len(entries))
        return Result("CounterSatisfiable", [], len(entries))

    used: list[str] = []
    stack = [len(entries) - 1]
    visited: set[int] = set()
    while stack:
        i = stack.pop()
        if i in visited:
            continue
        visited.add(i)
        e = entries[i]
        if e.source is not None and e.source not in used:
            used.append(e.source)
        stack.extend(e.parents)
    return Result("Theorem", used, len(entries))


# ------------------------------------------------------------------ driving


def prove(
    problem: FofProblem, timeout: float | None = None, max_clauses: int = 100000
) -> tuple[str, Result]:
    """Run the prover on a parsed problem; returns the SZS-formatted
    output text and the raw result.  The timeout covers clausification
    as well as the search."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    cl = _Clausifier(deadline)
    gname, gf = problem.conjecture
    formulas = [(name, f, False) for name, f in problem.axioms] + [(gname, gf, True)]
    inputs: list[tuple[Clause, str | None]] = []
    try:
        for name, f, negate in formulas:
            for lits in cl.clauses(f, negate):
                cl.check_clock()
                inputs.append((_canon(lits), name))
    except _OutOfTime:
        res = Result("Timeout", [], 0)
    else:
        res = saturate(inputs, deadline, max_clauses)

    lines = [f"% SZS status {res.status}"]
    if res.status == "Theorem":
        by_name = dict(problem.axioms)
        lines.append("% SZS output start Proof")
        for name in res.used:
            if name in by_name:
                lines.append(f"fof({_atom_name(name)}, axiom, {print_formula(by_name[name])}).")
            elif name == gname:
                lines.append(f"fof({_atom_name(name)}, conjecture, {print_formula(gf)}).")
        lines.append("% SZS output end Proof")
    lines.append(f"% clauses generated: {res.generated}")
    return "\n".join(lines) + "\n", res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="hammer-microres", description="small resolution prover")
    ap.add_argument("file", help="TPTP problem file, or - for stdin")
    ap.add_argument("--timeout", type=float, default=30.0, help="seconds")
    ap.add_argument("--max-clauses", type=int, default=100000)
    args = ap.parse_args(argv)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    try:
        problem = parse_problem(text)
    except ParseError as e:
        print("% SZS status InputError")
        print(f"% {e}")
        return 1
    out, _ = prove(problem, timeout=args.timeout, max_clauses=args.max_clauses)
    sys.stdout.write(out)
    return 0


def serve(requests: TextIO, replies: TextIO) -> int:
    """Answer one-problem calls read from ``requests`` until it ends,
    each with one line on ``replies`` (see the module docstring)."""
    # A problem file named "-" reads nothing, not the request stream.
    sys.stdin = io.StringIO()
    for line in requests:
        out = io.StringIO()
        with redirect_stdout(out):
            try:
                code = main(json.loads(line))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else int(e.code is not None)
            except Exception:
                traceback.print_exc()
                code = 1
        replies.write(json.dumps([code, out.getvalue()]) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
