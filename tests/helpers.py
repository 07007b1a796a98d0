"""Shared test fixtures: a small signature, random generators, and
checks and printers that only the tests use."""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path
from typing import Sequence

from hammerkit.corpus import Corpus, _build_corpus, parse_thy, parse_tt
from hammerkit.fof import (
    BinOp,
    Eq,
    FofFormula,
    FofProblem,
    FofTerm,
    FofVar,
    Not,
    Pred,
    TranslateError,
)
from hammerkit.harness import AtpResult, ExperimentReport
from hammerkit.hol import (
    Abs,
    App,
    BOOL,
    Const,
    HolTerm,
    HolType,
    Signature,
    TyApp,
    TyVar,
    Var,
    alpha_key,
    dest_fun,
    free_vars,
    is_fun,
    mk_const_app,
    mk_eq,
    mk_exists,
    mk_forall,
    mk_foralls,
    mk_fun,
    mk_fun_chain,
    show_name,
)

# The bundled toy corpus.
TOY = Path(str(resources.files("hammerkit") / "data" / "toy"))

NAT = TyApp("nat")
LIST_NAT = TyApp("list", (NAT,))

TOY_DECLS = """\
tt(nat, ty, $t).
tt(list, ty, $t > $t).
tt(0, ty, nat).
tt(SUC, ty, nat > nat).
tt(ADD, ty, nat > nat > nat).
tt(LE, ty, nat > nat > bool).
tt(NIL, ty, ![A:$t]: (list A)).
tt(CONS, ty, ![A:$t]: (A > list A > list A)).
tt(HD, ty, ![A:$t]: (list A > A)).
tt(MAP, ty, ![A:$t, B:$t]: ((A > B) > list A > list B)).
"""


# Connectives used as ordinary constants, written by their quoted names.
CONNECTIVES_AS_CONSTANTS = """\
tt(nat, ty, $t).
tt(0, ty, nat).
tt(P, ty, (nat > bool) > bool).
tt(Q, ty, (bool > bool) > bool).
tt(R, ty, (bool > bool > bool) > bool).
tt(S, ty, nat > bool).
tt(X5, ax, P ('=' nat 0) | '?' nat ('=' nat 0)).
tt(X6, ax, Q ('=>' (P (^[y:nat]: y = 0))) & R '|' & R '&' & Q ('=' bool (P ('=' nat 0)))).
tt(X7, ax, '!' nat S | '?' nat S).
"""


def toy_sig() -> Signature:
    sig = Signature()
    parse_tt(TOY_DECLS, sig)
    return sig


_POOL_TYPES = [NAT, BOOL, LIST_NAT, mk_fun(NAT, NAT), mk_fun(NAT, BOOL)]


def random_type(rng: random.Random) -> HolType:
    return rng.choice(_POOL_TYPES)


def _atoms_of(ty: HolType, scope: tuple[Var, ...]) -> list[HolTerm]:
    out: list[HolTerm] = [v for v in scope if v.ty == ty]
    if ty == NAT:
        out.append(Const("0"))
    if ty == mk_fun(NAT, NAT):
        out.append(Const("SUC"))
    if ty == LIST_NAT:
        out.append(Const("NIL", (NAT,)))
    if ty == mk_fun(LIST_NAT, NAT):
        out.append(Const("HD", (NAT,)))
    if ty == mk_fun_chain([NAT, LIST_NAT], LIST_NAT):
        out.append(Const("CONS", (NAT,)))
    return out


def random_term(
    rng: random.Random, ty: HolType, depth: int, scope: tuple[Var, ...] = ()
) -> HolTerm:
    """A well-typed term of the given type over the toy signature."""
    atoms = _atoms_of(ty, scope)
    choices = []
    if atoms:
        choices += ["atom", "atom"]
    if depth > 0:
        choices.append("app")
        if is_fun(ty):
            choices.append("abs")
    if not choices:
        return Var(f"y{rng.randrange(3)}", ty)
    c = rng.choice(choices)
    if c == "app":
        aty = random_type(rng)
        f = random_term(rng, mk_fun(aty, ty), depth - 1, scope)
        a = random_term(rng, aty, depth - 1, scope)
        return App(f, a)
    if c == "abs":
        a, r = dest_fun(ty)
        v = Var(f"x{rng.randrange(4)}", a)
        return Abs(v, random_term(rng, r, depth - 1, scope + (v,)))
    if c == "atom":
        return rng.choice(atoms)
    return Var(f"y{rng.randrange(3)}", ty)


def random_formula(
    rng: random.Random, depth: int, scope: tuple[Var, ...] = ()
) -> HolTerm:
    """A boolean formula over the toy signature."""
    if depth <= 0 or rng.random() < 0.3:
        t1 = random_term(rng, NAT, 2, scope)
        t2 = random_term(rng, NAT, 2, scope)
        if rng.random() < 0.5:
            return mk_eq(t1, t2, NAT)
        return mk_const_app("LE", (), [t1, t2])
    k = rng.choice(["conj", "disj", "imp", "neg", "forall", "exists", "iff"])
    if k == "neg":
        return mk_neg(random_formula(rng, depth - 1, scope))
    if k in ("forall", "exists"):
        v = Var(f"z{rng.randrange(4)}", random_type(rng))
        body = random_formula(rng, depth - 1, scope + (v,))
        return mk_forall(v, body) if k == "forall" else mk_exists(v, body)
    a = random_formula(rng, depth - 1, scope)
    b = random_formula(rng, depth - 1, scope)
    if k == "iff":
        return mk_eq(a, b, BOOL)
    op = {"conj": "&", "disj": "|", "imp": "=>"}[k]
    return mk_const_app(op, (), [a, b])


def random_closed_formula(rng: random.Random, depth: int = 4) -> HolTerm:
    f = random_formula(rng, depth)
    return mk_foralls(free_vars(f), f)


# Type variables not named A or B, so that renaming them A, B, ... by first
# occurrence shows; R > Q puts R first.
_Q, _R = TyVar("Q"), TyVar("R")
_POLY_TYPES = [
    _Q, _R, NAT, TyApp("list", (_Q,)), TyApp("list", (_R,)), mk_fun(_Q, _R), mk_fun(_R, _Q)
]


def random_poly_term(
    rng: random.Random, ty: HolType, depth: int, scope: tuple[Var, ...] = ()
) -> HolTerm:
    """A well-typed term of the given type over type variables and the
    polymorphic HD, CONS, MAP and NIL."""
    atoms: list[HolTerm] = [v for v in scope if v.ty == ty]
    is_list = isinstance(ty, TyApp) and ty.con == "list"
    if is_list:
        atoms.append(Const("NIL", ty.args))
    choices = ["atom"] * 2 if atoms else []
    if depth > 0:
        choices.append("hd")
        if is_list:
            choices += ["cons", "map"]
        if is_fun(ty):
            choices.append("abs")
    if not choices:
        return Var(f"y{rng.randrange(3)}", ty)
    c = rng.choice(choices)
    if c == "atom":
        return rng.choice(atoms)
    if c == "hd":
        lst = random_poly_term(rng, TyApp("list", (ty,)), depth - 1, scope)
        return App(Const("HD", (ty,)), lst)
    if c == "cons":
        (elem,) = ty.args
        head = random_poly_term(rng, elem, depth - 1, scope)
        tail = random_poly_term(rng, ty, depth - 1, scope)
        return mk_const_app("CONS", (elem,), [head, tail])
    if c == "map":
        (res,) = ty.args
        src = rng.choice(_POLY_TYPES)
        f = random_poly_term(rng, mk_fun(src, res), depth - 1, scope)
        lst = random_poly_term(rng, TyApp("list", (src,)), depth - 1, scope)
        return mk_const_app("MAP", (src, res), [f, lst])
    a, r = dest_fun(ty)
    v = Var(f"x{rng.randrange(3)}", a)
    return Abs(v, random_poly_term(rng, r, depth - 1, scope + (v,)))


def random_poly_formula(rng: random.Random, depth: int = 3) -> HolTerm:
    """A closed formula whose variables and constants are polymorphic."""

    def formula(depth: int, scope: tuple[Var, ...]) -> HolTerm:
        if depth <= 0 or rng.random() < 0.3:
            ty = rng.choice(_POLY_TYPES)
            lhs = random_poly_term(rng, ty, 3, scope)
            return mk_eq(lhs, random_poly_term(rng, ty, 3, scope), ty)
        k = rng.choice(["conj", "neg", "forall", "exists"])
        if k == "neg":
            return mk_neg(formula(depth - 1, scope))
        if k == "conj":
            return mk_const_app("&", (), [formula(depth - 1, scope), formula(depth - 1, scope)])
        v = Var(f"z{rng.randrange(3)}", rng.choice(_POLY_TYPES))
        body = formula(depth - 1, scope + (v,))
        return mk_forall(v, body) if k == "forall" else mk_exists(v, body)

    f = formula(depth, ())
    return mk_foralls(free_vars(f), f)


# ------------------------------------------ checks and printers for tests


def mk_neg(a: HolTerm) -> HolTerm:
    return mk_const_app("~", (), [a])


def alpha_equal(s: HolTerm, t: HolTerm) -> bool:
    return alpha_key(s) == alpha_key(t)


def load_corpus_files(
    thy_text: str, theory_files: dict[str, tuple[str, str | None]]
) -> Corpus:
    """Build a corpus from in-memory file texts.

    ``theory_files`` maps a theory name to its .tt text and an optional
    .deps text; ``thy_text`` fixes the build order.
    """
    return _build_corpus(parse_thy(thy_text), theory_files)


def print_thy(theories: Sequence[tuple[str, Sequence[str]]]) -> str:
    """corpus.thy text for (theory, ancestors) pairs in build order."""
    lines = [
        f"theory({show_name(n)}, [{', '.join(show_name(a) for a in ancs)}])."
        for n, ancs in theories
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def print_deps(corpus: Corpus) -> str:
    """.deps text: one deps(NAME_cK, [DEP, ...]). line per conjunct of
    every theorem, in linear order."""
    lines = []
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        for k, deps in enumerate(entry.dependencies, start=1):
            ordered = sorted(deps, key=corpus.number)
            label = show_name(f"{entry.name}_c{k}")
            names = ", ".join(show_name(corpus.conjunct_label(c)) for c in ordered)
            lines.append(f"deps({label}, [{names}]).")
    return "\n".join(lines) + ("\n" if lines else "")


def result_for(report: ExperimentReport, target: str, prover: str) -> AtpResult:
    for r in report.results:
        if r.target == target and r.prover == prover:
            return r
    raise KeyError((target, prover))


def solved_targets(report: ExperimentReport, prover: str) -> set[str]:
    return {r.target for r in report.results if r.prover == prover and r.status.proved}


def check_problem(problem: FofProblem) -> dict[str, int]:
    """Verify the first-order invariants: every symbol at one arity, no
    symbol both predicate and function.  Returns the symbol-arity map."""
    fun_arity: dict[str, int] = {}
    pred_arity: dict[str, int] = {}

    def term(t: FofTerm) -> None:
        if isinstance(t, FofVar):
            return
        seen = fun_arity.setdefault(t.sym, len(t.args))
        if seen != len(t.args):
            raise TranslateError(
                f"function {t.sym} used at arities {seen} and {len(t.args)}"
            )
        if t.sym in pred_arity:
            raise TranslateError(f"{t.sym} used as both function and predicate")
        for a in t.args:
            term(a)

    def formula(f: FofFormula) -> None:
        if isinstance(f, Pred):
            seen = pred_arity.setdefault(f.sym, len(f.args))
            if seen != len(f.args):
                raise TranslateError(
                    f"predicate {f.sym} used at arities {seen} and {len(f.args)}"
                )
            if f.sym in fun_arity:
                raise TranslateError(
                    f"{f.sym} used as both function and predicate"
                )
            for a in f.args:
                term(a)
        elif isinstance(f, Eq):
            term(f.lhs)
            term(f.rhs)
        elif isinstance(f, Not):
            formula(f.body)
        elif isinstance(f, BinOp):
            formula(f.lhs)
            formula(f.rhs)
        else:
            formula(f.body)

    for _, f in problem.axioms:
        formula(f)
    formula(problem.conjecture[1])
    return {**fun_arity, **pred_arity}
