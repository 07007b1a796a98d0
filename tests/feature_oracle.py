"""A brute-force feature extractor to check ``features.extract`` against.

Each alpha-distinct subterm is printed from scratch under each
normalization scheme, walking it once per scheme with its own renaming
tables.  This is the extractor the one-walk ``extract`` replaced; it is
quadratic in the depth of a statement and recursive, so it is only fit
for tests.
"""

from __future__ import annotations

from enum import Enum

from hammerkit.hol import (
    Abs,
    App,
    Const,
    HolTerm,
    HolType,
    TyApp,
    TyVar,
    Var,
    alpha_key,
    term_ty_vars,
)


class NormScheme(Enum):
    ONE_VAR = "onevar"
    DE_BRUIJN = "debruijn"
    TYPE_OF_VAR = "typeofvar"


def _norm_tyvar_name(i: int) -> str:
    if i < 26:
        return chr(ord("A") + i)
    return chr(ord("A") + i % 26) + str(i // 26)


class _TyNames:
    """First-occurrence renaming of type variables to A, B, ..."""

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    def get(self, name: str) -> str:
        if name not in self.names:
            self.names[name] = _norm_tyvar_name(len(self.names))
        return self.names[name]

    def type_text(self, ty: HolType) -> str:
        if isinstance(ty, TyVar):
            return self.get(ty.name)
        if not ty.args:
            return ty.con
        return "(" + ty.con + " " + " ".join(self.type_text(a) for a in ty.args) + ")"


def subterms(t: HolTerm) -> list[HolTerm]:
    """All subterms including the term itself and every binder variable,
    deduplicated up to alpha."""
    out: list[HolTerm] = []
    seen = set()

    def walk(t: HolTerm) -> None:
        k = alpha_key(t)
        if k not in seen:
            seen.add(k)
            out.append(t)
        if isinstance(t, App):
            walk(t.fun)
            walk(t.arg)
        elif isinstance(t, Abs):
            walk(t.var)
            walk(t.body)

    walk(t)
    return out


def normalize_print(term: HolTerm, scheme: NormScheme) -> str:
    """Canonical parenthesized printing with variables rewritten.

    OneVar collapses every term variable to ``X``; DeBruijn prints bound
    occurrences as ``#k`` (binder distance) and free variables as ``#fN``
    by first occurrence; TypeOfVar prints a variable as its type, with
    type variables renamed to A, B, ... by first occurrence.
    """
    tynames = _TyNames()
    free: dict[Var, int] = {}

    def var_text(v: Var, bound: tuple[Var, ...]) -> str:
        if scheme is NormScheme.ONE_VAR:
            return "X"
        if scheme is NormScheme.TYPE_OF_VAR:
            return tynames.type_text(v.ty)
        for i in range(len(bound) - 1, -1, -1):
            if bound[i] == v:
                return f"#{len(bound) - 1 - i}"
        if v not in free:
            free[v] = len(free)
        return f"#f{free[v]}"

    def binder_text(v: Var) -> str:
        if scheme is NormScheme.ONE_VAR:
            return "X"
        if scheme is NormScheme.TYPE_OF_VAR:
            return tynames.type_text(v.ty)
        return ""

    def walk(t: HolTerm, bound: tuple[Var, ...]) -> str:
        if isinstance(t, Var):
            return var_text(t, bound)
        if isinstance(t, Const):
            return t.name
        if isinstance(t, Abs):
            return f"(\\{binder_text(t.var)}. {walk(t.body, bound + (t.var,))})"
        parts = []
        while isinstance(t, App):
            parts.append(t.arg)
            t = t.fun
        parts.append(t)
        parts.reverse()
        return "(" + " ".join(walk(p, bound) for p in parts) + ")"

    return walk(term, ())


def oracle_extract(statement: HolTerm) -> frozenset[str]:
    """Every feature of a statement, computed the slow, obvious way."""
    out: set[str] = set()
    tynames = _TyNames()
    for tv in term_ty_vars(statement):
        out.add("v:" + tynames.get(tv.name))

    def add_ty(ty: HolType) -> None:
        if isinstance(ty, TyApp):
            out.add("t:" + ty.con)
            for a in ty.args:
                add_ty(a)

    def walk(t: HolTerm) -> None:
        if isinstance(t, Var):
            add_ty(t.ty)
        elif isinstance(t, Const):
            out.add("c:" + t.name)
            for i in t.inst:
                add_ty(i)
        elif isinstance(t, App):
            walk(t.fun)
            walk(t.arg)
        else:
            add_ty(t.var.ty)
            walk(t.body)

    walk(statement)
    for sub in subterms(statement):
        for scheme in NormScheme:
            out.add("s:" + normalize_print(sub, scheme))
    return frozenset(out)
