"""String features of theorem statements.

Four feature kinds, marked by prefix: ``t:`` type constructors, ``v:``
type variables, ``c:`` constants, and ``s:`` printed subterms.  Every
subterm is printed under three variable normalizations, so two statements
differing only in variable naming share all features: ONE_VAR prints each
term variable as ``X``; DE_BRUIJN prints a variable bound inside the
subterm as ``#k`` (k binders lie between it and its own) and any other as
``#fN``, numbered by first occurrence; TYPE_OF_VAR prints a variable as its
type, with type variables renamed ``A, B, ...`` by first occurrence.  An
application spine prints as ``(f a b)``, an abstraction as ``(\\v. body)``
with v ``X``, empty or the binder's type.

``extract`` builds the three prints of every subterm in one post-order
walk, on a stack of its own, each by joining its children's prints.  The
ONE_VAR print composes as it is.  The other two carry markers that only
the whole subterm can resolve.  In DE_BRUIJN prints a variable occurrence
is marked with its binder's depth (or a number of its own if nothing binds
it) and its distance k to that binder; an abstraction turns the markers of
its variable into ``#k``, so what is left in a subterm's print is free in
it, and one regex pass numbers those ``#f0, #f1, ...``.  In TYPE_OF_VAR
prints a type variable is marked with its name, and one pass per subterm
renames them.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import lru_cache

from .hol import Abs, App, Const, HolTerm, HolType, TyVar, Var

# A variable occurrence in a DE_BRUIJN print reads "\0" key "\1" k "\2";
# a type variable in a TYPE_OF_VAR print reads "\3" name "\4".
_FREE = re.compile("\x00([^\x01]*)\x01[0-9]*\x02")
_TYVAR = re.compile("\x03([^\x04]*)\x04")


def _norm_tyvar_name(i: int) -> str:
    if i < 26:
        return chr(ord("A") + i)
    return chr(ord("A") + i % 26) + str(i // 26)


@lru_cache(maxsize=4096)
def _type_info(ty: HolType) -> tuple[str, frozenset[str], frozenset[str]]:
    """A type's marked TYPE_OF_VAR print, its ``t:`` features and the
    names of its type variables."""
    if isinstance(ty, TyVar):
        return f"\x03{ty.name}\x04", frozenset(), frozenset((ty.name,))
    infos = [_type_info(a) for a in ty.args]
    cons = frozenset(("t:" + ty.con,)).union(*(i[1] for i in infos))
    tyvars = frozenset().union(*(i[2] for i in infos))
    if not infos:
        return ty.con, cons, tyvars
    return "(" + ty.con + " " + " ".join(i[0] for i in infos) + ")", cons, tyvars


def _resolve(markers: re.Pattern, name: Callable[[int], str], text: str) -> str:
    """``text`` with the i-th distinct marker (by its group 1) named ``name(i)``."""
    names: dict[str, str] = {}
    return markers.sub(lambda m: names.setdefault(m[1], name(len(names))), text)


def extract(statement: HolTerm) -> frozenset[str]:
    """All features of a statement: type constructors, normalized type
    variables, constant names, and printed subterms under every scheme."""
    out: set[str] = set()
    tyvars: set[str] = set()
    prints: set[str] = set()
    var_types: set[HolType] = set()
    binders: dict[Var, list[int]] = {}  # binder depths, innermost last
    free_ids: dict[Var, int] = {}
    depth = 0
    done: list[tuple[str, str, str]] = []  # ONE_VAR, DE_BRUIJN, TYPE_OF_VAR
    todo: list = [statement]

    def type_text(ty: HolType) -> str:
        text, cons, names = _type_info(ty)
        out.update(cons)
        tyvars.update(names)
        return text

    # A term on the stack is yet to be walked; (t,) joins the prints of
    # the application or abstraction t's children, which lie on ``done``.
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += ((t,), t.arg, t.fun)
            continue
        if isinstance(t, Abs):
            binders.setdefault(t.var, []).append(depth)
            depth += 1
            todo += ((t,), t.body)
            continue
        if isinstance(t, Var):
            depths = binders.get(t)
            if depths:
                key = depths[-1]
                marker = f"\x00{key}\x01{depth - 1 - key}\x02"
            else:
                marker = f"\x00g{free_ids.setdefault(t, len(free_ids))}\x01\x02"
            var_types.add(t.ty)
            done.append(("X", marker, type_text(t.ty)))
            continue
        if isinstance(t, Const):
            out.add("c:" + t.name)
            for ty in t.inst:
                type_text(ty)
            node = t.name, t.name, t.name
        elif isinstance(t[0], App):
            a1, a2, a3 = done.pop()
            f1, f2, f3 = done.pop()
            if isinstance(t[0].fun, App):  # extend the spine's print
                node = f"{f1[:-1]} {a1})", f"{f2[:-1]} {a2})", f"{f3[:-1]} {a3})"
            else:
                node = f"({f1} {a1})", f"({f2} {a2})", f"({f3} {a3})"
        else:
            v = t[0].var
            depth -= 1
            binders[v].pop()
            var_types.add(v.ty)
            b1, b2, b3 = done.pop()
            if f"\x00{depth}\x01" in b2:
                b2 = re.sub(f"\x00{depth}\x01([0-9]+)\x02", r"#\1", b2)
            node = f"(\\X. {b1})", f"(\\. {b2})", f"(\\{type_text(v.ty)}. {b3})"
        done.append(node)
        one, db, ty = node
        prints.add(one)
        prints.add(_resolve(_FREE, "#f{}".format, db) if "\x00" in db else db)
        prints.add(_resolve(_TYVAR, _norm_tyvar_name, ty) if "\x03" in ty else ty)

    # A variable subterm prints as X, #f0 and its type.
    if var_types:
        prints.update(("X", "#f0"))
        prints.update(_resolve(_TYVAR, _norm_tyvar_name, type_text(ty)) for ty in var_types)
    out.update("v:" + _norm_tyvar_name(i) for i in range(len(tyvars)))
    out.update("s:" + p for p in prints)
    return frozenset(out)
