"""Simply typed higher-order terms with shallow polymorphism.

Types are either type variables or constructor applications; the function
arrow is the binary constructor ``fun``.  Terms are variables, constants
(carrying an explicit type instantiation), applications, and abstractions.
Binding is by the full variable identity (name, type); the innermost
abstraction with a matching variable binds an occurrence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union


class HolError(ValueError):
    pass


class UnknownSymbol(HolError):
    pass


class ArityMismatch(HolError):
    pass


class TypeMismatch(HolError):
    pass


# --------------------------------------------------------------------- types


@dataclass(frozen=True)
class TyVar:
    name: str


@dataclass(frozen=True)
class TyApp:
    con: str
    args: tuple["HolType", ...] = ()


HolType = Union[TyVar, TyApp]

BOOL = TyApp("bool")
FUN = "fun"


def mk_fun(arg: HolType, res: HolType) -> HolType:
    return TyApp(FUN, (arg, res))


def mk_fun_chain(args: Iterable[HolType], res: HolType) -> HolType:
    out = res
    for a in reversed(tuple(args)):
        out = mk_fun(a, out)
    return out


def dest_fun(ty: HolType) -> tuple[HolType, HolType]:
    if isinstance(ty, TyApp) and ty.con == FUN and len(ty.args) == 2:
        return ty.args[0], ty.args[1]
    raise TypeMismatch(f"not a function type: {_ty(ty, 0)}")


def is_fun(ty: HolType) -> bool:
    return isinstance(ty, TyApp) and ty.con == FUN and len(ty.args) == 2


def strip_fun(ty: HolType) -> tuple[list[HolType], HolType]:
    """Argument types and final result of a (possibly 0-arrow) function type."""
    args = []
    while is_fun(ty):
        a, ty = dest_fun(ty)
        args.append(a)
    return args, ty


def ty_vars(ty: HolType) -> list[TyVar]:
    """Type variables in first-occurrence order."""
    out: list[TyVar] = []
    seen = set()

    def walk(t: HolType) -> None:
        if isinstance(t, TyVar):
            if t.name not in seen:
                seen.add(t.name)
                out.append(t)
        else:
            for a in t.args:
                walk(a)

    walk(ty)
    return out


def ty_subst(ty: HolType, mapping: dict[str, HolType]) -> HolType:
    if isinstance(ty, TyVar):
        return mapping.get(ty.name, ty)
    return TyApp(ty.con, tuple(ty_subst(a, mapping) for a in ty.args))


# --------------------------------------------------------------------- terms


@dataclass(frozen=True)
class Var:
    name: str
    ty: HolType


@dataclass(frozen=True)
class Const:
    name: str
    inst: tuple[HolType, ...] = ()


@dataclass(frozen=True)
class App:
    fun: "HolTerm"
    arg: "HolTerm"


@dataclass(frozen=True)
class Abs:
    var: Var
    body: "HolTerm"


HolTerm = Union[Var, Const, App, Abs]


# ----------------------------------------------------------------- signature


@dataclass(frozen=True)
class ConstDecl:
    tyvars: tuple[str, ...]
    ty: HolType


# Connectives and equality are ordinary constants; quantifiers are constants
# applied to abstractions.
_A = TyVar("A")
BUILTIN_TYPES = {"bool": 0, FUN: 2}
BUILTIN_CONSTS = {
    "=": ConstDecl(("A",), mk_fun_chain([_A, _A], BOOL)),
    "!": ConstDecl(("A",), mk_fun(mk_fun(_A, BOOL), BOOL)),
    "?": ConstDecl(("A",), mk_fun(mk_fun(_A, BOOL), BOOL)),
    "&": ConstDecl((), mk_fun_chain([BOOL, BOOL], BOOL)),
    "|": ConstDecl((), mk_fun_chain([BOOL, BOOL], BOOL)),
    "=>": ConstDecl((), mk_fun_chain([BOOL, BOOL], BOOL)),
    "~": ConstDecl((), mk_fun(BOOL, BOOL)),
}


class Signature:
    """Declared type constructors (name -> arity) and constants, and the
    type of each constant instantiation asked for so far."""

    def __init__(self) -> None:
        self.types: dict[str, int] = dict(BUILTIN_TYPES)
        self.consts: dict[str, ConstDecl] = dict(BUILTIN_CONSTS)
        self.instances: dict[tuple[str, tuple[HolType, ...]], HolType] = {}

    def declare_type(self, name: str, arity: int) -> None:
        self.types[name] = arity

    def declare_const(self, name: str, tyvars: tuple[str, ...], ty: HolType) -> None:
        self.consts[name] = ConstDecl(tyvars, ty)
        self.instances.clear()

    def const_decl(self, name: str) -> ConstDecl:
        try:
            return self.consts[name]
        except KeyError:
            raise UnknownSymbol(f"undeclared constant: {name}") from None

    def has_const(self, name: str) -> bool:
        return name in self.consts

    def const_type(self, c: Const) -> HolType:
        decl = self.const_decl(c.name)
        if len(c.inst) != len(decl.tyvars):
            raise ArityMismatch(
                f"constant {c.name} expects {len(decl.tyvars)} type arguments, "
                f"got {len(c.inst)}"
            )
        if not c.inst:
            return decl.ty
        key = c.name, c.inst
        if key not in self.instances:
            self.instances[key] = ty_subst(decl.ty, dict(zip(decl.tyvars, c.inst)))
        return self.instances[key]

    def copy(self) -> "Signature":
        s = Signature()
        s.types = dict(self.types)
        s.consts = dict(self.consts)
        return s


# ------------------------------------------------------------------ printing

# The one printer of the canonical corpus syntax, which hammerkit.corpus
# reads back; error messages quote terms and types in it too.


class PrintError(ValueError):
    pass


# Bare names never start with ~ / . ' and never end with a dot, so the
# negation operator, the entry terminator and quote delimiters stay
# unambiguous; anything else must be single-quoted.  The corpus lexer
# reads names with this pattern.
_BARE_NAME = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_~/.']*[A-Za-z0-9_~/'])?")


def _quote(name: str) -> str:
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def show_name(name: str) -> str:
    """A name as it appears in a file: bare when the lexer allows it."""
    if _BARE_NAME.fullmatch(name):
        return name
    return _quote(name)


_LVL_IMP, _LVL_DISJ, _LVL_CONJ, _LVL_NEG, _LVL_EQ, _LVL_APP, _LVL_ATOM = range(7)

_BINOP_LEVEL = {"=>": _LVL_IMP, "|": _LVL_DISJ, "&": _LVL_CONJ, "=": _LVL_EQ}


def _ty(ty: HolType, lvl: int) -> str:
    if isinstance(ty, TyVar):
        return ty.name
    if is_fun(ty):
        a, r = dest_fun(ty)
        s = f"{_ty(a, 1)} > {_ty(r, 0)}"
        return f"({s})" if lvl > 0 else s
    if not ty.args:
        return show_name(ty.con)
    s = show_name(ty.con) + " " + " ".join(_ty(a, 2) for a in ty.args)
    return f"({s})" if lvl > 1 else s


def _strip_quant(t: HolTerm) -> tuple[str, list[Var], HolTerm] | None:
    for kind in ("^", "!", "?"):
        vs, body = strip_binders(t, kind)
        if vs:
            return kind, vs, body
    return None


def _binder_group(kind: str, vs: list[Var]) -> str:
    binds = ", ".join(f"{show_name(v.name)}:{_ty(v.ty, 2)}" for v in vs)
    return f"{kind}[{binds}]:"


def _tm(t: HolTerm, lvl: int) -> str:
    """A connective that is not applied to all its operands prints as a
    constant, by its quoted name."""
    if isinstance(t, Var):
        return show_name(t.name)
    if isinstance(t, Const):
        if t.inst:
            return "(" + show_name(t.name) + " " + " ".join(_ty(i, 2) for i in t.inst) + ")"
        return show_name(t.name)
    q = _strip_quant(t)
    if q is not None:
        kind, vs, body = q
        s = f"{_binder_group(kind, vs)} {_tm(body, _LVL_ATOM)}"
        return f"({s})" if lvl > _LVL_NEG else s
    if isinstance(t.fun, Const) and t.fun.name == "~":
        s = f"~{_tm(t.arg, _LVL_NEG)}"
        return f"({s})" if lvl > _LVL_NEG else s
    for op, own in _BINOP_LEVEL.items():
        b = dest_binop(t, op)
        if b is not None:
            # = does not chain; the others associate to the right.
            right = own + 1 if op == "=" else own
            s = f"{_tm(b[0], own + 1)} {op} {_tm(b[1], right)}"
            return f"({s})" if lvl > own else s
    head, args = strip_comb(t)
    s = " ".join(_tm(p, _LVL_ATOM) for p in [head, *args])
    return f"({s})" if lvl > _LVL_APP else s


def _rename_apart(t: HolTerm) -> HolTerm:
    """Rename binders so the printed text rebinds exactly as the term does.

    The format identifies variables by bare name, so a binder must not
    reuse the name of an enclosing binder, of a free variable, or of a
    constant occurring in the term.  Two distinct free variables sharing a
    name cannot be expressed at all.
    """
    seen_free: dict[str, Var] = {}
    for v in free_vars(t):
        if seen_free.setdefault(v.name, v) != v:
            raise PrintError(f"two distinct free variables named {v.name}")

    names: set[str] = set()
    consts: set[str] = set()

    def collect(t: HolTerm) -> None:
        if isinstance(t, Var):
            names.add(t.name)
        elif isinstance(t, Const):
            names.add(t.name)
            consts.add(t.name)
        elif isinstance(t, App):
            collect(t.fun)
            collect(t.arg)
        else:
            names.add(t.var.name)
            collect(t.body)

    collect(t)

    def walk(t: HolTerm, taken: frozenset[str]) -> HolTerm:
        if isinstance(t, (Var, Const)):
            return t
        if isinstance(t, App):
            return App(walk(t.fun, taken), walk(t.arg, taken))
        v, body = t.var, t.body
        if v.name in taken:
            v2 = _rename_avoiding(v, names)
            names.add(v2.name)
            body = subst(body, v, v2)
            v = v2
        return Abs(v, walk(body, taken | {v.name}))

    taken0 = frozenset(seen_free) | frozenset(consts)
    return walk(t, taken0)


def term_text(t: HolTerm) -> str:
    """Canonical statement text, with a leading ![A:$t, ...]: group when the
    statement mentions type variables."""
    t = _rename_apart(t)
    tvs = term_ty_vars(t)
    if not tvs:
        return _tm(t, _LVL_IMP)
    group = "![" + ", ".join(f"{v.name}:$t" for v in tvs) + "]:"
    return f"{group} {_tm(t, _LVL_ATOM)}"


# -------------------------------------------------------------- basic fns


def free_vars(t: HolTerm) -> list[Var]:
    """Free variables in first-occurrence order."""
    out: list[Var] = []
    seen: set[Var] = set()

    def walk(t: HolTerm, bound: tuple[Var, ...]) -> None:
        if isinstance(t, Var):
            if t not in bound and t not in seen:
                seen.add(t)
                out.append(t)
        elif isinstance(t, App):
            walk(t.fun, bound)
            walk(t.arg, bound)
        elif isinstance(t, Abs):
            walk(t.body, bound + (t.var,))

    walk(t, ())
    return out


def term_ty_vars(t: HolTerm) -> list[TyVar]:
    """Type variables in variable types and constant instantiations, in order."""
    out: list[TyVar] = []
    seen: set[str] = set()

    def add(ty: HolType) -> None:
        for v in ty_vars(ty):
            if v.name not in seen:
                seen.add(v.name)
                out.append(v)

    def walk(t: HolTerm) -> None:
        if isinstance(t, Var):
            add(t.ty)
        elif isinstance(t, Const):
            for i in t.inst:
                add(i)
        elif isinstance(t, App):
            walk(t.fun)
            walk(t.arg)
        else:
            add(t.var.ty)
            walk(t.body)

    walk(t)
    return out


def type_of(t: HolTerm, sig: Signature) -> HolType:
    """Principal type, assuming the term is well-typed."""
    if isinstance(t, Var):
        return t.ty
    if isinstance(t, Const):
        return sig.const_type(t)
    if isinstance(t, App):
        fty = type_of(t.fun, sig)
        a, r = dest_fun(fty)
        return r
    return mk_fun(t.var.ty, type_of(t.body, sig))


def ill_typed(fun: HolTerm, fty: HolType, arg: HolTerm, aty: HolType) -> str:
    """Why ``fun : fty`` cannot be applied to ``arg : aty``."""
    if not is_fun(fty):
        return f"applying non-function {_tm(fun, _LVL_IMP)} : {_ty(fty, 0)}"
    return (
        f"in {_tm(App(fun, arg), _LVL_IMP)}: expected argument of type "
        f"{_ty(fty.args[0], 0)}, got {_tm(arg, _LVL_IMP)} : {_ty(aty, 0)}"
    )


# ------------------------------------------------------------- substitution


def _rename_avoiding(v: Var, avoid: set[str]) -> Var:
    name = v.name
    while name in avoid:
        name += "'"
    return Var(name, v.ty)


def subst(t: HolTerm, var: Var, value: HolTerm) -> HolTerm:
    """Capture-avoiding substitution of value for free occurrences of var."""
    fv_value = {v.name for v in free_vars(value)}

    def walk(t: HolTerm) -> HolTerm:
        if isinstance(t, Var):
            return value if t == var else t
        if isinstance(t, Const):
            return t
        if isinstance(t, App):
            return App(walk(t.fun), walk(t.arg))
        if t.var == var:
            return t
        if var not in free_vars(t.body):
            return t
        if t.var.name in fv_value:
            fresh = _rename_avoiding(
                t.var, fv_value | {v.name for v in free_vars(t.body)}
            )
            return Abs(fresh, walk(subst(t.body, t.var, fresh)))
        return Abs(t.var, walk(t.body))

    return walk(t)


def beta_normalize(t: HolTerm) -> HolTerm:
    """Full beta-normal form; terminates on simply typed terms."""
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, Abs):
        return Abs(t.var, beta_normalize(t.body))
    fun = beta_normalize(t.fun)
    if isinstance(fun, Abs):
        return beta_normalize(subst(fun.body, fun.var, t.arg))
    return App(fun, beta_normalize(t.arg))


# --------------------------------------------------------- alpha equivalence


def alpha_key(t: HolTerm):
    """Hashable nameless form; equal keys iff alpha-equivalent terms."""

    def walk(t: HolTerm, env: tuple[Var, ...]):
        if isinstance(t, Var):
            for i in range(len(env) - 1, -1, -1):
                if env[i] == t:
                    return ("b", len(env) - 1 - i)
            return ("f", t.name, t.ty)
        if isinstance(t, Const):
            return ("c", t.name, t.inst)
        if isinstance(t, App):
            return ("a", walk(t.fun, env), walk(t.arg, env))
        return ("l", t.var.ty, walk(t.body, env + (t.var,)))

    return walk(t, ())


# ----------------------------------------------------- formula constructors


def list_mk_comb(head: HolTerm, args: Iterable[HolTerm]) -> HolTerm:
    """``head`` applied to ``args``, first to last; undoes ``strip_comb``."""
    for a in args:
        head = App(head, a)
    return head


def mk_const_app(name: str, inst: tuple[HolType, ...], args: Iterable[HolTerm]) -> HolTerm:
    return list_mk_comb(Const(name, inst), args)


def mk_eq(lhs: HolTerm, rhs: HolTerm, ty: HolType) -> HolTerm:
    return mk_const_app("=", (ty,), [lhs, rhs])


def mk_conj(a: HolTerm, b: HolTerm) -> HolTerm:
    return mk_const_app("&", (), [a, b])


def mk_forall(v: Var, body: HolTerm) -> HolTerm:
    return App(Const("!", (v.ty,)), Abs(v, body))


def mk_exists(v: Var, body: HolTerm) -> HolTerm:
    return App(Const("?", (v.ty,)), Abs(v, body))


def mk_foralls(vs: Iterable[Var], body: HolTerm) -> HolTerm:
    out = body
    for v in reversed(tuple(vs)):
        out = mk_forall(v, out)
    return out


def dest_binder(t: HolTerm, name: str) -> tuple[Var, HolTerm] | None:
    """The variable and body of ``name[v]: body``: an abstraction when
    ``name`` is ``^``, else the quantifier ``name`` applied to one."""
    if isinstance(t, Abs):
        return (t.var, t.body) if name == "^" else None
    if (
        isinstance(t, App)
        and isinstance(t.fun, Const)
        and t.fun.name == name
        and isinstance(t.arg, Abs)
    ):
        return t.arg.var, t.arg.body
    return None


def strip_binders(t: HolTerm, name: str) -> tuple[list[Var], HolTerm]:
    """The variables of the ``name`` binders heading ``t``, outermost
    first, and the body under them."""
    vs = []
    while (d := dest_binder(t, name)) is not None:
        vs.append(d[0])
        t = d[1]
    return vs, t


def strip_comb(t: HolTerm) -> tuple[HolTerm, list[HolTerm]]:
    """The head of an application chain and its arguments, first to last."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def dest_binop(t: HolTerm, name: str) -> tuple[HolTerm, HolTerm] | None:
    if (
        isinstance(t, App)
        and isinstance(t.fun, App)
        and isinstance(t.fun.fun, Const)
        and t.fun.fun.name == name
    ):
        return t.fun.arg, t.arg
    return None


# ---------------------------------------------------------- conjunct splits


def split_conjuncts(formula: HolTerm) -> list[HolTerm]:
    """Distribute top-level universals over conjunctions and split.

    Each returned conjunct re-binds, in original order, exactly the stripped
    universals it uses.  A conjunction-free formula yields a singleton.  The
    formula must be a well-typed statement.
    """

    def walk(t: HolTerm) -> list[HolTerm]:
        vs, body = strip_binders(t, "!")
        parts = dest_binop(body, "&")
        if parts is None:
            return [t]
        out = []
        for sub in parts:
            fv = set(free_vars(sub))
            out.extend(walk(mk_foralls([v for v in vs if v in fv], sub)))
        return out

    return walk(formula)
