"""Translation of higher-order statements into untyped first-order logic.

Per statement: beta-normalize, lift remaining lambdas into fresh top-level
function symbols, pull boolean-typed arguments out through existentials,
then map the result onto first-order terms.  A constant applied to its
full declared arity becomes a direct application; variables, partial
applications and extra arguments go through the binary apply functor
``ap``, with arity-0 proxy constants bridging the two views.  The
distinguished predicate ``bool`` turns boolean terms into formulas.

Every term position is wrapped in the tag ``s(flattened type, term)``,
the sound tagged encoding of Blanchette et al., "Encoding Monomorphic and
Polymorphic Types" (TACAS 2013).  Leaving a position bare would let an
untyped prover equate terms of different types: a bare encoding turns a
singleton type's axiom ``![x:one]: x = c`` into ``! [X] : X = c``, which
equates every term with ``c``, so ``0 = SUC 0`` follows.  Tagged, the
axiom speaks only of terms tagged ``one``.

The reserved symbols are ``s``, ``ap``, ``bool`` and ``fn`` (the arrow in
flattened types).  Everything else is mangled to prover-friendly names,
with a reverse table for reading unsat cores back.

``hol`` owns term structure; every walk over the formula skeleton
dispatches on one view of a formula layer, ``_connective``, and one
function, ``_unique``, numbers a name apart from those already taken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Union

from .hol import (
    Abs,
    App,
    BOOL,
    Const,
    HolTerm,
    HolType,
    Signature,
    TyVar,
    Var,
    alpha_key,
    beta_normalize,
    dest_binder,
    dest_fun,
    free_vars,
    is_fun,
    list_mk_comb,
    mk_conj,
    mk_const_app,
    mk_eq,
    mk_exists,
    mk_foralls,
    mk_fun_chain,
    strip_comb,
    strip_fun,
    term_ty_vars,
    ty_vars,
    type_of,
)

RESERVED = frozenset({"s", "ap", "bool", "fn"})

_CONNECTIVES = frozenset({"=", "&", "|", "=>", "~", "!", "?"})


class TranslateError(ValueError):
    pass


# ---------------------------------------------------------------- FOF AST


@dataclass(frozen=True)
class FofVar:
    name: str


@dataclass(frozen=True)
class FofApp:
    sym: str
    args: tuple["FofTerm", ...] = ()


FofTerm = Union[FofVar, FofApp]


@dataclass(frozen=True)
class Pred:
    sym: str
    args: tuple[FofTerm, ...] = ()


@dataclass(frozen=True)
class Eq:
    lhs: FofTerm
    rhs: FofTerm


@dataclass(frozen=True)
class Not:
    body: "FofFormula"


@dataclass(frozen=True)
class BinOp:
    op: str  # "&", "|", "=>", "<=>"
    lhs: "FofFormula"
    rhs: "FofFormula"


@dataclass(frozen=True)
class Quant:
    kind: str  # "!" or "?"
    vars: tuple[str, ...]
    body: "FofFormula"


FofFormula = Union[Pred, Eq, Not, BinOp, Quant]


@dataclass(frozen=True)
class FofProblem:
    axioms: tuple[tuple[str, FofFormula], ...]
    conjecture: tuple[str, FofFormula]
    reverse: Mapping[str, str]  # axiom name -> source premise name
    helpers: frozenset[str]  # axiom names of lifted defs and proxy bridges


# ------------------------------------------------------------- name mangling

_SYMBOL_OK = re.compile(r"[A-Za-z0-9_]")


def _unique(base: str, taken: set[str], start: int = 0) -> str:
    """base if it is not taken, else base followed by the least number from
    start on that gives a name not taken; the name is added to taken."""
    name, k = base, start
    while name in taken:
        name = f"{base}{k}"
        k += 1
    taken.add(name)
    return name


def _encode(name: str) -> str:
    out = []
    for ch in name:
        if _SYMBOL_OK.match(ch):
            out.append(ch)
        else:
            out.append("".join(f"%{b:02x}" for b in ch.encode("utf-8")))
    return "".join(out)


class NameMangler:
    """Deterministic HOL-name to TPTP-name translation.

    Symbols (functions, predicates, flattened type constructors) share one
    namespace seeded with the reserved words; annotated-formula names live
    in a second namespace, where every call allocates a fresh name, so a
    conjecture named like a premise never shares its name.  First letter
    is lowercased, other characters are kept when alphanumeric and
    percent-encoded otherwise, collisions get a numeric suffix.
    """

    def __init__(self) -> None:
        self._symbols: dict[tuple[str, str], str] = {}
        self._taken_symbols: set[str] = set(RESERVED)
        self._taken_names: set[str] = set()
        self.reverse: dict[str, str] = {}

    def _candidate(self, name: str) -> str:
        enc = _encode(name) or "x"
        if enc[0].isupper():
            enc = enc[0].lower() + enc[1:]
        elif not enc[0].isalpha():
            enc = "x" + enc
        return enc

    def symbol(self, kind: str, name: str) -> str:
        """kind distinguishes namespaces sharing one spelling: "const",
        "type", and minted kinds like "proxy" or "lifted"."""
        key = (kind, name)
        if key not in self._symbols:
            base = self._candidate(name)
            if kind == "type" and name == "fun":
                base = "fn"  # the reserved arrow symbol, shared on purpose
                self._symbols[key] = base
                return base
            self._symbols[key] = _unique(base, self._taken_symbols)
        return self._symbols[key]

    def axiom_name(self, source: str) -> str:
        mangled = _unique(self._candidate(source), self._taken_names)
        self.reverse[mangled] = source
        return mangled


# ------------------------------------------------------------ type flattening


class VarScope:
    """FOF variable names for one formula: term variables and the type
    variables appearing in tags, allocated first-come with de-duplication."""

    def __init__(self) -> None:
        self.used: set[str] = set()
        self.tyvars: dict[str, str] = {}

    def _alloc(self, name: str) -> str:
        base = re.sub(r"[^A-Za-z0-9_]", "", name)
        if not base or not base[0].isalpha():
            base = "V" + base
        return _unique(base[0].upper() + base[1:], self.used)

    def tyvar(self, name: str) -> str:
        if name not in self.tyvars:
            self.tyvars[name] = self._alloc(name)
        return self.tyvars[name]

    def term_var(self, v: Var) -> str:
        return self._alloc(v.name)


def flatten_type(ty: HolType, scope: VarScope, mangler: NameMangler) -> FofTerm:
    """Types as first-order terms: variables stay variables, constructors
    become function symbols, the arrow becomes binary ``fn``."""
    if isinstance(ty, TyVar):
        return FofVar(scope.tyvar(ty.name))
    sym = mangler.symbol("type", ty.con)
    return FofApp(sym, tuple(flatten_type(a, scope, mangler) for a in ty.args))


# ------------------------------------------------------------ lambda lifting


def _connective(t: HolTerm) -> Const | None:
    """The connective heading one formula layer, or None for an atom:
    ``&``, ``|``, ``=>`` or ``=`` at bool applied to two operands, or
    ``~``, ``!`` or ``?`` applied to one.  ``strip_comb`` gives the
    operands."""
    if not isinstance(t, App):
        return None
    if isinstance(t.fun, Const):
        return t.fun if t.fun.name in ("~", "!", "?") else None
    c = t.fun.fun if isinstance(t.fun, App) else None
    if isinstance(c, Const) and (
        c.name in ("&", "|", "=>") or c.name == "=" and c.inst and c.inst[0] == BOOL
    ):
        return c
    return None


def _map_atoms(t: HolTerm, atom: Callable[[HolTerm], HolTerm]) -> HolTerm:
    """Rebuild the connective and quantifier skeleton of a formula, passing
    each atom through ``atom``.  A quantifier applied to something other
    than an abstraction is an atom."""
    c = _connective(t)
    if c is None:
        return atom(t)
    _, args = strip_comb(t)
    if c.name not in ("!", "?"):
        return list_mk_comb(c, [_map_atoms(a, atom) for a in args])
    (body,) = args
    if not isinstance(body, Abs):
        return atom(t)
    return App(c, Abs(body.var, _map_atoms(body.body, atom)))


def lambda_lift(t: HolTerm, state: "TranslationState") -> HolTerm:
    """Replace every non-quantifier abstraction by a fresh constant applied
    to the abstraction's free variables, innermost first.  Defining axioms
    are queued on the state for later translation.  Alpha-equivalent
    abstractions with the same captured variables share one constant, so a
    lambda occurring in several statements of a problem stays connected."""

    def formula(t: HolTerm) -> HolTerm:
        return _map_atoms(t, term)

    def term(t: HolTerm) -> HolTerm:
        if isinstance(t, (Var, Const)):
            return t
        if isinstance(t, App):
            if dest_binder(t, "!") or dest_binder(t, "?"):
                # A formula embedded in term position; its binder is
                # structural and must survive until boolean-argument
                # removal relocates the whole subterm.
                return formula(t)
            return App(term(t.fun), term(t.arg))
        body = formula(t.body) if type_of(t.body, state.sig) == BOOL else term(t.body)
        lifted = Abs(t.var, body)
        captured = free_vars(lifted)
        key = (alpha_key(lifted), tuple((v.name, v.ty) for v in captured))
        name = state.lam_cache.get(key)
        new = name is None
        if new:
            chain_ty = mk_fun_chain([v.ty for v in captured], type_of(lifted, state.sig))
            # Lifted constants are lam1, lam2, ...: the bare base counts as taken.
            name = _unique("lam", {"lam", *state.sig.consts}, 1)
            state.sig.declare_const(name, tuple(v.name for v in ty_vars(chain_ty)), chain_ty)
            state.arity[name] = len(captured)
            state.symbol_kind[name] = "lifted"
            state.lam_cache[key] = name
        inst = tuple(TyVar(a) for a in state.sig.const_decl(name).tyvars)
        head = mk_const_app(name, inst, captured)
        if new:
            x = lifted.var
            eq = mk_eq(App(head, x), body, type_of(body, state.sig))
            state.pending_defs.append((name, mk_foralls(captured + [x], eq)))
        return head

    return formula(t)


# ------------------------------------------------------- boolean arguments


def remove_bool_args(t: HolTerm, sig: Signature) -> HolTerm:
    """Pull boolean-typed argument subterms (other than plain variables)
    out of atoms: each becomes a fresh existential B with B = phi conjoined
    in front of the atom, phi processed recursively as a formula."""
    taken = set()

    def names(t: HolTerm) -> None:
        if isinstance(t, Var):
            taken.add(t.name)
        elif isinstance(t, App):
            names(t.fun)
            names(t.arg)
        elif isinstance(t, Abs):
            taken.add(t.var.name)
            names(t.body)

    names(t)

    def formula(t: HolTerm) -> HolTerm:
        return _map_atoms(t, atom)

    def atom(t: HolTerm) -> HolTerm:
        extracted: list[tuple[Var, HolTerm]] = []

        def scan(t: HolTerm) -> HolTerm:
            if isinstance(t, (Var, Const)):
                return t
            if isinstance(t, Abs):
                return Abs(t.var, scan(t.body))
            fun = scan(t.fun)
            arg = t.arg
            # Variables pass through as term-level booleans; constants go
            # through their proxy, whose bridge axiom ties them back to
            # the formula world.  Everything else is pulled out.
            if not isinstance(arg, (Var, Const)) and type_of(arg, sig) == BOOL:
                b = Var(_unique("B", taken, 1), BOOL)
                extracted.append((b, arg))
                return App(fun, b)
            return App(fun, scan(arg))

        out = scan(t)
        for b, phi in reversed(extracted):
            out = mk_exists(b, mk_conj(mk_eq(b, formula(phi), BOOL), out))
        return out

    return formula(t)


# ----------------------------------------------------------- the translator


@dataclass
class TranslationState:
    """Per-problem bookkeeping: a private signature copy, arities, proxy
    constants, pending lifted definitions, and the name mangler."""

    sig: Signature
    mangler: NameMangler = field(default_factory=NameMangler)
    arity: dict[str, int] = field(default_factory=dict)
    symbol_kind: dict[str, str] = field(default_factory=dict)
    proxies: dict[str, str] = field(default_factory=dict)  # const -> proxy const
    pending_defs: list[tuple[str, HolTerm]] = field(default_factory=list)
    pending_proxy_axioms: list[tuple[str, HolTerm]] = field(default_factory=list)
    lam_cache: dict[object, str] = field(default_factory=dict)

    def const_arity(self, name: str) -> int:
        if name not in self.arity:
            args, _ = strip_fun(self.sig.const_decl(name).ty)
            self.arity[name] = len(args)
        return self.arity[name]

    def is_pred(self, name: str) -> bool:
        """True when the symbol's saturated form is a formula.  Proxies
        are excluded: they live strictly in the term world."""
        if self.symbol_kind.get(name) == "proxy":
            return False
        res = _strip_arrows(self.sig.const_decl(name).ty, self.const_arity(name))
        return res == BOOL

    def symbol(self, name: str) -> str:
        return self.mangler.symbol(self.symbol_kind.get(name, "const"), name)

    def proxy_for(self, name: str) -> str:
        """The arity-0 twin of a constant, declared on first use together
        with its bridging axiom."""
        if name not in self.proxies:
            decl = self.sig.const_decl(name)
            pname = name + "_p"
            while self.sig.has_const(pname):
                pname += "_"
            self.sig.declare_const(pname, decl.tyvars, decl.ty)
            self.arity[pname] = 0
            self.symbol_kind[pname] = "proxy"
            self.proxies[name] = pname
            inst = tuple(TyVar(a) for a in decl.tyvars)
            args, res = strip_fun(decl.ty)
            xs = [Var(f"X{i}", a) for i, a in enumerate(args)]
            lhs = mk_const_app(pname, inst, xs)
            axiom = mk_foralls(xs, mk_eq(lhs, mk_const_app(name, inst, xs), res))
            self.pending_proxy_axioms.append((pname, axiom))
        return self.proxies[name]


def _strip_arrows(ty: HolType, n: int) -> HolType | None:
    """The general type after n more arguments; None when a type variable
    stands in the way."""
    for _ in range(n):
        if not is_fun(ty):
            return None
        _, ty = dest_fun(ty)
    return ty


class _Translator:
    """HOL to FOF for one statement, sharing per-problem state.

    Every term, and every application inside it, is wrapped in the tag of
    its instance type: arguments of functions, predicates and ``ap``,
    both sides of ``=``, and the argument of ``bool``."""

    def __init__(self, state: TranslationState):
        self.state = state
        self.scope = VarScope()

    def _wrap(self, ty: HolType, t: FofTerm) -> FofTerm:
        flat = flatten_type(ty, self.scope, self.state.mangler)
        return FofApp("s", (flat, t))

    def term(self, t: HolTerm, env: Mapping[Var, str]) -> FofTerm:
        """t encoded and tagged with its type."""
        if isinstance(t, Var):
            return self._wrap(t.ty, FofVar(env[t]))
        head, args = strip_comb(t) if isinstance(t, App) else (t, ())
        if isinstance(head, Abs):
            raise TranslateError("abstraction survived lambda lifting")
        # The head consumes the first `done` arguments, the rest go
        # through ``ap`` one at a time; each argument consumed peels one
        # arrow off the head's instance type.
        done = 0
        if isinstance(head, Var):
            out: FofTerm = FofVar(env[head])
            ty = head.ty
        else:
            name = head.name
            k = self.state.const_arity(name)
            ty = self.state.sig.const_type(head)
            # A predicate's saturated form is a formula; terms use its proxy.
            if not self.state.is_pred(name) and len(args) >= k:
                sym = self.state.symbol(name)
                out = FofApp(sym, tuple(self.term(a, env) for a in args[:k]))
                ty = _strip_arrows(ty, k)
                done = k
            else:
                out = FofApp(self.state.symbol(self.state.proxy_for(name)))
        out = self._wrap(ty, out)
        for a in args[done:]:
            _, ty = dest_fun(ty)
            out = self._wrap(ty, FofApp("ap", (out, self.term(a, env))))
        return out

    def formula(self, t: HolTerm, env: Mapping[Var, str]) -> FofFormula:
        c = _connective(t)
        head, args = strip_comb(t)
        if c is not None:
            if c.name == "~":
                return Not(self.formula(args[0], env))
            if c.name in ("!", "?"):
                (body,) = args
                if not isinstance(body, Abs):
                    # Eta-expand a point-free quantifier application.
                    taken = {x.name for x in free_vars(body)}
                    v = Var("Q", c.inst[0])
                    while v.name in taken:
                        v = Var(v.name + "0", v.ty)
                    body = Abs(v, App(body, v))
                name = self.scope.term_var(body.var)
                inner = self.formula(body.body, {**env, body.var: name})
                return Quant(c.name, (name,), inner)
            op = "<=>" if c.name == "=" else c.name
            return BinOp(op, self.formula(args[0], env), self.formula(args[1], env))
        if isinstance(head, Const):
            # Equality over non-boolean types is the remaining binary atom.
            if head.name == "=" and len(args) == 2:
                return Eq(self.term(args[0], env), self.term(args[1], env))
            if (
                head.name not in _CONNECTIVES
                and self.state.is_pred(head.name)
                and len(args) == self.state.const_arity(head.name)
            ):
                sym = self.state.symbol(head.name)
                return Pred(sym, tuple(self.term(a, env) for a in args))
        return Pred("bool", (self.term(t, env),))

    def statement(self, t: HolTerm) -> FofFormula:
        for tv in term_ty_vars(t):
            self.scope.tyvar(tv.name)
        env = {v: self.scope.term_var(v) for v in free_vars(t)}
        body = self.formula(t, env)
        closure = tuple(self.scope.tyvars.values()) + tuple(env.values())
        if closure:
            return Quant("!", closure, body)
        return body


def translate_statement(t: HolTerm, state: TranslationState) -> FofFormula:
    """One statement through the whole pipeline, accumulating lifted
    definitions and proxy axioms on the state."""
    t = beta_normalize(t)
    t = lambda_lift(t, state)
    t = remove_bool_args(t, state.sig)
    return _Translator(state).statement(t)


def _drain_pending(state: TranslationState) -> list[tuple[str, FofFormula]]:
    """Translate queued lifted definitions and proxy axioms (which may in
    turn queue more proxies) until the state settles.  Both are built
    from beta-normal terms, so they are not normalized again."""
    out: list[tuple[str, FofFormula]] = []
    while state.pending_defs or state.pending_proxy_axioms:
        if state.pending_defs:
            name, axiom = state.pending_defs.pop(0)
            suffix = "_def"
        else:
            name, axiom = state.pending_proxy_axioms.pop(0)
            suffix = "_ax"
        axiom = remove_bool_args(axiom, state.sig)
        f = _Translator(state).statement(axiom)
        out.append((state.symbol(name) + suffix, f))
    return out


def translate_problem(
    premises: Iterable[tuple[str, HolTerm]],
    conjecture: tuple[str, HolTerm],
    sig: Signature,
) -> FofProblem:
    """A full problem: encoded premises, the encoded conjecture, lifted
    definitions and proxy bridges, with deterministic naming.  Every term
    is tagged with its type, so a polymorphic statement instantiated at a
    type meets a monomorphic one on the same tagged terms, and no axiom
    ever removes a tag."""
    state = TranslationState(sig=sig.copy())
    axioms: list[tuple[str, FofFormula]] = []
    helpers: set[str] = set()
    for name, stmt in premises:
        f = translate_statement(stmt, state)
        axioms.append((state.mangler.axiom_name(name), f))
    goal_name, goal = conjecture
    goal_f = translate_statement(goal, state)
    for hname, f in _drain_pending(state):
        n = state.mangler.axiom_name(hname)
        axioms.append((n, f))
        helpers.add(n)
    return FofProblem(
        axioms=tuple(axioms),
        conjecture=(state.mangler.axiom_name(goal_name), goal_f),
        reverse=dict(state.mangler.reverse),
        helpers=frozenset(helpers),
    )

