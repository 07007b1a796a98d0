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
    TyApp,
    TyVar,
    Var,
    alpha_key,
    beta_normalize,
    dest_binder,
    dest_binop,
    dest_fun,
    free_vars,
    is_fun,
    mk_conj,
    mk_eq,
    mk_exists,
    mk_foralls,
    strip_fun,
    term_ty_vars,
    ty_vars,
    type_of,
)

RESERVED = frozenset({"s", "ap", "bool", "fn"})

_CONNECTIVES = frozenset({"=", "&", "|", "=>", "~", "!", "?"})


class TranslateError(Exception):
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

    def _unique(self, base: str, taken: set[str]) -> str:
        if base not in taken:
            taken.add(base)
            return base
        k = 0
        while f"{base}{k}" in taken:
            k += 1
        taken.add(f"{base}{k}")
        return f"{base}{k}"

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
            self._symbols[key] = self._unique(base, self._taken_symbols)
        return self._symbols[key]

    def axiom_name(self, source: str) -> str:
        mangled = self._unique(self._candidate(source), self._taken_names)
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
        base = base[0].upper() + base[1:]
        if base not in self.used:
            self.used.add(base)
            return base
        k = 0
        while f"{base}{k}" in self.used:
            k += 1
        self.used.add(f"{base}{k}")
        return f"{base}{k}"

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


def _formula_parts(t: HolTerm):
    """Decompose one formula layer: ("bin", op, l, r), ("not", b),
    ("quant", kind, abs_or_term, ty), ("iff", l, r) or None for atoms."""
    if isinstance(t, App) and isinstance(t.fun, App) and isinstance(t.fun.fun, Const):
        c = t.fun.fun
        if c.name in ("&", "|", "=>"):
            return ("bin", c.name, t.fun.arg, t.arg)
        if c.name == "=" and c.inst and c.inst[0] == BOOL:
            return ("iff", t.fun.arg, t.arg)
    if isinstance(t, App) and isinstance(t.fun, Const):
        if t.fun.name == "~":
            return ("not", t.arg)
        if t.fun.name in ("!", "?"):
            return ("quant", t.fun.name, t.arg, t.fun.inst[0])
    return None


def _map_atoms(t: HolTerm, atom: Callable[[HolTerm], HolTerm]) -> HolTerm:
    """Rebuild the connective and quantifier skeleton of a formula, passing
    each atom through ``atom``.  A quantifier applied to something other
    than an abstraction is an atom."""
    parts = _formula_parts(t)
    if parts is None:
        return atom(t)
    if parts[0] in ("bin", "iff"):
        return App(
            App(t.fun.fun, _map_atoms(t.fun.arg, atom)),
            _map_atoms(t.arg, atom),
        )
    if parts[0] == "not":
        return App(t.fun, _map_atoms(t.arg, atom))
    if not isinstance(t.arg, Abs):
        return atom(t)
    return App(t.fun, Abs(t.arg.var, _map_atoms(t.arg.body, atom)))


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
        if name is None:
            chain_ty = type_of(lifted, state.sig)
            for v in reversed(captured):
                chain_ty = TyApp("fun", (v.ty, chain_ty))
            tyvars = tuple(v.name for v in ty_vars(chain_ty))
            name = state.fresh_const_name("lam")
            state.sig.declare_const(name, tyvars, chain_ty)
            state.arity[name] = len(captured)
            state.symbol_kind[name] = "lifted"
            state.lam_cache[key] = name
            head_ax: HolTerm = Const(name, tuple(TyVar(a) for a in tyvars))
            for v in captured:
                head_ax = App(head_ax, v)
            x = lifted.var
            axiom = mk_foralls(
                captured + [x],
                mk_eq(App(head_ax, x), body, type_of(body, state.sig)),
            )
            state.pending_defs.append((name, axiom))
        decl = state.sig.const_decl(name)
        head: HolTerm = Const(name, tuple(TyVar(a) for a in decl.tyvars))
        for v in captured:
            head = App(head, v)
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
    counter = [0]

    def fresh_bool() -> Var:
        while True:
            name = f"B{counter[0]}" if counter[0] else "B"
            counter[0] += 1
            if name not in taken:
                taken.add(name)
                return Var(name, BOOL)

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
                b = fresh_bool()
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
    _fresh: dict[str, int] = field(default_factory=dict)

    def fresh_const_name(self, base: str) -> str:
        k = self._fresh.get(base, 0) + 1
        while self.sig.has_const(f"{base}{k}"):
            k += 1
        self._fresh[base] = k
        return f"{base}{k}"

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
            lhs: HolTerm = Const(pname, inst)
            rhs: HolTerm = Const(name, inst)
            for x in xs:
                lhs = App(lhs, x)
                rhs = App(rhs, x)
            axiom = mk_foralls(xs, mk_eq(lhs, rhs, res))
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

    def _chain(self, t: HolTerm) -> tuple[HolTerm, list[HolTerm], list[HolTerm]]:
        args: list[HolTerm] = []
        spine: list[HolTerm] = []
        while isinstance(t, App):
            args.append(t.arg)
            spine.append(t)
            t = t.fun
        args.reverse()
        spine.reverse()
        return t, args, spine

    def term(self, t: HolTerm, env: Mapping[Var, str]) -> FofTerm:
        """t encoded and tagged with its type."""
        sig = self.state.sig
        if isinstance(t, Var):
            return self._wrap(t.ty, FofVar(env[t]))
        if isinstance(t, Abs):
            raise TranslateError("abstraction survived lambda lifting")
        head, args, spine = self._chain(t) if isinstance(t, App) else (t, [], [])
        if isinstance(head, Abs):
            raise TranslateError("abstraction survived lambda lifting")
        # The head consumes the first `done` arguments, the rest go
        # through ``ap`` one at a time.
        done = 0
        if isinstance(head, Var):
            out: FofTerm = FofVar(env[head])
            ty = head.ty
        else:
            name = head.name
            k = self.state.const_arity(name)
            # A predicate's saturated form is a formula; terms use its proxy.
            if not self.state.is_pred(name) and len(args) >= k:
                out = FofApp(
                    self.state.symbol(name),
                    tuple(self.term(a, env) for a in args[:k]),
                )
                ty = type_of(spine[k - 1] if k else head, sig)
                done = k
            else:
                out = FofApp(self.state.symbol(self.state.proxy_for(name)))
                ty = sig.const_type(head)
        out = self._wrap(ty, out)
        for i in range(done, len(args)):
            out = FofApp("ap", (out, self.term(args[i], env)))
            out = self._wrap(type_of(spine[i], sig), out)
        return out

    def formula(self, t: HolTerm, env: Mapping[Var, str]) -> FofFormula:
        parts = _formula_parts(t)
        if parts is not None:
            if parts[0] == "bin":
                _, op, l, r = parts
                return BinOp(op, self.formula(l, env), self.formula(r, env))
            if parts[0] == "iff":
                _, l, r = parts
                return BinOp("<=>", self.formula(l, env), self.formula(r, env))
            if parts[0] == "not":
                return Not(self.formula(parts[1], env))
            _, kind, body, ty = parts
            if not isinstance(body, Abs):
                # Eta-expand a point-free quantifier application.
                v = Var("Q", ty)
                while v.name in {x.name for x in free_vars(body)}:
                    v = Var(v.name + "0", ty)
                body = Abs(v, App(body, v))
            name = self.scope.term_var(body.var)
            inner = self.formula(body.body, {**env, body.var: name})
            return Quant(kind, (name,), inner)
        # Equality over non-boolean types is the remaining binary atom.
        eq = dest_binop(t, "=")
        if eq is not None:
            return Eq(self.term(eq[0], env), self.term(eq[1], env))
        head, args, _ = self._chain(t) if isinstance(t, App) else (t, [], [])
        if (
            isinstance(head, Const)
            and head.name not in _CONNECTIVES
            and self.state.is_pred(head.name)
            and len(args) == self.state.const_arity(head.name)
        ):
            return Pred(
                self.state.symbol(head.name),
                tuple(self.term(a, env) for a in args),
            )
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
    turn queue more proxies) until the state settles."""
    out: list[tuple[str, FofFormula]] = []
    while state.pending_defs or state.pending_proxy_axioms:
        if state.pending_defs:
            name, axiom = state.pending_defs.pop(0)
            suffix = "_def"
        else:
            name, axiom = state.pending_proxy_axioms.pop(0)
            suffix = "_ax"
        axiom = remove_bool_args(beta_normalize(axiom), state.sig)
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

