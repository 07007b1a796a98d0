"""Line-oriented theorem export format and the corpus model built from it.

A corpus directory holds one ``corpus.thy`` file naming the theories in
build order, one ``<theory>.tt`` file per theory with the exported
declarations and theorems, and optional ``<theory>.deps`` sidecars with
per-conjunct dependencies.  Entry syntax::

    tt(list, ty, $t > $t).
    tt(HD, ty, ![A:$t]: (list A > A)).
    tt(HD0, ax, ![n:int, t:(list int)]: ((HD int) ((CONS int) n t) = n)).

Roles are ``ty`` (type constructor or constant declaration), ``ax``
(theorem) and ``conj`` (conjecture).  Application is juxtaposition, the
type arguments of polymorphic constants are explicit, `` > `` is the
right-associative type arrow, and ``![A:$t]:`` binds a type variable.

Loading ends by numbering every conjunct in linear order: theories in
build order, a theory's theorems in naming order, a theorem's conjuncts
in order.  Every dependency must precede its theorem.  A theorem, and a
theory, is then one span ``(first number, one past last)``, and
``accessible_set`` answers each relation as sorted, disjoint spans:
``exact`` the theorems the target's recorded dependencies name,
``transitive`` those and their dependencies' closure, ``linear``
everything before the target's first conjunct, and ``loaded`` that
prefix cut down to the target's ancestor theories and its own.  A fresh
goal, with no target, may use everything.

The HOL reader is one pass over the tokens: every grammar rule returns a
term with its type, or a type, and names resolve against the signature
and the binders in scope as they are read.  A ``$t`` binder scopes over
its own body and the binds after it in its group, like a term binder.
The reader is hammerkit's only type checker: it checks each application
as it builds it and raises a ParseError at the first one that does not
check, worded by ``hol.ill_typed`` and placed at the statement's first
token.  An undeclared name or type constructor is placed at its token.

Terms, types and names print through ``hammerkit.hol``'s printer, the one
HOL printer; ``print_tt`` here adds only the entry syntax around it.

Every text format hammerkit reads (``.thy``, ``.tt``, ``.deps``, goals
and TPTP problems) goes through the one lexer ``_lex`` and the one token
cursor ``_Parser`` defined here; ``_Parser.entries`` reads
``head( ... ).`` entries to the end of input.  A format passes in its
token regex, built by ``_tokens``, and the kinds of its tokens by their
first character: ``name``, ``qname``, ``tyt`` (``$t``) for HOL, ``var``
for TPTP variables, and ``op`` for anything else.  ``_lex`` is one
``findall``: each token is a ``(space, text)`` pair, the whitespace and
comments before it and its text, and an empty text ends the input.  A
ParseError's line and column are computed only when it is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from string import ascii_letters, digits
from typing import Iterable, Sequence, Union

from .hol import (
    _BARE_NAME,
    Abs,
    App,
    BOOL,
    Const,
    ConstDecl,
    HolTerm,
    HolType,
    Signature,
    TyApp,
    TyVar,
    Var,
    _ty,
    ill_typed,
    is_fun,
    mk_const_app,
    mk_eq,
    mk_exists,
    mk_forall,
    mk_fun,
    show_name,
    split_conjuncts,
    term_text,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        super().__init__(msg if line is None else f"line {line}, column {col}: {msg}")
        self.msg = msg  # without the position
        self.line = line
        self.col = col


class UnknownTheorem(ValueError):
    pass


class CycleDetected(ParseError):
    """A dependency or ancestor that does not precede its user: bad input."""


# ------------------------------------------------------------------- lexing

def _tokens(alternatives: str) -> re.Pattern:
    """A format's token regex: the whitespace and comments before a token,
    then the token, which is empty at the end of the input and at a
    character that no alternative matches."""
    return re.compile(rf"((?:\s+|%[^\n]*)*)({alternatives}|)")


_TOKEN = _tokens(rf"\$t|{_BARE_NAME.pattern}|'(?:[^'\\\n]|\\.)*'|=>|[=>!?^~&|()\[\],:.]")
_NAME_START = ascii_letters + digits + "_"
_KINDS = {**dict.fromkeys(_NAME_START, "name"), "'": "qname", "$": "tyt", "": "eof"}
_ATOM_START = frozenset(_NAME_START + "'$(")


def _unquote(text: str) -> str:
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _offset(toks: list[tuple[str, str]], i: int) -> int:
    """Where the text of token ``i`` starts."""
    return sum(map(len, chain.from_iterable(toks[:i]))) + len(toks[i][0])


def _lex(text: str, pattern: re.Pattern) -> list[tuple[str, str]]:
    """(space, text) tokens, ending with one or two (space, "") tokens.
    They cover the text unless some character matched no token; the first
    empty token stands at the first such character."""
    toks = pattern.findall(text)
    if sum(map(len, chain.from_iterable(toks))) != len(text):
        pos = _offset(toks, next(i for i, t in enumerate(toks) if not t[1]))
        raise ParseError(f"unexpected character {text[pos]!r}", *_position(text, pos))
    return toks


class _Parser:
    """A cursor over the tokens of one text.  Grammars read through it;
    a format passes in its token regex and the kinds of its tokens by
    their first character."""

    def __init__(self, text: str, pattern: re.Pattern = _TOKEN, kinds: dict = _KINDS):
        self.text = text
        self.toks = _lex(text, pattern)
        self.kinds = kinds
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.pos]

    def take(self) -> tuple[str, str]:
        t = self.toks[self.pos]
        if t[1]:
            self.pos += 1
        return t

    def kind(self, tok: tuple[str, str]) -> str:
        return self.kinds.get(tok[1][:1], "op")

    def fail(self, msg: str, tok: tuple[str, str] | None = None) -> ParseError:
        """An error at ``tok``, by default the next token."""
        tok = tok or self.peek()
        i = next(i for i, t in enumerate(self.toks) if t is tok)
        return ParseError(msg, *_position(self.text, _offset(self.toks, i)))

    # Operators are punctuation and names are words or quoted, so a token's
    # text alone tells an operator apart.
    def at_op(self, op: str) -> bool:
        return self.toks[self.pos][1] == op

    def expect(self, op: str) -> None:
        t = self.toks[self.pos]
        if t[1] != op:
            raise self.fail(f"expected {op!r}, found {t[1] or 'end of input'!r}", t)
        self.pos += 1

    def name(self) -> str:
        t = self.take()
        kind = self.kind(t)
        if kind == "name":
            return t[1]
        if kind == "qname":
            return _unquote(t[1])
        raise self.fail(f"expected a name, found {t[1]!r}", t)

    def commas(self, item) -> list:
        """``item (, item)*``, each read by ``item(self)``."""
        out = [item(self)]
        while self.at_op(","):
            self.take()
            out.append(item(self))
        return out

    def entries(self, *heads: str):
        """Read ``head( ... ).`` entries to the end of input, yielding each
        head after its opening parenthesis; the caller reads the arguments."""
        while self.toks[self.pos][1]:
            t = self.peek()
            head = self.name()
            if head not in heads:
                raise self.fail(f"expected a {' or '.join(heads)} entry, found {head!r}", t)
            self.expect("(")
            yield head
            self.expect(")")
            self.expect(".")


# The HOL grammar: a precedence ladder, loosest first.  It is the one type
# checker: a term rule returns the term and its type, and checks each
# application as soon as it has read the argument, so the first ill-typed
# application in reading order is the one named.  A type error is placed
# at the start of the statement, ``_Hol.stmt``.

Typed = tuple[HolTerm, HolType]

_BOOL_FN = mk_fun(BOOL, BOOL)  # the type of ~, and of a connective given one operand


class _Hol(_Parser):
    """A cursor with a scope: the signature, the bound term variables and
    the bound type variables, and the first token of the statement being
    read."""

    def __init__(self, text: str, sig: Signature):
        super().__init__(text)
        self.sig = sig
        self.vars: dict[str, Var] = {}
        self.tyvars: set[str] = set()
        self.stmt = self.peek()

    def at_atom(self, ahead: int = 0) -> bool:
        return self.toks[self.pos + ahead][1][:1] in _ATOM_START

    def arity(self, name: str, tok: tuple[str, str]) -> int:
        """The arity of the type constructor ``name``, read at ``tok``."""
        if name not in self.sig.types:
            raise self.fail(f"undeclared type constructor: {name}", tok)
        return self.sig.types[name]

    def type_error(self, fun: HolTerm, fty: HolType, arg: HolTerm, aty: HolType) -> ParseError:
        """``fun : fty`` does not apply to ``arg : aty``."""
        return self.fail(ill_typed(fun, fty, arg, aty), self.stmt)


def _connective(p: _Hol, op: str, operand) -> Typed:
    """operand (op operand)*, folded to the right.  An operand is checked as
    soon as the token after it shows whether it is the last one."""
    t, ty = operand(p)
    left: list[HolTerm] = []
    while p.at_op(op):
        p.take()
        if ty != BOOL:
            raise p.type_error(Const(op), mk_fun(BOOL, _BOOL_FN), t, ty)
        left.append(t)
        t, ty = operand(p)
    if not left:
        return t, ty
    if ty != BOOL:
        raise p.type_error(App(Const(op), left[-1]), _BOOL_FN, t, ty)
    while left:
        t = mk_const_app(op, (), [left.pop(), t])
    return t, BOOL


def _expr(p: _Hol) -> Typed:
    return _connective(p, "=>", _disj)


def _disj(p: _Hol) -> Typed:
    return _connective(p, "|", _conj)


def _conj(p: _Hol) -> Typed:
    return _connective(p, "&", _neg)


_BINDERS = {"!": mk_forall, "?": mk_exists, "^": Abs}


def _neg(p: _Hol) -> Typed:
    if p.at_op("~"):
        p.take()
        t, ty = _neg(p)
        if ty != BOOL:
            raise p.type_error(Const("~"), _BOOL_FN, t, ty)
        return App(Const("~"), t), BOOL
    if p.peek()[1] in _BINDERS:
        return _binder(p)
    return _eq(p)


def _binder(p: _Hol) -> Typed:
    """A binder group and its body; the bound names go out of scope after."""
    kind = p.take()[1]
    scope = p.vars.copy(), p.tyvars.copy()
    binds = _group(p, kind)
    body, ty = _neg(p)
    p.vars, p.tyvars = scope
    for v in reversed(binds):
        if not isinstance(v, Var):
            continue
        if kind == "^":
            ty = mk_fun(v.ty, ty)
        elif ty != BOOL:
            q = Const(kind, (v.ty,))
            raise p.type_error(q, p.sig.const_type(q), Abs(v, body), mk_fun(v.ty, ty))
        body = _BINDERS[kind](v, body)
    return body, ty


def _group(p: _Hol, kind: str, decl: str | None = None) -> list[Var | str]:
    """``[bind, ...]:`` after the binder symbol ``kind``."""
    p.expect("[")
    binds = p.commas(lambda p: _bind(p, kind, decl))
    p.expect("]")
    p.expect(":")
    return binds


def _bind(p: _Hol, kind: str, decl: str | None) -> Var | str:
    """``name:$t`` brings a type variable into scope and returns its name;
    ``name:type`` brings a term variable into scope and returns it, unless
    it is read in the declaration of the constant ``decl``."""
    name = p.name()
    p.expect(":")
    tok = p.peek()
    if tok[1] != "$t":
        if decl is not None:
            raise p.fail(f"constant declaration {decl} binds a term variable", tok)
        v = p.vars[name] = Var(name, _type(p))
        return v
    p.take()
    if kind != "!":
        raise p.fail("a $t binder must use !", tok)
    p.tyvars.add(name)
    return name


def _eq(p: _Hol) -> Typed:
    l, lty = _app(p)
    if not p.at_op("="):
        return l, lty
    p.take()
    r, rty = _app(p)
    if p.at_op("="):
        raise p.fail("chained = needs parentheses")
    if rty != lty:
        raise p.type_error(mk_const_app("=", (lty,), [l]), mk_fun(lty, BOOL), r, rty)
    return mk_eq(l, r, lty), BOOL


def _app(p: _Hol) -> Typed:
    """Application by juxtaposition."""
    t, ty = _atom(p, head=True)
    while p.at_atom():
        a, aty = _atom(p)
        if not (is_fun(ty) and ty.args[0] == aty):
            raise p.type_error(t, ty, a, aty)
        t, ty = App(t, a), ty.args[1]
    if p.at_op(">"):
        raise p.fail("type arrow in a term")
    return t, ty


def _atom(p: _Hol, head: bool = False) -> Typed:
    tok = p.take()
    kind, value = p.kind(tok), tok[1]
    if kind == "name" or kind == "qname":
        return _named(p, value if kind == "name" else _unquote(value), tok, head)
    if kind == "tyt":
        raise p.fail("$t outside a binder annotation", tok)
    if value != "(":
        raise p.fail(f"unexpected {value!r}", tok)
    t = _expr(p)
    p.expect(")")
    return t


def _named(p: _Hol, name: str, tok: tuple[str, str], head: bool) -> Typed:
    """A bound variable or a constant.  A polymorphic constant at the head
    of an application reads its type arguments, one type atom each."""
    if name in p.vars:
        return p.vars[name], p.vars[name].ty
    decl = p.sig.consts.get(name)
    if decl is None:
        raise p.fail(f"undeclared name: {name}", tok)
    k = len(decl.tyvars)
    if k == 0:
        return Const(name), decl.ty
    if not (head and p.at_atom()):
        raise p.fail(f"polymorphic constant {name} needs {k} explicit type arguments", tok)
    inst = []
    for _ in range(k):
        if not p.at_atom():
            raise p.fail(f"constant {name} expects {k} explicit type arguments", tok)
        try:
            inst.append(_ty_atom(p))
        except ParseError as e:
            raise p.fail(
                f"constant {name} expects {k} explicit type "
                f"arguments before its term arguments ({e.msg})",
                tok,
            ) from None
    c = Const(name, tuple(inst))
    return c, p.sig.const_type(c)


def _type(p: _Hol) -> HolType:
    """Type applications joined by the right-associative arrow ``>``."""
    parts = [_ty_app(p)]
    while p.at_op(">"):
        p.take()
        parts.append(_ty_app(p))
    ty = parts.pop()
    while parts:
        ty = mk_fun(parts.pop(), ty)
    return ty


def _ty_app(p: _Hol) -> HolType:
    """A type atom, or a type constructor applied to type atoms."""
    tok = p.peek()
    if p.kind(tok) not in ("name", "qname") or not p.at_atom(1):
        ty = _ty_atom(p)
        if p.at_atom():
            raise p.fail("malformed type application", tok)
        return ty
    name = p.name()
    if name in p.tyvars:
        raise p.fail("malformed type application", tok)
    arity = p.arity(name, tok)
    args = []
    while p.at_atom():
        args.append(_ty_atom(p))
    if len(args) != arity:
        raise p.fail(
            f"type constructor {name} has arity {arity}, applied to {len(args)}", tok
        )
    return TyApp(name, tuple(args))


def _ty_atom(p: _Hol) -> HolType:
    """A type variable, a nullary type constructor or a parenthesized type."""
    tok = p.take()
    if tok[1] == "(":
        ty = _type(p)
        p.expect(")")
        return ty
    kind = p.kind(tok)
    if kind not in ("name", "qname"):
        raise p.fail("expected a type", tok)
    name = tok[1] if kind == "name" else _unquote(tok[1])
    if name in p.tyvars:
        return TyVar(name)
    arity = p.arity(name, tok)
    if arity != 0:
        raise p.fail(f"type constructor {name} expects {arity} arguments", tok)
    return TyApp(name)


# ------------------------------------------------------------------ entries


class Role(Enum):
    TYPE_DECL = "type"
    CONST_DECL = "const"
    THEOREM = "theorem"
    CONJECTURE = "conjecture"


@dataclass(frozen=True)
class ObjectEntry:
    """One exported object.

    ``formula`` is the declared arity for a type constructor, a ConstDecl
    for a constant, and the statement term for a theorem or conjecture.
    """

    name: str
    role: Role
    formula: Union[int, ConstDecl, HolTerm]


_ROLE_TEXT = {
    Role.TYPE_DECL: "ty",
    Role.CONST_DECL: "ty",
    Role.THEOREM: "ax",
    Role.CONJECTURE: "conj",
}


def _declaration(p: _Hol, name: str) -> tuple[Role, int | ConstDecl]:
    """A ``ty`` payload, declared in the signature: a kind ``$t > ... > $t``
    for a type constructor, or ``![A:$t, ...]:`` groups and a type for a
    constant."""
    if p.at_op("$t"):
        p.take()
        arity = 0
        while p.at_op(">"):
            p.take()
            tok = p.take()
            if tok[1] != "$t":
                raise p.fail(f"malformed kind in declaration of {name}", tok)
            arity += 1
        if not p.at_op(")"):
            raise p.fail(f"malformed kind in declaration of {name}")
        p.sig.declare_type(name, arity)
        return Role.TYPE_DECL, arity
    tyvars: list[str] = []
    while p.peek()[1] in _BINDERS:
        tyvars += _group(p, p.take()[1], name)
    ty = _type(p)
    p.tyvars.clear()
    p.sig.declare_const(name, tuple(tyvars), ty)
    return Role.CONST_DECL, ConstDecl(tuple(tyvars), ty)


def parse_tt(text: str, signature: Signature) -> list[ObjectEntry]:
    """Parse a .tt file.  Declarations are added to ``signature`` in place."""
    p = _Hol(text, signature)
    entries: list[ObjectEntry] = []
    for _ in p.entries("tt"):
        name = p.name()
        p.expect(",")
        tok = p.peek()
        tag = p.name()
        if tag not in ("ty", "ax", "conj"):
            raise p.fail(f"in entry {name}: unknown role {tag!r}", tok)
        p.expect(",")
        if tag == "ty":
            role, formula = _declaration(p, name)
        else:
            role = Role.THEOREM if tag == "ax" else Role.CONJECTURE
            formula = _statement(p, name)
        entries.append(ObjectEntry(name, role, formula))
    return entries


def _statement(p: _Hol, what: str) -> HolTerm:
    """A formula that must be a statement; ``what`` names it in the error."""
    p.stmt = p.peek()
    term, ty = _expr(p)
    if ty != BOOL:
        raise p.fail(f"{what} is not a boolean formula", p.stmt)
    return term


# ----------------------------------------------------------------- printing


def print_tt(entry: ObjectEntry) -> str:
    """One canonical line, for every entry ``parse_tt`` accepts: read back
    with the same signature, it is that entry again and prints the same
    line.  The one exception is a binder that reuses the name of an
    enclosing binder, a free variable or a constant: it comes back renamed
    with primes, and the line it prints is the same."""
    if entry.role is Role.TYPE_DECL:
        payload = " > ".join(["$t"] * (entry.formula + 1))
    elif entry.role is Role.CONST_DECL:
        decl = entry.formula
        if decl.tyvars:
            group = "![" + ", ".join(f"{v}:$t" for v in decl.tyvars) + "]:"
            payload = f"{group} {_ty(decl.ty, 2)}"
        else:
            payload = _ty(decl.ty, 0)
    else:
        payload = term_text(entry.formula)
    role = _ROLE_TEXT[entry.role]
    return f"tt({show_name(entry.name)}, {role}, {payload})."


# ------------------------------------------------------------------- corpus


@dataclass(frozen=True, order=True)
class TheoremId:
    theory: str
    seq: int


@dataclass(frozen=True, order=True)
class ConjunctId:
    theorem: TheoremId
    index: int  # 1-based


@dataclass(frozen=True)
class TheoremEntry:
    id: TheoremId
    name: str
    statement: HolTerm
    conjuncts: tuple[HolTerm, ...]
    dependencies: tuple[frozenset[ConjunctId], ...]
    is_definition: bool = False

    def conjunct_ids(self) -> list[ConjunctId]:
        return [ConjunctId(self.id, k + 1) for k in range(len(self.conjuncts))]


class AccessRelation(Enum):
    EXACT_DEPS = "exact"
    TRANSITIVE_DEPS = "transitive"
    LOADED_THEORIES = "loaded"
    LINEAR_ORDER = "linear"


class Corpus:
    """Signature, theories in build order, the theorem table, and the
    linear numbering of its conjuncts.

    Built single-threaded by the loader, then treated as frozen.
    """

    def __init__(self) -> None:
        self.signature = Signature()
        self.theories: list[str] = []
        self.ancestors: dict[str, tuple[str, ...]] = {}
        self.theorems: dict[TheoremId, TheoremEntry] = {}
        self.by_name: dict[str, TheoremId] = {}
        # The numbering, set by ``_number`` when loading ends: each
        # theorem's and each theory's (first number, one past last), in
        # linear order, each theory's strict ancestors' spans merged, and
        # how many conjuncts there are.
        self.spans: dict[TheoremId, tuple[int, int]] = {}
        self.theory_spans: dict[str, tuple[int, int]] = {}
        self.ancestor_spans: dict[str, tuple[tuple[int, int], ...]] = {}
        self.size = 0
        # The learner's dependencies and feature index for this corpus,
        # built by ``harness`` on the first ranking.
        self.learner: object | None = None

    def theorem(self, tid: TheoremId) -> TheoremEntry:
        try:
            return self.theorems[tid]
        except KeyError:
            raise UnknownTheorem(f"no theorem {tid.theory}#{tid.seq}") from None

    def theorem_named(self, name: str) -> TheoremEntry:
        try:
            return self.theorems[self.by_name[name]]
        except KeyError:
            raise UnknownTheorem(f"no theorem named {name}") from None

    def conjunct_statement(self, cid: ConjunctId) -> HolTerm:
        entry = self.theorem(cid.theorem)
        if not 1 <= cid.index <= len(entry.conjuncts):
            raise UnknownTheorem(f"{entry.name} has no conjunct {cid.index}")
        return entry.conjuncts[cid.index - 1]

    def conjunct_label(self, cid: ConjunctId) -> str:
        return f"{self.theorem(cid.theorem).name}_c{cid.index}"

    def exact_deps(self, tid: TheoremId) -> frozenset[TheoremId]:
        entry = self.theorem(tid)
        return frozenset(
            c.theorem for deps in entry.dependencies for c in deps
        )

    def order(self) -> list[TheoremId]:
        """The theorems in linear order."""
        return list(self.spans)

    def number(self, cid: ConjunctId) -> int:
        """The conjunct's number in linear order."""
        self.theorem(cid.theorem)  # an unknown theorem is an error
        return self.spans[cid.theorem][0] + cid.index - 1


def _number(corpus: Corpus) -> None:
    """Number the conjuncts in linear order (theories in build order, a
    theory's theorems in naming order, which is the order the loader
    added them in) and record the spans; checks that every dependency
    precedes its theorem."""
    n = 0
    for tid, entry in corpus.theorems.items():
        for cid in chain.from_iterable(entry.dependencies):
            if cid.theorem not in corpus.spans:
                raise CycleDetected(
                    f"{entry.name} depends on "
                    f"{corpus.theorem(cid.theorem).name}, which does not "
                    f"precede it"
                )
        corpus.spans[tid] = (n, n + len(entry.conjuncts))
        lo = corpus.theory_spans.get(tid.theory, (n,))[0]
        n += len(entry.conjuncts)
        corpus.theory_spans[tid.theory] = (lo, n)
    corpus.size = n
    closure: dict[str, set[str]] = {}
    for theory in corpus.theories:
        strict = closure[theory] = set().union(
            *(closure[a] | {a} for a in corpus.ancestors[theory])
        )
        corpus.ancestor_spans[theory] = tuple(
            _merge(corpus.theory_spans[t] for t in strict if t in corpus.theory_spans)
        )


def _merge(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Spans sorted, with empty ones dropped and touching ones joined."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if lo >= hi:
            continue
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def accessible_set(
    corpus: Corpus, target: TheoremId | None, relation: AccessRelation
) -> Sequence[tuple[int, int]]:
    """The numbers of the conjuncts assumed available when attacking
    ``target``, as sorted, disjoint, non-empty spans.  A fresh goal (no
    target) sits past the end of the corpus: everything is accessible."""
    if not isinstance(relation, AccessRelation):
        raise ValueError(f"unknown relation {relation!r}")
    if target is None:
        return [(0, corpus.size)] if corpus.size else []
    corpus.theorem(target)  # an unknown target is an error
    first = corpus.spans[target][0]
    if relation is AccessRelation.LINEAR_ORDER:
        return [(0, first)] if first else []
    if relation is AccessRelation.LOADED_THEORIES:
        # Ancestors precede the theory: its own prefix goes last.
        spans, lo = corpus.ancestor_spans[target.theory], corpus.theory_spans[target.theory][0]
        if spans and spans[-1][1] == lo:
            spans, lo = spans[:-1], spans[-1][0]
        return spans if lo == first else (*spans, (lo, first))
    tids = set(corpus.exact_deps(target))
    if relation is AccessRelation.TRANSITIVE_DEPS:
        todo = list(tids)
        while todo:
            for dep in corpus.exact_deps(todo.pop()) - tids:
                tids.add(dep)
                todo.append(dep)
    return _merge(corpus.spans[t] for t in tids)


def rename_overwritten(
    events: Sequence[tuple[str, TheoremId]]
) -> dict[TheoremId, str]:
    """Final names for a chronological naming sequence: the last bearer of a
    name keeps it, earlier bearers become name~1, name~2, ..."""
    last: dict[str, TheoremId] = {name: tid for name, tid in events}
    taken = set(last.keys())
    mapping: dict[TheoremId, str] = {}
    gen: dict[str, int] = {}
    for name, tid in events:
        if last[name] == tid:
            mapping[tid] = name
            continue
        k = gen.get(name, 0) + 1
        while f"{name}~{k}" in taken:
            k += 1
        gen[name] = k
        mapping[tid] = f"{name}~{k}"
        taken.add(f"{name}~{k}")
    return mapping


# ----------------------------------------------------------------- sidecars


def parse_thy(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """theory(NAME, [ANCESTOR, ...]). lines, in build order."""
    p = _Parser(text)
    out = []
    for _ in p.entries("theory"):
        name = p.name()
        p.expect(",")
        out.append((name, tuple(_parse_name_list(p))))
    return out


def _parse_name_list(p: _Parser) -> list[str]:
    p.expect("[")
    names = [] if p.at_op("]") else p.commas(_Parser.name)
    p.expect("]")
    return names


def parse_deps(text: str) -> list[tuple[str, list[str]]]:
    """deps(NAME_cK, [DEP, ...]). lines; names are unresolved strings."""
    p = _Parser(text)
    out = []
    for _ in p.entries("deps"):
        key = p.name()
        p.expect(",")
        out.append((key, _parse_name_list(p)))
    return out


_CONJ_SUFFIX = re.compile(r"^(.*)_c([0-9]+)$")


def resolve_dep_name(corpus: Corpus, name: str) -> tuple[TheoremId, int | None]:
    """A dependency string: a theorem name, or name_cK for one conjunct.
    Returns (id, index) with index None meaning the whole theorem.  A name
    that reads both ways is refused."""
    m = _CONJ_SUFFIX.match(name)
    base = corpus.by_name.get(m.group(1)) if m else None
    k = int(m.group(2)) if base is not None else 0
    fits = base is not None and 1 <= k <= len(corpus.theorem(base).conjuncts)
    if name in corpus.by_name:
        if fits:
            raise ParseError(
                f"dependency {name} names both the theorem {name} "
                f"and conjunct {k} of {m.group(1)}"
            )
        return corpus.by_name[name], None
    if base is None:
        raise UnknownTheorem(f"unknown dependency name: {name}")
    if not fits:
        raise UnknownTheorem(f"{m.group(1)} has no conjunct {k}")
    return base, k


def _expand_dep(corpus: Corpus, name: str) -> frozenset[ConjunctId]:
    tid, k = resolve_dep_name(corpus, name)
    if k is not None:
        return frozenset([ConjunctId(tid, k)])
    return frozenset(corpus.theorem(tid).conjunct_ids())


# ------------------------------------------------------------------- loader


def _ingest_theory(corpus: Corpus, theory: str, entries: list[ObjectEntry]) -> None:
    theorems = [
        (TheoremId(theory, i), e)
        for i, e in enumerate(e for e in entries if e.role is Role.THEOREM)
    ]
    # Within a theory a later theorem overwrites an earlier one; a name
    # taken in another theory would make two targets share one label.
    names = rename_overwritten([(e.name, tid) for tid, e in theorems])
    for tid, e in theorems:
        if names[tid] in corpus.by_name:
            other = corpus.by_name[names[tid]].theory
            raise ParseError(f"theorem {names[tid]} of theory {theory} is also in theory {other}")
        conjs = tuple(split_conjuncts(e.formula))
        corpus.theorems[tid] = TheoremEntry(
            id=tid,
            name=names[tid],
            statement=e.formula,
            conjuncts=conjs,
            dependencies=tuple(frozenset() for _ in conjs),
            is_definition=e.name.endswith(("_def", "_DEF")),
        )
        corpus.by_name[names[tid]] = tid


def _ingest_deps(corpus: Corpus, lines: list[tuple[str, list[str]]]) -> None:
    # Order violations surface through _number once loading finishes.
    updated: dict[TheoremId, list[frozenset[ConjunctId]]] = {}
    for key, vals in lines:
        tid, k = resolve_dep_name(corpus, key)
        entry = corpus.theorem(tid)
        resolved = frozenset(c for v in vals for c in _expand_dep(corpus, v))
        indices = [k] if k is not None else range(1, len(entry.conjuncts) + 1)
        deps = updated.setdefault(tid, list(entry.dependencies))
        for i in indices:
            deps[i - 1] = deps[i - 1] | resolved
    for tid, deps in updated.items():
        corpus.theorems[tid] = replace(corpus.theorems[tid], dependencies=tuple(deps))


def _build_corpus(
    theories: list[tuple[str, tuple[str, ...]]],
    theory_files: dict[str, tuple[str, str | None]],
) -> Corpus:
    """A corpus from the parsed theory list, in build order, and a map
    from each theory's name to its .tt text and optional .deps text."""
    corpus = Corpus()
    for theory, ancs in theories:
        if theory in corpus.ancestors:
            raise ParseError(f"duplicate theory {theory}")
        for a in ancs:
            if a not in corpus.ancestors:
                raise CycleDetected(
                    f"theory {theory} lists {a}, which is not built yet"
                )
        corpus.theories.append(theory)
        corpus.ancestors[theory] = tuple(ancs)
        if theory not in theory_files:
            raise ParseError(f"missing .tt file for theory {theory}")
        tt_text, deps_text = theory_files[theory]
        entries = parse_tt(tt_text, corpus.signature)
        _ingest_theory(corpus, theory, entries)
        if deps_text is not None:
            _ingest_deps(corpus, parse_deps(deps_text))
    _number(corpus)
    return corpus


def load_corpus(root: str | Path) -> Corpus:
    """Load a corpus directory: corpus.thy plus <theory>.tt/.deps files."""
    root = Path(root)
    thy_path = root / "corpus.thy"
    if not thy_path.exists():
        raise ParseError(f"no corpus.thy in {root}")
    theories = parse_thy(thy_path.read_text(encoding="utf-8"))
    files: dict[str, tuple[str, str | None]] = {}
    for theory, _ in theories:
        tt = root / f"{theory}.tt"
        if not tt.exists():
            raise ParseError(f"missing {tt}")
        deps = root / f"{theory}.deps"
        files[theory] = (
            tt.read_text(encoding="utf-8"),
            deps.read_text(encoding="utf-8") if deps.exists() else None,
        )
    return _build_corpus(theories, files)


def parse_goal(text: str, sig: Signature) -> tuple[str, HolTerm]:
    """A goal: either a full tt(name, conj, ...) entry or a bare formula."""
    stripped = text.strip()
    if stripped.startswith("tt("):
        entries = parse_tt(stripped if stripped.endswith(".") else stripped + ".", sig.copy())
        if len(entries) != 1 or entries[0].role not in (
            Role.CONJECTURE,
            Role.THEOREM,
        ):
            raise ParseError("goal file must hold exactly one ax/conj entry")
        return entries[0].name, entries[0].formula
    p = _Hol(stripped, sig)
    term = _statement(p, "goal")
    if p.at_op("."):
        p.take()
    if p.peek()[1]:
        raise p.fail("trailing input after the goal formula")
    return "goal", term
