"""TPTP first-order format: printing, parsing, prover-output handling.

Problems are printed one annotated formula per line, fully parenthesized,
so that parsing a printed problem reconstructs the exact same tree.  The
reader has no lexer or cursor of its own: it passes its token regex and
token kinds (with ``var`` for upper-case variables) to the shared
``corpus._Parser`` and reads ``fof( ... ).`` entries through its entry loop.
Prover verdicts are read from SZS status lines and unsatisfiable cores
from derivation output, both tolerantly: any output maps to a verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_lowercase, ascii_uppercase

from .corpus import _Parser, _tokens, _unquote
from .fof import (
    BinOp,
    Eq,
    FofApp,
    FofFormula,
    FofProblem,
    FofTerm,
    FofVar,
    Not,
    Pred,
    Quant,
)
from .hol import _quote


# ----------------------------------------------------------------- statuses


@dataclass(frozen=True)
class SzsStatus:
    kind: str
    detail: str = ""

    @property
    def proved(self) -> bool:
        return self.kind in ("Theorem", "Unsatisfiable")

    def __str__(self) -> str:
        if self.kind == "Error" and self.detail:
            return f"Error({self.detail})"
        return self.kind


THEOREM = SzsStatus("Theorem")
UNSATISFIABLE = SzsStatus("Unsatisfiable")
COUNTER_SATISFIABLE = SzsStatus("CounterSatisfiable")
SATISFIABLE = SzsStatus("Satisfiable")
TIMEOUT = SzsStatus("Timeout")
GAVE_UP = SzsStatus("GaveUp")


def error_status(detail: str) -> SzsStatus:
    return SzsStatus("Error", detail)


@dataclass(frozen=True)
class UnsatCore:
    """Premises a proof relied on, in submitted order.  When no proof
    could be read back, every premise is kept and complete is False."""

    premises: tuple[str, ...]
    complete: bool


# ----------------------------------------------------------------- printing


# A lower-case word is an atom as it stands; any other name is quoted.
_LOWER_WORD = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def _atom_name(name: str) -> str:
    return name if _LOWER_WORD.match(name) else _quote(name)


def print_term(t: FofTerm) -> str:
    if isinstance(t, FofVar):
        return t.name
    if not t.args:
        return _atom_name(t.sym)
    return f"{_atom_name(t.sym)}({','.join(print_term(a) for a in t.args)})"


def print_formula(f: FofFormula) -> str:
    if isinstance(f, Pred):
        if not f.args:
            return _atom_name(f.sym)
        return f"{_atom_name(f.sym)}({','.join(print_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{print_term(f.lhs)} = {print_term(f.rhs)}"
    # Negation and quantifier bodies must be unitary; binary formulas
    # print their own parentheses already.
    if isinstance(f, Not):
        if isinstance(f.body, Eq):
            return f"{print_term(f.body.lhs)} != {print_term(f.body.rhs)}"
        return f"~ {print_formula(f.body)}"
    if isinstance(f, BinOp):
        return f"({print_formula(f.lhs)} {f.op} {print_formula(f.rhs)})"
    vs = ",".join(f.vars)
    return f"{f.kind} [{vs}] : {print_formula(f.body)}"


def print_problem(problem: FofProblem) -> str:
    lines = []
    for name, f in problem.axioms:
        lines.append(f"fof({_atom_name(name)}, axiom, {print_formula(f)}).")
    gname, gf = problem.conjecture
    lines.append(f"fof({_atom_name(gname)}, conjecture, {print_formula(gf)}).")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ parsing

_TOKEN = _tokens(r"<=>|=>|!=|[()\[\],.:!?~&|=]|[A-Za-z_][A-Za-z0-9_]*|'(?:[^'\\]|\\.)*'")
_KINDS = {**dict.fromkeys(ascii_lowercase, "name"), **dict.fromkeys(ascii_uppercase + "_", "var")}
_KINDS.update({"'": "qname", "": "eof"})


def _parse_term(p: _Parser) -> FofTerm:
    t = p.peek()
    kind, val = p.kind(t), t[1]
    if kind == "var":
        p.take()
        return FofVar(val)
    if kind not in ("name", "qname"):
        raise p.fail(f"expected a term, found {val or 'end of input'!r}", t)
    sym = p.name()
    if not p.at_op("("):
        return FofApp(sym)
    p.take()
    args = p.commas(_parse_term)
    p.expect(")")
    return FofApp(sym, tuple(args))


def _parse_var(p: _Parser) -> str:
    t = p.take()
    if p.kind(t) != "var":
        raise p.fail(f"expected a variable, found {t[1]!r}", t)
    return t[1]


def _parse_unitary(p: _Parser) -> FofFormula:
    t = p.peek()
    val = t[1]
    if val == "~":
        p.take()
        return Not(_parse_unitary(p))
    if val in ("!", "?"):
        p.take()
        p.expect("[")
        vs = p.commas(_parse_var)
        p.expect("]")
        p.expect(":")
        return Quant(val, tuple(vs), _parse_unitary(p))
    if val == "(":
        p.take()
        f = _parse_formula(p)
        p.expect(")")
        return f
    # An atom: a term possibly followed by = or !=.
    lhs = _parse_term(p)
    nxt = p.peek()[1]
    if nxt == "=":
        p.take()
        return Eq(lhs, _parse_term(p))
    if nxt == "!=":
        p.take()
        return Not(Eq(lhs, _parse_term(p)))
    if isinstance(lhs, FofVar):
        raise p.fail(f"variable {lhs.name} cannot stand as a formula", t)
    return Pred(lhs.sym, lhs.args)


_BINOPS = ("&", "|", "=>", "<=>")


def _parse_formula(p: _Parser) -> FofFormula:
    first = _parse_unitary(p)
    op = p.peek()[1]
    if op not in _BINOPS:
        return first
    parts = [first]
    while p.at_op(op):
        p.take()
        parts.append(_parse_unitary(p))
        nxt = p.peek()[1]
        if nxt in _BINOPS and nxt != op:
            raise p.fail(f"cannot mix {op!r} and {nxt!r} without parentheses")
        if op in ("=>", "<=>") and nxt == op:
            raise p.fail(f"{op!r} is not associative; add parentheses")
    out = parts[-1]
    for q in reversed(parts[:-1]):
        out = BinOp(op, q, out)
    return out


def parse_problem(text: str) -> FofProblem:
    """Parse a printed problem back; reverse mapping and helper markers
    are not part of the syntax and come back empty."""
    p = _Parser(text, _TOKEN, _KINDS)
    axioms: list[tuple[str, FofFormula]] = []
    conjectures: list[tuple[str, FofFormula]] = []
    for _ in p.entries("fof"):
        name = p.name()
        p.expect(",")
        t = p.take()
        role = t[1]
        if role not in ("axiom", "hypothesis", "definition", "lemma", "conjecture"):
            raise p.fail(f"unsupported role {role!r}", t)
        p.expect(",")
        f = _parse_formula(p)
        (conjectures if role == "conjecture" else axioms).append((name, f))
    if len(conjectures) != 1:
        raise p.fail(f"expected exactly one conjecture, found {len(conjectures)}")
    return FofProblem(
        axioms=tuple(axioms),
        conjecture=conjectures[0],
        reverse={},
        helpers=frozenset(),
    )


# ------------------------------------------------------------ prover output

_SZS = re.compile(r"SZS\s+status\s+(\w+)")

_SZS_MAP = {
    "Theorem": THEOREM,
    "Unsatisfiable": UNSATISFIABLE,
    "ContradictoryAxioms": UNSATISFIABLE,
    "CounterSatisfiable": COUNTER_SATISFIABLE,
    "Satisfiable": SATISFIABLE,
    "Timeout": TIMEOUT,
    "ResourceOut": TIMEOUT,
    "GaveUp": GAVE_UP,
    "Unknown": GAVE_UP,
}


def parse_szs(output: str, exit_code: int = 0, timed_out: bool = False) -> SzsStatus:
    """Total: every combination of output and exit condition maps to a
    verdict, never an exception."""
    m = _SZS.search(output)
    if m:
        word = m.group(1)
        if word in _SZS_MAP:
            return _SZS_MAP[word]
        return error_status(f"unexpected SZS status {word}")
    if timed_out:
        return TIMEOUT
    if exit_code != 0:
        return error_status(f"exit code {exit_code} without SZS status")
    return GAVE_UP


_CORE_FOF = re.compile(
    r"fof\(\s*([a-z][A-Za-z0-9_]*|'(?:[^'\\]|\\.)*')\s*,"
    r"\s*(axiom|hypothesis|conjecture|negated_conjecture)\b"
)
_CORE_FILE = re.compile(r"file\([^()]*,\s*([a-z][A-Za-z0-9_]*|'(?:[^'\\]|\\.)*')\s*\)")


def extract_core(output: str, problem: FofProblem) -> UnsatCore:
    """Premise names a derivation used, read syntactically from the
    prover's output and mapped back to source names.  Helper axioms
    (lifted definitions, proxy bridges) are dropped.  If the output shows
    no usable derivation, all premises are returned with complete=False."""
    found = [m.group(1) for rx in (_CORE_FOF, _CORE_FILE) for m in rx.finditer(output)]
    mentioned = {_unquote(n) if n.startswith("'") else n for n in found}
    axiom_names = [name for name, _ in problem.axioms]
    if not mentioned:
        premises = tuple(
            problem.reverse.get(n, n)
            for n in axiom_names
            if n not in problem.helpers
        )
        return UnsatCore(premises=premises, complete=False)
    used = [
        n
        for n in axiom_names
        if n in mentioned and n not in problem.helpers
    ]
    return UnsatCore(
        premises=tuple(problem.reverse.get(n, n) for n in used), complete=True
    )
