"""TPTP first-order format: printing, parsing, prover-output handling.

Problems are printed one annotated formula per line, fully parenthesized,
so that parsing a printed problem reconstructs the exact same tree.
Prover verdicts are read from SZS status lines and unsatisfiable cores
from derivation output, both tolerantly: any output maps to a verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import ParseError, _unquote
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
    needs_quotes,
)


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


def _atom_name(name: str) -> str:
    if needs_quotes(name):
        escaped = name.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return name


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

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<punct><=>|=>|!=|[()\[\],.:!?~&|=])
    | (?P<lower>[a-z][A-Za-z0-9_]*)
    | (?P<upper>[A-Z_][A-Za-z0-9_]*)
    | (?P<quoted>'(?:[^'\\]|\\.)*')
    """,
    re.VERBOSE,
)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks: list[tuple[str, str, int, int]] = []
        line, bol = 1, 0
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if not m:
                raise ParseError(
                    f"unexpected character {text[self.pos]!r}",
                    line,
                    self.pos - bol + 1,
                )
            chunk = m.group(0)
            kind = m.lastgroup
            if kind != "ws":
                self.toks.append((kind, chunk, line, self.pos - bol + 1))
            nl = chunk.count("\n")
            if nl:
                line += nl
                bol = self.pos + chunk.rindex("\n") + 1
            self.pos = m.end()
        self.toks.append(("eof", "", line, self.pos - bol + 1))
        self.i = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> None:
        kind, val, line, col = self.next()
        if val != text:
            raise ParseError(f"expected {text!r}, found {val or 'end of input'!r}", line, col)

    def fail(self, msg: str):
        _, val, line, col = self.peek()
        raise ParseError(msg, line, col)


def _parse_name(lx: _Lexer) -> str:
    kind, val, line, col = lx.next()
    if kind == "lower":
        return val
    if kind == "quoted":
        return _unquote(val)
    raise ParseError(f"expected a name, found {val!r}", line, col)


def _parse_term(lx: _Lexer) -> FofTerm:
    kind, val, line, col = lx.next()
    if kind == "upper":
        return FofVar(val)
    if kind in ("lower", "quoted"):
        sym = _unquote(val) if kind == "quoted" else val
        if lx.peek()[1] == "(":
            lx.next()
            args = [_parse_term(lx)]
            while lx.peek()[1] == ",":
                lx.next()
                args.append(_parse_term(lx))
            lx.expect(")")
            return FofApp(sym, tuple(args))
        return FofApp(sym)
    raise ParseError(f"expected a term, found {val or 'end of input'!r}", line, col)


def _parse_unitary(lx: _Lexer) -> FofFormula:
    kind, val, line, col = lx.peek()
    if val == "~":
        lx.next()
        return Not(_parse_unitary(lx))
    if val in ("!", "?"):
        lx.next()
        lx.expect("[")
        vs = []
        k, v, ln, c = lx.next()
        if k != "upper":
            raise ParseError(f"expected a variable, found {v!r}", ln, c)
        vs.append(v)
        while lx.peek()[1] == ",":
            lx.next()
            k, v, ln, c = lx.next()
            if k != "upper":
                raise ParseError(f"expected a variable, found {v!r}", ln, c)
            vs.append(v)
        lx.expect("]")
        lx.expect(":")
        return Quant(val, tuple(vs), _parse_unitary(lx))
    if val == "(":
        lx.next()
        f = _parse_formula(lx)
        lx.expect(")")
        return f
    # An atom: a term possibly followed by = or !=.
    t = _parse_term(lx)
    nxt = lx.peek()[1]
    if nxt == "=":
        lx.next()
        return Eq(t, _parse_term(lx))
    if nxt == "!=":
        lx.next()
        return Not(Eq(t, _parse_term(lx)))
    if isinstance(t, FofVar):
        raise ParseError(f"variable {t.name} cannot stand as a formula", line, col)
    return Pred(t.sym, t.args)


_BINOPS = ("&", "|", "=>", "<=>")


def _parse_formula(lx: _Lexer) -> FofFormula:
    first = _parse_unitary(lx)
    op = lx.peek()[1]
    if op not in _BINOPS:
        return first
    parts = [first]
    while lx.peek()[1] == op:
        lx.next()
        parts.append(_parse_unitary(lx))
        nxt = lx.peek()[1]
        if nxt in _BINOPS and nxt != op:
            lx.fail(f"cannot mix {op!r} and {nxt!r} without parentheses")
        if op in ("=>", "<=>") and nxt == op:
            lx.fail(f"{op!r} is not associative; add parentheses")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = BinOp(op, p, out)
    return out


def parse_problem(text: str) -> FofProblem:
    """Parse a printed problem back; reverse mapping and helper markers
    are not part of the syntax and come back empty."""
    lx = _Lexer(text)
    axioms: list[tuple[str, FofFormula]] = []
    conjectures: list[tuple[str, FofFormula]] = []
    while lx.peek()[0] != "eof":
        kind, val, line, col = lx.next()
        if val != "fof":
            raise ParseError(f"expected 'fof', found {val!r}", line, col)
        lx.expect("(")
        name = _parse_name(lx)
        lx.expect(",")
        rkind, role, rline, rcol = lx.next()
        if role not in ("axiom", "hypothesis", "definition", "lemma", "conjecture"):
            raise ParseError(f"unsupported role {role!r}", rline, rcol)
        lx.expect(",")
        f = _parse_formula(lx)
        lx.expect(")")
        lx.expect(".")
        if role == "conjecture":
            conjectures.append((name, f))
        else:
            axioms.append((name, f))
    if len(conjectures) != 1:
        _, _, line, col = lx.peek()
        raise ParseError(
            f"expected exactly one conjecture, found {len(conjectures)}", line, col
        )
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
    mentioned: set[str] = set()
    for m in _CORE_FOF.finditer(output):
        mentioned.add(_unquote(m.group(1)) if m.group(1).startswith("'") else m.group(1))
    for m in _CORE_FILE.finditer(output):
        mentioned.add(_unquote(m.group(1)) if m.group(1).startswith("'") else m.group(1))
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
