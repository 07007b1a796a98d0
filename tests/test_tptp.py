"""Problem printing, parsing back, SZS verdicts, core extraction."""

import random

import pytest

from hammerkit.corpus import ParseError
from hammerkit.fof import BinOp, Eq, FofApp, FofProblem, FofVar, Not, Pred, Quant
from hammerkit.tptp import (
    COUNTER_SATISFIABLE,
    GAVE_UP,
    THEOREM,
    TIMEOUT,
    UNSATISFIABLE,
    extract_core,
    parse_problem,
    parse_szs,
    print_formula,
    print_problem,
)

X = FofVar("X")
Y = FofVar("Y")


def problem(axioms, conjecture, reverse=None, helpers=()):
    return FofProblem(
        axioms=tuple(axioms),
        conjecture=conjecture,
        reverse=reverse or {},
        helpers=frozenset(helpers),
    )


# ----------------------------------------------------------------- printing


def test_print_formula_shapes():
    f = Quant("!", ("X",), BinOp("=>", Pred("p", (X,)), Eq(X, FofApp("c", ()))))
    assert print_formula(f) == "! [X] : (p(X) => X = c)"
    assert print_formula(Not(Pred("q", ()))) == "~ q"
    assert (
        print_formula(BinOp("&", Pred("p", ()), BinOp("|", Pred("q", ()), Pred("r", ()))))
        == "(p & (q | r))"
    )


def test_print_quantifier_groups_variables():
    f = Quant("!", ("X", "Y"), Eq(X, Y))
    assert print_formula(f) == "! [X,Y] : X = Y"


def test_quoted_names_in_problem():
    p = problem(
        [("needs quoting", Pred("p", ()))],
        ("goal", Pred("p", ())),
    )
    text = print_problem(p)
    assert "fof('needs quoting', axiom, p)." in text
    back = parse_problem(text)
    assert back.axioms[0][0] == "needs quoting"


def test_problem_roles_survive():
    p = problem([("a1", Pred("p", ()))], ("g", Not(Pred("p", ()))))
    back = parse_problem(print_problem(p))
    assert back.axioms == p.axioms
    assert back.conjecture == p.conjecture


# ------------------------------------------------------------------ parsing


def _random_formula(rng: random.Random, depth: int) -> object:
    if depth == 0:
        k = rng.randrange(3)
        if k == 0:
            return Pred("p", (X,))
        if k == 1:
            return Eq(X, FofApp("f", (FofApp("c", ()), Y)))
        return Pred("q", ())
    k = rng.choice(["not", "bin", "quant"])
    if k == "not":
        return Not(_random_formula(rng, depth - 1))
    if k == "quant":
        return Quant(
            rng.choice(["!", "?"]), ("X", "Y"), _random_formula(rng, depth - 1)
        )
    return BinOp(
        rng.choice(["&", "|", "=>", "<=>"]),
        _random_formula(rng, depth - 1),
        _random_formula(rng, depth - 1),
    )


def test_parse_print_fixpoint_random():
    rng = random.Random(7)
    for _ in range(300):
        p = problem(
            [("ax", _random_formula(rng, 3))], ("goal", _random_formula(rng, 3))
        )
        text = print_problem(p)
        back = parse_problem(text)
        assert print_problem(back) == text


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_problem("fof(a, axiom, p)")  # missing dot
    with pytest.raises(ParseError):
        parse_problem("fof(a, oracle, p).")  # unsupported role
    with pytest.raises(ParseError):
        parse_problem("fof(a, axiom, p).")  # no conjecture
    with pytest.raises(ParseError):
        parse_problem(
            "fof(a, conjecture, p). fof(b, conjecture, q)."
        )  # two conjectures


# -------------------------------------------------------------------- SZS


def test_parse_szs_verdicts():
    assert parse_szs("% SZS status Theorem") == THEOREM
    assert parse_szs("% SZS status Unsatisfiable") == UNSATISFIABLE
    assert parse_szs("% SZS status ContradictoryAxioms") == UNSATISFIABLE
    assert parse_szs("% SZS status CounterSatisfiable") == COUNTER_SATISFIABLE
    assert parse_szs("% SZS status GaveUp") == GAVE_UP
    assert parse_szs("% SZS status ResourceOut") == TIMEOUT


def test_parse_szs_without_status_line():
    assert parse_szs("", timed_out=True) == TIMEOUT
    assert parse_szs("", exit_code=0) == GAVE_UP
    err = parse_szs("segfault", exit_code=139)
    assert err.kind == "Error"
    weird = parse_szs("% SZS status Brouhaha")
    assert weird.kind == "Error"


def test_szs_status_found_anywhere_in_output():
    out = "# comment\nsome chatter\n% SZS status Theorem for problem.p\nmore\n"
    assert parse_szs(out) == THEOREM


# ----------------------------------------------------------- core extraction


CORE_PROBLEM = problem(
    [
        ("ax1", Pred("p", ())),
        ("ax2", Pred("q", ())),
        ("helper1", Pred("h", ())),
    ],
    ("goal", Pred("p", ())),
    reverse={"ax1": "SOURCE_ONE", "ax2": "SOURCE_TWO"},
    helpers=["helper1"],
)


def test_extract_core_reads_proof_block():
    out = (
        "% SZS status Theorem\n"
        "% SZS output start Proof\n"
        "fof(ax1, axiom, p).\n"
        "fof(helper1, axiom, h).\n"
        "fof(goal, conjecture, p).\n"
        "% SZS output end Proof\n"
    )
    core = extract_core(out, CORE_PROBLEM)
    assert core.complete
    # Mapped back to the source name; the helper never surfaces.
    assert core.premises == ("SOURCE_ONE",)


def test_extract_core_file_form():
    out = "cnf(c1, axiom, p, file('/tmp/x.p', ax2)).\n"
    core = extract_core(out, CORE_PROBLEM)
    assert core.complete
    assert core.premises == ("SOURCE_TWO",)


def test_extract_core_without_derivation_keeps_everything():
    core = extract_core("% SZS status Theorem\n", CORE_PROBLEM)
    assert not core.complete
    assert core.premises == ("SOURCE_ONE", "SOURCE_TWO")


def test_extract_core_quoted_names():
    p = problem(
        [("odd name", Pred("p", ()))],
        ("goal", Pred("p", ())),
        reverse={"odd name": "odd name"},
    )
    out = "fof('odd name', axiom, p).\n"
    assert extract_core(out, p).premises == ("odd name",)


@pytest.mark.parametrize(
    "text, where, message",
    [
        (
            "fof(a, axiom, p).\nfof(b, axiom, p @ q).\nfof(c, conjecture, q).\n",
            (2, 17),
            "unexpected character '@'",
        ),
        (
            "% header\nfof(a, axiom, p).\nfof(b, axiom, (p & q | r)).\nfof(c, conjecture, q).\n",
            (3, 22),
            "cannot mix '&' and '|' without parentheses",
        ),
    ],
    ids=["char", "grammar"],
)
def test_parse_errors_report_their_position(text, where, message):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert info.value.msg == message
    assert (info.value.line, info.value.col) == where
