"""Export-format parsing and printing, corpus loading, accessibility."""

import random
from dataclasses import replace
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest

from hammerkit import corpus as corpus_module, hol
from hammerkit.corpus import (
    AccessRelation,
    ObjectEntry,
    ConjunctId,
    Corpus,
    CycleDetected,
    ParseError,
    Role,
    TheoremId,
    UnknownTheorem,
    accessible_set,
    load_corpus,
    parse_deps,
    parse_goal,
    parse_thy,
    parse_tt,
    print_tt,
    rename_overwritten,
    resolve_dep_name,
)
from hammerkit.hol import (
    BOOL,
    Abs,
    Const,
    Signature,
    TypeMismatch,
    Var,
    _rename_apart,
    mk_const_app,
    show_name,
    term_text,
    type_of,
)
from hammerkit.tptp import parse_problem
from .helpers import (
    CONNECTIVES_AS_CONSTANTS,
    NAT,
    TOY_DECLS,
    alpha_equal,
    load_corpus_files,
    print_deps,
    print_thy,
    random_closed_formula,
    random_poly_formula,
    toy_sig,
)
from .typecheck_oracle import typecheck

CANONICAL_LINES = [
    "tt(int, ty, $t).",
    "tt(list, ty, $t > $t).",
    "tt(HD, ty, ![A:$t]: (list A > A)).",
    "tt(CONS, ty, ![A:$t]: (A > list A > list A)).",
    "tt(HD0, ax, ![n:int, t:(list int)]: ((HD int) ((CONS int) n t) = n)).",
]


def test_canonical_lines_round_trip_bytes():
    text = "\n".join(CANONICAL_LINES) + "\n"
    sig = Signature()
    entries = parse_tt(text, sig)
    assert [e.name for e in entries] == ["int", "list", "HD", "CONS", "HD0"]
    printed = "\n".join(print_tt(e) for e in entries) + "\n"
    assert printed == text
    # And printing is a fixpoint of parse . print.
    again = parse_tt(printed, Signature())
    assert "\n".join(print_tt(e) for e in again) + "\n" == printed


def test_parse_is_whitespace_tolerant():
    messy = """
    tt( int ,ty,$t).
    tt(list, ty,
       $t > $t).
    % a comment line
    tt(HD ,ty, ![A : $t]:
        (list A > A)).
    """
    entries = parse_tt(messy, Signature())
    assert [e.name for e in entries] == ["int", "list", "HD"]
    assert print_tt(entries[1]) == "tt(list, ty, $t > $t)."


def test_declarations_populate_signature():
    sig = Signature()
    parse_tt("\n".join(CANONICAL_LINES), sig)
    assert sig.types["list"] == 1
    decl = sig.const_decl("HD")
    assert decl.tyvars == ("A",)
    assert sig.types["int"] == 0


def test_theorem_statements_typecheck_to_bool():
    sig = Signature()
    entries = parse_tt("\n".join(CANONICAL_LINES), sig)
    hd0 = entries[-1]
    assert hd0.role is Role.THEOREM
    assert type_of(hd0.formula, sig) == BOOL


def test_ax_entry_must_be_boolean():
    sig = toy_sig()
    with pytest.raises(ParseError) as info:
        parse_tt("tt(bad, ax, SUC 0).", sig)
    assert str(info.value) == "line 1, column 13: bad is not a boolean formula"


def test_polymorphic_constant_needs_type_arguments():
    sig = toy_sig()
    with pytest.raises(ParseError, match="type argument"):
        parse_tt("tt(bad, ax, HD NIL = 0).", sig)
    entries = parse_tt("tt(ok, ax, (HD nat) (NIL nat) = 0).", sig)
    assert type_of(entries[0].formula, sig) == BOOL


def test_unknown_names_are_rejected():
    sig = toy_sig()
    with pytest.raises(ParseError) as info:
        parse_tt("tt(ok, ax, 0 = 0).\ntt(bad, ax, 0 = FOO).", sig)
    assert str(info.value) == "line 2, column 17: undeclared name: FOO"
    with pytest.raises(ParseError) as info:
        parse_tt("tt(bad, ty, nat > (list wibble)).", sig)
    assert str(info.value) == "line 1, column 25: undeclared type constructor: wibble"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_tt("tt(x, ty, $t).\ntt(y, ty, ($t).", Signature())
    assert info.value.line == 2


@pytest.mark.parametrize(
    "read, text",
    [
        (lambda t: parse_tt(t, Signature()), "tt(x, ty, $t).\nxx(y, ty, $t).\n"),
        (parse_thy, "theory(a, []).\nxx(b, [a]).\n"),
        (parse_deps, "deps(a_c1, []).\nxx(b_c1, [a]).\n"),
        (parse_problem, "fof(a, axiom, p).\ncnf(b, axiom, p).\n"),
    ],
    ids=["tt", "thy", "deps", "tptp"],
)
def test_wrong_entry_head_reports_its_position(read, text):
    with pytest.raises(ParseError, match="entry, found") as info:
        read(text)
    assert (info.value.line, info.value.col) == (2, 1)


@pytest.mark.parametrize(
    "read, line2, where",
    [
        (parse_tt, "tt(y, zz, $t).", (2, 7)),
    ],
    ids=["role"],
)
def test_bad_field_reports_its_position(read, line2, where):
    with pytest.raises(ParseError, match="unknown") as info:
        read(f"tt(x, ty, $t).\n{line2}\n", Signature())
    assert (info.value.line, info.value.col) == where


@pytest.mark.parametrize(
    "line2, where",
    [
        ("tt(bad, ax, HD NIL = 0).", (2, 13)),
        ("tt(bad, ty, $t > nat).", (2, 18)),
        ("tt(bad, ax, ?[A:$t]: 0 = 0).", (2, 17)),
        ("tt(bad, ty, list nat nat).", (2, 13)),
        ("tt(bad, ty, nat > list).", (2, 19)),
        ("tt(bad, ax, ![x:nat nat]: x = x).", (2, 17)),
    ],
    ids=["type-argument", "kind", "type-binder", "type-arity", "type-arity-atom", "type-arity-binder"],
)
def test_name_resolution_error_reports_its_position(line2, where):
    with pytest.raises(ParseError) as info:
        parse_tt(f"tt(x, ty, $t).\n{line2}\n", toy_sig())
    assert (info.value.line, info.value.col) == where


@pytest.mark.parametrize(
    "line2, where, message",
    [
        ("tt(bad, ax, (0 0) = 0).", (2, 13), "applying non-function 0 : nat"),
        ("tt(bad, ax, 0 = (0 0)).", (2, 13), "applying non-function 0 : nat"),
        ("tt(bad, ax, 0 = SUC).", (2, 13), "expected argument of type nat"),
        ("tt(bad, ax, ~(SUC 0 0 = 0)).", (2, 13), "applying non-function SUC 0 : nat"),
        (
            "tt(bad, ax, ('&' 0) = 0).",
            (2, 13),
            "in '&' 0: expected argument of type bool, got 0 : nat",
        ),
    ],
    ids=["left-of-eq", "right-of-eq", "eq-argument", "nested", "connective-argument"],
)
def test_type_error_reports_its_position(line2, where, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_tt(f"tt(x, ty, $t).\n{line2}\n", toy_sig())
    assert (info.value.line, info.value.col) == where


def test_load_corpus_reads_the_theory_list_once(monkeypatch):
    calls = []
    parse_thy_once = corpus_module.parse_thy
    monkeypatch.setattr(
        corpus_module, "parse_thy", lambda text: calls.append(text) or parse_thy_once(text)
    )
    load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))
    assert len(calls) == 1


def test_loading_lexes_each_file_once_and_never_typechecks(monkeypatch):
    """The reader checks types as it builds each term, so a well-typed
    corpus is read in one lexer pass per file and no term is typed again."""
    lexed, walked = [], []
    lex = corpus_module._lex
    monkeypatch.setattr(corpus_module, "_lex", lambda text, rx: lexed.append(text) or lex(text, rx))
    monkeypatch.setattr(hol, "type_of", lambda *a: walked.append(a) or type_of(*a))
    root = Path(str(resources.files("hammerkit") / "data" / "toy"))
    load_corpus(root)
    texts = [f.read_text(encoding="utf-8") for f in root.iterdir() if f.suffix in (".thy", ".tt", ".deps")]
    assert walked == []
    assert sorted(lexed) == sorted(texts) and len(texts) > 4


def test_chained_equality_is_rejected():
    sig = toy_sig()
    with pytest.raises(ParseError, match="parenthes"):
        parse_tt("tt(bad, ax, 0 = 0 = 0).", sig)
    parse_tt("tt(ok, ax, (0 = 0) = (0 = 0)).", sig)


def test_precedence_shapes():
    sig = toy_sig()

    def roundtrip(formula: str) -> str:
        [e] = parse_tt(f"tt(t, ax, {formula}).", sig.copy())
        return print_tt(e)

    # Negation binds tighter than conjunction, looser than equality.
    assert roundtrip("~(0 = SUC 0) & (0 = 0)") == "tt(t, ax, ~0 = SUC 0 & 0 = 0)."
    assert roundtrip("~0 = SUC 0 & 0 = 0") == "tt(t, ax, ~0 = SUC 0 & 0 = 0)."
    # Implication is right-associative; conjunction binds tighter.
    a = "LE 0 0"
    assert (
        roundtrip(f"{a} => {a} => {a} & {a}")
        == "tt(t, ax, LE 0 0 => LE 0 0 => LE 0 0 & LE 0 0)."
    )
    # A binder body stops at the first loose connective.
    both = parse_tt(f"tt(t, ax, (![z:nat]: (LE z z)) & {a}).", sig.copy())
    loose = parse_tt(f"tt(t, ax, ![z:nat]: (LE z z) & {a}).", sig.copy())
    assert alpha_equal(both[0].formula, loose[0].formula)


def test_quoted_names_round_trip():
    sig = toy_sig()
    line = "tt('odd name with space', ax, LE 0 0)."
    [e] = parse_tt(line, sig)
    assert e.name == "odd name with space"
    assert print_tt(e) == line
    assert show_name("plain_name.0") == "plain_name.0"
    assert show_name("needs quoting!") == "'needs quoting!'"
    # Interior apostrophes lex fine bare; a leading one needs quoting.
    assert show_name("it's") == "it's"
    assert show_name("'quote") == "'\\'quote'"


def test_tilde_and_slash_names_lex_bare():
    sig = toy_sig()
    [e] = parse_tt("tt(T~1, ax, LE 0 0).", sig)
    assert e.name == "T~1"
    [e] = parse_tt("tt(h4/list/HD0, ax, LE 0 0).", sig)
    assert e.name == "h4/list/HD0"


def test_binder_merging_in_printer():
    sig = toy_sig()
    [e] = parse_tt("tt(t, ax, ![x:nat]: (![y:nat]: (LE x y | LE y x))).", sig)
    assert print_tt(e) == "tt(t, ax, ![x:nat, y:nat]: (LE x y | LE y x))."


def test_exists_and_lambda_syntax():
    sig = toy_sig()
    [e] = parse_tt("tt(t, ax, ?[x:nat]: (LE x x)).", sig)
    assert print_tt(e) == "tt(t, ax, ?[x:nat]: (LE x x))."
    [e] = parse_tt("tt(t, ax, (^[x:nat]: x) 0 = 0).", sig)
    assert print_tt(e) == "tt(t, ax, (^[x:nat]: x) 0 = 0)."


def test_connectives_as_constants_round_trip():
    entries = parse_tt(CONNECTIVES_AS_CONSTANTS, Signature())
    sig = Signature()
    for e in entries:
        assert parse_tt(print_tt(e), sig) == [e]
    echo = "".join(print_tt(e) + "\n" for e in entries)
    assert parse_tt(echo, Signature()) == entries
    assert "".join(print_tt(e) + "\n" for e in parse_tt(echo, Signature())) == echo
    # A connective not applied to all its operands prints as a constant.
    assert print_tt(entries[-1]) == "tt(X7, ax, ('!' nat) S | ('?' nat) S)."


def test_random_statement_round_trips():
    rng = random.Random(23)
    sig = toy_sig()
    for i in range(300):
        f = random_closed_formula(rng)
        entry = ObjectEntry(name=f"R{i}", role=Role.THEOREM, formula=f)
        line = print_tt(entry)
        [back] = parse_tt(line, sig.copy())
        assert alpha_equal(back.formula, f), line
        assert print_tt(back) == line


# ------------------------------------------------------------------ corpus


THY = "theory(base, []).\ntheory(more, [base]).\n"

BASE_TT = TOY_DECLS + """\
tt(B0, ax, LE 0 0).
tt(B1, ax, (LE 0 0) & (LE 0 (SUC 0))).
"""

MORE_TT = """\
tt(M0, ax, ![x:nat]: (LE x x)).
tt(M1, ax, (LE 0 0) & (LE (SUC 0) (SUC 0))).
"""

MORE_DEPS = """\
deps(M0_c1, [B1_c1]).
deps(M1_c1, [M0, B0_c1]).
deps(M1_c2, [M0]).
"""


def small_corpus() -> Corpus:
    return load_corpus_files(
        THY, {"base": (BASE_TT, None), "more": (MORE_TT, MORE_DEPS)}
    )


def test_corpus_tables():
    c = small_corpus()
    assert c.theories == ["base", "more"]
    b1 = c.theorem_named("B1")
    assert len(b1.conjuncts) == 2
    assert c.conjunct_label(ConjunctId(b1.id, 2)) == "B1_c2"
    m1 = c.theorem_named("M1")
    m0 = c.theorem_named("M0")
    b0 = c.theorem_named("B0")
    # Whole-theorem dependency names expand to every conjunct.
    assert m1.dependencies[0] == frozenset(
        [ConjunctId(m0.id, 1), ConjunctId(b0.id, 1)]
    )
    assert m1.dependencies[1] == frozenset([ConjunctId(m0.id, 1)])
    assert c.exact_deps(m1.id) == frozenset([m0.id, b0.id])


def test_resolve_dep_name():
    c = small_corpus()
    b1 = c.by_name["B1"]
    assert resolve_dep_name(c, "B1") == (b1, None)
    assert resolve_dep_name(c, "B1_c2") == (b1, 2)
    with pytest.raises(UnknownTheorem):
        resolve_dep_name(c, "B1_c3")
    with pytest.raises(UnknownTheorem):
        resolve_dep_name(c, "nope")


def test_linear_order_and_positions():
    c = small_corpus()
    names = [c.theorem(t).name for t in c.order()]
    assert names == ["B0", "B1", "M0", "M1"]
    assert c.position(c.by_name["B0"]) == 0
    assert c.position(c.by_name["M1"]) == 3


def test_accessible_sets_by_hand():
    c = small_corpus()
    m1 = c.by_name["M1"]
    by = lambda rel: {
        c.theorem(t).name for t in accessible_set(c, m1, rel)
    }
    assert by(AccessRelation.EXACT_DEPS) == {"M0", "B0"}
    assert by(AccessRelation.TRANSITIVE_DEPS) == {"M0", "B0", "B1"}
    assert by(AccessRelation.LOADED_THEORIES) == {"B0", "B1", "M0"}
    assert by(AccessRelation.LINEAR_ORDER) == {"B0", "B1", "M0"}
    b0 = c.by_name["B0"]
    assert accessible_set(c, b0, AccessRelation.LINEAR_ORDER) == set()


def test_dependency_must_precede():
    bad_deps = "deps(M0_c1, [M1]).\n"
    with pytest.raises(CycleDetected):
        load_corpus_files(
            THY, {"base": (BASE_TT, None), "more": (MORE_TT, bad_deps)}
        )


def test_unknown_dependency_name():
    with pytest.raises(UnknownTheorem):
        load_corpus_files(
            THY,
            {"base": (BASE_TT, None), "more": (MORE_TT, "deps(M0_c1, [ZZZ]).\n")},
        )


def test_ancestor_must_be_built_first():
    thy = "theory(more, [base]).\ntheory(base, []).\n"
    with pytest.raises(CycleDetected):
        load_corpus_files(
            thy, {"base": (BASE_TT, None), "more": (MORE_TT, None)}
        )


def test_thy_and_deps_round_trip():
    theories = parse_thy(THY)
    assert theories == [("base", ()), ("more", ("base",))]
    assert print_thy(theories) == THY
    c = small_corpus()
    text = print_deps(c)
    lines = dict(parse_deps(text))
    assert lines["M1_c1"] == ["B0_c1", "M0_c1"]
    # Reloading from the printed sidecar reproduces the dependency tables.
    c2 = load_corpus_files(
        THY, {"base": (BASE_TT, None), "more": (MORE_TT, text)}
    )
    for name in ("B0", "B1", "M0", "M1"):
        assert (
            c2.theorem_named(name).dependencies
            == c.theorem_named(name).dependencies
        )


def test_rename_overwritten_spec_examples():
    t = lambda i: TheoremId("th", i)
    assert rename_overwritten([("T", t(1)), ("T", t(2))]) == {
        t(1): "T~1",
        t(2): "T",
    }
    assert rename_overwritten([("T", t(1)), ("U", t(2))]) == {
        t(1): "T",
        t(2): "U",
    }
    assert rename_overwritten(
        [("T", t(1)), ("T", t(2)), ("T", t(3))]
    ) == {t(1): "T~1", t(2): "T~2", t(3): "T"}
    # A literal name~1 already in use is skipped, not clobbered.
    got = rename_overwritten([("T~1", t(0)), ("T", t(1)), ("T", t(2))])
    assert got[t(0)] == "T~1"
    assert got[t(1)] == "T~2"
    assert got[t(2)] == "T"


def test_overwritten_names_in_corpus():
    tt = TOY_DECLS + "tt(T, ax, LE 0 0).\ntt(T, ax, LE 0 (SUC 0)).\n"
    c = load_corpus_files("theory(base, []).\n", {"base": (tt, None)})
    assert {c.theorem(t).name for t in c.order()} == {"T~1", "T"}
    assert c.theorem_named("T").statement != c.theorem_named("T~1").statement


def test_name_reused_in_another_theory_is_refused():
    # Labels, core names and report rows each stand for one theorem, so a
    # later theory may not take a name an earlier one holds.
    thy = "theory(a, []).\ntheory(b, [a]).\n"
    a = TOY_DECLS + "tt(P_AX, ax, LE 0 0).\ntt(T, ax, LE 0 0).\n"
    b = "tt(T, ax, LE 0 (SUC 0)).\ntt(U, ax, LE 0 0).\n"
    with pytest.raises(ParseError) as info:
        load_corpus_files(thy, {"a": (a, None), "b": (b, None)})
    assert str(info.value) == "theorem T of theory b is also in theory a"
    # A name overwritten within the one theory keeps its renaming.
    b = "tt(U, ax, LE 0 0).\ntt(U, ax, LE 0 (SUC 0)).\n"
    c = load_corpus_files(thy, {"a": (a, None), "b": (b, None)})
    assert [c.theorem(t).name for t in c.order()] == ["P_AX", "T", "U~1", "U"]


def test_parse_goal_forms():
    sig = toy_sig()
    name, g = parse_goal("tt(G, conj, LE 0 0).", sig)
    assert name == "G"
    assert type_of(g, sig) == BOOL
    name, g2 = parse_goal("LE 0 0", sig)
    assert name == "goal"
    assert alpha_equal(g, g2)
    with pytest.raises(ParseError) as info:
        parse_goal("  SUC 0", sig)
    assert str(info.value) == "line 1, column 1: goal is not a boolean formula"


# ------------------------------------------------- randomized accessibility


def random_corpus(rng: random.Random) -> Corpus:
    decl = "tt(o, ty, $t).\ntt(k, ty, o).\ntt(EQL, ty, o > o > bool).\n"
    thy: list[tuple[str, tuple[str, ...]]] = []
    files: dict[str, tuple[str, str | None]] = {}
    known: list[tuple[str, int]] = []  # (name, #conjuncts) in build order
    n_theories = rng.randrange(1, 4)
    for ti in range(n_theories):
        theory = f"th{ti}"
        ancs = tuple(t for t, _ in thy if rng.random() < 0.6)
        thy.append((theory, ancs))
        lines = [decl] if ti == 0 else []
        dep_lines = []
        for i in range(rng.randrange(1, 7)):
            name = f"T{ti}_{i}"
            two = rng.random() < 0.4
            stmt = "(EQL k k) & (k = k)" if two else "EQL k k"
            lines.append(f"tt({name}, ax, {stmt}).")
            pool = [n for n, _ in known]
            picked = rng.sample(pool, k=min(len(pool), rng.randrange(0, 3)))
            for ci in range(1, (2 if two else 1) + 1):
                chosen = [d for d in picked if rng.random() < 0.8]
                if chosen:
                    dep_lines.append(f"deps({name}_c{ci}, [{', '.join(chosen)}]).")
            known.append((name, 2 if two else 1))
        files[theory] = (
            "\n".join(lines) + "\n",
            "\n".join(dep_lines) + "\n" if dep_lines else None,
        )
    return load_corpus_files(print_thy(thy), files)


def transitive_oracle(c: Corpus, tid: TheoremId) -> set[TheoremId]:
    out: set[TheoremId] = set()
    frontier = {tid}
    while frontier:
        nxt: set[TheoremId] = set()
        for t in frontier:
            for d in c.exact_deps(t):
                if d not in out:
                    out.add(d)
                    nxt.add(d)
        frontier = nxt
    return out


def loaded_oracle(c: Corpus, tid: TheoremId) -> set[TheoremId]:
    closure: set[str] = set()
    todo = [tid.theory]
    while todo:
        t = todo.pop()
        if t not in closure:
            closure.add(t)
            todo.extend(c.ancestors[t])
    return {
        t
        for t in c.theorems
        if (t.theory in closure - {tid.theory})
        or (t.theory == tid.theory and t.seq < tid.seq)
    }


def test_accessibility_laws_on_random_corpora():
    rng = random.Random(2024)
    for _ in range(40):
        c = random_corpus(rng)
        linear = c.order()
        for tid in linear:
            ed = accessible_set(c, tid, AccessRelation.EXACT_DEPS)
            td = accessible_set(c, tid, AccessRelation.TRANSITIVE_DEPS)
            lt = accessible_set(c, tid, AccessRelation.LOADED_THEORIES)
            lo = accessible_set(c, tid, AccessRelation.LINEAR_ORDER)
            assert ed <= td <= lo
            assert lt <= lo
            assert td == transitive_oracle(c, tid)
            assert lt == loaded_oracle(c, tid)
            assert lo == set(linear[: c.position(tid)])


# ------------------------------------------------------- error placement


@pytest.mark.parametrize(
    "line2, where, message",
    [
        (
            "tt(bad, ax, 0 & T & SUC T).",
            (2, 13),
            "in '&' 0: expected argument of type bool, got 0 : nat",
        ),
        (
            "tt(bad, ax,  ~(SUC T = 0)).",
            (2, 14),
            "in SUC T: expected argument of type nat, got T : bool",
        ),
        (
            "tt(bad, ax, SUC 0 = SUC (SUC T)).",
            (2, 13),
            "in SUC T: expected argument of type nat, got T : bool",
        ),
        (
            "tt(bad, ax, T & ![n:nat]: SUC n).",
            (2, 13),
            "in ![n:nat]: (SUC n): expected argument of type nat > bool, "
            "got ^[n:nat]: (SUC n) : nat > nat",
        ),
        (
            "tt(bad, ax, T => (SUC T = 0) & (0 0 = 0)).",
            (2, 13),
            "in SUC T: expected argument of type nat, got T : bool",
        ),
    ],
    ids=["bool-operand-then-later", "under-negation", "right-of-eq", "quantifier-body", "later-eq"],
)
def test_type_error_wording_and_place(line2, where, message):
    """The first ill-typed application in reading order, placed at the
    statement."""
    with pytest.raises(ParseError) as info:
        parse_tt(f"tt(T, ty, bool).\n{line2}\n", toy_sig())
    assert info.value.msg == message
    assert (info.value.line, info.value.col) == where
    assert str(info.value) == f"line {where[0]}, column {where[1]}: {message}"


@pytest.mark.parametrize(
    "read, text, where, message",
    [
        (parse_thy, "theory(a, []).\ntheory(b, [a]) λ\n", (2, 16), "unexpected character 'λ'"),
        (parse_thy, "% first\n\ntheory(a, []).\n  theory(b [a]).\n", (4, 12), "expected ',', found '['"),
        (parse_deps, "deps(a_c1, []).\n  deps(b_c1, [a, $]).\n", (2, 18), "unexpected character '$'"),
        (parse_deps, "deps(a_c1, []). % x\ndeps(b_c1, [a b]).\n", (2, 15), "expected ']', found 'b'"),
        (
            lambda t: parse_goal(t, toy_sig()),
            "LE 0\n  (SUC #0)",
            (2, 8),
            "unexpected character '#'",
        ),
        (
            lambda t: parse_goal(t, toy_sig()),
            "LE 0 % comment\n  (SUC 0",
            (2, 9),
            "expected ')', found 'end of input'",
        ),
        (
            lambda t: parse_tt(t, toy_sig()),
            "tt(x, ax, LE 0 0).\n\ttt(y, ax, LE 0 ;).\n",
            (2, 17),
            "unexpected character ';'",
        ),
    ],
    ids=["thy-char", "thy-grammar", "deps-char", "deps-grammar", "goal-char", "goal-grammar", "tt-char"],
)
def test_lexical_and_grammar_errors_report_their_position(read, text, where, message):
    with pytest.raises(ParseError) as info:
        read(text)
    assert info.value.msg == message
    assert (info.value.line, info.value.col) == where


# Closed terms of several types, each to put in place of an argument of
# another type.
_STRANGERS = [
    Const("0"),
    Const("SUC"),
    Const("NIL", (NAT,)),
    Const("HD", (NAT,)),
    mk_const_app("LE", (), [Const("0"), Const("0")]),
    Abs(Var("w", NAT), Const("0")),
]


def _arguments(t, path=()):
    """Paths (of ``fun``, ``arg`` and ``body`` steps) to the arguments the
    reader reads back as they are printed: every argument but the left
    operand of an ``=`` and the abstraction under a quantifier, since the
    reader takes the instance of ``=`` from its left operand's type and a
    quantifier's from its bound variable."""
    if isinstance(t, Abs):
        yield from _arguments(t.body, path + ("body",))
    elif not isinstance(t, (Var, Const)):
        yield from _arguments(t.fun, path + ("fun",))
        yield from _arguments(t.arg, path + ("arg",))
        if not (isinstance(t.fun, Const) and t.fun.name in ("=", "!", "?")):
            yield path + ("arg",)


def _replace(t, path, new):
    if not path:
        return new
    return replace(t, **{path[0]: _replace(getattr(t, path[0]), path[1:], new)})


def test_reader_names_the_type_error_the_old_checker_named():
    """Well-typed statements, monomorphic and polymorphic, with one or two
    arguments (see ``_arguments``) swapped for closed terms of other types:
    the reader names the first error that a post-order walk of the term as
    printed names, and places it at the statement."""
    rng = random.Random(29)
    sig = toy_sig()
    for _ in range(400):
        good = rng.choice([random_closed_formula, random_poly_formula])(rng)
        paths = list(_arguments(good))
        bad = good
        # The deeper path first, in case the other one holds it.
        for path in sorted(rng.sample(paths, min(len(paths), rng.choice((1, 2)))), key=len, reverse=True):
            ty = type_of(reduce(getattr, path, good), sig)
            bad = _replace(bad, path, rng.choice([s for s in _STRANGERS if type_of(s, sig) != ty]))
        with pytest.raises(TypeMismatch) as want:
            typecheck(_rename_apart(bad), sig)
        with pytest.raises(ParseError) as got:
            parse_tt(f"tt(t, ax, {term_text(bad)}).", sig)
        assert got.value.msg == str(want.value)
        assert (got.value.line, got.value.col) == (1, 11)
