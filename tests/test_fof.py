"""First-order encoding: tags, lambda lifting, boolean cleanup, linting."""

import hashlib
import random
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest

from hammerkit.corpus import Role, load_corpus, parse_tt
from hammerkit.fof import (
    NameMangler,
    TranslateError,
    translate_problem,
)
from hammerkit.harness import conjunct_premises
from hammerkit.hol import (
    BOOL,
    Abs,
    App,
    Const,
    Signature,
    TyApp,
    TyVar,
    Var,
    mk_const_app,
    mk_eq,
    mk_forall,
    mk_foralls,
    mk_fun,
    mk_fun_chain,
)
from hammerkit.tptp import parse_problem, print_problem
from .helpers import (
    CONNECTIVES_AS_CONSTANTS,
    LIST_NAT,
    NAT,
    check_problem,
    random_closed_formula,
    toy_sig,
)

ZERO = Const("0")
SUC = Const("SUC")
ADD = Const("ADD")
LE = Const("LE")


def text_of(problem) -> str:
    return print_problem(problem)


def translate_goal(goal, sig=None):
    return translate_problem([], ("goal", goal), sig or toy_sig())


# --------------------------------------------------------------------- tags


def test_monomorphic_statement_is_tagged():
    goal = mk_eq(App(App(ADD, ZERO), ZERO), ZERO, NAT)
    text = text_of(translate_goal(goal))
    assert (
        "fof(goal, conjecture, s(nat,aDD(s(nat,x0),s(nat,x0))) = s(nat,x0))." in text
    )


def test_every_term_is_tagged_and_no_axiom_strips_a_tag():
    nil = Const("NIL", (NAT,))
    cons = Const("CONS", (NAT,))
    hd = Const("HD", (NAT,))
    goal = mk_eq(App(hd, App(App(cons, ZERO), nil)), ZERO, NAT)
    p = translate_goal(goal)
    text = text_of(p)
    # No axiom strips a tag, so the goal stands alone.
    assert p.axioms == ()
    assert p.helpers == frozenset()
    # Both equation sides carry their type.
    assert (
        "s(nat,hD(s(list(nat),cONS(s(nat,x0),s(list(nat),nIL))))) = s(nat,x0))."
        in text
    )


# ----------------------------------------------------------- lambda lifting


def test_alpha_equivalent_lambdas_share_one_lifted_constant():
    sig = toy_sig()
    nil = Const("NIL", (NAT,))
    mp = Const("MAP", (NAT, NAT))
    x = Var("x", NAT)
    y = Var("y", NAT)
    prem = mk_eq(App(App(mp, Abs(y, App(SUC, y))), nil), nil, LIST_NAT)
    goal = mk_eq(App(App(mp, Abs(x, App(SUC, x))), nil), nil, LIST_NAT)
    p = translate_problem([("PREM", prem)], ("goal", goal), sig)
    text = text_of(p)
    assert text.count("lam1_def") == 1
    assert "lam2" not in text
    assert (
        "fof(lam1_def, axiom, ! [Y] : s(nat,ap(s(fn(nat,nat),lam1),s(nat,Y)))"
        " = s(nat,sUC(s(nat,Y))))." in text
    )
    assert "lam1_def" in p.helpers
    # Premise and conjecture now mention the same constant.
    assert text_of(p).count("mAP(s(fn(nat,nat),lam1)") == 2


def test_lifted_constant_applied_to_captured_variables():
    sig = toy_sig()
    nil = Const("NIL", (NAT,))
    mp = Const("MAP", (NAT, NAT))
    x = Var("x", NAT)
    n = Var("n", NAT)
    lam = Abs(x, App(App(ADD, n), x))
    goal = mk_forall(n, mk_eq(App(App(mp, lam), nil), nil, LIST_NAT))
    text = text_of(translate_goal(goal, sig))
    assert "lam1(s(nat,N))" in text
    assert (
        "fof(lam1_def, axiom, ! [N] : ! [X] : "
        "s(nat,ap(s(fn(nat,nat),lam1(s(nat,N))),s(nat,X)))"
        " = s(nat,aDD(s(nat,N),s(nat,X))))." in text
    )


# -------------------------------------------------------- boolean arguments


def bool_sig():
    sig = toy_sig()
    sig.declare_const("IF0", (), mk_fun(BOOL, NAT))
    sig.declare_const("T", (), BOOL)
    return sig


def test_compound_bool_argument_is_extracted():
    goal = mk_eq(
        App(Const("IF0"), App(App(LE, ZERO), ZERO)), ZERO, NAT
    )
    text = text_of(translate_goal(goal, bool_sig()))
    assert (
        "fof(goal, conjecture, ? [B] : ((bool(s(bool0,B)) <=> "
        "lE(s(nat,x0),s(nat,x0))) & s(nat,iF0(s(bool0,B))) = s(nat,x0)))." in text
    )


def test_bool_constant_argument_uses_proxy_twin():
    goal = mk_eq(App(Const("IF0"), Const("T")), ZERO, NAT)
    p = translate_goal(goal, bool_sig())
    text = text_of(p)
    assert "fof(t_p_ax, axiom, (bool(s(bool0,t_p)) <=> t))." in text
    assert "fof(goal, conjecture, s(nat,iF0(s(bool0,t_p))) = s(nat,x0))." in text
    assert "t_p_ax" in p.helpers


def test_bool_variable_argument_passes_through():
    b = Var("b", BOOL)
    goal = mk_forall(b, mk_eq(App(Const("IF0"), b), ZERO, NAT))
    text = text_of(translate_goal(goal, bool_sig()))
    assert "fof(goal, conjecture, ! [B] : s(nat,iF0(s(bool0,B))) = s(nat,x0))." in text


def test_partially_applied_predicate_gets_proxy_and_bridge():
    fn_ty = mk_fun(NAT, BOOL)
    nil = Const("NIL", (fn_ty,))
    cons = Const("CONS", (fn_ty,))
    hd = Const("HD", (fn_ty,))
    goal = App(App(hd, App(App(cons, App(LE, ZERO)), nil)), ZERO)
    p = translate_goal(goal)
    text = text_of(p)
    assert "lE_p_ax" in p.helpers
    # The proxy and HD past its arity each take an argument through ap.
    assert (
        "fof(goal, conjecture, bool(s(bool0,ap(s(fn(nat,bool0),hD(s(list(fn(nat,bool0)),"
        "cONS(s(fn(nat,bool0),ap(s(fn(nat,fn(nat,bool0)),lE_p),s(nat,x0))),"
        "s(list(fn(nat,bool0)),nIL))))),s(nat,x0)))))." in text
    )
    # The bridge relates the proxy applied through ap to the predicate.
    assert "<=> lE(s(nat,X0),s(nat,X1))" in text
    # Every first-order invariant still holds on the mixed problem.
    check_problem(p)


# ------------------------------------------------------- application chains


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_long_chain_under_a_bound_function_variable_is_pinned():
    xs = [Var(f"x{i}", NAT) for i in range(1, 41)]
    f = Var("f", mk_fun_chain([NAT] * 40, NAT))
    goal = mk_foralls([f, *xs], mk_eq(reduce(App, xs, f), ZERO, NAT))
    p = translate_goal(goal)
    text = text_of(p)
    # One ap per argument, each tagged with the type left after it.
    assert text.count("ap(") == 40
    assert "s(fn(nat,nat),ap(s(fn(nat,fn(nat,nat)),ap(" in text
    assert ",s(nat,X39))),s(nat,X40))) = s(nat,x0))." in text
    assert sha256(text) == "e6ac5c5fb3fdda5abaccd5f60a9c4859b3893b01087661d1411c8556d8272339"
    check_problem(p)


def test_polymorphic_constant_applied_past_its_arity_is_pinned():
    a = TyVar("A")
    fn_ty = mk_fun_chain([NAT, a], NAT)
    lst = Var("l", TyApp("list", (fn_ty,)))
    x = Var("a", a)
    # HD : list A > A takes one argument; the other two go through ap.
    goal = mk_foralls(
        [lst, x], mk_eq(mk_const_app("HD", (fn_ty,), [lst, ZERO, x]), ZERO, NAT)
    )
    assert text_of(translate_goal(goal)) == (
        "fof(goal, conjecture, ! [A] : ! [L] : ! [A0] : "
        "s(nat,ap(s(fn(A,nat),ap(s(fn(nat,fn(A,nat)),"
        "hD(s(list(fn(nat,fn(A,nat))),L))),s(nat,x0))),s(A,A0))) = s(nat,x0)).\n"
    )


def test_connectives_as_constants_translate_as_pinned():
    # Point-free quantifiers are eta-expanded; connectives used as
    # constants go through proxies with bridge axioms.
    sig = Signature()
    entries = parse_tt(CONNECTIVES_AS_CONSTANTS, sig)
    theorems = [(e.name, e.formula) for e in entries if e.role is Role.THEOREM]
    p = translate_problem(theorems[:-1], theorems[-1], sig)
    text = text_of(p)
    assert "fof(x7, conjecture, (! [Q] : s0(s(nat,Q)) | ? [Q0] : s0(s(nat,Q0))))." in text
    assert "| ? [Q] : s(nat,x0) = s(nat,Q)))." in text
    assert "s(fn(bool0,fn(bool0,bool0)),'x%3d%3e_p')" in text
    assert "fof('x%257c_p_ax', axiom, " in text
    assert sorted(p.helpers) == [
        "lam1_def", "x%2526_p_ax", "x%253d%253e_p_ax", "x%253d_p_ax", "x%257c_p_ax"
    ]
    assert sha256(text) == "174ee67d38e9b0089f4514ec1452cb3f6bb43fb5a23dd3a50462fe3a242d5db5"
    check_problem(p)


# ------------------------------------------------------------------ naming


def test_reserved_symbols_are_avoided():
    sig = toy_sig()
    sig.declare_const("s", (), mk_fun(NAT, NAT))
    sig.declare_const("ap", (), NAT)
    goal = mk_eq(App(Const("s"), Const("ap")), ZERO, NAT)
    text = text_of(translate_goal(goal, sig))
    assert "fof(goal, conjecture, s(nat,s0(s(nat,ap0))) = s(nat,x0))." in text
    check_problem(translate_goal(goal, sig))


def test_mangler_collisions_get_numeric_suffixes():
    m = NameMangler()
    a = m.symbol("const", "Foo")
    b = m.symbol("const", "foo")
    assert a == "foo"
    assert b != a and b.startswith("foo")
    # Stable on repeat lookups.
    assert m.symbol("const", "Foo") == a


def test_axiom_names_round_trip_through_reverse():
    goal = mk_eq(App(App(ADD, ZERO), ZERO), ZERO, NAT)
    p = translate_problem(
        [("ADD 0", goal), ("add%0", goal)], ("My Goal", goal), toy_sig()
    )
    names = [n for n, _ in p.axioms]
    assert len(set(names)) == 2
    originals = {p.reverse[n] for n in names}
    assert originals == {"ADD 0", "add%0"}
    assert p.reverse[p.conjecture[0]] == "My Goal"


def test_conjecture_named_like_a_premise_gets_a_name_of_its_own():
    goal = mk_eq(App(App(ADD, ZERO), ZERO), ZERO, NAT)
    p = translate_problem([("ADD_0_c1", goal)], ("ADD_0_c1", goal), toy_sig())
    names = [n for n, _ in p.axioms] + [p.conjecture[0]]
    assert len(set(names)) == len(names) == 2
    assert {p.reverse[n] for n in names} == {"ADD_0_c1"}


# ------------------------------------------------------------------ linting


def test_check_problem_rejects_mixed_arity():
    goal = mk_eq(App(App(ADD, ZERO), ZERO), ZERO, NAT)
    p = translate_goal(goal)
    bad = parse_problem(
        "fof(a1, axiom, f(c) = c).\n"
        "fof(a2, axiom, f(c,c) = c).\n"
        "fof(goal, conjecture, f(c) = c).\n"
    )
    with pytest.raises(TranslateError):
        check_problem(bad)
    # A clean problem reports its symbol arities.
    arities = check_problem(p)
    assert arities["aDD"] == 2
    assert arities["x0"] == 0


def test_check_problem_rejects_predicate_function_overlap():
    bad = parse_problem(
        "fof(a1, axiom, p(c)).\n"
        "fof(goal, conjecture, p(c) = c).\n"
    )
    with pytest.raises(TranslateError):
        check_problem(bad)


# ------------------------------------------------------------- determinism


def test_translation_is_deterministic():
    sig = toy_sig()
    rng = random.Random(11)
    stmts = [
        (f"S{i}", random_closed_formula(rng, depth=4)) for i in range(6)
    ]
    goal = ("goal", random_closed_formula(rng, depth=4))
    one = text_of(translate_problem(stmts, goal, sig))
    two = text_of(translate_problem(stmts, goal, toy_sig()))
    assert one == two


# ------------------------------------------------------------- toy corpus


def toy_corpus():
    return load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))


def test_toy_corpus_problems_are_clean_first_order():
    corpus = toy_corpus()
    seen = 0
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        if entry.is_definition:
            continue
        deps = (
            frozenset().union(*entry.dependencies)
            if entry.dependencies
            else frozenset()
        )
        premises = conjunct_premises(corpus, deps)
        p = translate_problem(premises, (entry.name, entry.statement), corpus.signature)
        text = text_of(p)
        # No higher-order residue survives the encoding.
        assert "lambda" not in text and "\\" not in text
        check_problem(p)
        assert text_of(parse_problem(text)) == text
        seen += 1
    assert seen >= 50


# ------------------------------------------------------ random property run


def test_random_statements_translate_and_round_trip():
    rng = random.Random(802)
    sig = toy_sig()
    for _ in range(300):
        n_prem = rng.randint(0, 3)
        stmts = [
            (f"p{i}", random_closed_formula(rng, depth=3)) for i in range(n_prem)
        ]
        goal = ("goal", random_closed_formula(rng, depth=4))
        p = translate_problem(stmts, goal, sig)
        arities = check_problem(p)
        assert all(a >= 0 for a in arities.values())
        text = text_of(p)
        assert text_of(parse_problem(text)) == text
