"""Core term language: types, typechecking, beta, substitution, conjuncts."""

import random

import pytest

from hammerkit.hol import (
    ArityMismatch,
    Abs,
    App,
    BOOL,
    Const,
    TyApp,
    TyVar,
    TypeMismatch,
    UnknownSymbol,
    Var,
    alpha_key,
    beta_normalize,
    dest_binder,
    dest_binop,
    free_vars,
    mk_conj,
    mk_const_app,
    mk_eq,
    mk_forall,
    mk_foralls,
    mk_fun,
    mk_fun_chain,
    split_conjuncts,
    strip_binders,
    subst,
    term_ty_vars,
    ty_subst,
    type_of,
)
from .feature_oracle import subterms
from .helpers import LIST_NAT, NAT, alpha_equal, random_closed_formula, random_term, toy_sig
from .typecheck_oracle import typecheck, validate_type


def test_type_helpers():
    f = mk_fun_chain([NAT, NAT], BOOL)
    assert f == mk_fun(NAT, mk_fun(NAT, BOOL))
    a = TyVar("A")
    inst = ty_subst(mk_fun(a, TyApp("list", (a,))), {"A": NAT})
    assert inst == mk_fun(NAT, LIST_NAT)


def test_validate_type_arity():
    sig = toy_sig()
    validate_type(TyApp("list", (NAT,)), sig)
    with pytest.raises(UnknownSymbol):
        validate_type(TyApp("tree", (NAT,)), sig)
    with pytest.raises(Exception):
        validate_type(TyApp("list", (NAT, NAT)), sig)


def test_type_of_app_and_const_instance():
    sig = toy_sig()
    n = Var("n", NAT)
    t = Var("t", LIST_NAT)
    cons = mk_const_app("CONS", (NAT,), [n, t])
    assert type_of(cons, sig) == LIST_NAT
    hd = App(Const("HD", (NAT,)), cons)
    assert type_of(hd, sig) == NAT
    typecheck(mk_eq(hd, n, NAT), sig)


def test_typecheck_rejects_bad_application():
    sig = toy_sig()
    bad = App(Const("HD", (NAT,)), Var("n", NAT))
    with pytest.raises(TypeMismatch):
        typecheck(bad, sig)


def test_typecheck_rejects_wrong_instantiation_arity():
    sig = toy_sig()
    with pytest.raises(ArityMismatch):
        typecheck(Const("HD", (NAT, NAT)), sig)
    with pytest.raises(UnknownSymbol):
        typecheck(Const("TL", (NAT,)), sig)


def test_free_vars_order_and_shadowing():
    x = Var("x", NAT)
    y = Var("y", NAT)
    t = App(App(Const("ADD"), x), Abs(x, App(App(Const("ADD"), x), y)))
    assert free_vars(t) == [x, y]
    # Same name at a different type is a different variable.
    x2 = Var("x", BOOL)
    assert free_vars(Abs(x, mk_eq(x2, x2, BOOL))) == [x2]


def test_subst_avoids_capture():
    x = Var("x", NAT)
    y = Var("y", NAT)
    t = Abs(y, App(App(Const("ADD"), x), y))
    r = subst(t, x, y)
    assert isinstance(r, Abs)
    assert r.var.name != "y"
    assert free_vars(r) == [y]
    sig = toy_sig()
    assert type_of(r, sig) == mk_fun(NAT, NAT)


def test_subst_respects_shadowing():
    x = Var("x", NAT)
    t = Abs(x, x)
    assert subst(t, x, Const("0")) == t


def test_beta_normalize():
    x = Var("x", NAT)
    y = Var("y", NAT)
    idn = Abs(x, x)
    assert beta_normalize(App(idn, y)) == y
    dup = Abs(x, App(App(Const("ADD"), x), x))
    r = beta_normalize(App(dup, App(Const("SUC"), y)))
    assert r == App(App(Const("ADD"), App(Const("SUC"), y)), App(Const("SUC"), y))
    # Reduction under binders too.
    inner = Abs(y, App(idn, y))
    assert beta_normalize(inner) == Abs(y, y)


def test_beta_preserves_type_and_is_idempotent():
    sig = toy_sig()
    rng = random.Random(7)
    for _ in range(200):
        ty = rng.choice([NAT, BOOL, LIST_NAT])
        t = random_term(rng, ty, 5)
        n = beta_normalize(t)
        assert type_of(n, sig) == type_of(t, sig)
        assert beta_normalize(n) == n


def test_alpha_equal_and_key():
    x = Var("x", NAT)
    y = Var("y", NAT)
    assert alpha_equal(Abs(x, x), Abs(y, y))
    assert alpha_key(mk_forall(x, mk_eq(x, x, NAT))) == alpha_key(
        mk_forall(y, mk_eq(y, y, NAT))
    )
    assert not alpha_equal(Abs(x, x), Abs(y, x))
    # Free variables must match exactly.
    assert not alpha_equal(x, y)


def test_subterms_includes_binder_bodies():
    x = Var("x", NAT)
    t = Abs(x, App(Const("SUC"), x))
    sub = subterms(t)
    assert t in sub
    assert App(Const("SUC"), x) in sub
    assert Const("SUC") in sub
    assert x in sub


def test_term_ty_vars_first_occurrence():
    a = TyVar("A")
    b = TyVar("B")
    v = Var("f", mk_fun(b, a))
    assert [tv.name for tv in term_ty_vars(v)] == ["B", "A"]


def test_constructors_and_destructors():
    sig = toy_sig()
    x = Var("x", NAT)
    f = mk_forall(x, mk_eq(x, x, NAT))
    typecheck(f, sig)
    v, body = dest_binder(f, "!")
    assert v == x
    assert dest_binder(f, "?") is None
    l, r = dest_binop(body, "=")
    assert l == r == x
    y = Var("y", BOOL)
    vs, stripped = strip_binders(mk_foralls([x, y], body), "!")
    assert [v.name for v in vs] == ["x", "y"]
    assert stripped == body
    lam = Abs(x, Abs(y, body))
    assert strip_binders(lam, "^") == ([x, y], body)
    assert strip_binders(lam, "!") == ([], lam)
    c = mk_conj(body, body)
    assert dest_binop(c, "&") == (body, body)


def _toy_formulas():
    x = Var("x", NAT)
    y = Var("y", NAT)
    le = lambda a, b: mk_const_app("LE", (), [a, b])
    return x, y, le


def test_split_conjuncts_atomic():
    x, y, le = _toy_formulas()
    g = mk_forall(x, le(x, x))
    assert split_conjuncts(g) == [g]


def test_split_conjuncts_distributes_quantifiers():
    # ! x. P x /\ (! y. Q x y) splits into two closed conjuncts, the second
    # keeping both binders in original order.
    x, y, le = _toy_formulas()
    g = mk_forall(x, mk_conj(le(x, x), mk_forall(y, le(x, y))))
    assert split_conjuncts(g) == [
        mk_forall(x, le(x, x)),
        mk_forall(x, mk_forall(y, le(x, y))),
    ]


def test_split_conjuncts_drops_unused_binders():
    x, y, le = _toy_formulas()
    g = mk_foralls([x, y], mk_conj(le(x, x), le(y, y)))
    assert split_conjuncts(g) == [mk_forall(x, le(x, x)), mk_forall(y, le(y, y))]


def test_split_conjuncts_nested_four_way():
    x, y, le = _toy_formulas()
    g = mk_conj(
        mk_conj(le(x, x), le(y, y)),
        mk_conj(le(x, y), le(y, x)),
    )
    g = mk_foralls([x, y], g)
    assert split_conjuncts(g) == [
        mk_forall(x, le(x, x)),
        mk_forall(y, le(y, y)),
        mk_foralls([x, y], le(x, y)),
        mk_foralls([x, y], le(y, x)),
    ]


def test_split_conjuncts_recurses_through_inner_quantifiers():
    # ! x. P /\ (! y. Q /\ R) distributes both quantifiers and keeps
    # splitting: three conjuncts, the inner two binding x and y.
    x, y, le = _toy_formulas()
    g = mk_forall(x, mk_conj(le(x, x), mk_forall(y, mk_conj(le(x, y), le(y, x)))))
    assert split_conjuncts(g) == [
        mk_forall(x, le(x, x)),
        mk_foralls([x, y], le(x, y)),
        mk_foralls([x, y], le(y, x)),
    ]


def test_split_random_statements_rejoin():
    # Every split conjunct is closed and well-typed.
    sig = toy_sig()
    rng = random.Random(11)
    for _ in range(150):
        g = random_closed_formula(rng)
        for stmt in split_conjuncts(g):
            assert free_vars(stmt) == []
            assert type_of(stmt, sig) == BOOL
