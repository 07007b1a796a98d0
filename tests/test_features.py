"""Feature extraction and variable normalizations."""

import random
from importlib import resources
from pathlib import Path

import pytest

from hammerkit.corpus import load_corpus, parse_tt
from hammerkit.features import extract
from hammerkit.hol import (
    Abs,
    App,
    Const,
    TyVar,
    Var,
    mk_const_app,
    mk_eq,
    mk_forall,
    mk_fun,
    subst,
)
from .feature_oracle import NormScheme, normalize_print, oracle_extract, subterms
from .helpers import (
    LIST_NAT,
    NAT,
    random_closed_formula,
    random_formula,
    random_poly_formula,
    toy_sig,
)

TOY = Path(str(resources.files("hammerkit") / "data" / "toy"))


def hd_cons() -> tuple:
    n = Var("n", NAT)
    t = Var("t", LIST_NAT)
    cons = mk_const_app("CONS", (NAT,), [n, t])
    return n, t, App(Const("HD", (NAT,)), cons)


def test_normalize_print_one_var():
    _, _, term = hd_cons()
    assert normalize_print(term, NormScheme.ONE_VAR) == "(HD (CONS X X))"


def test_normalize_print_type_of_var():
    n, t, term = hd_cons()
    assert normalize_print(n, NormScheme.TYPE_OF_VAR) == "nat"
    assert normalize_print(t, NormScheme.TYPE_OF_VAR) == "(list nat)"
    assert normalize_print(term, NormScheme.TYPE_OF_VAR) == "(HD (CONS nat (list nat)))"


def test_normalize_print_de_bruijn():
    x = Var("x", NAT)
    y = Var("y", NAT)
    t = Abs(x, Abs(y, App(App(Const("ADD"), x), y)))
    assert normalize_print(t, NormScheme.DE_BRUIJN) == "(\\. (\\. (ADD #1 #0)))"
    free = App(Const("SUC"), x)
    assert normalize_print(free, NormScheme.DE_BRUIJN) == "(SUC #f0)"
    # Distinct free variables get distinct numbers, by first occurrence.
    two = App(App(Const("ADD"), y), x)
    assert normalize_print(two, NormScheme.DE_BRUIJN) == "(ADD #f0 #f1)"


def test_type_variables_renamed_by_first_occurrence():
    a = TyVar("Q")
    got = extract(mk_eq(Var("x", a), Var("x", a), a))
    assert "v:A" in got
    assert "s:A" in got  # TypeOfVar printing of the variable subterm
    # Two-variable types rename in order of appearance.
    b = TyVar("Zz")
    v = Var("f", mk_fun(b, a))
    assert normalize_print(v, NormScheme.TYPE_OF_VAR) == "(fun A B)"


def test_extract_collects_all_kinds():
    _, _, term = hd_cons()
    feats = extract(term)
    assert "c:HD" in feats
    assert "c:CONS" in feats
    assert "t:nat" in feats
    assert "t:list" in feats
    assert "s:(HD (CONS X X))" in feats
    assert "s:(HD (CONS nat (list nat)))" in feats
    assert "s:(HD (CONS #f0 #f1))" in feats
    # Variable subterms normalize into each scheme too.
    assert "s:X" in feats
    assert "s:nat" in feats


def test_extract_is_alpha_invariant():
    x = Var("x", NAT)
    y = Var("y", NAT)
    f = mk_forall(x, mk_eq(App(Const("SUC"), x), x, NAT))
    g = mk_forall(y, mk_eq(App(Const("SUC"), y), y, NAT))
    assert extract(f) == extract(g)


def test_extract_alpha_invariance_random():
    rng = random.Random(31)
    for _ in range(80):
        f = random_closed_formula(rng)
        feats = extract(f)
        # Rename every bound variable by priming; features are unchanged.
        def rename(t, depth=0):
            if isinstance(t, Var):
                return t
            if isinstance(t, Const):
                return t
            if isinstance(t, App):
                return App(rename(t.fun, depth), rename(t.arg, depth))
            v2 = Var(t.var.name + "_r" + str(depth), t.var.ty)
            return Abs(v2, rename(subst(t.body, t.var, v2), depth + 1))

        assert extract(rename(f)) == feats


def test_extract_covers_every_subterm():
    rng = random.Random(13)
    for _ in range(40):
        f = random_closed_formula(rng, depth=3)
        feats = extract(f)
        for sub in subterms(f):
            for scheme in NormScheme:
                assert "s:" + normalize_print(sub, scheme) in feats


def toy_statements():
    corpus = load_corpus(TOY)
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        yield entry.name, entry.statement
        for cid in entry.conjunct_ids():
            yield corpus.conjunct_label(cid), corpus.conjunct_statement(cid)


def test_extract_equals_oracle_on_toy_corpus():
    checked = 0
    for name, statement in toy_statements():
        assert extract(statement) == oracle_extract(statement), name
        checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "formula",
    [random_closed_formula, random_poly_formula, lambda rng: random_formula(rng, 4)],
    ids=["monomorphic", "polymorphic", "open"],
)
def test_extract_equals_oracle_on_random_formulas(formula):
    rng = random.Random(17)
    for _ in range(150):
        f = formula(rng)
        assert extract(f) == oracle_extract(f)


def test_polymorphic_formulas_rename_type_variables():
    rng = random.Random(17)
    feats = set().union(*(extract(random_poly_formula(rng)) for _ in range(40)))
    assert {"v:A", "v:B", "s:(fun A B)"} <= feats
    assert not any("Q" in f or "R" in f for f in feats)


def test_long_conjunction_gets_its_features():
    n = 600
    text = "tt(long, ax, " + " & ".join(["0 = 0"] * n) + ")."
    (entry,) = parse_tt(text, toy_sig())
    feats = extract(entry.formula)
    whole = "(= 0 0)"
    for _ in range(n - 1):
        whole = f"(& (= 0 0) {whole})"
    assert "s:" + whole in feats
    assert {"c:&", "c:=", "c:0", "t:nat"} <= feats
    # The n - 1 suffixes headed by &, then (= 0 0), (= 0), (& (= 0 0)),
    # =, & and 0.
    assert sum(f.startswith("s:") for f in feats) == (n - 1) + 6
