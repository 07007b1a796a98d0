"""The bundled saturation prover: unification, ordering, proofs, verdicts."""

import random
import time
from importlib import resources
from pathlib import Path

import pytest

from hammerkit import harness
from hammerkit.corpus import AccessRelation, load_corpus
from hammerkit.provers import microres
from hammerkit.provers.microres import (
    _instance,
    _kbo_greater,
    _normal_form,
    apply_subst,
    main,
    prove,
    saturate,
    subsumes,
    unify,
)
from hammerkit.tptp import parse_problem, parse_szs

from . import instance_oracle, rewrite_oracle


def v(name):
    return ("v", name)


def f(sym, *args):
    return ("f", sym, tuple(args))


A = f("a")
B = f("b")


def proved(text: str):
    out, res = prove(parse_problem(text), timeout=10.0)
    return out, res


# -------------------------------------------------------------- unification


def test_unify_binds_variable():
    s = unify(v("X"), f("g", A), {})
    assert s is not None
    assert apply_subst(v("X"), s) == f("g", A)


def test_unify_symbol_clash_fails():
    assert unify(f("g", A), f("h", A), {}) is None
    assert unify(f("g", A), f("g", A, B), {}) is None


def test_unify_occurs_check():
    assert unify(v("X"), f("g", v("X")), {}) is None


def test_unify_chains_resolve_through_subst():
    s = unify(f("g", v("X"), v("X")), f("g", v("Y"), A), {})
    assert s is not None
    assert apply_subst(v("X"), s) == A
    assert apply_subst(v("Y"), s) == A


def canon(lits):
    return _instance(lits, {})[0]


def test_subsumes_instance_and_sublause():
    gen = canon([(True, "p", (v("X"),))])
    spec = canon([(True, "p", (A,)), (True, "q", (B,))])
    assert subsumes(gen, spec)
    assert not subsumes(spec, gen)


def test_subsumes_respects_polarity():
    pos = canon([(True, "p", (A,))])
    neg = canon([(False, "p", (A,))])
    assert not subsumes(pos, neg)


# ----------------------------------------------------------------- ordering


def test_kbo_subterm_and_weight():
    assert _kbo_greater(f("g", A), A)
    assert not _kbo_greater(A, f("g", A))
    assert not _kbo_greater(v("X"), A)


def test_kbo_variable_condition():
    # g(X) vs h(Y): right side has a variable absent on the left.
    assert not _kbo_greater(f("g", v("X")), f("h", v("Y")))
    assert _kbo_greater(f("g", v("X"), v("X")), f("h", v("X")))


def test_kbo_precedence_arity_then_name():
    # Same weight: higher arity wins, then the later name.
    assert _kbo_greater(f("m", A, B), f("g", f("c", A, B))) is False
    assert _kbo_greater(f("suc", A), f("dub", A))
    assert not _kbo_greater(f("dub", A), f("suc", A))


def test_kbo_is_irreflexive_and_asymmetric():
    terms = [A, f("g", A), f("g", v("X")), f("m", v("X"), v("Y")), v("X")]
    for t in terms:
        assert not _kbo_greater(t, t)
        for u in terms:
            if _kbo_greater(t, u):
                assert not _kbo_greater(u, t)


# ------------------------------------------------------------------- proofs


def test_modus_ponens():
    out, res = proved(
        "fof(a1, axiom, p).\n"
        "fof(a2, axiom, (p => q)).\n"
        "fof(goal, conjecture, q).\n"
    )
    assert res.status == "Theorem"
    assert set(res.used) == {"a1", "a2", "goal"}
    assert "% SZS status Theorem" in out


def test_reflexivity_needs_no_axioms():
    out, res = proved("fof(goal, conjecture, ! [X] : X = X).\n")
    assert res.status == "Theorem"
    assert res.used == ["goal"]


def test_equality_symmetry_without_axioms():
    _, res = proved(
        "fof(a1, axiom, a = b).\n"
        "fof(goal, conjecture, b = a).\n"
    )
    assert res.status == "Theorem"
    assert set(res.used) == {"a1", "goal"}


def test_equality_congruence_without_axioms():
    _, res = proved(
        "fof(a1, axiom, a = b).\n"
        "fof(goal, conjecture, g(a) = g(b)).\n"
    )
    assert res.status == "Theorem"


def test_transitive_rewrite_chain():
    _, res = proved(
        "fof(a1, axiom, a = b).\n"
        "fof(a2, axiom, b = c).\n"
        "fof(a3, axiom, c = d).\n"
        "fof(goal, conjecture, a = d).\n"
    )
    assert res.status == "Theorem"
    assert set(res.used) == {"a1", "a2", "a3", "goal"}


def test_computation_by_demodulation():
    _, res = proved(
        "fof(add0, axiom, ! [X] : add(zero,X) = X).\n"
        "fof(adds, axiom, ! [X,Y] : add(suc(X),Y) = suc(add(X,Y))).\n"
        "fof(dub, axiom, ! [X] : double(X) = add(X,X)).\n"
        "fof(goal, conjecture, double(suc(zero)) = suc(suc(zero))).\n"
    )
    assert res.status == "Theorem"
    # The proof closes by rewriting; the rules it used must still be
    # reported so unsat cores stay complete.
    assert set(res.used) == {"add0", "adds", "dub", "goal"}


def test_paramodulation_into_hypothesis():
    _, res = proved(
        "fof(a1, axiom, ! [X] : (p(X) => q(g(X)))).\n"
        "fof(a2, axiom, g(a) = b).\n"
        "fof(a3, axiom, p(a)).\n"
        "fof(goal, conjecture, q(b)).\n"
    )
    assert res.status == "Theorem"
    assert set(res.used) == {"a1", "a2", "a3", "goal"}


def test_group_right_identity():
    _, res = proved(
        "fof(assoc, axiom, ! [X,Y,Z] : m(m(X,Y),Z) = m(X,m(Y,Z))).\n"
        "fof(lid, axiom, ! [X] : m(e,X) = X).\n"
        "fof(linv, axiom, ! [X] : m(i(X),X) = e).\n"
        "fof(goal, conjecture, ! [X] : m(X,e) = X).\n"
    )
    assert res.status == "Theorem"


def test_existential_goal_with_equations():
    _, res = proved(
        "fof(a1, axiom, ! [X] : add(zero,X) = X).\n"
        "fof(goal, conjecture, ? [K] : add(K, a) = a).\n"
    )
    assert res.status == "Theorem"


def test_countersatisfiable_on_distinct_constants():
    out, res = proved(
        "fof(a1, axiom, p(a)).\n"
        "fof(goal, conjecture, p(b)).\n"
    )
    assert res.status == "CounterSatisfiable"
    assert res.used == []
    assert "% SZS status CounterSatisfiable" in out


def test_countersatisfiable_maps_to_disproved():
    out, _ = proved(
        "fof(a1, axiom, p(a)).\nfof(goal, conjecture, p(b)).\n"
    )
    status = parse_szs(out, exit_code=0)
    assert not status.proved
    assert status.kind == "CounterSatisfiable"


def test_saturation_with_equality_gives_up():
    # Theorem: X = a makes b and c equal.  Paramodulation never rewrites
    # from the bare variable side, so the search saturates without a
    # proof; that is no evidence of a model.
    out, res = proved(
        "fof(a1, axiom, ! [X] : X = a).\n"
        "fof(a2, axiom, p(b)).\n"
        "fof(goal, conjecture, p(c)).\n"
    )
    assert res.status == "GaveUp"
    assert "% SZS status GaveUp" in out


def test_equivalence_chain_is_decided():
    # Multiplied out blindly, its CNF repeats 32 distinct clauses some
    # 333k times and the search times out before it starts.
    problem = parse_problem(
        "fof(goal, conjecture, (p1 <=> (p2 <=> (p3 <=> (p4 <=> (p5 <=> p6)))))).\n"
    )
    _, res = prove(problem, timeout=3)
    assert res.status == "CounterSatisfiable"


def test_timeout_status():
    # An unsatisfiable-looking but hard pure-equality search with no time.
    problem = parse_problem(
        "fof(assoc, axiom, ! [X,Y,Z] : m(m(X,Y),Z) = m(X,m(Y,Z))).\n"
        "fof(goal, conjecture, ! [X] : m(X,X) = m(X,m(X,m(X,X)))).\n"
    )
    _, res = prove(problem, timeout=0.0)
    assert res.status == "Timeout"


def test_timeout_covers_clausification():
    # A disjunction of 18 conjunctions has 2^18 distinct clauses, which
    # take seconds to build; the clock must stop that, not only the search.
    body = " | ".join(f"(a{i} & b{i})" for i in range(18))
    problem = parse_problem(f"fof(a, axiom, {body}).\nfof(goal, conjecture, q).\n")
    start = time.monotonic()
    _, res = prove(problem, timeout=0.5)
    assert res.status == "Timeout"
    assert time.monotonic() - start < 1.5


def test_timeout_covers_equivalence_expansion():
    # Negation normal form expands each <=> into both polarities of both
    # sides, so a chain of 19 atoms builds some 2^19 nodes before the first
    # clause; the clock must stop that too.
    chain = "p0"
    for i in range(1, 19):
        chain = f"(p{i} <=> {chain})"
    problem = parse_problem(f"fof(goal, conjecture, {chain}).\n")
    start = time.monotonic()
    _, res = prove(problem, timeout=0.5)
    assert res.status == "Timeout"
    assert time.monotonic() - start < 1.5


def test_gave_up_on_clause_budget():
    problem = parse_problem(
        "fof(a1, axiom, p(a)).\n"
        "fof(a2, axiom, ! [X] : (p(X) => p(g(X)))).\n"
        "fof(goal, conjecture, q).\n"
    )
    _, res = prove(problem, timeout=10.0, max_clauses=20)
    assert res.status == "GaveUp"


def test_proof_block_lists_used_inputs():
    out, _ = proved(
        "fof(a1, axiom, p).\n"
        "fof(unused, axiom, r).\n"
        "fof(a2, axiom, (p => q)).\n"
        "fof(goal, conjecture, q).\n"
    )
    assert "% SZS output start Proof" in out
    assert "fof(a1, axiom, p)." in out
    assert "fof(goal, conjecture, q)." in out
    assert "unused" not in out


# ---------------------------------------------------------------- rewriting


def test_first_registered_rule_wins():
    rules = [(7, f("g", v("X_d")), B), (3, f("g", A), f("c"))]
    used = set()
    assert rewrite_oracle.normalize(f("h", f("g", A)), rules, used) == f("h", B)
    assert used == {7}
    memo = {}
    assert _normal_form(f("h", f("g", A)), rules, memo) == (f("h", B), {7})
    # Remembered, and the same again.
    assert _normal_form(f("h", f("g", A)), rules, memo) == (f("h", B), {7})
    assert _normal_form(f("h", f("g", A)), rules[1:], {}) == (f("h", f("c")), {3})


def test_normal_forms_follow_a_rewrite_chain():
    # a -> b inside g(a) makes g(b), which g(b) -> c rewrites at the root.
    rules = [(0, A, B), (1, f("g", B), f("c"))]
    memo = {}
    term = f("h", f("g", A), f("g", B))
    assert _normal_form(term, rules, memo) == (f("h", f("c"), f("c")), {0, 1})
    # Every term met on the way has the rules of its own chain only.
    assert memo[f("g", B)] == (f("c"), {1})
    assert memo[f("g", A)] == (f("c"), {0, 1})
    assert memo[f("c")] == (f("c"), set())


def spy_demodulate(monkeypatch):
    """Record every ``_demodulate`` call of the search as (literals in,
    literals out, rule indices given)."""
    calls = []
    demodulate = microres._demodulate

    def spy(lits, rules, memo, used):
        out = demodulate(lits, rules, memo, used)
        calls.append((list(lits), out, [idx for idx, _, _ in rules]))
        return out

    monkeypatch.setattr(microres, "_demodulate", spy)
    return calls


def test_rule_derived_later_rewrites_a_clause_when_it_is_selected(monkeypatch):
    calls = spy_demodulate(monkeypatch)
    late = (True, "p", (f("g", A), f("g", A), f("g", A)))
    inputs = [
        ((late,), "late"),  # pushed when there is no rule yet
        (((True, "q", ()), (True, "=", (f("g", A), B))), "split"),
        (((False, "q", ()),), "not_q"),
        (((False, "r", ()),), "goal"),
    ]
    saturate(inputs, None, 50)
    # g(a) = b is resolved out of "split" before the heavier "late" is
    # selected, and rewrites it then.
    assert ([late], [(True, "p", (B, B, B))]) in [(lits, out) for lits, out, _ in calls]


def test_unit_equation_is_never_rewritten_by_its_own_rule(monkeypatch):
    calls = spy_demodulate(monkeypatch)
    unit = (True, "=", (f("g", f("g", f("g", A))), B))
    inputs = [
        ((unit,), "unit"),  # clause 0, with its own rule g(g(g(a))) -> b
        (((True, "q", ()), (True, "=", (f("h", A), B))), "split"),
        (((False, "q", ()),), "not_q"),
        (((False, "r", ()),), "goal"),
    ]
    saturate(inputs, None, 50)
    # The rule h(a) -> b, derived before "unit" is selected, has the
    # search look at it again, without its own rule: it stays as it is.
    again = [(out, rules) for lits, out, rules in calls if lits == [unit]]
    assert again
    for out, rules in again:
        assert out == [unit]
        assert 0 not in rules


# The clause cap of the ranked problems the oracle checks.
ORACLE_CAP = 100


@pytest.fixture(scope="module")
def toy_problems():
    """The toy corpus's exact-dependency problems and its ``loaded``
    top-16 problems, as the bundled prover reads them."""
    corpus = load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))
    exact, ranked = [], []
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        if entry.is_definition:
            continue
        goal = (entry.name, entry.statement)
        premises = harness.conjunct_premises(corpus, frozenset().union(*entry.dependencies))
        exact.append(parse_problem(harness.build_problem(corpus, premises, goal)[1]))
        top = harness.suggest(
            corpus, entry.statement, k=40, n_premises=16,
            relation=AccessRelation("loaded"), target=tid,
        )
        premises = [(corpus.conjunct_label(c), corpus.conjunct_statement(c)) for c, _ in top]
        ranked.append(parse_problem(harness.build_problem(corpus, premises, goal)[1]))
    return exact, ranked


def test_normal_forms_agree_with_the_oracle(monkeypatch, toy_problems):
    demodulate = microres._demodulate
    terms = rewritten = 0

    def checked(lits, rules, memo, used):
        nonlocal terms, rewritten
        out = demodulate(lits, rules, memo, used)
        want_used = set()
        assert out == rewrite_oracle.demodulate(lits, rules, want_used)
        assert used >= want_used
        for _, _, args in lits:
            for a in args:
                want_used = set()
                want = rewrite_oracle.normalize(a, rules, want_used)
                # Read back from the memo the search just filled.
                assert _normal_form(a, rules, memo) == (want, want_used)
                terms += 1
                rewritten += bool(want_used)
        return out

    monkeypatch.setattr(microres, "_demodulate", checked)
    exact, ranked = toy_problems
    for problem in exact:
        prove(problem, timeout=None)
    for problem in ranked:
        prove(problem, timeout=None, max_clauses=ORACLE_CAP)
    assert terms > 10000 and rewritten > 1000


# ------------------------------------------------------------ conclusions


def test_conclusions_agree_with_the_oracle(monkeypatch, toy_problems):
    instance = microres._instance
    calls = bound = merged = 0

    def checked(lits, s):
        nonlocal calls, bound, merged
        lits = list(lits)
        out = instance(lits, s)
        assert out == instance_oracle.instance(lits, s)
        calls += 1
        bound += bool(s)
        merged += len(out[0]) < len(lits)
        return out

    monkeypatch.setattr(microres, "_instance", checked)
    exact, ranked = toy_problems
    for problem in exact:
        prove(problem, timeout=None)
    for problem in ranked:
        prove(problem, timeout=None, max_clauses=ORACLE_CAP)
    assert calls > 10000 and bound > 5000 and merged > 100


def random_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.4:
        return v(rng.choice(names)) if names and rng.random() < 0.7 else f(rng.choice("abc"))
    return f(rng.choice("ghm"), *(random_term(rng, names, depth - 1) for _ in range(rng.randint(1, 3))))


def one_step(t, s):
    """t with each variable replaced by its binding, bindings not followed."""
    if t[0] == "v":
        return s.get(t[1], t)
    return ("f", t[1], tuple(one_step(a, s) for a in t[2]))


def random_case(rng):
    """Literals and a unifier as unification leaves one: the variables
    come in three tiers, and a bound variable's term uses only variables
    of the tiers after its own, so bindings chain, never cycle and stay
    small.  Each literal is also repeated with its variables bound one
    step, which makes it a duplicate under the unifier."""
    names = [f"X{i}" for i in range(rng.choice((3, 10, 90)))]
    tiers = [names[k::3] for k in range(3)]
    s = {}
    for k in (0, 1):
        later = tiers[k + 1] + tiers[2] if k == 0 else tiers[2]
        for name in tiers[k]:
            if rng.random() < 0.5:
                s[name] = v(rng.choice(later)) if later and rng.random() < 0.5 else random_term(rng, later, 2)
    lits = []
    for _ in range(rng.randint(1, 5)):
        args = tuple(random_term(rng, names, 3) for _ in range(rng.randint(0, 3)))
        lit = (rng.random() < 0.5, rng.choice("pq="), args)
        lits.append(lit)
        if rng.random() < 0.5:
            lits.append((lit[0], lit[1], tuple(one_step(a, s) for a in args)))
    # Every variable in one literal: more than the name table holds.
    if len(names) > 40 and rng.random() < 0.5:
        lits.append((True, "r", tuple(v(name) for name in names)))
    rng.shuffle(lits)
    return lits, s


def test_random_conclusions_agree_with_the_oracle():
    rng = random.Random(23)
    chained = merged = most = 0
    for _ in range(600):
        lits, s = random_case(rng)
        out = _instance(lits, s)
        assert out == instance_oracle.instance(lits, s)
        chained += any(b[0] == "v" and b[1] in s for b in s.values())
        merged += len(out[0]) < len(set(lits))
        most = max(most, len({t for lit in out[0] for a in lit[2] for t in variables(a)}))
    assert chained > 150 and merged > 150 and most > len(microres._VARS)


def variables(t):
    if t[0] == "v":
        yield t
    else:
        for a in t[2]:
            yield from variables(a)


# ------------------------------------------------------------ command line


def problem_file(tmp_path, text):
    path = tmp_path / "problem.p"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_main_proves_from_file(tmp_path, capsys):
    path = problem_file(
        tmp_path,
        "fof(a1, axiom, p).\nfof(goal, conjecture, p).\n",
    )
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "% SZS status Theorem" in out


def test_main_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("fof(goal, conjecture, ! [X] : X = X).\n")
    )
    assert main(["-"]) == 0
    assert "% SZS status Theorem" in capsys.readouterr().out


def test_main_reports_input_error(tmp_path, capsys):
    path = problem_file(tmp_path, "fof(goal, conjecture, p.\n")
    assert main([path]) == 1
    assert "% SZS status InputError" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, line",
    [
        ("fof(goal, conjecture, p.\n", "% line 1, column 24: expected ')', found '.'"),
        ("% a problem\nfof(goal, conjecture,\n   p @ q).\n", "% line 3, column 6: unexpected character '@'"),
    ],
    ids=["grammar", "char"],
)
def test_main_prints_where_the_input_error_is(tmp_path, capsys, text, line):
    assert main([problem_file(tmp_path, text)]) == 1
    assert capsys.readouterr().out.splitlines() == ["% SZS status InputError", line]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--timeout", "nan"], "argument --timeout: must be a positive finite number, not 'nan'"),
        (["--timeout", "inf"], "argument --timeout: must be a positive finite number, not 'inf'"),
        (["--timeout", "-1"], "argument --timeout: must be a positive finite number, not '-1'"),
        (["--timeout", "0"], "argument --timeout: must be a positive finite number, not '0'"),
        (["--max-clauses", "-3"], "argument --max-clauses: must be an integer of at least 1, not '-3'"),
        (["--max-clauses", "0"], "argument --max-clauses: must be an integer of at least 1, not '0'"),
    ],
)
def test_main_refuses_limits_that_mean_nothing(tmp_path, capsys, flags, message):
    path = problem_file(tmp_path, "fof(goal, conjecture, p).\n")
    with pytest.raises(SystemExit) as e:
        main([path, *flags])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"hammer-microres: error: {message}"
