"""The bundled saturation prover: unification, ordering, proofs, verdicts."""

import json
import subprocess
import sys
import time

import pytest

from hammerkit import harness
from hammerkit.provers.microres import (
    Result,
    _canon,
    _kbo_greater,
    apply_subst,
    main,
    prove,
    subsumes,
    unify,
)
from hammerkit.tptp import parse_problem, parse_szs


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


def test_subsumes_instance_and_sublause():
    gen = _canon([(True, "p", (v("X"),))])
    spec = _canon([(True, "p", (A,)), (True, "q", (B,))])
    assert subsumes(gen, spec)
    assert not subsumes(spec, gen)


def test_subsumes_respects_polarity():
    pos = _canon([(True, "p", (A,))])
    neg = _canon([(False, "p", (A,))])
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


# Two places ``serve`` runs: "module" is the harness's worker, a fork of this
# interpreter that has the module imported already; "script" is a fresh
# interpreter that imports it and serves its own stdio, so ``serve`` needs
# nothing the fork inherits.
SERVE_SCRIPT = (
    "import sys; from hammerkit.provers.microres import serve; "
    "sys.exit(serve(sys.stdin, sys.stdout))"
)


@pytest.mark.parametrize("launcher", ["module", "script"])
def test_serve_answers_exactly_as_main(tmp_path, capsys, launcher):
    good = problem_file(tmp_path, "fof(a1, axiom, p).\nfof(goal, conjecture, p).\n")
    bad = str(tmp_path / "bad.p")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("fof(goal, conjecture, p.\n")
    calls = [[good, "--timeout", "5"], [bad], ["--no-such-flag"], [good]]
    expected = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        expected.append([code, capsys.readouterr().out])
    if launcher == "module":
        worker = harness._Worker()
        try:
            deadline = time.monotonic() + 60
            runs = [worker.ask(argv, deadline) for argv in calls]
            # The end of the requests ends the worker cleanly.
            worker.proc.stdin.close()
            assert worker.proc.wait(10) == 0
        finally:
            worker.stop()
        assert not any(r.timed_out for r in runs)
        answers = [[r.exit_code, r.output] for r in runs]
    else:
        proc = subprocess.run(
            [sys.executable, "-c", SERVE_SCRIPT],
            input="".join(json.dumps(argv) + "\n" for argv in calls),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        answers = [json.loads(line) for line in proc.stdout.splitlines()]
    assert answers == expected
    assert expected[0][0] == 0 and expected[1][0] == 1 and expected[2][0] == 2
