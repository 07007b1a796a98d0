"""Prover configs, process runs, reports, advice, and core shrinking."""

import sys

import pytest

from hammerkit.corpus import AccessRelation, load_corpus_files
from hammerkit.fof import translate_problem
from hammerkit.harness import (
    NoProofFound,
    ProverConfig,
    SpawnError,
    UnsatCore,
    advise,
    builtin_config,
    default_provers,
    experiment,
    load_prover_configs,
    minimize_core,
    reprove,
    restrict_problem,
    run_prover,
    suggest,
    write_report,
)
from hammerkit.tptp import print_problem
from .helpers import TOY_DECLS, toy_sig

THY = "theory(arith, []).\ntheory(club, [arith]).\n"

ARITH_TT = TOY_DECLS + """\
tt(ADD_DEF, ax, (![n:nat]: (ADD 0 n = n)) & (![m:nat, n:nat]: (ADD (SUC m) n = SUC (ADD m n)))).
tt(ADD_0, ax, ADD 0 0 = 0).
"""
ARITH_DEPS = "deps(ADD_0_c1, [ADD_DEF_c1]).\n"

CLUB_TT = """\
tt(ADD_1, ax, ADD (SUC 0) 0 = SUC 0).
tt(ADD_BOTH, ax, (ADD 0 0 = 0) & (ADD 0 (SUC 0) = SUC 0)).
"""
CLUB_DEPS = """\
deps(ADD_1_c1, [ADD_DEF]).
deps(ADD_BOTH_c1, [ADD_DEF_c1]).
deps(ADD_BOTH_c2, [ADD_DEF_c1]).
"""


def tiny_corpus():
    return load_corpus_files(
        THY, {"arith": (ARITH_TT, ARITH_DEPS), "club": (CLUB_TT, CLUB_DEPS)}
    )


def micro(timeout=10.0):
    return builtin_config("microres", timeout=timeout)


def trivial_problem():
    sig = toy_sig()
    from hammerkit.corpus import parse_tt

    [p] = parse_tt("tt(p, ax, LE 0 0).", sig)
    [g] = parse_tt("tt(g, ax, LE 0 0).", sig)
    return translate_problem([("p", p.formula)], ("goal", g.formula), sig)


# ------------------------------------------------------------------ configs


def test_command_substitutes_placeholders():
    cfg = ProverConfig("x", "prover", ("{problem}", "-t", "{timeout}"), timeout=7.0)
    assert cfg.command("f.p") == ["prover", "f.p", "-t", "7"]
    half = ProverConfig("x", "prover", ("{timeout}",), timeout=2.5)
    assert cfg.command("f.p")[0] == "prover"
    assert half.command("f.p") == ["prover", "2.5"]


def test_command_rejects_unknown_placeholder():
    cfg = ProverConfig("x", "prover", ("{nope}",))
    with pytest.raises(ValueError):
        cfg.command("f.p")


def test_config_validation():
    with pytest.raises(ValueError):
        ProverConfig("x", "prover", (), n_premises=0)
    with pytest.raises(ValueError):
        ProverConfig("x", "prover", (), timeout=0.0)


def test_builtin_config_names():
    cfg = builtin_config("microres", timeout=3.0, n_premises=5)
    assert cfg.executable == sys.executable
    assert cfg.n_premises == 5
    assert cfg.timeout == 3.0
    with pytest.raises(ValueError):
        builtin_config("nosuch")


def test_env_var_overrides_executable(monkeypatch):
    monkeypatch.setenv("HAMMER_PROVER_VAMPIRE", "/opt/bin/vampire9")
    assert builtin_config("vampire").executable == "/opt/bin/vampire9"


def test_default_provers_start_with_bundled():
    provers = default_provers()
    assert provers[0].name == "microres"


def test_load_prover_configs(tmp_path):
    path = tmp_path / "provers.cfg"
    path.write_text(
        "[microres]\n"
        "n_premises = 7\n"
        "timeout = 3.5\n"
        "[mytool]\n"
        "executable = mybin\n"
        "args = --in {problem} --t {timeout}\n",
        encoding="utf-8",
    )
    configs = {c.name: c for c in load_prover_configs(path)}
    assert configs["microres"].n_premises == 7
    assert configs["microres"].timeout == 3.5
    assert configs["microres"].executable == sys.executable
    assert configs["mytool"].args == ("--in", "{problem}", "--t", "{timeout}")


def test_load_prover_configs_requires_executable(tmp_path):
    path = tmp_path / "provers.cfg"
    path.write_text("[mystery]\nn_premises = 4\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_prover_configs(path)


def test_load_prover_configs_rejects_empty(tmp_path):
    path = tmp_path / "provers.cfg"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        load_prover_configs(path)


# -------------------------------------------------------------- prover runs


def write_problem(tmp_path, problem):
    path = tmp_path / "goal.p"
    path.write_text(print_problem(problem), encoding="utf-8")
    return path


def test_run_prover_proves_and_extracts_core(tmp_path):
    problem = trivial_problem()
    path = write_problem(tmp_path, problem)
    result = run_prover(path, micro(), problem=problem, target="goal")
    assert result.status.proved
    assert result.core is not None
    assert result.core.premises == ("p",)
    assert result.core.complete
    assert result.wall_time > 0


def test_run_prover_missing_binary(tmp_path):
    path = write_problem(tmp_path, trivial_problem())
    cfg = ProverConfig("ghost", "/no/such/binary", ("{problem}",))
    with pytest.raises(SpawnError):
        run_prover(path, cfg)


def test_run_prover_garbage_output_is_gave_up(tmp_path):
    path = write_problem(tmp_path, trivial_problem())
    cfg = ProverConfig("true", "true", ())
    result = run_prover(path, cfg)
    assert result.status.kind == "GaveUp"
    assert not result.status.proved


def test_run_prover_nonzero_exit_is_error(tmp_path):
    path = write_problem(tmp_path, trivial_problem())
    cfg = ProverConfig("sh", "sh", ("-c", "exit 3"))
    result = run_prover(path, cfg)
    assert result.status.kind == "Error"
    assert "exit code 3" in result.status.detail


def test_run_prover_kills_overtime_process(tmp_path):
    path = write_problem(tmp_path, trivial_problem())
    cfg = ProverConfig("sleepy", "sleep", ("60",), timeout=0.2)
    result = run_prover(path, cfg)
    assert result.status.kind == "Timeout"
    assert result.wall_time < 30


# ------------------------------------------------------------------ reprove


def test_reprove_exact_dependencies():
    c = tiny_corpus()
    report = reprove(c, [micro()], jobs=2)
    # Definitions are premises, not targets.
    assert set(report.targets) == {"ADD_0", "ADD_1", "ADD_BOTH"}
    assert report.solved("microres") == {"ADD_0", "ADD_1", "ADD_BOTH"}
    assert report.percent() == 100.0
    assert report.union_solved == report.solved("microres")
    assert report.unique("microres") == report.solved("microres")


def test_reprove_conjunct_split():
    c = tiny_corpus()
    report = reprove(c, [micro()], split="conjuncts")
    assert set(report.targets) == {
        "ADD_0_c1",
        "ADD_1_c1",
        "ADD_BOTH_c1",
        "ADD_BOTH_c2",
    }
    assert report.percent() == 100.0
    with pytest.raises(ValueError):
        reprove(c, [micro()], split="both")


def test_parallel_and_sequential_reports_agree():
    c = tiny_corpus()
    seq = reprove(c, [micro()], jobs=1)
    par = reprove(c, [micro()], jobs=4)
    assert seq.targets == par.targets
    assert [r.target for r in seq.results] == [r.target for r in par.results]
    assert [r.status.kind for r in seq.results] == [
        r.status.kind for r in par.results
    ]


def test_report_tables_and_files(tmp_path):
    c = tiny_corpus()
    report = reprove(c, [micro()])
    per = report.per_theory()
    assert per["arith"]["total"] == 1
    assert per["club"]["total"] == 2
    assert per["club"]["microres"] == 2
    summary = report.summary_text()
    assert "microres" in summary and "100.00" in summary
    csv_text = report.csv_text()
    assert "target,theory,prover,status,wall_time" in csv_text.splitlines()[0]
    csv_path, txt_path = write_report(report, tmp_path / "run")
    assert csv_path.read_text(encoding="utf-8") == csv_text
    assert txt_path.read_text(encoding="utf-8") == summary
    assert report.result_for("ADD_0", "microres").status.proved


# --------------------------------------------------------------- prediction


def test_suggest_ranks_true_dependency_first():
    c = tiny_corpus()
    target = c.by_name["ADD_1"]
    entry = c.theorem(target)
    ranked = suggest(
        c,
        entry.statement,
        k=3,
        relation=AccessRelation.LINEAR_ORDER,
        target=target,
    )
    labels = [c.conjunct_label(cid) for cid, _ in ranked]
    assert "ADD_DEF_c2" in labels
    # Weights arrive sorted and positive.
    weights = [w for _, w in ranked]
    assert weights == sorted(weights, reverse=True)
    assert all(w > 0 for w in weights)


def test_suggest_never_offers_the_future():
    c = tiny_corpus()
    target = c.by_name["ADD_0"]
    entry = c.theorem(target)
    ranked = suggest(
        c,
        entry.statement,
        k=5,
        relation=AccessRelation.LINEAR_ORDER,
        target=target,
    )
    pos = c.position(target)
    for cid, _ in ranked:
        assert c.position(cid.theorem) < pos


def test_suggest_validates_k():
    c = tiny_corpus()
    with pytest.raises(ValueError):
        suggest(c, c.theorem_named("ADD_0").statement, k=0)


# ------------------------------------------------------------------- advise


def test_advise_proves_and_times_stages():
    c = tiny_corpus()
    goal = c.theorem_named("ADD_1").statement
    advice = advise(c, goal, [micro()])
    assert advice.status.proved
    assert advice.prover == "microres"
    assert set(advice.timings) == {"parse", "predict", "prove"}
    assert all(t >= 0 for t in advice.timings.values())
    assert advice.core.premises
    assert set(advice.core.premises) <= set(advice.premises)
    assert advice.suggested


def test_advise_failure_carries_diagnostics():
    c = tiny_corpus()
    goal = c.theorem_named("ADD_1").statement
    hopeless = ProverConfig("true", "true", (), timeout=1.0)
    with pytest.raises(NoProofFound) as exc:
        advise(c, goal, [hopeless])
    err = exc.value
    assert len(err.results) == 1
    assert err.results[0].status.kind == "GaveUp"
    assert set(err.timings) == {"parse", "predict", "prove"}
    assert err.suggested


def test_advise_first_listed_prover_wins_with_its_budget():
    c = tiny_corpus()
    goal = c.theorem_named("ADD_1").statement
    # Claims every problem at once, whatever premises it is given.
    eager = ProverConfig(
        "eager", "sh", ("-c", "echo '% SZS status Theorem'"), n_premises=1
    )
    advice = advise(c, goal, [eager, micro()])
    assert advice.prover == "eager"
    assert len(advice.premises) == 1
    assert advice.premises == (advice.suggested[0][0],)
    assert [r.prover for r in advice.results] == ["eager", "microres"]
    assert all(r.status.proved for r in advice.results)

    advice = advise(c, goal, [micro(), eager])
    assert advice.prover == "microres"
    assert len(advice.premises) == min(32, len(advice.suggested))
    assert [r.prover for r in advice.results] == ["microres", "eager"]


# ------------------------------------------------------------ core shrinking


def test_restrict_problem_keeps_helpers():
    sig = toy_sig()
    from hammerkit.corpus import parse_tt

    [a] = parse_tt("tt(a, ax, ![x:nat]: (LE x x)).", sig)
    [b] = parse_tt("tt(b, ax, LE 0 0).", sig)
    [g] = parse_tt("tt(g, ax, (HD nat) ((CONS nat) 0 (NIL nat)) = 0).", sig)
    problem = translate_problem(
        [("a", a.formula), ("b", b.formula)], ("goal", g.formula), sig
    )
    cut = restrict_problem(problem, ["b"])
    names = [n for n, _ in cut.axioms]
    assert "a" not in names and "b" in names
    for h in problem.helpers:
        assert h in names


def test_minimize_core_drops_redundant_premises():
    sig = toy_sig()
    from hammerkit.corpus import parse_tt

    [a] = parse_tt("tt(a, ax, LE 0 0).", sig)
    [b] = parse_tt("tt(b, ax, LE 0 (SUC 0)).", sig)
    [g] = parse_tt("tt(g, ax, LE 0 0).", sig)
    problem = translate_problem(
        [("a", a.formula), ("b", b.formula)], ("goal", g.formula), sig
    )
    core = minimize_core(
        problem, UnsatCore(("a", "b"), False), micro(), target="goal"
    )
    assert core.complete
    assert core.premises == ("a",)


def test_minimize_core_unprovable_set_is_incomplete():
    sig = toy_sig()
    from hammerkit.corpus import parse_tt

    [a] = parse_tt("tt(a, ax, LE 0 0).", sig)
    [g] = parse_tt("tt(g, ax, LE (SUC 0) 0).", sig)
    problem = translate_problem([("a", a.formula)], ("goal", g.formula), sig)
    core = minimize_core(
        problem, UnsatCore(("a",), False), micro(timeout=3.0), target="goal"
    )
    assert not core.complete
    assert core.premises == ("a",)


# --------------------------------------------------------------- experiment


def test_experiment_exact_matches_reprove():
    c = tiny_corpus()
    exp = experiment(c, "exact", [micro()])
    rep = reprove(c, [micro()])
    assert exp.targets == rep.targets
    assert exp.solved("microres") == rep.solved("microres")


def test_experiment_ranked_relation_and_reports(tmp_path):
    c = tiny_corpus()
    report = experiment(
        c, AccessRelation.LINEAR_ORDER, [micro()], k=3, report_path=tmp_path / "exp"
    )
    assert set(report.targets) == {"ADD_0", "ADD_1", "ADD_BOTH"}
    assert (tmp_path / "exp.csv").exists()
    assert (tmp_path / "exp.txt").exists()
    # Ranked premises plus computation make these provable too.
    assert "ADD_1" in report.solved("microres")


def test_experiment_validates_inputs():
    c = tiny_corpus()
    with pytest.raises(ValueError):
        experiment(c, "sideways", [micro()])
    with pytest.raises(ValueError):
        experiment(c, "linear", [micro()], k=0)
    # Exact dependencies never consult the learner, k is free.
    experiment(c, "exact", [micro()], k=0)
