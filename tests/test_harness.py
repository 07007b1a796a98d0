"""Prover configs, process runs, reports, advice, and core shrinking."""

import contextlib
import copy
import os
import select
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from hammerkit import harness, knn
from hammerkit.corpus import AccessRelation, accessible_set, load_corpus, load_corpus_files
from hammerkit.features import extract
from hammerkit.fof import translate_problem
from hammerkit.harness import (
    NoProofFound,
    ProverConfig,
    SpawnError,
    UnsatCore,
    advise,
    builtin_config,
    conjunct_premises,
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
from hammerkit.provers import microres
from hammerkit.tptp import print_problem
from .helpers import TOY_DECLS, result_for, toy_sig

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


def _gone(pid, wait=5.0):
    """Whether the process has exited, waiting up to ``wait`` seconds.
    A zombie counts as exited: nothing of ours reaps a grandchild."""
    end = time.monotonic() + wait
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                return True
        except OSError:
            pass
        if time.monotonic() > end:
            return False
        time.sleep(0.05)


def test_run_prover_kills_the_whole_process_group(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_GRACE", 0.5)
    path = write_problem(tmp_path, trivial_problem())
    pidfile = tmp_path / "child.pid"
    script = f"sleep 30 & echo $! > {shlex.quote(str(pidfile))}; wait"
    cfg = ProverConfig("forking", "sh", ("-c", script), timeout=0.2)
    result = run_prover(path, cfg)
    assert result.status.kind == "Timeout"
    assert _gone(int(pidfile.read_text()))


@pytest.mark.skipif(shutil.which("setsid") is None, reason="needs setsid(1)")
def test_run_prover_returns_when_a_child_leaves_the_group(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_GRACE", 0.5)
    path = write_problem(tmp_path, trivial_problem())
    pidfile = tmp_path / "child.pid"
    # The child starts a session of its own, out of reach of the group
    # kill, and keeps the output pipe open.
    script = f"setsid sleep 30 & echo $! > {shlex.quote(str(pidfile))}; wait"
    cfg = ProverConfig("escaping", "sh", ("-c", script), timeout=0.2)
    start = time.monotonic()
    try:
        result = run_prover(path, cfg)
        assert result.status.kind == "Timeout"
        assert time.monotonic() - start < 0.2 + 2 * 0.5 + 1
    finally:
        os.kill(int(pidfile.read_text()), signal.SIGKILL)


def test_worker_missing_binary(tmp_path):
    path = write_problem(tmp_path, trivial_problem())
    with pytest.raises(SpawnError):
        run_prover(path, replace(micro(), executable="/no/such/binary"))


def test_unanswering_worker_is_replaced_and_reaped(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_GRACE", 0.5)
    pids, hung = tmp_path / "pids", tmp_path / "hung"
    real_main = microres.main

    # Forked workers inherit the patch.  Each records its pid on every
    # call; the first call of all never answers, later ones are the prover.
    def main(argv):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if not hung.exists():
            hung.touch()
            time.sleep(60)
        return real_main(argv)

    monkeypatch.setattr(microres, "main", main)
    cfg = micro(timeout=1.0)
    path = write_problem(tmp_path, trivial_problem())
    start = time.monotonic()
    result = run_prover(path, cfg)
    assert result.status.kind == "Timeout"
    assert time.monotonic() - start < 1.0 + 0.5 + 1

    hung.unlink()
    report = reprove(tiny_corpus(), [cfg], jobs=1)
    kinds = {r.target: r.status.kind for r in report.results}
    assert kinds == {"ADD_0": "Timeout", "ADD_1": "Theorem", "ADD_BOTH": "Theorem"}
    # One worker for the single call; in reprove, the one that hung and
    # the one that replaced it.
    started = {int(pid) for pid in pids.read_text().split()}
    assert len(started) == 3
    assert all(_gone(pid, wait=0) for pid in started)


def test_interrupt_starts_no_queued_call_and_reaps_workers(monkeypatch):
    real_run, real_worker = harness.run_prover, harness._Worker
    lock = threading.Lock()
    calls, pids = [], []

    class Recorded(real_worker):
        def __init__(self):
            super().__init__()
            pids.append(self.proc.pid)

    def interrupted(*args, **kwargs):
        with lock:
            calls.append(args[0])
            first = len(calls) == 1
        if first:
            raise KeyboardInterrupt
        time.sleep(0.2)  # still running when the interrupt arrives
        return real_run(*args, **kwargs)

    monkeypatch.setattr(harness, "_Worker", Recorded)
    monkeypatch.setattr(harness, "run_prover", interrupted)
    corpus = load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))
    with pytest.raises(KeyboardInterrupt):
        reprove(corpus, [micro()], jobs=2)
    started = len(calls)
    time.sleep(0.5)
    # The interrupted call, the one running beside it, and at most one
    # more that the freed thread took before the interrupt reached the
    # caller; the other 56 never start.
    assert len(calls) == started <= 3
    assert all(_gone(pid) for pid in pids)


def test_worker_pool_lends_each_worker_to_one_call_at_a_time(monkeypatch):
    jobs = 8
    lock = threading.Lock()
    made, live, busy, faults = [], set(), set(), []

    class FakeWorker:
        def __init__(self):
            self.proc = object()  # what the pool tracks while a call runs
            self.usable = False
            with lock:
                made.append(self)
                live.add(self)
                if len(live) > jobs:
                    faults.append(f"{len(live)} workers alive")

        def ask(self, request, deadline):
            with lock:
                if self in busy or self not in live:
                    faults.append("worker lent twice or after it stopped")
                busy.add(self)
            time.sleep(0)
            with lock:
                busy.discard(self)
            self.usable = request[0] != "x"
            return harness._Run("% SZS status Theorem\n")

        def stop(self):
            with lock:
                live.discard(self)

    monkeypatch.setattr(harness, "_Worker", FakeWorker)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with harness._worker_scope() as pool, ThreadPoolExecutor(jobs) as threads:
            deadline = time.monotonic() + 60
            calls = []
            for i in range(3000):
                # Request "x" marks its worker unusable, as a worker that
                # did not answer, so the pool stops it.
                request = ["a" if i % 7 else "x"]
                calls.append(threads.submit(pool.run, request, deadline))
            runs = [c.result(timeout=60) for c in calls]
    finally:
        sys.setswitchinterval(switch)
    assert all(r.output == "% SZS status Theorem\n" for r in runs)
    assert faults == []
    assert live == set()


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
def test_forked_workers_hold_only_their_own_pipes():
    a, b = harness._Worker(), harness._Worker()
    try:
        deadline = time.monotonic() + 30
        for w in (a, b):
            # An answered call: the worker has set itself up.
            assert w.ask(["--no-such-flag"], deadline).exit_code == 2
            assert sorted(os.listdir(f"/proc/{w.proc.pid}/fd")) == ["0", "1", "2"]
            assert os.getpgid(w.proc.pid) == w.proc.pid
        # B holds no end of A's pipes, so killing A ends A's replies at once.
        os.kill(a.proc.pid, signal.SIGKILL)
        start = time.monotonic()
        assert select.select([a.proc.stdout], [], [], 10)[0]
        assert os.read(a.proc.stdout.fileno(), 1) == b""
        assert time.monotonic() - start < 1
        assert os.waitpid(b.proc.pid, os.WNOHANG) == (0, 0)
        assert b.ask(["--no-such-flag"], deadline).exit_code == 2
    finally:
        a.stop()
        b.stop()


def _fail(*args, **kwargs):
    raise RuntimeError("no read-back")


def _no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ending", ["proof", "timeout", "exception"])
@pytest.mark.parametrize("entry", ["reprove", "advise", "run_prover"])
def test_no_process_outlives_a_batch(tmp_path, monkeypatch, entry, ending):
    monkeypatch.setattr(harness, "_GRACE", 0.2)
    if ending == "timeout":
        # Forked workers inherit the patch and never answer.
        monkeypatch.setattr(microres, "main", lambda argv: time.sleep(60))
    elif ending == "exception":
        monkeypatch.setattr(harness, "parse_szs", _fail)
    _no_child_process()  # none left by an earlier test
    c = tiny_corpus()
    cfg = micro(timeout=0.5)
    with pytest.raises(RuntimeError) if ending == "exception" else contextlib.nullcontext():
        if entry == "reprove":
            kinds = {r.status.kind for r in reprove(c, [cfg], jobs=2).results}
        elif entry == "advise":
            try:
                kinds = {advise(c, c.theorem_named("ADD_1").statement, [cfg]).status.kind}
            except NoProofFound as e:
                kinds = {r.status.kind for r in e.results}
        else:
            kinds = {run_prover(write_problem(tmp_path, trivial_problem()), cfg).status.kind}
        assert kinds == {"Theorem" if ending == "proof" else "Timeout"}
    _no_child_process()


def test_worker_and_process_paths_agree(monkeypatch):
    corpus = load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))
    spawned = []
    run_process = harness._run_process
    monkeypatch.setattr(
        harness, "_run_process", lambda *a: spawned.append(a) or run_process(*a)
    )
    workers = reprove(corpus, [micro()], jobs=2)
    assert spawned == []
    # The default clause limit spelled out: the same prover, one process
    # per problem.
    one_shot = replace(micro(), args=micro().args + ("--max-clauses", "100000"))
    processes = reprove(corpus, [one_shot], jobs=2)
    assert len(spawned) == len(workers.targets) == 59

    def outcome(r):
        return r.target, r.status.kind, r.core.premises if r.core else None

    assert [outcome(r) for r in workers.results] == [
        outcome(r) for r in processes.results
    ]


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


# Copied from the benchmark's canary theory, with the toy corpus's 0 and
# SUC filled in.
CANARY_TT = """\
tt(one, ty, $t).
tt(one_c, ty, one).
tt(ONE_SING_def, ax, ![x:one]: (x = one_c)).
tt(BOGUS, ax, 0 = SUC 0).
tt(u, ty, $t).
tt(ua, ty, u).
tt(ub, ty, u).
tt(uc, ty, u).
tt(UP, ty, u > bool).
tt(U_SING_def, ax, ![x:u]: (x = ua)).
tt(UP_B_def, ax, UP ub).
tt(UP_C, ax, UP uc).
"""
CANARY_DEPS = """\
deps(BOGUS, [ONE_SING_def]).
deps(UP_C, [U_SING_def, UP_B_def]).
"""


def test_reprove_canaries_get_true_verdicts(tmp_path):
    # BOGUS does not follow from a singleton type's axiom, which an
    # encoding without tags lets equate every term with one_c.  UP_C does
    # follow from its singleton type's axiom and UP ub.
    files = {
        "corpus.thy": "theory(arith, []).\ntheory(canary, [arith]).\n",
        "arith.tt": TOY_DECLS,
        "canary.tt": CANARY_TT,
        "canary.deps": CANARY_DEPS,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    c = load_corpus(tmp_path)
    report = reprove(c, [micro()], jobs=1)
    verdicts = {r.target: r for r in report.results}
    assert set(verdicts) == {"BOGUS", "UP_C"}
    assert not verdicts["BOGUS"].status.proved
    up_c = verdicts["UP_C"]
    assert up_c.status.proved
    deps = frozenset().union(*c.theorem_named("UP_C").dependencies)
    given = {label for label, _ in conjunct_premises(c, deps)}
    assert given and set(up_c.core.premises) <= given


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
    assert result_for(report, "ADD_0", "microres").status.proved


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


# Two sibling theories under a common parent, and a theory below one of
# them.  Some dependencies reach into the sibling built earlier, which the
# loaded relation does not offer.
SIBLINGS = {
    "corpus.thy": (
        "theory(base, []).\ntheory(left, [base]).\n"
        "theory(right, [base]).\ntheory(top, [right]).\n"
    ),
    "base.tt": TOY_DECLS + """\
tt(ADD_DEF, ax, (![n:nat]: (ADD 0 n = n)) & (![m:nat, n:nat]: (ADD (SUC m) n = SUC (ADD m n)))).
tt(ADD_0, ax, ADD 0 0 = 0).
tt(LE_REFL, ax, ![n:nat]: LE n n).
""",
    "base.deps": "deps(ADD_0_c1, [ADD_DEF_c1]).\n",
    "left.tt": """\
tt(ADD_1, ax, ADD (SUC 0) 0 = SUC 0).
tt(ADD_BOTH, ax, (ADD 0 0 = 0) & (ADD 0 (SUC 0) = SUC 0)).
tt(LE_0, ax, LE 0 0).
""",
    "left.deps": """\
deps(ADD_1, [ADD_DEF]).
deps(ADD_BOTH_c1, [ADD_DEF_c1]).
deps(ADD_BOTH_c2, [ADD_DEF_c1]).
deps(LE_0, [LE_REFL]).
""",
    "right.tt": """\
tt(ADD_2, ax, ADD (SUC (SUC 0)) 0 = SUC (SUC 0)).
tt(LE_1, ax, LE (SUC 0) (SUC 0)).
tt(HD_CONS, ax, ![x:nat, l:(list nat)]: ((HD nat) ((CONS nat) x l) = x)).
""",
    "right.deps": """\
deps(ADD_2, [ADD_DEF, ADD_1]).
deps(LE_1, [LE_REFL, LE_0]).
""",
    "top.tt": """\
tt(ADD_3, ax, ADD (SUC (SUC (SUC 0))) 0 = SUC (SUC (SUC 0))).
tt(LE_2, ax, (LE (SUC (SUC 0)) (SUC (SUC 0))) & (ADD 0 0 = 0)).
""",
    "top.deps": """\
deps(ADD_3, [ADD_2, ADD_DEF]).
deps(LE_2_c1, [LE_1]).
deps(LE_2_c2, [ADD_0, ADD_BOTH_c1]).
""",
}


def sibling_corpus(tmp_path):
    root = tmp_path / "siblings"
    root.mkdir()
    for name, text in SIBLINGS.items():
        (root / name).write_text(text, encoding="utf-8")
    return load_corpus(root)


def rebuilt_suggest(corpus, goal, k, n_premises, relation, target):
    """The ranking as the learner computed it before it kept one index
    per corpus: the accessible pool and its features built afresh for the
    target, every pool member sharing a feature with the goal scored."""
    tids = sorted(accessible_set(corpus, target, relation) - {target}, key=corpus.position)
    pool = [cid for tid in tids for cid in corpus.theorem(tid).conjunct_ids()]
    feats = [extract(corpus.conjunct_statement(cid)) for cid in pool]
    query = extract(goal)
    scored = sorted((len(f ^ query), i) for i, f in enumerate(feats) if f & query)
    relevance: dict[int, float] = {}
    for d2, i in scored[:k]:
        deps = corpus.theorem(pool[i].theorem).dependencies[pool[i].index - 1]
        for voted in {i} | {j for j, cid in enumerate(pool) if cid in deps}:
            relevance[voted] = relevance.get(voted, 0.0) + 1.0 / (1 + d2)
    ranked = sorted(relevance.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(pool[i], w) for i, w in ranked[:n_premises]]


def test_learner_filters_and_ranks_like_a_per_target_rebuild(tmp_path):
    c = sibling_corpus(tmp_path)
    loaded = AccessRelation.LOADED_THEORIES
    add2 = c.by_name["ADD_2"]
    # The case the theory filter exists for: a loaded target misses
    # the sibling theory, although it is earlier in the linear order.
    assert c.by_name["ADD_1"] not in accessible_set(c, add2, loaded)
    assert c.position(c.by_name["ADD_1"]) < c.position(add2)
    learner = harness._learner(c)
    for relation in AccessRelation:
        for tid in c.order():
            spans = learner.accessible(c, tid, relation)
            ids = {learner.ids[i] for lo, hi in spans for i in range(lo, hi)}
            want = accessible_set(c, tid, relation) - {tid}
            assert ids == {cid for t in want for cid in c.theorem(t).conjunct_ids()}
            statement = c.theorem(tid).statement
            for k, n in ((40, 32), (2, 3)):
                got = suggest(c, statement, k=k, n_premises=n, relation=relation, target=tid)
                assert got == rebuilt_suggest(c, statement, k, n, relation, tid)


def test_one_index_serves_every_ranking(tmp_path, monkeypatch):
    built = []
    build_index = knn.build_index

    def counted(features, order):
        built.append(len(order))
        return build_index(features, order)

    monkeypatch.setattr(knn, "build_index", counted)
    c = sibling_corpus(tmp_path)
    for relation in AccessRelation:
        for tid in c.order():
            suggest(c, c.theorem(tid).statement, relation=relation, target=tid)
    suggest(c, c.theorem_named("ADD_3").statement)
    assert built == [sum(len(c.theorem(t).conjuncts) for t in c.order())]


def toy_corpus():
    return load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))


@pytest.mark.parametrize("relation", list(AccessRelation))
@pytest.mark.parametrize("name", ["MAX_SUC", "HD_TL"])
def test_goal_features_are_reused_exactly_as_extracted(relation, name):
    # MAX_SUC has one conjunct, so its statement is a numbered conjunct's
    # and its stored features are used; HD_TL has two and is extracted.
    c = toy_corpus()
    tid = c.by_name[name]
    statement = c.theorem(tid).statement

    def ranked(goal):
        return suggest(c, goal, k=40, n_premises=32, relation=relation, target=tid)

    own = ranked(statement)
    assert own
    assert repr(own) == repr(ranked(copy.deepcopy(statement)))


def test_a_numbered_statement_is_not_extracted_again(monkeypatch):
    calls = []
    extract_once = harness.extract
    monkeypatch.setattr(harness, "extract", lambda t: calls.append(t) or extract_once(t))
    c = toy_corpus()
    harness._learner(c)
    built = len(calls)
    single, double = c.theorem_named("MAX_SUC"), c.theorem_named("HD_TL")
    suggest(c, single.statement, target=c.by_name["MAX_SUC"])
    suggest(c, double.conjuncts[1][1], target=c.by_name["HD_TL"])
    assert len(calls) == built
    # A multi-conjunct statement, and an equal copy of a numbered one,
    # are extracted.
    suggest(c, double.statement, target=c.by_name["HD_TL"])
    suggest(c, copy.deepcopy(single.statement), target=c.by_name["MAX_SUC"])
    assert calls[built:] == [double.statement, single.statement]


def test_bundled_prover_imports_the_callers_hammerkit(tmp_path):
    # The caller puts src on sys.path by hand and no PYTHONPATH is set, so
    # the prover processes only import hammerkit through the path the
    # harness gives them: the reused worker, and a one-shot run of the
    # bundled prover under argument order of its own.
    src = Path(harness.__file__).resolve().parent.parent
    script = tmp_path / "repro.py"
    script.write_text(
        f"""\
import sys
sys.path.insert(0, {str(src)!r})
from importlib import resources
from pathlib import Path
from hammerkit import harness
from hammerkit.corpus import load_corpus
toy = load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))
report = harness.reprove(toy, [harness.builtin_config("microres", timeout=10)])
print(sum(r.status.kind == "Theorem" for r in report.results), len(report.results))
problem = Path("p.p")
problem.write_text("fof(a, axiom, p).\\nfof(g, conjecture, p).\\n")
once = harness.ProverConfig(
    "once", sys.executable,
    ("-m", "hammerkit.provers.microres", "--timeout", "{{timeout}}", "{{problem}}"),
)
print(harness.run_prover(problem, once).status.kind)
""",
        encoding="utf-8",
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["TMPDIR"] = str(tmp_path)
    out = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.split() == ["59", "59", "Theorem"], out.stderr


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
