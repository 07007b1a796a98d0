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
from hammerkit.corpus import AccessRelation, accessible_set, load_corpus, parse_goal
from hammerkit.features import extract
from hammerkit.fof import TranslateError, translate_problem
from hammerkit.hol import App, Const
from hammerkit.harness import (
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
from hammerkit.tptp import parse_problem, print_problem
from . import access_oracle
from .helpers import (
    TOY,
    TOY_DECLS,
    load_corpus_files,
    result_for,
    solved_targets,
    toy_sig,
)

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
    cfg = replace(builtin_config("microres", timeout=3.0), n_premises=5)
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


@pytest.mark.parametrize(
    "text, section, key",
    [
        ("[microres]\nn_premise = 8\ntimout = 1\n", "'microres'", "'n_premise'"),
        ("[DEFAULT]\ntimout = 1\n[microres]\nn_premises = 8\n", "'microres'", "'timout'"),
    ],
    ids=["section", "default"],
)
def test_load_prover_configs_rejects_unknown_keys(tmp_path, text, section, key):
    path = tmp_path / "provers.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_prover_configs(path)
    assert section in str(err.value) and key in str(err.value)


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


def test_run_prover_error_keeps_the_last_line_of_stderr(tmp_path):
    path = write_problem(tmp_path, trivial_problem())
    # 100 kB of noise, more than a pipe holds, then the reason it stops.
    script = (
        "head -c 100000 /dev/zero | tr '\\0' x >&2; echo >&2; "
        "echo \"ModuleNotFoundError: No module named 'hammerkit'\" >&2; exit 1"
    )
    result = run_prover(path, ProverConfig("dying", "sh", ("-c", script)))
    assert str(result.status) == (
        "Error(exit code 1 without SZS status: "
        "ModuleNotFoundError: No module named 'hammerkit')"
    )
    # A longer last line keeps only its last 200 bytes.
    script = "head -c 1000 /dev/zero | tr '\\0' y >&2; echo z >&2; exit 1"
    result = run_prover(path, ProverConfig("dying", "sh", ("-c", script)))
    assert result.status.detail == "exit code 1 without SZS status: " + "y" * 198 + "z"


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
        # Read up to the deadline, then killed: no second grace period.
        assert time.monotonic() - start < 0.2 + 0.5 + 1
    finally:
        os.kill(int(pidfile.read_text()), signal.SIGKILL)


def test_run_prover_waits_out_a_timeout_longer_than_one_selector_wait(tmp_path):
    # 3e6 s overflows a single epoll wait.
    path = write_problem(tmp_path, trivial_problem())
    eager = ProverConfig("eager", "sh", ("-c", "echo '% SZS status Theorem'"), timeout=3e6)
    for cfg in (eager, micro(timeout=3e6)):
        assert run_prover(path, cfg).status.kind == "Theorem"
    _no_child_process()


def test_run_prover_times_out_a_process_that_closes_its_output(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_GRACE", 0.5)
    path = write_problem(tmp_path, trivial_problem())
    pidfile = tmp_path / "prover.pid"
    # End of output is not the end of the process: it is waited for up
    # to the deadline, then killed with its group.
    script = f"echo $$ > {shlex.quote(str(pidfile))}; exec >&-; sleep 30"
    cfg = ProverConfig("closing", "sh", ("-c", script), timeout=0.2)
    start = time.monotonic()
    result = run_prover(path, cfg)
    assert result.status.kind == "Timeout"
    assert time.monotonic() - start < 1.5
    assert _gone(int(pidfile.read_text()), wait=0)
    _no_child_process()


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
            pids.append(self.pid)

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
            with lock:
                made.append(self)
                live.add(self)
                if len(live) > jobs:
                    faults.append(f"{len(live)} workers alive")

    def answer(proc, deadline, request):
        with lock:
            if proc in busy or proc not in live:
                faults.append("worker lent twice or after it stopped")
            busy.add(proc)
        time.sleep(0)
        with lock:
            busy.discard(proc)
        return harness._Run("% SZS status Theorem\n"), request[0] != "x"

    def stop(proc):
        with lock:
            live.discard(proc)

    monkeypatch.setattr(harness, "_Worker", FakeWorker)
    monkeypatch.setattr(harness, "_answer", answer)
    monkeypatch.setattr(harness, "_stop", stop)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.closing(harness._Workers()) as pool, ThreadPoolExecutor(jobs) as threads:
            deadline = time.monotonic() + 60
            calls = []
            for i in range(3000):
                # Request "x" marks its worker unusable, as a worker that
                # did not answer, so the pool stops it.
                request = ["a" if i % 7 else "x"]
                calls.append(threads.submit(pool.run, [], request, deadline))
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
            run, reusable = harness._answer(w, deadline, ["--no-such-flag"])
            assert run.exit_code == 2 and reusable
            assert sorted(os.listdir(f"/proc/{w.pid}/fd")) == ["0", "1", "2"]
            assert os.getpgid(w.pid) == w.pid
        # B holds no end of A's pipes, so killing A ends A's replies at once.
        os.kill(a.pid, signal.SIGKILL)
        start = time.monotonic()
        assert select.select([a.stdout], [], [], 10)[0]
        assert os.read(a.stdout.fileno(), 1) == b""
        assert time.monotonic() - start < 1
        assert os.waitpid(b.pid, os.WNOHANG) == (0, 0)
        assert harness._answer(b, deadline, ["--no-such-flag"])[0].exit_code == 2
    finally:
        harness._stop(a)
        harness._stop(b)


def test_worker_answers_exactly_as_main(tmp_path, capsys):
    good = write_problem(tmp_path, trivial_problem())
    bad = tmp_path / "bad.p"
    bad.write_text("fof(goal, conjecture, p.\n", encoding="utf-8")
    calls = [[str(good), "--timeout", "5"], [str(bad)], [str(good), "--no-such-flag"], [str(good)]]
    expected = []
    for argv in calls:
        try:
            code = microres.main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        expected.append([code, out, harness._last_line(err.encode())])
    worker = harness._Worker()
    try:
        deadline = time.monotonic() + 60
        runs = [harness._answer(worker, deadline, argv)[0] for argv in calls]
        # The end of the requests ends the worker cleanly.
        worker.stdin.close()
        assert worker.wait(10) == 0
    finally:
        harness._stop(worker)
    assert not any(r.timed_out for r in runs)
    assert [[r.exit_code, r.output, r.errors] for r in runs] == expected
    assert [code for code, _, _ in expected] == [0, 1, 2, 0]
    assert expected[2][2] == "hammer-microres: error: unrecognized arguments: --no-such-flag"


def test_usage_error_reads_the_same_from_a_worker_and_a_process(tmp_path, monkeypatch):
    spawned = []
    popen = harness._popen
    monkeypatch.setattr(harness, "_popen", lambda argv: spawned.append(argv) or popen(argv))
    path = write_problem(tmp_path, trivial_problem())
    flagged = replace(micro(), args=micro().args + ("--no-such-flag",))
    # Under env, the same command is no worker: it runs as a process of its own.
    process = replace(flagged, executable="env", args=(sys.executable, *flagged.args))
    statuses = [str(run_prover(path, cfg).status) for cfg in (flagged, process)]
    assert len(spawned) == 1
    assert statuses == [
        "Error(exit code 2 without SZS status: "
        "hammer-microres: error: unrecognized arguments: --no-such-flag)"
    ] * 2


def test_prover_config_without_clause_allowance_is_an_error(tmp_path):
    config = tmp_path / "provers.ini"
    config.write_text(
        "[microres]\n"
        "args = -m hammerkit.provers.microres {problem} --timeout {timeout} --max-clauses 0\n",
        encoding="utf-8",
    )
    [cfg] = harness.load_prover_configs(config)
    path = write_problem(tmp_path, trivial_problem())
    assert str(run_prover(path, cfg).status) == (
        "Error(exit code 2 without SZS status: hammer-microres: error: "
        "argument --max-clauses: must be an integer of at least 1, not '0')"
    )


def test_worker_error_carries_the_last_line_of_its_traceback(tmp_path, monkeypatch):
    def main(argv):
        raise RuntimeError("boom")

    # Forked workers inherit the patch.
    monkeypatch.setattr(microres, "main", main)
    path = write_problem(tmp_path, trivial_problem())
    status = run_prover(path, micro()).status
    assert status.kind == "Error"
    assert status.detail == "exit code 1 without SZS status: RuntimeError: boom"


def test_worker_that_prints_no_reply_line_gets_an_error(tmp_path, monkeypatch):
    pids = tmp_path / "pids"

    # Forked workers inherit the patch: each writes a verdict straight to
    # the reply pipe, past the capture of its output, and does not return.
    def main(argv):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        os.write(1, b"% SZS status Theorem\n")
        time.sleep(60)
        return 0

    monkeypatch.setattr(microres, "main", main)
    path = write_problem(tmp_path, trivial_problem())
    start = time.monotonic()
    with contextlib.closing(harness._Workers()) as workers:
        statuses = [run_prover(path, micro(), workers=workers).status for _ in range(2)]
    # Read as an Error at once, not at the 10 s deadline.
    assert time.monotonic() - start < 5
    assert [s.kind for s in statuses] == ["Error", "Error"]
    assert all("no reply line" in s.detail for s in statuses)
    # The worker that did not reply is stopped, not reused.
    started = {int(pid) for pid in pids.read_text().split()}
    assert len(started) == 2
    assert all(_gone(pid, wait=0) for pid in started)
    _no_child_process()


def _fail(*args, **kwargs):
    raise RuntimeError("no read-back")


def _no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ending", ["proof", "timeout", "exception"])
@pytest.mark.parametrize("entry", ["reprove", "advise", "run_prover"])
def test_no_process_outlives_a_batch(tmp_path, monkeypatch, entry, ending):
    monkeypatch.setattr(harness, "_GRACE", 0.2)
    # Next to the worker, an external prover: one process per problem.
    script = "echo '% SZS status Theorem'"
    if ending == "timeout":
        # Forked workers inherit the patch and never answer.
        monkeypatch.setattr(microres, "main", lambda argv: time.sleep(60))
        script = "sleep 60"
    elif ending == "exception":
        monkeypatch.setattr(harness, "parse_szs", _fail)
    external = ProverConfig("sh", "sh", ("-c", script), timeout=0.5)
    _no_child_process()  # none left by an earlier test
    c = tiny_corpus()
    for cfg in (micro(timeout=0.5), external):
        with pytest.raises(RuntimeError) if ending == "exception" else contextlib.nullcontext():
            if entry == "reprove":
                kinds = {r.status.kind for r in reprove(c, [cfg], jobs=2).results}
            elif entry == "advise":
                advice = advise(c, c.theorem_named("ADD_1").statement, [cfg])
                kinds = {r.status.kind for r in advice.results}
            else:
                problem = write_problem(tmp_path, trivial_problem())
                kinds = {run_prover(problem, cfg).status.kind}
            assert kinds == {"Theorem" if ending == "proof" else "Timeout"}
        _no_child_process()


def test_every_microres_config_of_this_interpreter_runs_in_workers(monkeypatch):
    corpus = load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))
    spawned = []
    popen = harness._popen
    monkeypatch.setattr(harness, "_popen", lambda argv: spawned.append(argv) or popen(argv))
    stock = micro()
    # The default clause limit spelled out, and the stock arguments in
    # another order: the same prover, sent to the same kind of worker.
    flagged = replace(stock, args=stock.args + ("--max-clauses", "100000"))
    reordered = replace(stock, args=stock.args[:2] + ("--timeout", "{timeout}", "{problem}"))
    reports = [reprove(corpus, [cfg], jobs=2) for cfg in (stock, flagged, reordered)]
    assert spawned == []

    def outcomes(report):
        return [
            (r.target, r.status.kind, r.core.premises if r.core else None)
            for r in report.results
        ]

    assert len(reports[0].targets) == 59
    assert outcomes(reports[1]) == outcomes(reports[2]) == outcomes(reports[0])


# ------------------------------------------------------------------ reprove


def test_reprove_exact_dependencies():
    c = tiny_corpus()
    report = reprove(c, [micro()], jobs=2)
    # Definitions are premises, not targets.
    assert set(report.targets) == {"ADD_0", "ADD_1", "ADD_BOTH"}
    assert solved_targets(report, "microres") == set(report.targets)


def test_reprove_conjunct_split():
    c = tiny_corpus()
    report = reprove(c, [micro()], split="conjuncts")
    assert set(report.targets) == {
        "ADD_0_c1",
        "ADD_1_c1",
        "ADD_BOTH_c1",
        "ADD_BOTH_c2",
    }
    assert solved_targets(report, "microres") == set(report.targets)
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


def canary_corpus():
    return load_corpus_files(
        "theory(arith, []).\ntheory(canary, [arith]).\n",
        {"arith": (TOY_DECLS, None), "canary": (CANARY_TT, CANARY_DEPS)},
    )


def test_reprove_canaries_get_true_verdicts():
    # BOGUS does not follow from a singleton type's axiom, which an
    # encoding without tags lets equate every term with one_c.  UP_C does
    # follow from its singleton type's axiom and UP ub.
    c = canary_corpus()
    report = reprove(c, [micro()], jobs=1)
    verdicts = {r.target: r for r in report.results}
    assert set(verdicts) == {"BOGUS", "UP_C"}
    assert not verdicts["BOGUS"].status.proved
    up_c = verdicts["UP_C"]
    assert up_c.status.proved
    deps = frozenset().union(*c.theorem_named("UP_C").dependencies)
    given = {label for label, _ in conjunct_premises(c, deps)}
    assert given and set(up_c.core.premises) <= given


def test_no_refuted_goal_is_proved():
    # Every toy target's statement is consistent with its premises, so
    # premises |- ~statement is no theorem; nor is BOGUS from its
    # singleton type's axiom, nor ~UP_C.  Each goal gets its exact
    # dependencies and its loaded top 32.  A Theorem here is an unsound
    # encoding or search.
    #
    # Limits: the search stops at 300 clauses or 0.05 s, so this catches
    # only an unsoundness that a short refutation reaches, and most
    # answers are GaveUp or Timeout, which of the two depending on host
    # speed.  It checks that no false goal is proved, not that a true one
    # is.  The toy corpus has no singleton type; the canary is the one
    # goal on which an encoding that drops tags goes wrong.
    toy, canary = toy_corpus(), canary_corpus()
    goals = [
        (toy, tid, App(Const("~"), toy.theorem(tid).statement))
        for tid in toy.order()
        if not toy.theorem(tid).is_definition
    ]
    bogus, up_c = canary.theorem_named("BOGUS"), canary.theorem_named("UP_C")
    goals += [(canary, bogus.id, bogus.statement), (canary, up_c.id, App(Const("~"), up_c.statement))]
    proved = []
    for c, tid, goal in goals:
        entry = c.theorem(tid)
        top = suggest(c, entry.statement, k=40, n_premises=32, target=tid)
        for premises in (
            conjunct_premises(c, frozenset().union(*entry.dependencies)),
            [(c.conjunct_label(cid), c.conjunct_statement(cid)) for cid, _ in top],
        ):
            text = harness.build_problem(c, premises, (entry.name, goal))[1]
            _, result = microres.prove(parse_problem(text), timeout=0.05, max_clauses=300)
            if result.status == "Theorem":
                proved.append(entry.name)
    assert len(goals) == 59 + 2
    assert proved == []


def test_no_exact_dependency_goal_is_countersatisfiable():
    # The inverse: every toy target and UP_C follow from their exact
    # dependencies, so no search may call one CounterSatisfiable or
    # Satisfiable.  Same limits as above: all 60 are Theorem on a fast
    # host, but a slow one may stop some at the clock, so this checks that
    # no true goal is refuted, not that it is proved.
    toy, canary = toy_corpus(), canary_corpus()
    goals = [(toy, tid) for tid in toy.order() if not toy.theorem(tid).is_definition]
    goals.append((canary, canary.by_name["UP_C"]))
    refuted = []
    for c, tid in goals:
        entry = c.theorem(tid)
        premises = conjunct_premises(c, frozenset().union(*entry.dependencies))
        text = harness.build_problem(c, premises, (entry.name, entry.statement))[1]
        _, result = microres.prove(parse_problem(text), timeout=0.05, max_clauses=300)
        if result.status in ("CounterSatisfiable", "Satisfiable"):
            refuted.append((entry.name, result.status))
    assert len(goals) == 59 + 1
    assert refuted == []


def test_parallel_and_sequential_reports_agree():
    c = tiny_corpus()
    seq = reprove(c, [micro()], jobs=1)
    par = reprove(c, [micro()], jobs=4)
    assert seq.targets == par.targets
    assert [r.target for r in seq.results] == [r.target for r in par.results]
    assert [r.status.kind for r in seq.results] == [
        r.status.kind for r in par.results
    ]


TINY_SUMMARY = """\
prover    solved  total  percent  unique  countersat
microres       3      3   100.00       3           0
union          3      3   100.00

theory  total  microres  union
arith       1         1      1
club        2         2      2
"""


def test_report_tables_and_files(tmp_path):
    c = tiny_corpus()
    report = reprove(c, [micro()])
    summary = report.summary_text()
    # The one prover solves every target, so all of them uniquely.
    assert summary == TINY_SUMMARY
    csv_text = report.csv_text()
    assert "target,theory,prover,status,wall_time" in csv_text.splitlines()[0]
    csv_path, txt_path = write_report(report, tmp_path / "run")
    assert csv_path.read_text(encoding="utf-8") == csv_text
    assert txt_path.read_text(encoding="utf-8") == summary
    assert result_for(report, "ADD_0", "microres").status.proved


# Theorem for the conjectures whose names start with E to L (the
# printer lower-cases a name's first letter), CounterSatisfiable for
# the rest.
HALF_SCRIPT = """\
if grep -q '^fof([e-l][A-Za-z0-9_]*, conjecture' "$0"
then echo '% SZS status Theorem'
else echo '% SZS status CounterSatisfiable'
fi"""

TWO_PROVER_SUMMARY = """\
prover    solved  total  percent  unique  countersat
microres      53     59    89.83      34           0
half          22     59    37.29       3          37
union         56     59    94.92

theory  total  microres  half  union
logic      14        14     4     14
nat        19        17     6     18
list       17        15     9     15
hof         9         7     3      9
"""


def test_two_prover_report_text():
    # Under 20 kept clauses microres gives up on six toy targets; half
    # proves three of them (EVERY_ONE, EVERY_LE_ONE, LE_DOUBLE), so each
    # prover solves targets the other does not, and half's refusals fill
    # the countersat column.
    stock = micro()
    capped = replace(stock, args=stock.args + ("--max-clauses", "20"))
    half = ProverConfig("half", "sh", ("-c", HALF_SCRIPT, "{problem}"))
    report = reprove(load_corpus(TOY), [capped, half], jobs=2)
    assert report.summary_text() == TWO_PROVER_SUMMARY
    neither = {"MAX_LE", "MEM_THERE", "MEM_TWO"}
    assert {r.target for r in report.results if not r.status.proved} >= neither
    assert all(
        result_for(report, t, p).status.kind in ("GaveUp", "CounterSatisfiable")
        for t in neither
        for p in ("microres", "half")
    )


def test_report_without_targets(tmp_path):
    c = load_corpus_files(
        "theory(arith, []).\n", {"arith": (TOY_DECLS + "tt(ZERO_DEF, ax, 0 = 0).\n", None)}
    )
    report = reprove(c, [micro()], jobs=1)
    assert report.targets == report.results == ()
    assert report.summary_text() == (
        "prover    solved  total  percent  unique  countersat\n"
        "microres       0      0     0.00       0           0\n"
        "union          0      0     0.00\n"
    )
    assert report.csv_text() == "target,theory,prover,status,wall_time,core_size,core\n"


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
    order = access_oracle.linear_order(c)
    for cid, _ in ranked:
        assert order.index(cid.theorem) < order.index(target)


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
    order = access_oracle.linear_order(corpus)
    tids = sorted(access_oracle.accessible_set(corpus, target, relation), key=order.index)
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
    assert c.by_name["ADD_1"] not in access_oracle.accessible_set(c, add2, loaded)
    order = access_oracle.linear_order(c)
    assert order.index(c.by_name["ADD_1"]) < order.index(add2)
    learner = harness._learner(c)
    for relation in AccessRelation:
        for tid in c.order():
            spans = accessible_set(c, tid, relation)
            ids = {learner.ids[i] for i in access_oracle.covered(spans)}
            want = access_oracle.accessible_set(c, tid, relation)
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


def test_unknown_relation_is_an_error():
    c = toy_corpus()
    tid = c.by_name["APPEND_ONE"]
    statement = c.theorem(tid).statement
    exact = suggest(c, statement, relation=AccessRelation.EXACT_DEPS, target=tid)
    assert [c.conjunct_label(cid) for cid, _ in exact] == ["APPEND_def_c1", "APPEND_def_c2"]
    # A relation's name is not the relation; both used to mean linear order.
    for relation in ("exact", "sideways"):
        with pytest.raises(ValueError, match="unknown relation"):
            accessible_set(c, tid, relation)
        with pytest.raises(ValueError, match="unknown relation"):
            suggest(c, statement, relation=relation, target=tid)


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
    suggest(c, double.conjuncts[1], target=c.by_name["HD_TL"])
    assert len(calls) == built
    # A multi-conjunct statement, and an equal copy of a numbered one,
    # are extracted.
    suggest(c, double.statement, target=c.by_name["HD_TL"])
    suggest(c, copy.deepcopy(single.statement), target=c.by_name["MAX_SUC"])
    assert calls[built:] == [double.statement, single.statement]


def test_bundled_prover_imports_the_callers_hammerkit(tmp_path):
    # The caller puts src on sys.path by hand and no PYTHONPATH is set.
    # Both halves run in workers, forks of the caller that import nothing,
    # so both serve with the caller's hammerkit: the reprove half with the
    # stock arguments, the single run with an argument order of its own.
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


def ranking(c, goal, n):
    """The labels ``advise`` ranks for ``goal`` at a budget of ``n``."""
    return tuple(c.conjunct_label(cid) for cid, _ in suggest(c, goal, harness.DEFAULT_K, n))


def test_advise_proves_and_times_stages():
    c = tiny_corpus()
    goal = c.theorem_named("ADD_1").statement
    advice = advise(c, goal, [micro()])
    assert advice.results[-1].status.proved
    assert advice.prover == "microres"
    assert set(advice.timings) == {"parse", "predict", "prove"}
    assert all(t >= 0 for t in advice.timings.values())
    assert advice.core.premises
    assert set(advice.core.premises) <= set(advice.premises)
    assert advice.premises == ranking(c, goal, 32)


def test_goal_named_like_a_premise_gets_the_core_of_any_other_name():
    c = toy_corpus()
    cores = []
    for name in ("G", "ADD_1_c1"):
        name, goal = parse_goal(f"tt({name}, conj, ADD 0 0 = 0)", c.signature)
        cores.append(advise(c, goal, [micro()], goal_name=name).core.premises)
    assert cores == [("ADD_0_c1",), ("ADD_0_c1",)]


def test_advise_failure_carries_diagnostics():
    c = tiny_corpus()
    goal = c.theorem_named("ADD_1").statement
    hopeless = ProverConfig("true", "true", (), timeout=1.0)
    advice = advise(c, goal, [hopeless])
    assert (advice.prover, advice.core, advice.premises) == (None, None, ())
    assert len(advice.results) == 1
    assert advice.results[0].status.kind == "GaveUp"
    assert set(advice.timings) == {"parse", "predict", "prove"}
    assert ranking(c, goal, hopeless.n_premises)


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
    assert advice.premises == ranking(c, goal, 32)[:1]
    # The results end at the winner.
    assert [r.prover for r in advice.results] == ["eager"]
    assert advice.results[-1].status.proved

    advice = advise(c, goal, [micro(), eager])
    assert advice.prover == "microres"
    assert advice.premises == ranking(c, goal, 32)
    assert [r.prover for r in advice.results] == ["microres"]

    # A prover listed after the winner is stopped, not awaited.
    sleepy = ProverConfig("sleepy", "sh", ("-c", "sleep 30"), timeout=3.0)
    start = time.monotonic()
    advice = advise(c, goal, [eager, sleepy])
    assert time.monotonic() - start < 1
    assert [r.prover for r in advice.results] == ["eager"]
    _no_child_process()

    # A slower prover listed first still wins when it proves.
    slow = ProverConfig(
        "slow", "sh", ("-c", "sleep 0.5; echo '% SZS status Theorem'"), timeout=3.0
    )
    start = time.monotonic()
    advice = advise(c, goal, [slow, eager])
    assert advice.prover == "slow"
    assert time.monotonic() - start >= 0.5
    assert [r.prover for r in advice.results] == ["slow"]

    # With no winner, every prover's result is kept.
    unsure = ProverConfig("unsure", "sh", ("-c", "echo '% SZS status GaveUp'"))
    advice = advise(c, goal, [unsure, replace(unsure, name="unsure2")])
    assert advice.core is None
    assert [r.prover for r in advice.results] == ["unsure", "unsure2"]


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


def test_restrict_problem_keeps_named_axioms_of_a_parsed_problem():
    # A problem read from a file maps no axiom to a source: each name
    # stands for itself, as when its core is read back.
    problem = parse_problem(
        "fof(a1, axiom, p).\nfof(a2, axiom, q).\nfof(a3, axiom, r).\n"
        "fof(goal, conjecture, p).\n"
    )
    cut = restrict_problem(problem, {"a1", "a3", "absent"})
    assert [n for n, _ in cut.axioms] == ["a1", "a3"]
    assert cut.conjecture == problem.conjecture


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


def test_experiment_exact_splits_and_ranked_refuses_split():
    c = tiny_corpus()
    report = experiment(c, "exact", [micro()], split="conjuncts")
    assert set(report.targets) == {
        "ADD_0_c1",
        "ADD_1_c1",
        "ADD_BOTH_c1",
        "ADD_BOTH_c2",
    }
    assert solved_targets(report, "microres") == set(report.targets)
    # Only the exact relation proves conjunct by conjunct.
    with pytest.raises(ValueError, match="applies only to the exact relation"):
        experiment(c, AccessRelation.LINEAR_ORDER, [micro()], split="conjuncts")


def test_experiment_ranked_relation_and_reports(tmp_path):
    c = tiny_corpus()
    report = experiment(c, AccessRelation.LINEAR_ORDER, [micro()])
    assert set(report.targets) == {"ADD_0", "ADD_1", "ADD_BOTH"}
    assert write_report(report, tmp_path / "exp") == (
        tmp_path / "exp.csv", tmp_path / "exp.txt"
    )
    assert (tmp_path / "exp.csv").read_text(encoding="utf-8") == report.csv_text()
    assert (tmp_path / "exp.txt").read_text(encoding="utf-8") == report.summary_text()
    # Ranked premises plus computation make these provable too.
    assert "ADD_1" in solved_targets(report, "microres")


@pytest.mark.parametrize("relation", ["exact", "loaded"])
def test_translation_failure_is_one_targets_error_row(monkeypatch, relation):
    c = tiny_corpus()
    expected = {
        r.target: str(r.status) for r in experiment(c, relation, [micro()]).results
    }
    translate = harness.translate_problem

    def failing(premises, conjecture, sig):
        if conjecture[0] == "ADD_1":
            raise TranslateError("no encoding for ADD_1")
        return translate(premises, conjecture, sig)

    monkeypatch.setattr(harness, "translate_problem", failing)
    report = experiment(c, relation, [micro()])
    got = {r.target: str(r.status) for r in report.results}
    assert got["ADD_1"] == "Error(translation failed: no encoding for ADD_1)"
    assert expected["ADD_1"] == "Theorem"
    del got["ADD_1"], expected["ADD_1"]
    assert got == expected
    assert report.targets == ("ADD_0", "ADD_1", "ADD_BOTH")


def test_experiment_validates_inputs():
    c = tiny_corpus()
    with pytest.raises(ValueError):
        experiment(c, "sideways", [micro()])

