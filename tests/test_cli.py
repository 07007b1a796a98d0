"""Command line behavior: outputs and exit codes, run in process except
where a real signal must reach a real process."""

import argparse
import csv
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hammerkit import cli, harness
from .helpers import CONNECTIVES_AS_CONSTANTS, TOY, TOY_DECLS

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


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "corpus.thy").write_text(THY, encoding="utf-8")
    (root / "arith.tt").write_text(ARITH_TT, encoding="utf-8")
    (root / "arith.deps").write_text(ARITH_DEPS, encoding="utf-8")
    (root / "club.tt").write_text(CLUB_TT, encoding="utf-8")
    (root / "club.deps").write_text(CLUB_DEPS, encoding="utf-8")
    return str(root)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parse


def test_parse_bundled_corpus_summary(capsys):
    code, out, _ = run(capsys, "parse")
    assert code == 0
    assert "theories: 4 (logic, nat, list, hof)" in out
    assert "theorems:" in out and "conjuncts:" in out


def test_parse_echoes_files(tmp_path, capsys):
    path = tmp_path / "decl.tt"
    path.write_text(TOY_DECLS + "tt(L, ax, LE 0 0).\n", encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(path))
    assert code == 0
    assert "tt(L, ax, LE 0 0)." in out
    assert "tt(ADD, ty, nat > nat > nat)." in out


def test_parse_echoes_connectives_as_constants(tmp_path, capsys):
    path = tmp_path / "conn.tt"
    path.write_text(CONNECTIVES_AS_CONSTANTS, encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(path))
    assert code == 0
    assert "tt(X7, ax, ('!' nat) S | ('?' nat) S)." in out
    path.write_text(out, encoding="utf-8")
    assert run(capsys, "parse", str(path)) == (0, out, "")


def test_parse_long_conjunction_is_input_error(tmp_path, capsys):
    root = tmp_path / "deep"
    root.mkdir()
    (root / "corpus.thy").write_text("theory(deep, []).\n", encoding="utf-8")
    conj = " & ".join(["P"] * 1000)
    (root / "deep.tt").write_text(
        f"tt(P, ty, bool).\ntt(BIG, ax, {conj}).\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "parse", "--corpus", str(root))
    assert code == 2
    assert err.startswith("error:")


def test_parse_bad_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "decl.tt"
    path.write_text("tt(L, ax, NO_SUCH 0).\n", encoding="utf-8")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [["parse"], ["features"], ["translate", "ADD_0"], ["predict", "--goal", "ADD 0 0 = 0"]],
    ids=lambda argv: argv[0],
)
def test_dependency_on_a_later_theorem_is_input_error(tmp_path, capsys, argv):
    root = tmp_path / "toy"
    shutil.copytree(TOY, root)
    deps = root / "nat.deps"
    text = deps.read_text(encoding="utf-8")
    assert "deps(ADD_1, [ADD_0, ADD_SUC]).\n" in text
    deps.write_text(text.replace("ADD_1, [ADD_0, ADD_SUC]", "ADD_1, [ADD_0, MAX_SUC]"))
    code, out, err = run(capsys, *argv, "--corpus", str(root))
    assert code == 2
    assert out == ""
    assert err == "error: ADD_1 depends on MAX_SUC, which does not precede it\n"


# ------------------------------------------------------------------ deps


def test_deps_lists_conjunct_dependencies(corpus_dir, capsys):
    code, out, _ = run(capsys, "deps", "--corpus", corpus_dir, "ADD_BOTH")
    assert code == 0
    assert "ADD_BOTH_c1: ADD_DEF_c1" in out
    assert "ADD_BOTH_c2: ADD_DEF_c1" in out


@pytest.mark.parametrize("command", ["deps", "features", "translate"])
def test_unknown_name(corpus_dir, capsys, command):
    code, _, err = run(capsys, command, "--corpus", corpus_dir, "NOPE")
    assert code == 2
    assert "no theorem named NOPE" in err


# -------------------------------------------------------- features, predict


def test_features_for_goal(corpus_dir, capsys):
    code, out, _ = run(
        capsys, "features", "--corpus", corpus_dir, "--goal", "ADD 0 0 = 0"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert any("ADD" in l for l in lines)


def test_features_table_lists_conjuncts(corpus_dir, capsys):
    code, out, _ = run(capsys, "features", "--corpus", corpus_dir)
    assert code == 0
    assert any(l.startswith("ADD_BOTH_c2\t") for l in out.splitlines())


def test_deeply_nested_goal_is_input_error(corpus_dir, capsys):
    goal = "SUC (" * 1200 + "0" + ")" * 1200 + " = 0"
    code, _, err = run(capsys, "features", "--corpus", corpus_dir, "--goal", goal)
    assert code == 2
    assert err.startswith("error:")


class _ClosedPipe(io.TextIOBase):
    """Standard output whose reader has gone away."""

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


def test_closed_output_pipe_ends_quietly(corpus_dir, tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = cli.main(["features", "--corpus", corpus_dir])
        assert code == 0
        assert capsys.readouterr().err == ""
        # Whatever is flushed later goes nowhere instead of failing again.
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_report_is_written_when_output_pipe_is_closed(corpus_dir, tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = cli.main([
            "experiment", "--relation", "exact", "--corpus", corpus_dir,
            "--provers", "microres", "--report", str(tmp_path / "rep"),
        ])
    finally:
        os.close(fd)
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "rep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3
    assert "100.00" in (tmp_path / "rep.txt").read_text(encoding="utf-8")


def test_interrupt_exits_130_without_traceback(corpus_dir, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "experiment", interrupted)
    code, out, err = run(
        capsys, "experiment", "--relation", "exact", "--corpus", corpus_dir,
        "--provers", "microres",
    )
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


def test_interrupt_ends_the_provers_in_flight(corpus_dir, tmp_path):
    # The prover leads a session of its own, out of reach of the
    # terminal's SIGINT, so the batch itself must kill it.
    config = tmp_path / "provers.cfg"
    config.write_text(
        '[sleepy]\nexecutable = sh\nargs = -c "sleep 30"\ntimeout = 4\n', encoding="utf-8"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "hammerkit.cli", "experiment", "--relation", "exact",
            "--corpus", corpus_dir, "--prover-config", str(config), "--jobs", "1",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(1.5)
    proc.send_signal(signal.SIGINT)
    sent = time.monotonic()
    out, err = proc.communicate(timeout=30)
    assert time.monotonic() - sent < 1
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")


def test_predict_ranks_premises(corpus_dir, capsys):
    code, out, _ = run(
        capsys,
        "predict",
        "--corpus",
        corpus_dir,
        "--goal",
        "ADD (SUC 0) 0 = SUC 0",
        "--k",
        "3",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines
    labels = [l.split("\t")[0] for l in lines]
    assert "ADD_DEF_c2" in labels
    weights = [float(l.split("\t")[1]) for l in lines]
    assert weights == sorted(weights, reverse=True)


@pytest.mark.parametrize("command", ["predict", "translate"])
def test_negative_premise_count_is_usage_error(corpus_dir, capsys, command):
    code, out, err = run(
        capsys, command, "--corpus", corpus_dir, "--goal", "ADD 0 0 = 0", "-n", "-1"
    )
    assert (code, out) == (2, "")
    assert "premise count -1 is negative" in err


# Each id names the harness entry point the command reaches: a ranked
# experiment, the exact relation's reprove, and advise.
@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize(
    "command",
    [
        ["experiment"],
        ["experiment", "--relation", "exact"],
        ["advise", "--goal", "ADD 0 0 = 0"],
    ],
    ids=["experiment", "reprove", "advise"],
)
def test_jobs_below_one_is_usage_error(corpus_dir, capsys, monkeypatch, command, jobs):
    def no_prover(*args, **kwargs):
        raise AssertionError("a prover started")

    monkeypatch.setattr(harness, "run_prover", no_prover)
    code, out, err = run(
        capsys, *command, "--corpus", corpus_dir, "--provers", "microres", "--jobs", jobs
    )
    assert (code, out) == (2, "")
    assert err == f"error: jobs must be at least 1, not {jobs}\n"


@pytest.mark.parametrize(
    "timeout, value",
    [("nan", "nan"), ("inf", "inf"), ("1e309", "inf"), ("config nan", "nan")],
    ids=["nan", "inf", "1e309", "config-nan"],
)
def test_timeout_that_is_not_finite_is_usage_error(corpus_dir, tmp_path, capsys, timeout, value):
    if timeout == "config nan":
        config = tmp_path / "provers.cfg"
        config.write_text("[microres]\ntimeout = nan\n", encoding="utf-8")
        options = ["--prover-config", str(config)]
    else:
        options = ["--provers", "microres", "--timeout", timeout]
    code, out, err = run(
        capsys, "experiment", "--relation", "exact", "--corpus", corpus_dir, *options
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: prover 'microres': timeout must be a positive finite number, not {value}\n"
    )


# -------------------------------------------------------------- translate


def test_translate_theorem_to_stdout(corpus_dir, capsys):
    code, out, _ = run(capsys, "translate", "--corpus", corpus_dir, "ADD_1")
    assert code == 0
    assert "fof(aDD_1, conjecture," in out
    assert "fof(aDD_DEF_c1, axiom," in out
    assert "fof(aDD_DEF_c2, axiom," in out


def test_translate_goal_to_file(corpus_dir, tmp_path, capsys):
    dest = tmp_path / "goal.p"
    code, out, _ = run(
        capsys,
        "translate",
        "--corpus",
        corpus_dir,
        "--goal",
        "ADD 0 (SUC 0) = SUC 0",
        "-o",
        str(dest),
    )
    assert code == 0
    assert out == ""
    assert "conjecture" in dest.read_text(encoding="utf-8")


def test_translate_needs_name_or_goal(corpus_dir, capsys):
    code, _, err = run(capsys, "translate", "--corpus", corpus_dir)
    assert code == 2
    assert "error:" in err


# The exact-dependency problem of a NAME ranks nothing, so the options
# of the goal form are refused with it.
@pytest.mark.parametrize(
    "option, value", [("--goal", "0 = 0"), ("--k", "1"), ("-n", "1")]
)
def test_translate_name_refuses_goal_options(corpus_dir, capsys, option, value):
    code, out, err = run(capsys, "translate", "--corpus", corpus_dir, "ADD_1", option, value)
    assert (code, out) == (2, "")
    assert f"translate NAME does not read {option}" in err


def test_tag_all_is_a_usage_error(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(["translate", "--corpus", corpus_dir, "--tag-all", "ADD_1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["features", "predict", "translate", "advise"])
def test_empty_goal_is_input_error(corpus_dir, capsys, command):
    code, out, err = run(capsys, command, "--corpus", corpus_dir, "--goal", "")
    assert (code, out) == (2, "")
    assert err == "error: line 1, column 1: unexpected ''\n"


def test_undeclared_name_in_goal_is_placed(corpus_dir, capsys):
    code, out, err = run(capsys, "features", "--corpus", corpus_dir, "--goal", "LE 0 (FOO 0)")
    assert (code, out) == (2, "")
    assert err == "error: line 1, column 7: undeclared name: FOO\n"


def test_translate_rejects_malformed_goal(corpus_dir, capsys):
    code, _, err = run(
        capsys, "translate", "--corpus", corpus_dir, "--goal", "ADD 0 ("
    )
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------- experiment


def test_experiment_exact_split_conjuncts(tmp_path, capsys):
    base = tmp_path / "rep"
    code, out, _ = run(
        capsys,
        "experiment",
        "--relation",
        "exact",
        "--split",
        "conjuncts",
        "--provers",
        "microres",
        "--timeout",
        "10",
        "--report",
        str(base),
    )
    assert code == 0
    assert out.splitlines()[1].split() == ["microres", "60", "60", "100.00", "60", "0"]
    rows = list(csv.DictReader(io.StringIO((tmp_path / "rep.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 60
    assert all(re.fullmatch(r"\w+_c\d+", row["target"]) for row in rows)
    assert (tmp_path / "rep.txt").exists()


def test_experiment_exact_relation(corpus_dir, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "experiment",
        "--corpus",
        corpus_dir,
        "--relation",
        "exact",
        "--provers",
        "microres",
        "--timeout",
        "10",
        "--report",
        f"{tmp_path / 'rep'}/",
    )
    assert code == 0
    assert "100.00" in out
    # The paths printed are the files written.
    assert f"written: {tmp_path / 'rep.csv'} {tmp_path / 'rep.txt'}" in out
    assert (tmp_path / "rep.csv").exists() and (tmp_path / "rep.txt").exists()


def test_theorem_name_in_two_theories_is_input_error(corpus_dir, capsys):
    club = Path(corpus_dir) / "club.tt"
    club.write_text(club.read_text(encoding="utf-8") + "tt(ADD_0, ax, ADD 0 0 = 0).\n")
    code, out, err = run(
        capsys, "experiment", "--corpus", corpus_dir, "--relation", "exact", "--provers", "microres"
    )
    assert (code, out) == (2, "")
    assert err == "error: theorem ADD_0 of theory club is also in theory arith\n"


def test_translate_name_prints_the_problem_the_exact_relation_proves(
    corpus_dir, capsys, monkeypatch
):
    sent = {}
    run_prover = harness.run_prover

    def record(path, config, *args, **kwargs):
        sent[kwargs["target"]] = Path(path).read_text(encoding="utf-8")
        return run_prover(path, config, *args, **kwargs)

    monkeypatch.setattr(harness, "run_prover", record)
    code, _, _ = run(
        capsys, "experiment", "--corpus", corpus_dir, "--relation", "exact", "--provers", "microres"
    )
    assert code == 0
    assert set(sent) == {"ADD_0", "ADD_1", "ADD_BOTH"}
    for name, problem in sent.items():
        code, out, _ = run(capsys, "translate", "--corpus", corpus_dir, name)
        assert (code, out) == (0, problem)


def test_experiment_rejects_unknown_relation(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["experiment", "--corpus", corpus_dir, "--relation", "sideways"]
        )
    assert exc.value.code == 2


# ----------------------------------------------------------------- advise


def test_advise_proves_goal(corpus_dir, capsys):
    code, out, _ = run(
        capsys,
        "advise",
        "--corpus",
        corpus_dir,
        "--goal",
        "ADD 0 (SUC 0) = SUC 0",
        "--provers",
        "microres",
        "--timeout",
        "10",
    )
    assert code == 0
    assert "proved by microres (Theorem)" in out
    assert "timings: parse=" in out
    assert "core:" in out


def test_advise_unprovable_goal_exits_one(corpus_dir, capsys):
    code, out, _ = run(
        capsys,
        "advise",
        "--corpus",
        corpus_dir,
        "--goal",
        "LE 0 0",
        "--provers",
        "microres",
        "--timeout",
        "3",
    )
    assert code == 1
    assert "no proof:" in out
    assert "microres:" in out


def test_unknown_prover_is_usage_error(corpus_dir, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "advise",
        "--corpus",
        corpus_dir,
        "--goal",
        "ADD 0 0 = 0",
        "--provers",
        "nosuch",
    )
    assert code == 2
    assert "unknown prover" in err
    # A list that names no prover at all, for a command that takes the first.
    problem = tmp_path / "prob.p"
    problem.write_text("fof(a, axiom, p).\nfof(goal, conjecture, p).\n", encoding="utf-8")
    code, _, err = run(capsys, "minimize", str(problem), "--provers", ",")
    assert code == 2
    assert err == "error: --provers ',' names no prover\n"


def test_percent_in_a_prover_config_is_an_ordinary_character(tmp_path, capsys):
    config = tmp_path / "provers.cfg"
    config.write_text(
        "[sh]\nexecutable = sh\nargs = -c 'echo % SZS status Theorem' {problem}\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "advise", "--goal", "ADD 0 0 = 0", "--prover-config", str(config), "--provers", "sh"
    )
    assert code == 0
    assert "proved by sh (Theorem)" in out


def test_unknown_prover_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "provers.cfg"
    config.write_text("[microres]\nn_premise = 8\ntimout = 1\n", encoding="utf-8")
    code, out, err = run(
        capsys, "advise", "--goal", "ADD 0 0 = 0", "--prover-config", str(config)
    )
    assert code == 2
    assert out == ""
    assert err == "error: prover 'microres': unknown key 'n_premise'\n"


# A config file is the one way to set a prover's premise budget.
def test_prover_config_sets_the_premise_budget(corpus_dir, tmp_path, capsys):
    config = tmp_path / "provers.cfg"
    config.write_text("[microres]\nn_premises = 1\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "advise",
        "--corpus",
        corpus_dir,
        "--goal",
        "ADD 0 (SUC 0) = SUC 0",
        "--prover-config",
        str(config),
        "--timeout",
        "10",
    )
    assert code == 0
    assert "proved by microres (Theorem)" in out
    assert "premises given: 1\n" in out


@pytest.mark.parametrize(
    "line, message",
    [
        ("n_premises = lots", "n_premises must be an integer, not 'lots'"),
        ("timeout = soon", "timeout must be a number, not 'soon'"),
        ("n_premises = 0", "n_premises must be a positive integer, not 0"),
    ],
    ids=["n_premises", "timeout", "n_premises-range"],
)
def test_prover_config_value_errors_name_prover_and_key(tmp_path, capsys, line, message):
    config = tmp_path / "provers.cfg"
    config.write_text(f"[microres]\n{line}\n", encoding="utf-8")
    code, out, err = run(
        capsys, "advise", "--goal", "ADD 0 0 = 0", "--prover-config", str(config)
    )
    assert (code, out) == (2, "")
    assert err == f"error: prover 'microres': {message}\n"


# --------------------------------------------------------------- minimize


def test_minimize_problem_file(tmp_path, capsys):
    path = tmp_path / "prob.p"
    path.write_text(
        "fof(a1, axiom, p).\n"
        "fof(a2, axiom, (p => q)).\n"
        "fof(junk, axiom, r).\n"
        "fof(goal, conjecture, q).\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "minimize", str(path), "--provers", "microres", "--timeout", "10"
    )
    assert code == 0
    assert "confirmed" in out
    assert "a1" in out and "a2" in out
    assert "junk" not in out


def test_minimize_unprovable_file_exits_one(tmp_path, capsys):
    path = tmp_path / "prob.p"
    path.write_text(
        "fof(a1, axiom, p).\nfof(goal, conjecture, q).\n", encoding="utf-8"
    )
    code, out, _ = run(
        capsys, "minimize", str(path), "--provers", "microres", "--timeout", "3"
    )
    assert code == 1
    assert "unconfirmed" in out


# Options that these commands once accepted and never read, the --budget
# that a config file's n_premises replaced, the options one relation of
# experiment reads and the other does not, and the reprove subcommand
# that experiment --relation exact replaced.  Each case is complete
# otherwise, so only the option makes it a usage error.
@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--goal", "ADD 0 0 = 0", "--relation", "exact"],
        ["translate", "--goal", "ADD 0 0 = 0", "--relation", "exact"],
        ["advise", "--goal", "ADD 0 0 = 0", "--provers", "microres", "--relation", "exact"],
        ["experiment", "--relation", "exact", "--provers", "microres", "--budget", "microres=1"],
        ["experiment", "--provers", "microres", "--budget", "microres=1"],
        ["advise", "--goal", "ADD 0 0 = 0", "--provers", "microres", "--budget", "microres=1"],
        ["minimize", "PROBLEM", "--provers", "microres", "--jobs", "1"],
        ["minimize", "PROBLEM", "--provers", "microres", "--budget", "microres=1"],
        ["experiment", "--relation", "exact", "--provers", "microres", "--k", "3"],
        ["experiment", "--relation", "loaded", "--provers", "microres", "--split", "conjuncts"],
        ["reprove", "--provers", "microres"],
    ],
    ids=[
        "predict--relation", "translate--relation", "advise--relation",
        "exact--budget", "experiment--budget", "advise--budget",
        "minimize--jobs", "minimize--budget", "exact--k", "loaded--split", "reprove",
    ],
)
def test_options_nothing_reads_are_usage_errors(corpus_dir, tmp_path, capsys, argv):
    problem = tmp_path / "prob.p"
    problem.write_text("fof(a, axiom, p).\nfof(goal, conjecture, p).\n", encoding="utf-8")
    if argv[0] == "minimize":
        argv = [argv[0], str(problem), *argv[2:]]
    else:
        argv = [argv[0], "--corpus", corpus_dir, *argv[1:]]
    # The parser refuses most; an option only one relation reads is
    # refused after parsing, as an error (exit 2).
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_settable_values_stay_few():
    # Every option and positional argument of every subcommand is a
    # value a user can set.  A change that adds one raises this bound in
    # the same diff and says why.
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    settable = [
        action
        for command in sub.choices.values()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert len(settable) <= 37


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
