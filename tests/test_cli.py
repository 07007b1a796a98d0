"""Command line behavior: outputs and exit codes, run in process except
where a real signal must reach a real process."""

import io
import os
import signal
import subprocess
import sys
import time

import pytest

from hammerkit import cli
from .helpers import TOY_DECLS

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


def test_interrupt_exits_130_without_traceback(corpus_dir, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "reprove", interrupted)
    code, out, err = run(capsys, "reprove", "--corpus", corpus_dir, "--provers", "microres")
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
            sys.executable, "-m", "hammerkit.cli", "reprove", "--corpus", corpus_dir,
            "--prover-config", str(config), "--jobs", "1",
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


def test_tag_all_is_a_usage_error(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(["translate", "--corpus", corpus_dir, "--tag-all", "ADD_1"])
    assert exc.value.code == 2


def test_translate_rejects_malformed_goal(corpus_dir, capsys):
    code, _, err = run(
        capsys, "translate", "--corpus", corpus_dir, "--goal", "ADD 0 ("
    )
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------- reprove, experiment


def test_reprove_writes_report(corpus_dir, tmp_path, capsys):
    base = tmp_path / "rep"
    code, out, _ = run(
        capsys,
        "reprove",
        "--corpus",
        corpus_dir,
        "--provers",
        "microres",
        "--timeout",
        "10",
        "--report",
        str(base),
    )
    assert code == 0
    assert "microres" in out and "100.00" in out
    assert (tmp_path / "rep.csv").exists()
    assert (tmp_path / "rep.txt").exists()


def test_experiment_exact_relation(corpus_dir, capsys):
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
    )
    assert code == 0
    assert "100.00" in out


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


def test_unknown_prover_is_usage_error(corpus_dir, capsys):
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


def test_budget_must_name_active_prover(corpus_dir, capsys):
    code, _, err = run(
        capsys,
        "reprove",
        "--corpus",
        corpus_dir,
        "--provers",
        "microres",
        "--budget",
        "vampire=9",
    )
    assert code == 2
    assert "vampire" in err


def test_budget_value_must_be_integer(corpus_dir, capsys):
    code, _, err = run(
        capsys,
        "reprove",
        "--corpus",
        corpus_dir,
        "--provers",
        "microres",
        "--budget",
        "microres=lots",
    )
    assert code == 2
    assert "not an integer" in err


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
