"""Seeded mutation fuzz: no input makes hammerkit end in a traceback.

Each test mutates the tokens of one kind of input with a fixed
``random.Random`` seed, in the manner of QuickCheck without shrinking,
and runs every mutant in process: corpus files, goals and prover configs
through ``cli.main``, TPTP problems through ``microres.main``, and prover
output through ``parse_szs`` and ``extract_core``.  A command may prove,
find no proof or refuse its input (exit 0, 1 or 2), and a refusal is one
``error:`` line; anything else, an exception included, fails the test
and names the trial.  The trial counts are chosen by cost: the five tests
take about 4 s together on a 2-core machine.
"""

import random
import re
import shutil

import pytest

from hammerkit import cli, harness
from hammerkit.corpus import load_corpus
from hammerkit.hol import term_text
from hammerkit.provers import microres
from hammerkit.tptp import SzsStatus, UnsatCore, extract_core, parse_problem, parse_szs

from .helpers import TOY

CORPUS_TRIALS = 50
GOAL_TRIALS = 200
CONFIG_TRIALS = 50
PROBLEM_TRIALS = 300
OUTPUT_TRIALS = 2000

_TOKEN = re.compile(r"\s+|\w+|[^\w\s]")

# Tokens from outside the input: brackets and quotes that unbalance it,
# config interpolation and placeholder syntax, numbers out of range and
# a character outside ASCII.
_FOREIGN = [
    "(", ")", "[", "]", ",", ".", ":", "'", '"', "%", "%(x)s", "{", "}", "{nope}",
    "=", "~", "!", "\\", "\n", "-1", "0", "1e999", "nan", "λ", "",
]


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with one to three tokens deleted, doubled, swapped or
    replaced by a token of the text or a foreign one."""
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        i = rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0:
            del tokens[i]
        elif op == 1:
            tokens.insert(i, tokens[i])
        elif op == 2:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = rng.choice(_FOREIGN if rng.random() < 0.5 else tokens)
    return "".join(tokens)


def exits_cleanly(capsys, argv: list[str], trial: str) -> int:
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as e:
        pytest.fail(f"{trial}: {argv} raised {e!r}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (trial, argv, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (trial, argv, err)
    return code


def test_mutated_corpus_files(tmp_path, capsys):
    rng = random.Random(11)
    root = tmp_path / "toy"
    shutil.copytree(TOY, root)
    names = sorted(p.name for p in TOY.iterdir())
    commands = [["parse"], ["features"], ["translate", "ADD_1"], ["predict", "--goal=ADD 0 0 = 0"]]
    for trial in range(CORPUS_TRIALS):
        name = rng.choice(names)
        original = (TOY / name).read_text(encoding="utf-8")
        (root / name).write_text(mutate(rng, original), encoding="utf-8")
        for argv in commands:
            exits_cleanly(capsys, [*argv, "--corpus", str(root)], f"{name}, trial {trial}")
        (root / name).write_text(original, encoding="utf-8")


def toy_goals(corpus) -> list[str]:
    """Every toy theorem, as a bare formula and as a ``tt`` entry."""
    texts = [(e.name, term_text(e.statement)) for e in map(corpus.theorem, corpus.order())]
    return [text for _, text in texts] + [f"tt({name}, conj, {text})." for name, text in texts]


def test_mutated_goals(capsys, monkeypatch):
    rng = random.Random(12)
    corpus = load_corpus(TOY)
    goals = toy_goals(corpus)
    # One corpus for every trial: commands only read it.
    monkeypatch.setattr(cli, "_load", lambda args: corpus)
    for trial in range(GOAL_TRIALS):
        goal = mutate(rng, rng.choice(goals))
        for command in ("features", "predict", "translate"):
            exits_cleanly(capsys, [command, f"--goal={goal}"], f"goal trial {trial}")


CONFIG = """\
[microres]
args = -m hammerkit.provers.microres {problem} --timeout {timeout} --max-clauses 400
n_premises = 8
[echo]
executable = echo
args = % SZS status Theorem: {problem}
n_premises = 4
timeout = 2
"""


def test_mutated_prover_configs(tmp_path, capsys, monkeypatch):
    rng = random.Random(13)
    corpus = load_corpus(TOY)
    monkeypatch.setattr(cli, "_load", lambda args: corpus)
    monkeypatch.setattr(harness, "_GRACE", 0.5)
    path = tmp_path / "provers.cfg"
    argv = ["advise", "--goal=ADD 0 0 = 0", "--prover-config", str(path), "--timeout", "1"]
    path.write_text(CONFIG, encoding="utf-8")
    assert exits_cleanly(capsys, argv, "the config as written") == 0
    for trial in range(CONFIG_TRIALS):
        path.write_text(mutate(rng, CONFIG), encoding="utf-8")
        exits_cleanly(capsys, argv, f"config trial {trial}")


def toy_problems(corpus) -> list[str]:
    """The exact-dependency problems of every sixth toy theorem."""
    entries = [corpus.theorem(tid) for tid in corpus.order()]
    texts = []
    for entry in [e for e in entries if not e.is_definition][::6]:
        premises = harness.conjunct_premises(corpus, frozenset().union(*entry.dependencies))
        texts.append(harness.build_problem(corpus, premises, (entry.name, entry.statement))[1])
    return texts


def test_mutated_problems(tmp_path, capsys):
    rng = random.Random(14)
    problems = toy_problems(load_corpus(TOY))
    path = tmp_path / "problem.p"
    for trial in range(PROBLEM_TRIALS):
        path.write_text(mutate(rng, rng.choice(problems)), encoding="utf-8")
        try:
            code = microres.main([str(path), "--timeout", "0.5", "--max-clauses", "300"])
        except (Exception, SystemExit) as e:
            pytest.fail(f"problem trial {trial} raised {e!r}")
        assert code in (0, 1), trial
        assert "% SZS status " in capsys.readouterr().out, trial


def test_mutated_prover_output():
    rng = random.Random(15)
    problem = parse_problem(toy_problems(load_corpus(TOY))[0])
    proof, result = microres.prove(problem, timeout=10)
    assert result.status == "Theorem"
    # A proof in the shape other provers print, with file() annotations.
    name = problem.axioms[0][0]
    tstp = (
        "% SZS status Unsatisfiable for problem\n% SZS output start CNFRefutation\n"
        f"fof(f1, axiom, p, file('problem.p', {name})).\n"
        "cnf(c2, negated_conjecture, ~p, inference(negate, [], [f1])).\n"
        "% SZS output end CNFRefutation\n"
    )
    sources = {problem.reverse.get(n, n) for n, _ in problem.axioms}
    for trial in range(OUTPUT_TRIALS):
        output = mutate(rng, rng.choice((proof, tstp)))
        status = parse_szs(output, exit_code=rng.choice((0, 1, -9)), timed_out=rng.random() < 0.2)
        core = extract_core(output, problem)
        assert isinstance(status, SzsStatus), trial
        assert isinstance(core, UnsatCore) and set(core.premises) <= sources, trial
