"""Command line front end.

One executable, one subcommand per pipeline stage: inspect a corpus
(parse, deps, features), query the learner (predict), emit problems
(translate), and run provers at scale (experiment) or for a single goal
(advise, minimize).  ``experiment --relation exact`` re-proves every
theorem from its recorded dependencies, whole or (``--split
conjuncts``) one conjunct at a time.

A goal given on the command line is ranked against the whole corpus, so
only ``experiment`` takes ``--relation``.  A prover's premise budget has
one source: the ``n_premises`` key of its ``--prover-config`` section,
or the stock value when no section sets it.

Every problem is emitted in one encoding, with every term tagged by its
type.  No option chooses the encoding: the old flag that asked for all
tags is gone, and passing it is a usage error (exit 2).

Exit codes: 0 on proof or normal completion, 1 when a proving command
finds no proof, 2 on usage, input, or configuration errors, including
input nested too deeply to process, and 130 when interrupted (Ctrl-C),
after stopping every prover it started.  A reader that closes the
output early (``hammerkit features | head``) ends the run normally,
with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .corpus import (
    AccessRelation,
    Corpus,
    ParseError,
    Signature,
    UnknownTheorem,
    load_corpus,
    parse_goal,
    parse_tt,
    print_tt,
)
from .features import extract
from .fof import TranslateError
from .harness import (
    DEFAULT_K,
    ExperimentReport,
    ProverConfig,
    SpawnError,
    UnsatCore,
    build_problem,
    builtin_config,
    conjunct_premises,
    default_provers,
    load_prover_configs,
    minimize_core,
    suggest,
    experiment,
    advise,
    write_report,
)
from .hol import HolError, PrintError
from .tptp import parse_problem

_USAGE_ERRORS = (
    ParseError,
    PrintError,
    UnknownTheorem,
    HolError,
    TranslateError,
    SpawnError,
    ValueError,
    OSError,
)


def _default_corpus() -> Path:
    path = Path(str(resources.files("hammerkit") / "data" / "toy"))
    if not path.is_dir():
        raise ValueError(f"bundled corpus not found at {path}")
    return path


def _load(args: argparse.Namespace) -> Corpus:
    root = Path(args.corpus) if args.corpus else _default_corpus()
    return load_corpus(root)


def _goal(args: argparse.Namespace, corpus: Corpus):
    path = Path(args.goal)
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False
    text = path.read_text(encoding="utf-8") if is_file else args.goal
    return parse_goal(text, corpus.signature)


def _provers(args: argparse.Namespace) -> list[ProverConfig]:
    """The provers the options name."""
    configured = load_prover_configs(args.prover_config) if args.prover_config else []
    named = {c.name: c for c in configured}
    if args.provers:
        names = [n for n in (n.strip() for n in args.provers.split(",")) if n]
        if not names:
            raise ValueError(f"--provers {args.provers!r} names no prover")
        configs = [named.get(n) or builtin_config(n) for n in names]
    elif named:
        configs = list(named.values())
    else:
        configs = default_provers()
    if args.timeout is not None:
        configs = [replace(c, timeout=args.timeout) for c in configs]
    return configs


# ------------------------------------------------------------- subcommands


def _cmd_parse(args: argparse.Namespace) -> int:
    if args.files:
        sig = Signature()
        for fname in args.files:
            text = Path(fname).read_text(encoding="utf-8")
            for entry in parse_tt(text, sig):
                print(print_tt(entry))
        return 0
    corpus = _load(args)
    n_defs = sum(1 for e in corpus.theorems.values() if e.is_definition)
    n_conj = sum(len(e.conjuncts) for e in corpus.theorems.values())
    print(f"theories: {len(corpus.theories)} ({', '.join(corpus.theories)})")
    print(f"theorems: {len(corpus.theorems)} ({n_defs} definitions)")
    print(f"conjuncts: {n_conj}")
    print(f"types: {len(corpus.signature.types)}  constants: {len(corpus.signature.consts)}")
    return 0


def _cmd_deps(args: argparse.Namespace) -> int:
    corpus = _load(args)
    if args.names:
        tids = [corpus.theorem_named(n).id for n in args.names]
    else:
        tids = [t for t in corpus.order() if not corpus.theorem(t).is_definition]
    for tid in tids:
        entry = corpus.theorem(tid)
        for cid, deps in zip(entry.conjunct_ids(), entry.dependencies):
            labels = sorted(corpus.conjunct_label(d) for d in deps)
            print(f"{corpus.conjunct_label(cid)}: {' '.join(labels)}".rstrip())
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    corpus = _load(args)
    if args.goal is not None:
        _, term = _goal(args, corpus)
        for feat in sorted(extract(term)):
            print(feat)
        return 0
    if args.names:
        tids = [corpus.theorem_named(n).id for n in args.names]
    else:
        tids = corpus.order()
    for tid in tids:
        entry = corpus.theorem(tid)
        for cid in entry.conjunct_ids():
            feats = " ".join(sorted(extract(corpus.conjunct_statement(cid))))
            print(f"{corpus.conjunct_label(cid)}\t{feats}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    corpus = _load(args)
    _, term = _goal(args, corpus)
    ranked = suggest(corpus, term, k=args.k, n_premises=args.n_premises)
    for cid, weight in ranked:
        print(f"{corpus.conjunct_label(cid)}\t{weight:.6f}")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    if args.name:
        # The exact-dependency problem ranks nothing.
        for opt, value in (("--goal", args.goal), ("--k", args.k), ("-n", args.n_premises)):
            if value is not None:
                raise ValueError(f"translate NAME does not read {opt}")
    corpus = _load(args)
    if args.name:
        entry = corpus.theorem_named(args.name)
        premises = conjunct_premises(corpus, frozenset().union(*entry.dependencies))
        conjecture = (entry.name, entry.statement)
    else:
        if args.goal is None:
            raise ValueError("translate wants a theorem NAME or --goal")
        gname, term = _goal(args, corpus)
        k = DEFAULT_K if args.k is None else args.k
        n = 32 if args.n_premises is None else args.n_premises
        ranked = suggest(corpus, term, k=k, n_premises=n)
        premises = [
            (corpus.conjunct_label(cid), corpus.conjunct_statement(cid))
            for cid, _ in ranked
        ]
        conjecture = (gname, term)
    _, text = build_problem(corpus, premises, conjecture)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _print_report(report: ExperimentReport, path: str | None) -> int:
    # Files first: a reader of stdout that stops early must not cost them.
    written = write_report(report, path) if path else None
    print(report.summary_text())
    if written:
        print(f"written: {written[0]} {written[1]}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Exact dependencies rank nothing; the harness refuses a ranked split.
    if args.relation == AccessRelation.EXACT_DEPS.value and args.k is not None:
        raise ValueError("experiment --relation exact does not read --k")
    corpus = _load(args)
    provers = _provers(args)
    k = DEFAULT_K if args.k is None else args.k
    report = experiment(corpus, args.relation, provers, k=k, jobs=args.jobs, split=args.split)
    return _print_report(report, args.report)


def _cmd_advise(args: argparse.Namespace) -> int:
    corpus = _load(args)
    provers = _provers(args)
    gname, term = _goal(args, corpus)
    advice = advise(corpus, term, provers, k=args.k, jobs=args.jobs, goal_name=gname)
    if advice.core is None:
        attempts = ", ".join(f"{r.prover}: {r.status}" for r in advice.results)
        print(f"no proof: no prover proved the goal ({attempts})")
        for r in advice.results:
            print(f"  {r.prover}: {r.status} in {r.wall_time:.2f}s")
        _print_timings(advice.timings)
        return 1
    print(f"proved by {advice.prover} ({advice.results[-1].status})")
    _print_timings(advice.timings)
    print(f"premises given: {len(advice.premises)}")
    print("core:")
    for name in advice.core.premises:
        print(f"  {name}")
    return 0


def _print_timings(timings) -> None:
    print("timings:", " ".join(f"{k}={v:.3f}s" for k, v in timings.items()))


def _cmd_minimize(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    problem = parse_problem(text)
    provers = _provers(args)
    config = provers[0]
    target = problem.conjecture[0]
    core = UnsatCore(tuple(n for n, _ in problem.axioms), False)
    result = minimize_core(problem, core, config, target=target)
    print(f"core ({len(result.premises)} of {len(problem.axioms)} axioms, "
          f"{'confirmed' if result.complete else 'unconfirmed'}):")
    for name in result.premises:
        print(f"  {name}")
    return 0 if result.complete else 1


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hammerkit",
        description="premise selection and first-order export for HOL theorem corpora",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    corpus_opt = argparse.ArgumentParser(add_help=False)
    corpus_opt.add_argument(
        "--corpus",
        metavar="DIR",
        help="corpus directory (default: the bundled toy corpus)",
    )

    learn_opt = argparse.ArgumentParser(add_help=False)
    learn_opt.add_argument(
        "--k", type=int, default=DEFAULT_K, help="nearest neighbours (default: 40)"
    )

    prover_opt = argparse.ArgumentParser(add_help=False)
    prover_opt.add_argument(
        "--provers",
        metavar="LIST",
        help="comma-separated prover names (default: every prover found)",
    )
    prover_opt.add_argument(
        "--prover-config", metavar="FILE", help="prover definitions file"
    )
    prover_opt.add_argument(
        "--timeout", type=float, metavar="SECS", help="per-problem prover time limit"
    )

    jobs_opt = argparse.ArgumentParser(add_help=False)
    jobs_opt.add_argument(
        "--jobs", type=int, metavar="N", help="parallel prover processes"
    )

    p = sub.add_parser(
        "parse",
        parents=[corpus_opt],
        help="validate theory files and echo them canonically",
    )
    p.add_argument("files", nargs="*", help=".tt files (default: corpus summary)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser(
        "deps", parents=[corpus_opt], help="show recovered per-conjunct dependencies"
    )
    p.add_argument("names", nargs="*", help="theorem names (default: all)")
    p.set_defaults(func=_cmd_deps)

    p = sub.add_parser(
        "features", parents=[corpus_opt], help="show learner features"
    )
    p.add_argument("names", nargs="*", help="theorem names (default: all)")
    p.add_argument("--goal", metavar="FILE|TEXT", help="formula to featurize instead")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser(
        "predict",
        parents=[corpus_opt, learn_opt],
        help="rank premises for a goal",
    )
    p.add_argument("--goal", required=True, metavar="FILE|TEXT")
    p.add_argument(
        "-n", "--n-premises", type=int, default=32, help="list length (default: 32)"
    )
    p.set_defaults(func=_cmd_predict)

    # The learner's options have no default here, so that a NAME given
    # with one of them is told apart and refused.
    p = sub.add_parser(
        "translate",
        parents=[corpus_opt],
        help="emit a first-order problem file",
    )
    p.add_argument(
        "name",
        nargs="?",
        help="theorem name: its exact-dependency problem (otherwise use --goal)",
    )
    p.add_argument("--goal", metavar="FILE|TEXT", help="goal with predicted premises")
    p.add_argument("--k", type=int, help="with --goal: nearest neighbours (default: 40)")
    p.add_argument(
        "-n", "--n-premises", type=int, help="with --goal: premise count (default: 32)"
    )
    p.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_translate)

    # --k and --split have no default here, so that the relation that
    # does not read one is told apart and refused.
    p = sub.add_parser(
        "experiment",
        parents=[corpus_opt, prover_opt, jobs_opt],
        help="prove every theorem under one accessibility relation; exact re-proves "
        "each from its recorded dependencies",
    )
    p.add_argument(
        "--relation",
        choices=[r.value for r in AccessRelation],
        default=AccessRelation.LOADED_THEORIES.value,
        help="accessibility relation (default: loaded); exact gives each prover "
        "the recorded dependencies whole",
    )
    p.add_argument(
        "--k", type=int, help="ranked relations: nearest neighbours (default: 40)"
    )
    p.add_argument(
        "--split",
        choices=["unsplit", "conjuncts"],
        help="exact: one problem per theorem or per conjunct (default: unsplit)",
    )
    p.add_argument("--report", metavar="PATH", help="write CSV and text reports here")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "advise",
        parents=[corpus_opt, learn_opt, prover_opt, jobs_opt],
        help="select premises for a goal and try to prove it",
    )
    p.add_argument("--goal", required=True, metavar="FILE|TEXT")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "minimize",
        parents=[prover_opt],
        help="shrink a problem file's axioms to a proving core with the first prover listed",
    )
    p.add_argument("file", help="TPTP problem file")
    p.set_defaults(func=_cmd_minimize)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A reader that has gone away shows up here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader chose to stop.  What is still buffered goes to
        # devnull, so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except RecursionError as e:
        print(f"error: input nested too deeply ({e})", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as e:
        # One line, however many the message has.
        print("error:", " ".join(str(e).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
