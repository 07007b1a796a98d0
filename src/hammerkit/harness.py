"""Experiment orchestration and the end-to-end advice loop.

Everything downstream of the corpus composes here: pick the accessible
theorems for a target, rank premises with the learner, translate to FOF,
run external provers in parallel, read unsat cores back, and aggregate
reports.  Problem construction is deterministic, so files are
byte-identical across runs; only wall-clock times vary.

Provers are external processes described by ProverConfig.  A small
resolution prover ships with the package and is always available; the
well-known first-order provers are picked up from PATH or from
HAMMER_PROVER_<NAME> environment variables when installed.
"""

from __future__ import annotations

import csv
import io
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser, Error as ConfigError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import knn
from .corpus import (
    AccessRelation,
    ConjunctId,
    Corpus,
    TheoremId,
    accessible_set,
)
from .features import extract
from .fof import FofProblem, TranslateError, translate_problem
from .hol import HolTerm
from .tptp import (
    SzsStatus,
    UnsatCore,
    error_status,
    extract_core,
    parse_szs,
    print_problem,
)

DEFAULT_TIMEOUT = 30.0
DEFAULT_K = 40

# Extra seconds the process gets beyond its own soft limit before the
# harness kills it.
_GRACE = 2.0


class SpawnError(Exception):
    """A prover binary could not be launched."""


class NoProofFound(Exception):
    """No prover closed the goal; carries the attempt diagnostics."""

    def __init__(
        self,
        message: str,
        results: tuple["AtpResult", ...] = (),
        timings: Mapping[str, float] | None = None,
        suggested: tuple[tuple[str, float], ...] = (),
    ) -> None:
        super().__init__(message)
        self.results = results
        self.timings = dict(timings or {})
        self.suggested = suggested


# ------------------------------------------------------------ prover configs


def _fmt_seconds(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:g}"


@dataclass(frozen=True)
class ProverConfig:
    """One external prover: how to run it and how many premises it gets.

    ``args`` is a template; every element goes through str.format with
    ``{problem}`` (the file path) and ``{timeout}`` (soft limit in
    seconds).  Literal braces must be doubled.
    """

    name: str
    executable: str
    args: tuple[str, ...]
    n_premises: int = 96
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        if self.n_premises < 1:
            raise ValueError(f"{self.name}: premise budget must be positive")
        if self.timeout <= 0:
            raise ValueError(f"{self.name}: timeout must be positive")

    def command(self, problem_path: str | Path) -> list[str]:
        subs = {"problem": str(problem_path), "timeout": _fmt_seconds(self.timeout)}
        try:
            return [self.executable] + [a.format_map(subs) for a in self.args]
        except (KeyError, IndexError) as e:
            raise ValueError(
                f"{self.name}: unknown placeholder in argument template: {e}"
            ) from None


# name -> (executable, argument template, premise budget)
_BUILTIN: dict[str, tuple[str, tuple[str, ...], int]] = {
    "microres": (
        sys.executable,
        ("-m", "hammerkit.provers.microres", "{problem}", "--timeout", "{timeout}"),
        32,
    ),
    "vampire": (
        "vampire",
        ("--mode", "casc", "--proof", "tptp", "-t", "{timeout}", "{problem}"),
        96,
    ),
    "eprover": (
        "eprover",
        (
            "--auto-schedule",
            "--proof-object",
            "--tstp-format",
            "--cpu-limit={timeout}",
            "{problem}",
        ),
        128,
    ),
    "z3": ("z3", ("-tptp", "-T:{timeout}", "{problem}"), 32),
}


def _env_executable(name: str) -> str | None:
    return os.environ.get(f"HAMMER_PROVER_{name.upper()}") or None


def builtin_config(
    name: str,
    timeout: float = DEFAULT_TIMEOUT,
    n_premises: int | None = None,
) -> ProverConfig:
    """The stock configuration for a known prover name.

    HAMMER_PROVER_<NAME> overrides the executable path.
    """
    if name not in _BUILTIN:
        raise ValueError(f"unknown prover {name!r}; known: {', '.join(sorted(_BUILTIN))}")
    exe, args, budget = _BUILTIN[name]
    return ProverConfig(
        name=name,
        executable=_env_executable(name) or exe,
        args=args,
        n_premises=n_premises if n_premises is not None else budget,
        timeout=timeout,
    )


def default_provers(timeout: float = DEFAULT_TIMEOUT) -> list[ProverConfig]:
    """The bundled prover plus whichever well-known ones are installed."""
    configs = [builtin_config("microres", timeout)]
    for name in ("vampire", "eprover", "z3"):
        if _env_executable(name) or shutil.which(_BUILTIN[name][0]):
            configs.append(builtin_config(name, timeout))
    return configs


def load_prover_configs(path: str | Path) -> list[ProverConfig]:
    """Prover configs from a plain-text key-value file.

    One section per prover; keys executable, args, n_premises, timeout.
    Known prover names inherit their stock values for missing keys.
    """
    parser = ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except ConfigError as e:
        raise ValueError(f"bad prover config {path}: {e}") from None
    configs = []
    for name in parser.sections():
        sect = parser[name]
        base = _BUILTIN.get(name)
        executable = _env_executable(name) or sect.get("executable") or (
            base[0] if base else None
        )
        if executable is None:
            raise ValueError(f"prover {name!r}: no executable given")
        if "args" in sect:
            args = tuple(shlex.split(sect["args"]))
        elif base:
            args = base[1]
        else:
            raise ValueError(f"prover {name!r}: no argument template given")
        budget = sect.getint("n_premises", base[2] if base else 96)
        timeout = sect.getfloat("timeout", DEFAULT_TIMEOUT)
        configs.append(ProverConfig(name, executable, args, budget, timeout))
    if not configs:
        raise ValueError(f"prover config {path} defines no provers")
    return configs


# -------------------------------------------------------------- prover runs


@dataclass(frozen=True)
class AtpResult:
    """One prover's outcome on one problem; core only when it proved."""

    target: str
    prover: str
    status: SzsStatus
    wall_time: float
    core: UnsatCore | None = None


def run_prover(
    problem_path: str | Path,
    config: ProverConfig,
    problem: FofProblem | None = None,
    target: str = "goal",
) -> AtpResult:
    """Run one prover on one problem file.

    The process is killed shortly after the configured timeout.  A binary
    that cannot be launched raises SpawnError; everything that happens
    after launch becomes a status, never an exception.  The unsat core is
    read back only when ``problem`` is supplied and the status proves.
    """
    argv = config.command(problem_path)
    start = time.monotonic()
    timed_out = False
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=config.timeout + _GRACE,
        )
        output, exit_code = proc.stdout, proc.returncode
    except (FileNotFoundError, PermissionError, NotADirectoryError) as e:
        raise SpawnError(f"cannot launch prover {config.name}: {argv[0]}: {e}") from None
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        output = out.decode("utf-8", "replace") if isinstance(out, bytes) else out
        exit_code, timed_out = 0, True
    except OSError as e:
        wall = time.monotonic() - start
        return AtpResult(target, config.name, error_status(str(e)), wall)
    wall = time.monotonic() - start
    status = parse_szs(output, exit_code=exit_code, timed_out=timed_out)
    core = None
    if status.proved and problem is not None:
        core = extract_core(output, problem)
    return AtpResult(target, config.name, status, wall, core)


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class ExperimentReport:
    """Per-prover outcomes over a fixed target list.

    Results are keyed, not order-dependent: rows are sorted by target
    position then prover position, so parallel and sequential runs agree.
    """

    targets: tuple[str, ...]
    provers: tuple[str, ...]
    results: tuple[AtpResult, ...]
    theory_of: Mapping[str, str]

    def solved(self, prover: str) -> frozenset[str]:
        return frozenset(
            r.target for r in self.results if r.prover == prover and r.status.proved
        )

    def countersat(self, prover: str) -> frozenset[str]:
        return frozenset(
            r.target
            for r in self.results
            if r.prover == prover and r.status.kind == "CounterSatisfiable"
        )

    @property
    def union_solved(self) -> frozenset[str]:
        return frozenset(r.target for r in self.results if r.status.proved)

    def unique(self, prover: str) -> frozenset[str]:
        others: set[str] = set()
        for p in self.provers:
            if p != prover:
                others |= self.solved(p)
        return self.solved(prover) - others

    def percent(self, prover: str | None = None) -> float:
        if not self.targets:
            return 0.0
        won = self.union_solved if prover is None else self.solved(prover)
        return 100.0 * len(won) / len(self.targets)

    def result_for(self, target: str, prover: str) -> AtpResult:
        for r in self.results:
            if r.target == target and r.prover == prover:
                return r
        raise KeyError((target, prover))

    def per_theory(self) -> dict[str, dict[str, int]]:
        """theory -> {"total": n, <prover>: solved, "union": solved}."""
        theories: list[str] = []
        for t in self.targets:
            thy = self.theory_of[t]
            if thy not in theories:
                theories.append(thy)
        out: dict[str, dict[str, int]] = {}
        union = self.union_solved
        for thy in theories:
            members = [t for t in self.targets if self.theory_of[t] == thy]
            row = {"total": len(members)}
            for p in self.provers:
                won = self.solved(p)
                row[p] = sum(1 for t in members if t in won)
            row["union"] = sum(1 for t in members if t in union)
            out[thy] = row
        return out

    def summary_text(self) -> str:
        rows = [["prover", "solved", "total", "percent", "unique", "countersat"]]
        for p in self.provers:
            rows.append(
                [
                    p,
                    str(len(self.solved(p))),
                    str(len(self.targets)),
                    f"{self.percent(p):.2f}",
                    str(len(self.unique(p))),
                    str(len(self.countersat(p))),
                ]
            )
        rows.append(
            [
                "union",
                str(len(self.union_solved)),
                str(len(self.targets)),
                f"{self.percent():.2f}",
                "",
                "",
            ]
        )
        blocks = [_align(rows)]
        breakdown = self.per_theory()
        if breakdown:
            rows = [["theory", "total", *self.provers, "union"]]
            for thy, row in breakdown.items():
                rows.append(
                    [thy, str(row["total"])]
                    + [str(row[p]) for p in self.provers]
                    + [str(row["union"])]
                )
            blocks.append(_align(rows))
        return "\n\n".join(blocks) + "\n"

    def csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["target", "theory", "prover", "status", "wall_time", "core_size", "core"]
        )
        for r in self.results:
            core = "" if r.core is None else "|".join(r.core.premises)
            size = "" if r.core is None else str(len(r.core.premises))
            w.writerow(
                [
                    r.target,
                    self.theory_of.get(r.target, ""),
                    r.prover,
                    str(r.status),
                    f"{r.wall_time:.3f}",
                    size,
                    core,
                ]
            )
        return buf.getvalue()


def _align(rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(r[1:], widths[1:])
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def write_report(report: ExperimentReport, base: str | Path) -> tuple[Path, Path]:
    """Emit ``base``.csv and ``base``.txt; returns the two paths."""
    base = Path(base)
    csv_path = base.with_name(base.name + ".csv")
    txt_path = base.with_name(base.name + ".txt")
    csv_path.write_text(report.csv_text(), encoding="utf-8")
    txt_path.write_text(report.summary_text(), encoding="utf-8")
    return csv_path, txt_path


# ------------------------------------------------------- problem preparation


def _conjunct_key(corpus: Corpus):
    return lambda cid: (corpus.position(cid.theorem), cid.index)


def conjunct_premises(
    corpus: Corpus, cids: Iterable[ConjunctId]
) -> list[tuple[str, HolTerm]]:
    """Labelled conjunct statements in linear order."""
    ordered = sorted(set(cids), key=_conjunct_key(corpus))
    return [
        (corpus.conjunct_label(c), corpus.conjunct_statement(c)) for c in ordered
    ]


def build_problem(
    corpus: Corpus,
    premises: Sequence[tuple[str, HolTerm]],
    conjecture: tuple[str, HolTerm],
    tag_all: bool = False,
) -> tuple[FofProblem, str]:
    problem = translate_problem(premises, conjecture, corpus.signature, tag_all)
    return problem, print_problem(problem)


@dataclass(frozen=True)
class _Task:
    """One problem family: a target with its candidate premises.

    Ranked tasks carry relevance-ordered premises and are truncated to
    each prover's budget; exact-dependency tasks go out whole.
    """

    theory: str
    premises: tuple[tuple[str, HolTerm], ...]
    conjecture: tuple[str, HolTerm]
    ranked: bool

    @property
    def label(self) -> str:
        return self.conjecture[0]

    def cutoff(self, cfg: ProverConfig) -> int:
        """How many of the premises the prover is given."""
        if not self.ranked:
            return len(self.premises)
        return min(cfg.n_premises, len(self.premises))


def _check_provers(provers: Sequence[ProverConfig]) -> None:
    if not provers:
        raise ValueError("at least one prover is required")
    names = [c.name for c in provers]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate prover names: {names}")


def _run_tasks(
    corpus: Corpus,
    tasks: Sequence[_Task],
    provers: Sequence[ProverConfig],
    jobs: int | None,
    tag_all: bool,
) -> ExperimentReport:
    """Translate every task once per premise cutoff, then run all
    (task, prover) pairs on a worker pool.  Results are keyed, so the
    report does not depend on completion order."""
    _check_provers(provers)
    with tempfile.TemporaryDirectory(prefix="hammerkit-") as td:
        tmp = Path(td)
        prepared: dict[tuple[int, int], tuple[FofProblem, Path] | Exception] = {}
        for idx, task in enumerate(tasks):
            for cfg in provers:
                n = task.cutoff(cfg)
                key = (idx, n)
                if key in prepared:
                    continue
                try:
                    problem, text = build_problem(
                        corpus, task.premises[:n], task.conjecture, tag_all
                    )
                except TranslateError as e:
                    prepared[key] = e
                    continue
                path = tmp / f"p{idx:05d}_{n}.p"
                path.write_text(text, encoding="utf-8")
                prepared[key] = (problem, path)

        def work(idx: int, cfg: ProverConfig) -> AtpResult:
            task = tasks[idx]
            entry = prepared[(idx, task.cutoff(cfg))]
            if isinstance(entry, Exception):
                return AtpResult(
                    task.label,
                    cfg.name,
                    error_status(f"translation failed: {entry}"),
                    0.0,
                )
            problem, path = entry
            return run_prover(path, cfg, problem=problem, target=task.label)

        workers = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        results: dict[tuple[int, str], AtpResult] = {}
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(work, idx, cfg): (idx, cfg.name)
                for idx in range(len(tasks))
                for cfg in provers
            }
            for fut, key in futures.items():
                results[key] = fut.result()
    ordered = tuple(
        results[(idx, cfg.name)] for idx in range(len(tasks)) for cfg in provers
    )
    return ExperimentReport(
        targets=tuple(t.label for t in tasks),
        provers=tuple(c.name for c in provers),
        results=ordered,
        theory_of={t.label: t.theory for t in tasks},
    )


# ------------------------------------------------------------------ reprove


def _exact_dep_tasks(corpus: Corpus, split: str) -> list[_Task]:
    """One task per non-definition theorem, or per conjunct of one, with
    its recorded dependencies as premises."""
    if split not in ("unsplit", "conjuncts"):
        raise ValueError(f"split must be 'unsplit' or 'conjuncts', not {split!r}")
    tasks: list[_Task] = []
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        if entry.is_definition:
            continue
        if split == "unsplit":
            targets = [
                (entry.name, frozenset().union(*entry.dependencies), entry.statement)
            ]
        else:
            targets = [
                (corpus.conjunct_label(cid), deps, corpus.conjunct_statement(cid))
                for cid, deps in zip(entry.conjunct_ids(), entry.dependencies)
            ]
        for label, deps, statement in targets:
            premises = tuple(conjunct_premises(corpus, deps))
            tasks.append(_Task(tid.theory, premises, (label, statement), ranked=False))
    return tasks


def reprove(
    corpus: Corpus,
    provers: Sequence[ProverConfig],
    split: str = "unsplit",
    jobs: int | None = None,
    tag_all: bool = False,
) -> ExperimentReport:
    """Re-prove every non-definition theorem from its exact dependencies.

    No relevance filtering: each problem gets the recorded dependencies
    in full.  ``unsplit`` targets whole statements with the union of the
    per-conjunct dependencies; ``conjuncts`` targets each conjunct with
    its own recovered dependencies.
    """
    return _run_tasks(corpus, _exact_dep_tasks(corpus, split), provers, jobs, tag_all)


# ---------------------------------------------------------------- prediction


def _learning_pool(
    corpus: Corpus, target: TheoremId | None, relation: AccessRelation
) -> list[ConjunctId]:
    """Accessible conjuncts in linear order.  A fresh goal (no target)
    sits past the end of the corpus: everything is accessible."""
    if target is None:
        tids = list(corpus.order())
    else:
        tids = sorted(
            accessible_set(corpus, target, relation) - {target},
            key=corpus.position,
        )
    return [cid for tid in tids for cid in corpus.theorem(tid).conjunct_ids()]


def _pool_index(
    corpus: Corpus,
    pool: Sequence[ConjunctId],
    feature_cache: dict[ConjunctId, frozenset[str]] | None = None,
):
    feats: dict[ConjunctId, frozenset[str]] = {}
    for cid in pool:
        if feature_cache is not None and cid in feature_cache:
            feats[cid] = feature_cache[cid]
        else:
            feats[cid] = extract(corpus.conjunct_statement(cid))
            if feature_cache is not None:
                feature_cache[cid] = feats[cid]
    index = knn.build_index(feats, list(pool))
    members = set(pool)
    deps: dict[ConjunctId, frozenset[ConjunctId]] = {}
    for cid in pool:
        entry = corpus.theorem(cid.theorem)
        deps[cid] = entry.dependencies[cid.index - 1] & members
    return index, deps


def suggest(
    corpus: Corpus,
    goal: HolTerm,
    k: int = DEFAULT_K,
    n_premises: int = 128,
    relation: AccessRelation = AccessRelation.LOADED_THEORIES,
    target: TheoremId | None = None,
    feature_cache: dict[ConjunctId, frozenset[str]] | None = None,
) -> list[tuple[ConjunctId, float]]:
    """Conjuncts ranked by predicted relevance to the goal."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pool = _learning_pool(corpus, target, relation)
    if not pool:
        return []
    index, deps = _pool_index(corpus, pool, feature_cache)
    neighbors = knn.k_nearest(index, extract(goal), k)
    return knn.rank_premises(index, neighbors, deps, n_premises)


def _ranked_task(
    corpus: Corpus,
    theory: str,
    conjecture: tuple[str, HolTerm],
    ranked: Sequence[tuple[ConjunctId, float]],
) -> _Task:
    premises = tuple(
        (corpus.conjunct_label(cid), corpus.conjunct_statement(cid))
        for cid, _ in ranked
    )
    return _Task(theory, premises, conjecture, ranked=True)


# ------------------------------------------------------------------- advise


@dataclass(frozen=True)
class Advice:
    """A successful advice call: the premise set that proved the goal."""

    status: SzsStatus
    prover: str
    premises: tuple[str, ...]
    core: UnsatCore
    suggested: tuple[tuple[str, float], ...]
    timings: Mapping[str, float]
    results: tuple[AtpResult, ...]


def advise(
    corpus: Corpus,
    goal: HolTerm,
    provers: Sequence[ProverConfig],
    relation: AccessRelation = AccessRelation.LOADED_THEORIES,
    k: int = DEFAULT_K,
    target: TheoremId | None = None,
    jobs: int | None = None,
    tag_all: bool = False,
    goal_name: str = "goal",
) -> Advice:
    """Premise selection plus parallel prover runs for one goal.

    Stages are timed separately: ``parse`` covers turning the accessible
    corpus slice and the goal into feature vectors, ``predict`` the
    nearest-neighbour ranking, ``prove`` translation and the prover
    processes.  The first proving prover (in the order given) wins; its
    unsat core is the advice.  Raises NoProofFound with full diagnostics
    when nobody closes the goal.
    """
    _check_provers(provers)
    if k < 1:
        raise ValueError("k must be at least 1")

    t0 = time.monotonic()
    pool = _learning_pool(corpus, target, relation)
    feats: dict[ConjunctId, frozenset[str]] = {
        cid: extract(corpus.conjunct_statement(cid)) for cid in pool
    }
    query = extract(goal)
    t_parse = time.monotonic() - t0

    t0 = time.monotonic()
    budget = max(c.n_premises for c in provers)
    if pool:
        index, deps = _pool_index(corpus, pool, feats)
        neighbors = knn.k_nearest(index, query, k)
        ranked = knn.rank_premises(index, neighbors, deps, budget)
    else:
        ranked = []
    suggested = tuple(
        (corpus.conjunct_label(cid), weight) for cid, weight in ranked
    )
    t_predict = time.monotonic() - t0

    t0 = time.monotonic()
    task = _ranked_task(corpus, "", (goal_name, goal), ranked)
    results = _run_tasks(corpus, [task], provers, jobs, tag_all).results
    t_prove = time.monotonic() - t0

    timings = {"parse": t_parse, "predict": t_predict, "prove": t_prove}
    for cfg, result in zip(provers, results):
        if result.status.proved:
            return Advice(
                status=result.status,
                prover=cfg.name,
                premises=tuple(label for label, _ in task.premises[: task.cutoff(cfg)]),
                core=result.core,
                suggested=suggested,
                timings=timings,
                results=results,
            )
    attempts = ", ".join(f"{r.prover}: {r.status}" for r in results)
    raise NoProofFound(
        f"no prover proved the goal ({attempts})",
        results=results,
        timings=timings,
        suggested=suggested,
    )


# ------------------------------------------------------------ core shrinking


def restrict_problem(problem: FofProblem, keep: Iterable[str]) -> FofProblem:
    """The problem cut down to the given source premises.  Helper axioms
    (lifted definitions, proxy bridges) always stay."""
    names = set(keep)
    axioms = tuple(
        (n, f)
        for n, f in problem.axioms
        if n in problem.helpers or problem.reverse.get(n) in names
    )
    return replace(problem, axioms=axioms)


def minimize_core(
    problem: FofProblem,
    core: UnsatCore,
    config: ProverConfig,
    target: str = "goal",
) -> UnsatCore:
    """Shrink a proving premise set to a fixpoint by re-running.

    Each round re-runs the prover on the current core alone and adopts
    the smaller core it reports.  Stops when a run reports the same set
    (returned with complete=True: the final set is confirmed by its own
    proving run) or fails to prove (the last set known to prove is
    returned; complete=False when that set never got a confirming run).
    """
    current = tuple(core.premises)
    confirmed = False
    with tempfile.TemporaryDirectory(prefix="hammerkit-min-") as td:
        path = Path(td) / "minimize.p"
        while True:
            sub = restrict_problem(problem, current)
            path.write_text(print_problem(sub), encoding="utf-8")
            result = run_prover(path, config, problem=sub, target=target)
            if not result.status.proved:
                return UnsatCore(current, confirmed)
            confirmed = True
            reported = result.core or UnsatCore(current, False)
            smaller = set(reported.premises) if reported.complete else set(current)
            if smaller == set(current):
                return UnsatCore(current, True)
            current = tuple(p for p in current if p in smaller)


# --------------------------------------------------------------- experiment


def experiment(
    corpus: Corpus,
    relation: AccessRelation | str,
    provers: Sequence[ProverConfig],
    k: int = DEFAULT_K,
    jobs: int | None = None,
    tag_all: bool = False,
    report_path: str | Path | None = None,
) -> ExperimentReport:
    """Prove every non-definition theorem under one accessibility relation.

    Exact dependencies use the recorded premises directly; the other
    relations rank the accessible conjuncts with the learner and give
    each prover its budgeted prefix.  Writes CSV and aligned-text
    reports when a path is given.
    """
    if isinstance(relation, str):
        try:
            relation = AccessRelation(relation)
        except ValueError:
            raise ValueError(f"unknown relation {relation!r}") from None
    _check_provers(provers)
    if relation is AccessRelation.EXACT_DEPS:
        tasks = _exact_dep_tasks(corpus, "unsplit")
    else:
        tasks = []
        if k < 1:
            raise ValueError("k must be at least 1")
        budget = max(c.n_premises for c in provers)
        cache: dict[ConjunctId, frozenset[str]] = {}
        for tid in corpus.order():
            entry = corpus.theorem(tid)
            if entry.is_definition:
                continue
            ranked = suggest(
                corpus,
                entry.statement,
                k=k,
                n_premises=budget,
                relation=relation,
                target=tid,
                feature_cache=cache,
            )
            conjecture = (entry.name, entry.statement)
            tasks.append(_ranked_task(corpus, tid.theory, conjecture, ranked))
    report = _run_tasks(corpus, tasks, provers, jobs, tag_all)
    if report_path is not None:
        write_report(report, report_path)
    return report
