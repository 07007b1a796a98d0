"""Experiment orchestration and the end-to-end advice loop.

Everything downstream of the corpus composes here: pick the accessible
theorems for a target, rank premises with the learner, translate to FOF,
run the provers in parallel, read unsat cores back, and aggregate
reports.  Problem construction is deterministic, so files are
byte-identical across runs; only wall-clock times vary.

Provers are described by ProverConfig.  A small resolution prover ships
with the package and is always available; the well-known first-order
provers are picked up from PATH or from HAMMER_PROVER_<NAME> environment
variables when installed.  An external prover runs as one process per
problem.  The bundled prover, with its stock arguments and this
interpreter as its executable, runs in workers forked from the running
interpreter, which has every module they need imported already; each
takes problem after problem, so a batch pays no interpreter start-up at
all.  Run by any other executable it is one process per problem, like an
external prover.  Every prover process is a direct child leading a
process group of its own, and the whole group is killed when it
overruns, or at once when the batch it belongs to fails or is
interrupted.
"""

from __future__ import annotations

import contextvars
import csv
import gc
import io
import json
import os
import selectors
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser, Error as ConfigError
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

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
from .provers import microres
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
    """One prover: how to run it and how many premises it gets.

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


# How the interpreter runs the bundled prover.
_MICRORES = ("-m", "hammerkit.provers.microres")
# The directory holding the running hammerkit package.
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)

# name -> (executable, argument template, premise budget)
_BUILTIN: dict[str, tuple[str, tuple[str, ...], int]] = {
    "microres": (
        sys.executable,
        _MICRORES + ("{problem}", "--timeout", "{timeout}"),
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

    A config with the bundled prover's stock arguments and this
    interpreter as its executable is answered by a forked worker (see
    ``_Worker``); any other config, the bundled prover under another
    executable included, runs as a process of its own.  Either way the
    prover, with every process it started, is killed shortly after the
    configured timeout.  A binary that cannot be launched raises
    SpawnError; everything that happens after launch becomes a status,
    never an exception.  The unsat core is read back only when
    ``problem`` is supplied and the status proves.
    """
    argv = config.command(problem_path)
    start = time.monotonic()
    deadline = start + config.timeout + _GRACE
    try:
        with _worker_scope() as pool:
            if config.args == _BUILTIN["microres"][1] and config.executable == sys.executable:
                run = pool.run(argv[1 + len(_MICRORES) :], deadline)
            else:
                run = _run_process(argv, deadline, pool)
    except (FileNotFoundError, PermissionError, NotADirectoryError) as e:
        raise SpawnError(f"cannot launch prover {config.name}: {argv[0]}: {e}") from None
    except OSError as e:
        wall = time.monotonic() - start
        return AtpResult(target, config.name, error_status(str(e)), wall)
    wall = time.monotonic() - start
    status = parse_szs(run.output, exit_code=run.exit_code, timed_out=run.timed_out)
    core = None
    if status.proved and problem is not None:
        core = extract_core(run.output, problem)
    return AtpResult(target, config.name, status, wall, core)


@dataclass(frozen=True)
class _Run:
    """What one prover call printed, and how it ended."""

    output: str
    exit_code: int = 0
    timed_out: bool = False


def _popen(argv: Sequence[str]) -> subprocess.Popen:
    """A prover process leading a new process group, so that a kill
    reaches whatever it starts.  The bundled prover gets the running
    package's directory first on its PYTHONPATH, so that it imports this
    hammerkit wherever that was imported from; other provers get our
    environment unchanged."""
    env = None
    if tuple(argv[1:3]) == _MICRORES:
        path = (_PACKAGE_ROOT, os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True, env=env,
    )


def _kill_group(proc: subprocess.Popen | _Forked) -> None:
    """Kill a prover process that is not reaped yet, with its group.  A
    forked worker that has not made its group yet is killed alone; it
    has started nothing."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        with suppress(ProcessLookupError):
            os.kill(proc.pid, signal.SIGKILL)


def _text(data: bytes | None) -> str:
    return (data or b"").decode("utf-8", "replace")


def _run_process(argv: Sequence[str], deadline: float, pool: _Workers) -> _Run:
    proc = _popen(argv)
    with pool.busy(proc):
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            return _Run(_text(out), proc.returncode)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
        try:
            out, _ = proc.communicate(timeout=_GRACE)
        except subprocess.TimeoutExpired as e:
            # A process that left the group still holds the pipe open.
            out = e.stdout
            proc.stdout.close()
            proc.wait()
        return _Run(_text(out), timed_out=True)


class _Forked:
    """A forked worker as its parent sees it: the part of a Popen that
    ``_Worker`` and ``_Workers`` use."""

    def __init__(self) -> None:
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, to_worker, from_worker, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            _worker_main(requests, replies)
        os.close(requests)
        os.close(replies)
        self.stdin = open(to_worker, "wb")
        self.stdout = open(from_worker, "rb", buffering=0)
        self.returncode: int | None = None

    def wait(self, timeout: float | None = None) -> int:
        """Reap the worker; raise TimeoutExpired if it has not ended
        within ``timeout`` seconds."""
        end = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.returncode is None:
            pid, status = os.waitpid(self.pid, 0 if end is None else os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() >= end:
                raise subprocess.TimeoutExpired("microres worker", timeout)
            else:
                time.sleep(delay)
                delay = min(2 * delay, 0.05)
        return self.returncode


def _worker_main(requests: int, replies: int) -> NoReturn:
    """The forked child's whole life (see ``_Worker``)."""
    code = 1
    # The parent's stdio objects are never finalized here: their buffers
    # and file descriptors are the parent's.
    inherited = sys.stdin, sys.stdout, sys.stderr
    try:
        os.setsid()
        # Nor is the parent's cyclic garbage: a file object among it
        # would close a descriptor number this process may have reused.
        gc.freeze()
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(requests, 0)
        os.dup2(replies, 1)
        os.dup2(null, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdin = open(0, encoding="utf-8", closefd=False)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", errors="backslashreplace", closefd=False)
        code = microres.serve(sys.stdin, sys.stdout)
    finally:
        os._exit(code)


class _Worker:
    """A fork of the running interpreter that answers one-problem calls
    with ``microres.serve`` (see the microres docstring) on a request
    pipe and a reply pipe.

    The child starts from this process's memory, so it imports nothing.
    It is forked on a pool thread while other threads run, so it takes no
    lock another thread may have held at the fork: it leads a session of
    its own like every prover process, keeps only the two pipes (as fds 0
    and 1, with /dev/null as fd 2) and fresh stdio objects on them, and
    leaves only through ``os._exit``, so that no buffer, ``atexit`` hook
    or ``with`` block of this process runs in it.
    """

    def __init__(self) -> None:
        self.proc = _Forked()
        # Set only while the worker is idle between answered calls.
        self.usable = False

    def ask(self, request: Sequence[str], deadline: float) -> _Run:
        """One prover call.  A worker that does not answer with a reply
        line is read like a one-shot prover: its output is what it
        writes until it exits or the deadline passes."""
        self.usable = False
        with suppress(BrokenPipeError):
            self.proc.stdin.write(json.dumps(list(request)).encode() + b"\n")
            self.proc.stdin.flush()
        fd = self.proc.stdout.fileno()
        data = b""
        raw = False
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    return _Run(_text(data), timed_out=True)
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    try:
                        code = self.proc.wait(max(0.0, deadline - time.monotonic()))
                    except subprocess.TimeoutExpired:
                        return _Run(_text(data), timed_out=True)
                    return _Run(_text(data), code)
                data += chunk
                if not raw and data.endswith(b"\n"):
                    try:
                        code, output = json.loads(data)
                        run = _Run(str(output), int(code))
                    except (ValueError, TypeError):
                        raw = True
                        continue
                    self.usable = True
                    return run

    def stop(self) -> None:
        """Kill the worker and anything it started, and reap it."""
        if self.proc.returncode is None:  # not reaped: its group id is still ours
            _kill_group(self.proc)
        self.proc.wait()
        with suppress(OSError):
            self.proc.stdin.close()
        self.proc.stdout.close()


class _Workers:
    """The bundled prover's workers, and every prover process in flight,
    for one batch of calls.

    A call takes an idle worker or forks one, and gives it back only when
    it answered, so there are never more workers than calls in flight.  A
    worker that overruns is stopped like any prover process, and the next
    call forks a fresh one.  ``kill`` ends every process in flight, and
    every one started after it, without waiting for their deadlines.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._busy: set[subprocess.Popen | _Forked] = set()
        self._killed = False

    def run(self, request: Sequence[str], deadline: float) -> _Run:
        with self._lock:
            worker = self._idle.pop() if self._idle else None
        if worker is None:
            worker = _Worker()
        try:
            with self.busy(worker.proc):
                return worker.ask(request, deadline)
        finally:
            if worker.usable:
                with self._lock:
                    self._idle.append(worker)
            else:
                worker.stop()

    @contextmanager
    def busy(self, proc: subprocess.Popen | _Forked):
        """``kill`` reaches ``proc`` inside this block."""
        with self._lock:
            self._busy.add(proc)
            if self._killed:
                _kill_group(proc)
        try:
            yield
        finally:
            with self._lock:
                self._busy.discard(proc)

    def kill(self) -> None:
        """Kill every prover process in flight, and from now on every one
        as soon as it starts."""
        with self._lock:
            self._killed = True
            for proc in self._busy:
                if proc.returncode is None:
                    _kill_group(proc)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()


# The worker pool of the batch a prover call belongs to.  It travels in
# the context, not as an argument, so that run_prover keeps the
# signature of a single call and callers can wrap it.
_WORKERS: contextvars.ContextVar[_Workers | None] = contextvars.ContextVar(
    "hammerkit_workers", default=None
)


@contextmanager
def _worker_scope():
    """The worker pool of the enclosing scope, or else a new one for the
    calls made inside, whose workers are stopped and reaped on exit."""
    pool = _WORKERS.get()
    if pool is not None:
        yield pool
        return
    pool = _Workers()
    token = _WORKERS.set(pool)
    try:
        yield pool
    finally:
        _WORKERS.reset(token)
        pool.close()


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
        total = str(len(self.targets))
        rows = [["prover", "solved", "total", "percent", "unique", "countersat"]]
        for p in self.provers:
            rows.append([
                p, str(len(self.solved(p))), total, f"{self.percent(p):.2f}",
                str(len(self.unique(p))), str(len(self.countersat(p))),
            ])
        rows.append(["union", str(len(self.union_solved)), total, f"{self.percent():.2f}", "", ""])
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
            w.writerow([
                r.target, self.theory_of.get(r.target, ""), r.prover, str(r.status),
                f"{r.wall_time:.3f}", size, core,
            ])
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


def conjunct_premises(
    corpus: Corpus, cids: Iterable[ConjunctId]
) -> list[tuple[str, HolTerm]]:
    """Labelled conjunct statements in linear order."""
    ordered = sorted(set(cids), key=lambda c: (corpus.position(c.theorem), c.index))
    return [
        (corpus.conjunct_label(c), corpus.conjunct_statement(c)) for c in ordered
    ]


def build_problem(
    corpus: Corpus,
    premises: Sequence[tuple[str, HolTerm]],
    conjecture: tuple[str, HolTerm],
) -> tuple[FofProblem, str]:
    problem = translate_problem(premises, conjecture, corpus.signature)
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
) -> ExperimentReport:
    """Translate every task once per premise cutoff, then run all
    (task, prover) pairs on ``jobs`` threads, which share the bundled
    prover's workers; those are reaped before this returns.  Results are
    keyed, so the report does not depend on completion order.  On any
    exception, an interrupt included, no queued pair is started and the
    prover processes in flight are killed; their calls end before it
    propagates."""
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
                        corpus, task.premises[:n], task.conjecture
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
        with _worker_scope() as procs, ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                futures = {
                    pool.submit(contextvars.copy_context().run, work, idx, cfg): (idx, cfg.name)
                    for idx in range(len(tasks))
                    for cfg in provers
                }
                for fut, key in futures.items():
                    results[key] = fut.result()
            except BaseException:
                # An interrupt or a failed call: start no queued pair, and
                # end the calls in flight now, not at their deadlines.
                pool.shutdown(wait=False, cancel_futures=True)
                procs.kill()
                raise
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
) -> ExperimentReport:
    """Re-prove every non-definition theorem from its exact dependencies.

    No relevance filtering: each problem gets the recorded dependencies
    in full.  ``unsplit`` targets whole statements with the union of the
    per-conjunct dependencies; ``conjuncts`` targets each conjunct with
    its own recovered dependencies.
    """
    return _run_tasks(corpus, _exact_dep_tasks(corpus, split), provers, jobs)


# ---------------------------------------------------------------- prediction


class _Learner:
    """The learner's state for one corpus: every conjunct numbered in
    linear order, its numbered dependencies and features, and one
    feature index over all of them.

    Accessibility is a list of spans of that numbering, since a theory's
    theorems and a theorem's conjuncts are each one stretch of the
    linear order: ``linear`` is everything before the target's first
    conjunct, ``loaded`` that prefix cut down to the target's ancestor
    theories and its own, and ``transitive`` and ``exact`` the stretches
    of the theorems ``accessible_set`` names.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.ids: list[ConjunctId] = []
        # TheoremId -> (first conjunct number, one past its last)
        self.span: dict[TheoremId, tuple[int, int]] = {}
        # theory -> the same for its theorems
        self.theory_span: dict[str, tuple[int, int]] = {}
        for tid in corpus.order():
            start = len(self.ids)
            self.ids.extend(corpus.theorem(tid).conjunct_ids())
            self.span[tid] = (start, len(self.ids))
            lo, _ = self.theory_span.setdefault(tid.theory, (start, start))
            self.theory_span[tid.theory] = (lo, len(self.ids))
        number = {cid: i for i, cid in enumerate(self.ids)}
        self.deps = [
            sorted(number[d] for d in corpus.theorem(cid.theorem).dependencies[cid.index - 1])
            for cid in self.ids
        ]
        statements = [corpus.conjunct_statement(cid) for cid in self.ids]
        features = [extract(s) for s in statements]
        self.index = knn.build_index(features, range(len(self.ids)))
        # id(statement) -> (statement, its features).  Holding the
        # statement keeps its id from going to another object.
        self.known = {id(s): (s, fs) for s, fs in zip(statements, features)}
        # theory -> the spans of its strict ancestors
        self.ancestors = {
            theory: _merge(
                self.theory_span[t] for t in corpus.theory_closure(theory) - {theory}
                if t in self.theory_span
            )
            for theory in corpus.theories
        }

    def features(self, goal: HolTerm) -> frozenset[str]:
        """``extract(goal)``: stored when the goal is the very object of
        a numbered conjunct's statement, computed otherwise.  Goals are
        matched by identity only, since hashing a term walks it."""
        stmt, fs = self.known.get(id(goal), (None, None))
        return fs if stmt is goal else extract(goal)

    def accessible(
        self, corpus: Corpus, target: TheoremId | None, relation: AccessRelation
    ) -> list[tuple[int, int]]:
        """The conjuncts ``target`` may use, as sorted, disjoint spans.  A
        fresh goal (no target) sits past the end of the corpus:
        everything is accessible."""
        if target is None:
            return [(0, len(self.ids))]
        corpus.theorem(target)  # an unknown target is an error
        first = self.span[target][0]
        if relation is AccessRelation.LINEAR_ORDER:
            return [(0, first)]
        if relation is AccessRelation.LOADED_THEORIES:
            own = (self.theory_span[target.theory][0], first)
            return _merge([*self.ancestors[target.theory], own])
        tids = accessible_set(corpus, target, relation) - {target}
        return _merge(self.span[t] for t in tids)

    def rank(
        self,
        corpus: Corpus,
        query: frozenset[str],
        k: int,
        n_premises: int,
        relation: AccessRelation,
        target: TheoremId | None,
    ) -> list[tuple[ConjunctId, float]]:
        spans = self.accessible(corpus, target, relation)
        neighbors = knn.k_nearest(self.index, query, k, spans=spans)
        deps = {nb.id: knn.within(self.deps[nb.id], spans) for nb in neighbors}
        ranked = knn.rank_premises(self.index, neighbors, deps, n_premises)
        return [(self.ids[i], weight) for i, weight in ranked]


def _merge(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Spans sorted, with empty ones dropped and touching ones joined."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if lo >= hi:
            continue
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _learner(corpus: Corpus) -> _Learner:
    """The corpus's learner, built on first use."""
    if corpus.learner is None:
        corpus.learner = _Learner(corpus)
    return corpus.learner


def suggest(
    corpus: Corpus,
    goal: HolTerm,
    k: int = DEFAULT_K,
    n_premises: int = 128,
    relation: AccessRelation = AccessRelation.LOADED_THEORIES,
    target: TheoremId | None = None,
    feature_cache: dict[ConjunctId, frozenset[str]] | None = None,
) -> list[tuple[ConjunctId, float]]:
    """Conjuncts ranked by predicted relevance to the goal.

    The first call on a corpus builds its learner (features and index for
    every conjunct); later calls only filter and rank.  A goal that is
    the corpus's own statement object of a one-conjunct theorem, or of
    one conjunct, reuses the features the learner holds; any other goal,
    a multi-conjunct statement or an equal copy included, is extracted.
    ``feature_cache`` has no effect and stays only because the benchmark
    passes it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    learner = _learner(corpus)
    return learner.rank(corpus, learner.features(goal), k, n_premises, relation, target)


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
    goal_name: str = "goal",
) -> Advice:
    """Premise selection plus parallel prover runs for one goal.

    Stages are timed separately: ``parse`` covers building the corpus's
    learner when no ranking has built it yet (features and index for
    every conjunct) and the goal's features (the stored ones for a
    corpus statement, as in ``suggest``), ``predict`` the
    nearest-neighbour ranking, ``prove`` translation and the prover
    processes.  The first proving prover (in the order given) wins; its
    unsat core is the advice.  Raises NoProofFound with full diagnostics
    when nobody closes the goal.
    """
    _check_provers(provers)
    if k < 1:
        raise ValueError("k must be at least 1")

    t0 = time.monotonic()
    learner = _learner(corpus)
    query = learner.features(goal)
    t_parse = time.monotonic() - t0

    t0 = time.monotonic()
    budget = max(c.n_premises for c in provers)
    ranked = learner.rank(corpus, query, k, budget, relation, target)
    suggested = tuple(
        (corpus.conjunct_label(cid), weight) for cid, weight in ranked
    )
    t_predict = time.monotonic() - t0

    t0 = time.monotonic()
    task = _ranked_task(corpus, "", (goal_name, goal), ranked)
    results = _run_tasks(corpus, [task], provers, jobs).results
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
    with tempfile.TemporaryDirectory(prefix="hammerkit-min-") as td, _worker_scope():
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
            )
            conjecture = (entry.name, entry.statement)
            tasks.append(_ranked_task(corpus, tid.theory, conjecture, ranked))
    report = _run_tasks(corpus, tasks, provers, jobs)
    if report_path is not None:
        write_report(report, report_path)
    return report
