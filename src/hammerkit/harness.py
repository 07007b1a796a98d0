"""Experiment orchestration and the end-to-end advice loop.

Everything downstream of the corpus composes here: pick the accessible
theorems for a target, rank premises with the learner, translate to FOF,
run the provers in parallel, read unsat cores back, and aggregate
reports.  Problem construction is deterministic, so files are
byte-identical across runs; only wall-clock times vary.

Provers are described by ProverConfig, and every one, stock or from a
config file, is built from a name and the keys of a config section by
``_prover``.  A small resolution prover ships with the package and is
always available; the well-known first-order provers are picked up from
PATH or from HAMMER_PROVER_<NAME> environment variables when installed.
An external prover runs as one process per problem.  A config whose
executable is this interpreter and whose arguments start with
``-m hammerkit.provers.microres`` runs the bundled prover, whatever
flags follow, in workers forked from the running interpreter, which has
every module they need imported already; each takes problem after
problem over a pair of pipes (``_worker_main`` states what goes over
them), so a batch pays no interpreter start-up at all.  The bundled
module under any other interpreter is an external command like the
rest, and must be able to import hammerkit on its own.
Both kinds of process are held, read, timed out and stopped the same
way: each is a direct child leading a process group of its own, and the
whole group is killed when it overruns, or at once when the batch it
belongs to fails, is interrupted or is closed before its last result.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
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
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser, Error as ConfigError
from contextlib import closing, nullcontext, suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

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

DEFAULT_TIMEOUT = microres.DEFAULT_TIMEOUT
DEFAULT_PREMISES = 96
DEFAULT_K = 40

# Extra seconds the process gets beyond its own soft limit before the
# harness kills it.
_GRACE = 2.0


class SpawnError(Exception):
    """A prover binary could not be launched."""


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
    n_premises: int = DEFAULT_PREMISES
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        who = f"prover {self.name!r}"
        if self.n_premises < 1:
            raise ValueError(f"{who}: n_premises must be a positive integer, not {self.n_premises}")
        if not (self.timeout > 0 and math.isfinite(self.timeout)):
            raise ValueError(f"{who}: timeout must be a positive finite number, not {self.timeout}")

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

# The stock provers, each in the shape a config-file section takes.
_STOCK: dict[str, dict[str, str]] = {
    "microres": {
        "executable": sys.executable,
        "args": "-m hammerkit.provers.microres {problem} --timeout {timeout}",
        "n_premises": "32",
    },
    "vampire": {
        "executable": "vampire",
        "args": "--mode casc --proof tptp -t {timeout} {problem}",
    },
    "eprover": {
        "executable": "eprover",
        "args": "--auto-schedule --proof-object --tstp-format --cpu-limit={timeout} {problem}",
        "n_premises": "128",
    },
    "z3": {"executable": "z3", "args": "-tptp -T:{timeout} {problem}", "n_premises": "32"},
}


def _env_executable(name: str) -> str | None:
    return os.environ.get(f"HAMMER_PROVER_{name.upper()}") or None


def _prover(name: str, keys: Mapping[str, str]) -> ProverConfig:
    """The one way a prover is built: from its name and the keys of its
    config section (executable, args, n_premises, timeout; any other key
    is an error).  The HAMMER_PROVER_<NAME> environment variable overrides
    the executable, ``args`` is split as a shell would, and the premise
    budget defaults to DEFAULT_PREMISES."""
    for key in keys:
        if key not in ("executable", "args", "n_premises", "timeout"):
            raise ValueError(f"prover {name!r}: unknown key {key!r}")
    executable = _env_executable(name) or keys.get("executable")
    if not executable:
        raise ValueError(f"prover {name!r}: no executable given")
    if "args" not in keys:
        raise ValueError(f"prover {name!r}: no argument template given")

    def number(key: str, kind: type, default: float) -> float:
        try:
            return kind(keys.get(key, default))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"prover {name!r}: {key} must be {what}, not {keys[key]!r}") from None

    return ProverConfig(
        name,
        executable,
        tuple(shlex.split(keys["args"])),
        number("n_premises", int, DEFAULT_PREMISES),
        number("timeout", float, DEFAULT_TIMEOUT),
    )


def builtin_config(name: str, timeout: float = DEFAULT_TIMEOUT) -> ProverConfig:
    """The stock configuration for a known prover name."""
    if name not in _STOCK:
        raise ValueError(f"unknown prover {name!r}; known: {', '.join(sorted(_STOCK))}")
    return _prover(name, {**_STOCK[name], "timeout": str(timeout)})


def default_provers() -> list[ProverConfig]:
    """The bundled prover plus whichever well-known ones are installed."""
    return [
        builtin_config(name)
        for name, keys in _STOCK.items()
        if name == "microres" or _env_executable(name) or shutil.which(keys["executable"])
    ]


def load_prover_configs(path: str | Path) -> list[ProverConfig]:
    """Prover configs from a plain-text key-value file.

    One section per prover; keys executable, args, n_premises, timeout,
    and no others, ``[DEFAULT]``'s included.  Known prover names inherit
    their stock values for missing keys.  Values are taken as written:
    ``%`` is an ordinary character.
    """
    parser = ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except ConfigError as e:
        raise ValueError(f"bad prover config {path}: {e}") from None
    configs = [
        _prover(name, {**_STOCK.get(name, {}), **parser[name]}) for name in parser.sections()
    ]
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
    workers: _Workers | None = None,
) -> AtpResult:
    """Run one prover on one problem file.

    A config with this interpreter as its executable and arguments that
    start with ``-m hammerkit.provers.microres`` sends every argument
    after the module name, in its own order, as a request to a forked
    worker (see ``_Worker``); any other config, the bundled prover under
    another executable included, starts a process of its own.  Both are
    read the same way, and the prover, with every process it started, is
    killed shortly after the configured timeout.  A binary that cannot be
    launched raises SpawnError; everything that happens after launch
    becomes a status, never an exception.  The unsat core is read back
    only when ``problem`` is supplied and the status proves.

    ``workers`` is the batch the call belongs to; without one, the call
    forks workers of its own and stops them before it returns.
    """
    argv = config.command(problem_path)
    worker = config.executable == sys.executable and config.args[:2] == _MICRORES
    request = argv[1 + len(_MICRORES) :] if worker else None
    start = time.monotonic()
    deadline = start + config.timeout + _GRACE
    try:
        with closing(_Workers()) if workers is None else nullcontext(workers) as pool:
            run = pool.run(argv, request, deadline)
    except (FileNotFoundError, PermissionError, NotADirectoryError) as e:
        raise SpawnError(f"cannot launch prover {config.name}: {argv[0]}: {e}") from None
    except OSError as e:
        wall = time.monotonic() - start
        return AtpResult(target, config.name, error_status(str(e)), wall)
    wall = time.monotonic() - start
    status = parse_szs(run.output, exit_code=run.exit_code, timed_out=run.timed_out)
    if status.kind == "Error" and run.errors:
        status = error_status(f"{status.detail}: {run.errors}")
    core = None
    if status.proved and problem is not None:
        core = extract_core(run.output, problem)
    return AtpResult(target, config.name, status, wall, core)


@dataclass(frozen=True)
class _Run:
    """What one prover call printed, how it ended, and the last line of
    its error output."""

    output: str
    exit_code: int = 0
    timed_out: bool = False
    errors: str = ""


# Bytes of a prover's error output kept: enough for the line that says
# why it stopped.
_ERRORS_KEPT = 200


def _last_line(errors: bytes) -> str:
    """The last line of the last ``_ERRORS_KEPT`` bytes of error output."""
    lines = errors[-_ERRORS_KEPT:].decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


def _popen(argv: Sequence[str]) -> subprocess.Popen:
    """A prover process leading a new process group, so that a kill
    reaches whatever it starts.  Every prover but this interpreter's
    bundled one runs this way, with our environment unchanged."""
    return subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )


def _kill_group(proc: subprocess.Popen | _Worker) -> None:
    """Kill a prover process that is not reaped yet, with its group.  A
    forked worker that has not made its group yet is killed alone; it
    has started nothing."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        with suppress(ProcessLookupError):
            os.kill(proc.pid, signal.SIGKILL)


def _answer(
    proc: subprocess.Popen | _Worker, deadline: float, request: Sequence[str] | None
) -> tuple[_Run, bool]:
    """One prover call's output, and whether ``proc`` can take another.

    A worker is sent ``request`` and answers with one reply line (see
    ``_worker_main``); it can then take the next call.  A worker that
    writes anything else, or ends without a reply, raises ConnectionError.
    Any other process is a one-shot prover: its output is what it writes
    until its output streams end, and it is then waited for.  Either
    kind of error output is cut to its last line.  A process that has not
    answered or exited by the deadline has timed out.
    """
    if request is not None:
        with suppress(BrokenPipeError):
            proc.stdin.write(json.dumps(list(request)).encode() + b"\n")
            proc.stdin.flush()
    fd = proc.stdout.fileno()
    data = bytearray()
    errors = bytearray()
    code = None
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        if proc.stderr is not None:
            sel.register(proc.stderr.fileno(), selectors.EVENT_READ)
        while sel.get_map() and (left := deadline - time.monotonic()) > 0:
            # At most 60 s per wait: the selector cannot take every timeout whole.
            for key, _ in sel.select(min(left, 60.0)):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fd)
                elif key.fd != fd:
                    errors += chunk
                    del errors[:-_ERRORS_KEPT]
                else:
                    data += chunk
                    if request is not None and data.endswith(b"\n"):
                        try:
                            status, output, errors = json.loads(data)
                            return _Run(str(output), int(status), errors=str(errors)), True
                        except (ValueError, TypeError):
                            raise ConnectionError("prover worker wrote no reply line") from None
        if not sel.get_map():
            with suppress(subprocess.TimeoutExpired):
                code = proc.wait(max(0.0, deadline - time.monotonic()))
    if request is not None:
        if code is not None:
            raise ConnectionError(f"prover worker ended with exit code {code} and no reply")
        return _Run("", timed_out=True), False
    run = _Run(data.decode("utf-8", "replace"), code or 0, code is None, _last_line(errors))
    return run, False


def _stop(proc: subprocess.Popen | _Worker) -> None:
    """Kill a prover process and anything it started, reap it and close
    its pipes.  A process that left the group may still hold the output
    pipe open; nothing waits for it."""
    if proc.returncode is None:  # not reaped: its group id is still ours
        _kill_group(proc)
    proc.wait()
    with suppress(OSError):
        if proc.stdin:
            proc.stdin.close()
    proc.stdout.close()
    if proc.stderr:
        proc.stderr.close()


def _worker_main(requests: int, replies: int) -> NoReturn:
    """The forked child's whole life (see ``_Worker``): answer calls of
    the bundled prover until the request pipe ends.

    Each request is one line, the JSON list of the arguments that follow
    ``-m hammerkit.provers.microres``.  Each reply is one line, the JSON
    list ``[exit code, output, last error line]``: what ``microres.main``
    returned, printed to stdout and printed last to stderr, exactly as the
    one-problem command would have, its usage errors and tracebacks
    included."""
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
        # A problem file named "-" reads nothing, not the request stream.
        sys.stdin = io.StringIO()
        with open(0, encoding="utf-8", closefd=False) as calls, open(
            1, "w", encoding="utf-8", closefd=False
        ) as answers:
            for line in calls:
                sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
                try:
                    status = microres.main(json.loads(line))
                except SystemExit as e:
                    status = e.code if isinstance(e.code, int) else int(e.code is not None)
                except Exception:
                    traceback.print_exc()
                    status = 1
                errors = _last_line(sys.stderr.getvalue().encode(errors="backslashreplace"))
                answers.write(json.dumps([status, sys.stdout.getvalue(), errors]) + "\n")
                answers.flush()
        code = 0
    finally:
        os._exit(code)


class _Worker:
    """A fork of the running interpreter that answers one-problem calls
    of the bundled prover (see ``_worker_main``) on a request pipe and a
    reply pipe.  The parent holds it as it holds a one-shot prover's
    Popen: ``pid``, ``stdin``, ``stdout``, ``returncode`` and ``wait``, so
    ``_answer`` and ``_stop`` serve both.

    The child starts from this process's memory, so it imports nothing.
    It is forked on a pool thread while other threads run, so it takes no
    lock another thread may have held at the fork: it leads a session of
    its own like every prover process, keeps only the two pipes (as fds 0
    and 1, with /dev/null as fd 2) and stdio objects of its own, and
    leaves only through ``os._exit``, so that no buffer, ``atexit`` hook
    or ``with`` block of this process runs in it.
    """

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
        self.stderr = None  # each reply carries the call's error output
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


class _Workers:
    """The bundled prover's workers, and every prover process in flight,
    for one batch of calls.

    A call with a request takes an idle worker or forks one; any other
    call starts a process of its own.  Only a worker that answered goes
    back to the idle list, so there are never more workers than calls in
    flight; every other process, a worker that overran or did not reply
    included, is stopped when its call ends.  ``kill`` ends every process
    in flight, and every one started after it, without waiting for their
    deadlines.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._busy: set[subprocess.Popen | _Worker] = set()
        self._killed = False

    def run(self, argv: Sequence[str], request: Sequence[str] | None, deadline: float) -> _Run:
        with self._lock:
            proc = self._idle.pop() if request is not None and self._idle else None
        if proc is None:
            proc = _popen(argv) if request is None else _Worker()
        with self._lock:
            self._busy.add(proc)
            if self._killed:
                _kill_group(proc)
        reusable = False
        try:
            run, reusable = _answer(proc, deadline, request)
            return run
        finally:
            with self._lock:
                self._busy.discard(proc)
                if reusable:
                    self._idle.append(proc)
            if not reusable:
                _stop(proc)

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
            _stop(worker)


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

    def summary_text(self) -> str:
        """The per-prover table, then the per-theory one, both counted
        from one pass over the results: the provers that proved each
        target, and each prover's CounterSatisfiable answers."""
        proved_by: dict[str, set[str]] = {t: set() for t in self.targets}
        countersat: Counter[str] = Counter()
        for r in self.results:
            if r.status.proved:
                proved_by[r.target].add(r.prover)
            elif r.status.kind == "CounterSatisfiable":
                countersat[r.prover] += 1
        won = proved_by.values()
        solved = Counter(p for ps in won for p in ps)
        unique = Counter(p for ps in won if len(ps) == 1 for p in ps)
        union = sum(1 for ps in won if ps)
        total = len(self.targets)

        def percent(n: int) -> str:
            return f"{100.0 * n / total if total else 0.0:.2f}"

        rows = [["prover", "solved", "total", "percent", "unique", "countersat"]]
        for p in self.provers:
            rows.append([
                p, str(solved[p]), str(total), percent(solved[p]),
                str(unique[p]), str(countersat[p]),
            ])
        rows.append(["union", str(union), str(total), percent(union), "", ""])
        blocks = [_align(rows)]
        # theory -> [total, solved by each prover..., union]
        per_theory: dict[str, list[int]] = {}
        for t in self.targets:
            ps = proved_by[t]
            row = per_theory.setdefault(self.theory_of[t], [0] * (len(self.provers) + 2))
            row[0] += 1
            for i, p in enumerate(self.provers, 1):
                row[i] += p in ps
            row[-1] += bool(ps)
        if per_theory:
            rows = [["theory", "total", *self.provers, "union"]]
            rows += [[thy, *map(str, row)] for thy, row in per_theory.items()]
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
                r.target, self.theory_of[r.target], r.prover, str(r.status),
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


def _check_run(provers: Sequence[ProverConfig], jobs: int | None) -> None:
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
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
) -> Iterator[AtpResult]:
    """Translate every task once per premise cutoff, then run all
    (task, prover) pairs on ``jobs`` threads sharing one ``_Workers``,
    and yield each result in (task, prover) order.

    One ``finally`` ends the batch, whether every result was read, an
    exception or an interrupt came, or the caller closed the stream: it
    starts no queued pair, kills the calls in flight, waits for the
    threads, and only then stops the idle workers, so none outlives it.

    A task whose translation fails gets an Error result per prover and
    runs no prover.  The caller has checked ``provers`` and ``jobs``."""
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
            return run_prover(path, cfg, problem=problem, target=task.label, workers=workers)

        workers = _Workers()
        pool = ThreadPoolExecutor(max_workers=jobs or os.cpu_count() or 1)
        try:
            futures = [
                pool.submit(work, idx, cfg) for idx in range(len(tasks)) for cfg in provers
            ]
            for fut in futures:
                yield fut.result()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            workers.kill()
            pool.shutdown()
            workers.close()


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
            theory: tuple(_merge(
                self.theory_span[t] for t in corpus.theory_closure(theory) - {theory}
                if t in self.theory_span
            ))
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
    ) -> Sequence[tuple[int, int]]:
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
            # Ancestors precede the theory: its own prefix goes last.
            spans, lo = self.ancestors[target.theory], self.theory_span[target.theory][0]
            if spans and spans[-1][1] == lo:
                spans, lo = spans[:-1], spans[-1][0]
            return spans if lo == first else (*spans, (lo, first))
        tids = accessible_set(corpus, target, relation) - {target}
        return _merge(self.span[t] for t in tids)

    def rank(
        self,
        corpus: Corpus,
        query: frozenset[str],
        k: int,
        n_premises: int,
        relation: AccessRelation = AccessRelation.LOADED_THEORIES,
        target: TheoremId | None = None,
    ) -> list[tuple[ConjunctId, float]]:
        """The top conjuncts for the query, with weights: ``knn`` ranks by
        number, summing votes in neighbour order; numbers map to ids last."""
        spans = self.accessible(corpus, target, relation)
        neighbors = knn.k_nearest(self.index, query, k, spans=spans)
        ranked = knn.rank_premises(neighbors, self.deps, spans, n_premises)
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
    """Conjuncts ranked by predicted relevance to the goal, as (conjunct
    id, weight) pairs, heaviest first, ties in linear order.

    The first call on a corpus builds its learner (features and index for
    every conjunct, numbered in linear order); later calls rank numbers
    alone, each neighbour voting for itself and its dependencies, the
    votes summed in neighbour order.  A goal that is the corpus's own
    statement object of a one-conjunct theorem, or of one conjunct,
    reuses the features the learner holds; any other goal, a
    multi-conjunct statement or an equal copy included, is extracted.
    ``feature_cache`` has no effect and stays only because the benchmark
    passes it.
    """
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
    """What an advice call found.  When a prover proved the goal,
    ``prover`` names it, ``premises`` are the ones it was given, ``core``
    is its unsat core and its result ends ``results``; when none did,
    ``prover`` and ``core`` are None and ``premises`` is empty."""

    prover: str | None
    premises: tuple[str, ...]
    core: UnsatCore | None
    timings: Mapping[str, float]
    results: tuple[AtpResult, ...]


def advise(
    corpus: Corpus,
    goal: HolTerm,
    provers: Sequence[ProverConfig],
    k: int = DEFAULT_K,
    jobs: int | None = None,
    goal_name: str = "goal",
) -> Advice:
    """Premise selection plus parallel prover runs for one goal.

    The goal sits after everything in the corpus, so it is ranked against
    the whole corpus.  Stages are timed separately: ``parse`` covers
    building the corpus's learner when no ranking has built it yet
    (features and index for every conjunct) and the goal's features (the
    stored ones for a corpus statement, as in ``suggest``), ``predict``
    the nearest-neighbour ranking, ``prove`` translation and the prover
    processes.  The first proving prover (in the order given) wins; its
    unsat core is the advice, and its result ends ``results``.  The
    provers listed before it are awaited, and those after it are stopped
    as soon as it has proved.  When nobody closes the goal, the advice
    has no prover and no core, and ``results`` holds every prover's
    result.
    """
    _check_run(provers, jobs)

    t0 = time.monotonic()
    learner = _learner(corpus)
    query = learner.features(goal)
    t_parse = time.monotonic() - t0

    t0 = time.monotonic()
    budget = max(c.n_premises for c in provers)
    ranked = learner.rank(corpus, query, k, budget)
    t_predict = time.monotonic() - t0

    t0 = time.monotonic()
    task = _ranked_task(corpus, "", (goal_name, goal), ranked)
    tried: list[AtpResult] = []
    with closing(_run_tasks(corpus, [task], provers, jobs)) as stream:
        for cfg, result in zip(provers, stream):
            tried.append(result)
            if result.status.proved:
                break
    t_prove = time.monotonic() - t0

    won = result.status.proved
    given = task.premises[: task.cutoff(cfg)] if won else ()
    return Advice(
        prover=cfg.name if won else None,
        premises=tuple(label for label, _ in given),
        core=result.core,
        timings={"parse": t_parse, "predict": t_predict, "prove": t_prove},
        results=tuple(tried),
    )


# ------------------------------------------------------------ core shrinking


def restrict_problem(problem: FofProblem, keep: Iterable[str]) -> FofProblem:
    """The problem cut down to the given source premises.  Helper axioms
    (lifted definitions, proxy bridges) always stay.  An axiom with no
    source premise stands for itself, as in ``extract_core``."""
    names = set(keep)
    axioms = tuple(
        (n, f)
        for n, f in problem.axioms
        if n in problem.helpers or problem.reverse.get(n, n) in names
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
    with tempfile.TemporaryDirectory(prefix="hammerkit-min-") as td, closing(_Workers()) as workers:
        path = Path(td) / "minimize.p"
        while True:
            sub = restrict_problem(problem, current)
            path.write_text(print_problem(sub), encoding="utf-8")
            result = run_prover(path, config, problem=sub, target=target, workers=workers)
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
    split: str | None = None,
) -> ExperimentReport:
    """Prove every non-definition theorem under one accessibility relation.

    One pass over the theorems in linear order builds every task, and one
    batch runs them.  Under ``exact`` each problem gets the recorded
    dependencies whole: ``split`` ``unsplit`` (the default) targets whole
    statements with the union of the per-conjunct dependencies,
    ``conjuncts`` each conjunct with its own.  The other relations take
    no split; ``suggest`` ranks each target's accessible conjuncts, and
    each prover gets its budgeted prefix of the ranking.
    """
    if isinstance(relation, str):
        try:
            relation = AccessRelation(relation)
        except ValueError:
            raise ValueError(f"unknown relation {relation!r}") from None
    exact = relation is AccessRelation.EXACT_DEPS
    if not exact and split is not None:
        raise ValueError(f"split {split!r} applies only to the exact relation")
    split = "unsplit" if split is None else split
    if split not in ("unsplit", "conjuncts"):
        raise ValueError(f"split must be 'unsplit' or 'conjuncts', not {split!r}")
    _check_run(provers, jobs)
    budget = max(c.n_premises for c in provers)
    tasks: list[_Task] = []
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        if entry.is_definition:
            continue
        if not exact:
            ranked = suggest(
                corpus, entry.statement, k=k, n_premises=budget, relation=relation, target=tid
            )
            tasks.append(_ranked_task(corpus, tid.theory, (entry.name, entry.statement), ranked))
        elif split == "unsplit":
            deps = frozenset().union(*entry.dependencies)
            premises = tuple(conjunct_premises(corpus, deps))
            tasks.append(_Task(tid.theory, premises, (entry.name, entry.statement), ranked=False))
        else:
            for cid, deps in zip(entry.conjunct_ids(), entry.dependencies):
                premises = tuple(conjunct_premises(corpus, deps))
                conjecture = (corpus.conjunct_label(cid), corpus.conjunct_statement(cid))
                tasks.append(_Task(tid.theory, premises, conjecture, ranked=False))
    with closing(_run_tasks(corpus, tasks, provers, jobs)) as results:
        return ExperimentReport(
            targets=tuple(t.label for t in tasks),
            provers=tuple(c.name for c in provers),
            results=tuple(results),
            theory_of={t.label: t.theory for t in tasks},
        )


def reprove(
    corpus: Corpus,
    provers: Sequence[ProverConfig],
    split: str = "unsplit",
    jobs: int | None = None,
) -> ExperimentReport:
    """``experiment`` under exact dependencies, kept as the benchmark's
    entry point."""
    return experiment(corpus, AccessRelation.EXACT_DEPS, provers, jobs=jobs, split=split)
