"""The hammerkit benchmark: one workload per run, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reprove --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Workloads (README.md says why each one exists):

  reprove     ``harness.reprove`` with microres on the corpus x1 plus the
              canary theory; every problem gets its recorded dependencies.
  select      the learner pass of ``harness.experiment`` alone:
              ``harness.suggest`` for every target of the corpus x5, with a
              shared feature cache.

A run generates its inputs from the seed (the set-up, timed on its own),
then repeats whole rounds of its workload until another round would end
past ``--seconds``; every round does the same operations.  In an
untraced run every operation is followed by a fixed reference
computation that uses no hammerkit code (``reference_process.py`` after
each prover call, the brute-force ranker of ``reference.py`` after each
``suggest``), and times are reported relative to it: the host this runs
on changes speed by more than half within minutes, and the program and
its reference, timed in alternation, change together.  Outputs are
scored and checked after the last round, outside the timed region.  The
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gen
from reference import ReferenceRanker, count_targets, dependency_labels, recorded_deps
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

JOBS = 2  # prover processes at once
K = 40  # nearest neighbours
N_PREMISES = 32  # microres's premise budget
# Set-up is repeated for at least SETUP_SECONDS (and at least
# SETUP_REPEATS times) before the rounds and again after them, and for at
# least ROUND_SETUP_SECONDS between rounds, so its repeats spread over the
# whole run.
SETUP_SECONDS = 1.0
SETUP_REPEATS = 3
ROUND_SETUP_SECONDS = 0.2
STARTUP_PROBES = 5
REFERENCE_PROCESS = [sys.executable, str(BENCH / "reference_process.py")]

WORKLOADS = {
    "reprove": {"copies": 1, "canary": True, "timeout": 5.0},
    "select": {"copies": 5},
}

END_TO_END = {
    "setup_s": "s",
    "wall_vs_ref": "ratio",
    "cpu_vs_ref": "ratio",
    "peak_rss_mb": "MB",
    "solved": "count",
    "deps_recalled": "count",
}

# Layer spans whose total time per round is reported as <span>_s.
SPANS = (
    "corpus.load",
    "corpus.accessible",
    "features.extract",
    "knn.build_index",
    "knn.k_nearest",
    "knn.rank_premises",
    "harness.suggest",
    "harness.run_prover",
    "fof.translate",
    "tptp.print",
    "tptp.readback",
)
# Counts the tracer keeps, reported per round.
COUNTS = {
    "features.extract_calls": "count",
    "knn.build_index_calls": "count",
    "knn.indexed_statements": "count",
    "knn.candidates_scored": "count",
    "harness.prover_calls": "count",
    "fof.axioms": "count",
    "tptp.problem_bytes": "bytes",
}
PER_LAYER = {
    **{f"{span}_s": "s" for span in SPANS},
    **COUNTS,
    "harness.spawn_overhead_s": "s",
    "microres.search_s": "s",
    "microres.clauses_generated": "count",
    "microres.clauses_per_s": "1/s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
}

PROVED = {"Theorem", "Unsatisfiable"}
# Verdicts that are neither a proof nor a failure.
UNSOLVED = {"CounterSatisfiable", "Satisfiable", "Timeout", "GaveUp"}


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    # The part of ``wall`` and ``cpu`` spent on the reference computation.
    ref_wall: float = 0.0
    ref_cpu: float = 0.0
    # name -> what the program answered for that target
    output: dict = field(default_factory=dict)
    # select only: name -> the reference ranking (conjunct numbers)
    reference: dict = field(default_factory=dict)


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    solved: int = 0
    deps_recalled: int = 0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spec = WORKLOADS[workload]
        self.work = BENCH / "out" / f"{workload}-s{seed}-p{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.corpus_dir = self.inputs / "corpus"
        self.errors: list[str] = []
        self.lock = threading.Lock()
        self.tracer = Tracer() if trace else None

    # ------------------------------------------------------------ set-up

    def setup(self, seconds: float = SETUP_SECONDS, repeats: int = SETUP_REPEATS) -> list[float]:
        """Generate the inputs and load the corpus, repeatedly; returns the
        time of each repeat and keeps the last repeat's corpus."""
        from hammerkit.corpus import load_corpus

        times: list[float] = []
        while len(times) < repeats or sum(times) < seconds:
            start = time.perf_counter()
            shutil.rmtree(self.inputs, ignore_errors=True)
            gen.generate(self.inputs, self.spec["copies"], canary=self.spec.get("canary", False))
            self.corpus = load_corpus(self.corpus_dir)
            times.append(time.perf_counter() - start)
        return times

    def prepare(self) -> None:
        """What the rounds need besides the corpus; not part of set-up."""
        from hammerkit.features import extract

        targets = [tid for tid in self.corpus.order() if not self.corpus.theorem(tid).is_definition]
        # The seed fixes the order in which select queries its targets.
        self.query_order = list(targets)
        random.Random(self.seed).shuffle(self.query_order)
        if self.workload == "select":
            self.ref = ReferenceRanker(self.corpus, self.corpus_dir, extract)
            self.queries = {
                self.corpus.theorem(tid).name: extract(self.corpus.theorem(tid).statement)
                for tid in targets
            }

    # ------------------------------------------------------------ rounds

    def round_reprove(self, r: Round) -> None:
        from hammerkit import corpus, harness

        run_prover = harness.run_prover

        def then_reference(*args, **kwargs):
            result = run_prover(*args, **kwargs)
            wall, cpu = self.reference_process()
            with self.lock:
                # Prover calls and references alternate on JOBS threads.
                r.ref_wall += wall / JOBS
                r.ref_cpu += cpu
            return result

        if self.tracer is None:
            harness.run_prover = then_reference
        try:
            loaded = corpus.load_corpus(self.corpus_dir)
            config = harness.builtin_config("microres", timeout=self.spec["timeout"])
            report = harness.reprove(loaded, [config], jobs=JOBS)
        finally:
            harness.run_prover = run_prover
        for res in report.results:
            r.output[res.target] = (res.status.kind, res.core.premises if res.core else ())

    def reference_process(self) -> tuple[float, float]:
        """Run the reference program once: its wall and CPU seconds."""
        start = time.perf_counter()
        proc = subprocess.Popen(REFERENCE_PROCESS)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with self.lock:
                self.errors.append(f"reference process exited {proc.returncode}")
        return wall, usage.ru_utime + usage.ru_stime

    def round_select(self, r: Round) -> None:
        from hammerkit import harness
        from hammerkit.corpus import AccessRelation

        cache: dict = {}
        for tid in self.query_order:
            entry = self.corpus.theorem(tid)
            try:
                r.output[entry.name] = harness.suggest(
                    self.corpus, entry.statement, k=K, n_premises=N_PREMISES,
                    relation=AccessRelation.LOADED_THEORIES, target=tid, feature_cache=cache,
                )
            except Exception:
                r.output[entry.name] = None
                self.errors.append(f"suggest {entry.name}: {traceback.format_exc()}")
            if self.tracer is None:
                start, cpu0 = time.perf_counter(), time.process_time()
                r.reference[entry.name] = self.ref.rank(
                    self.queries[entry.name], entry.name, K, N_PREMISES
                )
                r.ref_wall += time.perf_counter() - start
                r.ref_cpu += time.process_time() - cpu0

    # ----------------------------------------------------------- scoring

    def score(self, r: Round) -> Score:
        s = Score(attempted=len(r.output))
        if self.workload == "select":
            for name, ranked in r.output.items():
                if ranked is None:
                    s.failed += 1
                    continue
                deps = recorded_deps(self.corpus, name)
                recalled = deps & {cid for cid, _ in ranked}
                s.deps_recalled += len(recalled)
                s.solved += recalled == deps
            return s
        for name, (kind, core) in r.output.items():
            if kind not in PROVED | UNSOLVED:
                s.failed += 1
            elif name in gen.CANARY_WRONG:
                s.failed += kind in gen.CANARY_WRONG[name]
            elif kind in PROVED:
                s.solved += 1
                s.deps_recalled += len(set(core) & dependency_labels(self.corpus, name))
        return s

    # ---------------------------------------------------------- measuring

    def run(self) -> dict:
        setup_times = self.setup()
        self.prepare()
        if self.tracer is not None:
            self.tracer.install()
        do_round = getattr(self, f"round_{self.workload}")
        rounds: list[Round] = []
        scores: list[Score] = []
        first_round_problems = 0
        start = time.perf_counter()
        while True:
            if rounds and self.tracer is None:
                setup_times += self.setup(ROUND_SETUP_SECONDS, 1)
            r = Round()
            cpu0 = _cpu()
            t0 = time.perf_counter()
            if self.tracer is not None:
                with self.tracer.request_span(f"round.{self.workload}", len(rounds)):
                    do_round(r)
            else:
                do_round(r)
            r.wall = time.perf_counter() - t0
            r.cpu = _cpu() - cpu0
            if not rounds:
                peak_rss_mb = _peak_rss_mb()
                if self.tracer is not None:
                    first_round_problems = len(self.tracer.problems)
            scores.append(self.score(r))
            if rounds:
                self.compare(rounds[0], r, len(rounds) + 1)
                r.output, r.reference = {}, {}
            rounds.append(r)
            mean = statistics.fmean(x.wall for x in rounds)
            if time.perf_counter() - start + mean > self.seconds:
                break
        if self.tracer is not None:
            self.tracer.uninstall()
        setup_times += self.setup()

        self.check(rounds[0])
        if self.tracer is not None:
            metrics = self.layer_metrics(rounds, first_round_problems)
            self.tracer.dump(BENCH / "out" / f"trace-{self.workload}-s{self.seed}.json")
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_vs_ref": statistics.median(
                    (r.wall - r.ref_wall) / r.ref_wall for r in rounds
                ),
                "cpu_vs_ref": statistics.median((r.cpu - r.ref_cpu) / r.ref_cpu for r in rounds),
                "peak_rss_mb": peak_rss_mb,
                "solved": statistics.median_low(s.solved for s in scores),
                "deps_recalled": statistics.median_low(s.deps_recalled for s in scores),
            }
            units = END_TO_END
        for err in self.errors:
            print(f"check failed: {err}", file=sys.stderr)
        print(f"{self.workload}: {len(rounds)} rounds of {scores[0].attempted} operations")
        print("round wall s, own work + reference: " + " ".join(
            f"{r.wall - r.ref_wall:.3f}+{r.ref_wall:.3f}" for r in rounds
        ))
        return {
            "correct": not self.errors,
            "attempted": sum(s.attempted for s in scores),
            "failed": sum(s.failed for s in scores),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }

    def layer_metrics(self, rounds: list[Round], n_problems: int) -> dict:
        """Per-round layer figures from the trace.  microres is re-run
        in-process on the problems the first round emitted."""
        from hammerkit.provers import microres
        from hammerkit.tptp import parse_problem

        n = len(rounds)
        out = {f"{span}_s": self.tracer.seconds(span) / n for span in SPANS}
        out.update({name: self.tracer.counts.get(name, 0) / n for name in COUNTS})
        search_s = generated = prover_wall = 0.0
        for text, timeout, wall in self.tracer.problems[:n_problems]:
            problem = parse_problem(text)
            start = time.perf_counter()
            _, res = microres.prove(problem, timeout=timeout)
            search_s += time.perf_counter() - start
            generated += res.generated
            prover_wall += wall
        out["harness.spawn_overhead_s"] = prover_wall - search_s
        out["microres.search_s"] = search_s
        out["microres.clauses_generated"] = generated
        out["microres.clauses_per_s"] = generated / search_s if search_s else 0.0
        out["cli.startup_s"] = _startup_s()
        out["trace.wall_s"] = statistics.median(r.wall for r in rounds)
        return out

    # ------------------------------------------------------------- checks

    def compare(self, first: Round, r: Round, i: int) -> None:
        """A later round must rank exactly as the first did."""
        if self.workload == "select" and r.output != first.output:
            self.errors.append(f"round {i} ranked differently from round 1")

    def check(self, first: Round) -> None:
        """Compare the first round with computations that do not use the
        code under test."""
        if len(first.output) != count_targets(self.corpus_dir):
            self.errors.append(
                f"{len(first.output)} targets, the .tt files have {count_targets(self.corpus_dir)}"
            )
        if self.workload == "select":
            for name, ranked in first.output.items():
                want = first.reference.get(name)
                if want is None:  # a traced run ranks by reference only here
                    want = self.ref.rank(self.queries[name], name, K, N_PREMISES)
                if ranked != [(self.ref.ids[i], w) for i, w in want]:
                    self.errors.append(f"{name}: ranking differs from the reference")
        else:
            for name, (kind, core) in first.output.items():
                if kind in PROVED and not set(core) <= dependency_labels(self.corpus, name):
                    self.errors.append(f"{name}: core {sorted(core)} was not given")


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb() -> float:
    """The largest resident set of this process or of any waited child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def _startup_s() -> float:
    """Median time for a fresh interpreter to import ``hammerkit.cli``."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hammerkit.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_all(args) -> int:
    """Every workload in its own process, one after the other; prints each
    metric by name and unit, then one JSON object keyed by workload."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="hammerkit benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hammerkit" / "__init__.py").is_file():
        print(f"error: no hammerkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # The run and the provers it starts read the sources from src/ and
    # keep their temporary files under out/, inside the checkout.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    tmp = bench.work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
