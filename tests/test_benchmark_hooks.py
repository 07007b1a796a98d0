"""The benchmark's hooks into the harness, run on the toy corpus.

``perfbench/tracing.py`` replaces harness and knn functions by name and
reads the arguments of ``harness.run_prover``; the ``reprove`` round of
``perfbench/run.py`` wraps ``harness.run_prover`` to time its reference
after every call.  These tests install both the same way, so that a
change to what they patch fails here before a benchmark run.  They only
read ``perfbench/``.
"""

import importlib
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path

from hammerkit import harness
from hammerkit.corpus import load_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def toy():
    return load_corpus(Path(str(resources.files("hammerkit") / "data" / "toy")))


def micro():
    return harness.builtin_config("microres", timeout=10.0)


def test_tracer_sees_every_prover_call_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    corpus = toy()
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._undo)
    try:
        report = harness.reprove(corpus, [micro()], jobs=2)
        harness.suggest(corpus, corpus.theorem_named("ADD_0").statement)
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(module, attr) is orig for module, attr, orig in patched)
    assert len(report.results) == 59
    assert tracer.counts["harness.prover_calls"] == len(report.results)
    assert len(tracer.problems) == len(report.results)
    assert tracer.seconds("harness.suggest") > 0
    # Every ranking asks the corpus what the target may use, a goal with
    # no target included, through the name the tracer wraps.
    assert tracer.seconds("corpus.accessible") > 0
    # The learner pass, as a traced select run reads it: one index, and
    # the ranking called through the knn module.
    assert tracer.counts["knn.build_index_calls"] == 1
    assert tracer.seconds("knn.k_nearest") > 0
    assert tracer.seconds("knn.rank_premises") > 0
    assert tracer.counts["knn.candidates_scored"] > 0


def test_run_prover_is_called_once_per_pair_off_the_main_thread(monkeypatch):
    run_prover = harness.run_prover
    lock = threading.Lock()
    calls = []

    def then_record(*args, **kwargs):
        result = run_prover(*args, **kwargs)
        with lock:
            calls.append((threading.current_thread(), args))
        return result

    monkeypatch.setattr(harness, "run_prover", then_record)
    provers = [micro(), replace(micro(), name="again")]
    report = harness.reprove(toy(), provers, jobs=2)
    assert len(calls) == len(report.results) == len(report.targets) * len(provers)
    assert all(thread is not threading.main_thread() for thread, _ in calls)
    assert all(
        isinstance(args[0], (str, Path)) and isinstance(args[1], harness.ProverConfig)
        for _, args in calls
    )
    assert len({(str(args[0]), args[1].name) for _, args in calls}) == len(calls)
