"""The benchmark's ranking check, run on a smaller corpus.

The ``select`` workload of ``perfbench/run.py`` requires every ranking to
equal the brute-force ranker of ``perfbench/reference.py`` exactly,
weights included.  This test applies the same check to the synthetic
corpus x2, so that a ranking drift fails here before a benchmark run.
It only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

from hammerkit.corpus import AccessRelation, load_corpus
from hammerkit.features import extract
from hammerkit.harness import suggest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
K = 40
N_PREMISES = 32


def test_loaded_rankings_equal_the_benchmark_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    reference = importlib.import_module("reference")
    gen.generate(tmp_path, 2)
    corpus_dir = tmp_path / "corpus"
    corpus = load_corpus(corpus_dir)
    ref = reference.ReferenceRanker(corpus, corpus_dir, extract)
    targets = [tid for tid in corpus.order() if not corpus.theorem(tid).is_definition]
    assert len(targets) == reference.count_targets(corpus_dir)
    for tid in targets:
        entry = corpus.theorem(tid)
        got = suggest(
            corpus, entry.statement, k=K, n_premises=N_PREMISES,
            relation=AccessRelation.LOADED_THEORIES, target=tid,
        )
        want = ref.rank(extract(entry.statement), entry.name, K, N_PREMISES)
        assert got == [(ref.ids[i], w) for i, w in want], entry.name
