"""Golden outputs on the bundled toy corpus, pinned by sha256.

Every canonical echo, dependency listing, feature set, emitted problem and
ranking the pipeline produces on the toy corpus is hashed per kind, and so is the
bundled prover's answer to each exact-dependency problem read back from
its TPTP text and, under a clause cap, to each ranked problem.  So are the
exact-dependency reports, unsplit and per conjunct, with their wall times
masked.  A refactor must leave all of them byte-identical; a change
that means to alter one of these outputs recomputes its digest and says
why.
"""

import csv
import hashlib
import io
from importlib import resources
from pathlib import Path

import pytest

from hammerkit.corpus import AccessRelation, Signature, load_corpus, parse_tt, print_tt
from hammerkit.features import extract
from hammerkit.harness import (
    build_problem,
    builtin_config,
    conjunct_premises,
    experiment,
    suggest,
)
from hammerkit.provers import microres
from hammerkit.tptp import parse_problem, print_problem

TOY = Path(str(resources.files("hammerkit") / "data" / "toy"))

GOLDEN = {
    "echo": "11c149446e00cd16fabacdae195a351ce6ab896ad7edf33e06cde2064f1033b2",
    "deps": "76a15b4ba64b1d95e7a87445ea4f5306158c2c42a18d7c6048daef4ba55af97a",
    "features": "6eb2263c09cd91b669c849919e2f116f6dcdbfa8586403cfc42e0abb15f1de86",
    "exact": "9bf801db2233cfe27fa72680cbca6a9f5e0b4dea3d9738b6adb19fcda42a9e55",
    "ranked_linear": "fb1928d756e585fe0eef35ff9ed2547f4adb6832079c6bd5b819f0db1001c6a5",
    "ranked_loaded": "fb1928d756e585fe0eef35ff9ed2547f4adb6832079c6bd5b819f0db1001c6a5",
    "ranked_transitive": "b47a475273034df4403784f7e3b1f884a4519480b8baebcb70a3260e683576b3",
    "problems_linear": "2c4e3df5b95969676a7ee0c583b8db2b72a3d30b561a9a1c0dbb7d77eafad76b",
    "problems_loaded": "2c4e3df5b95969676a7ee0c583b8db2b72a3d30b561a9a1c0dbb7d77eafad76b",
    "problems_transitive": "84fd451f94468c0e9f555e714edac3fbaafe75f3bb0da6dfd3f630ba3bff6666",
    "verdicts": "3baa128ad233a7bef4d3e5a081a826c37cbd8f0f9a5e01ed6c742a6512b147be",
    "search": "069a351b1fb0260fa7d4ebc5f44b7fd0aca572664f8fe24251c35662b2ba2d5f",
    "report_exact": "73c8e0149df54ac48943e2a7da5cd38cc3751c44d87cd2ce54522201af1c4529",
    "report_conjuncts": "60268b047edd23e2d1268a357f577b2b381c9c670856019c978262fa15ccca46",
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _report_lines(report) -> list[str]:
    """The summary and the CSV rows, with the wall_time column masked."""
    rows = list(csv.reader(io.StringIO(report.csv_text())))
    column = rows[0].index("wall_time")
    for row in rows[1:]:
        row[column] = "-"
    return report.summary_text().splitlines() + [",".join(row) for row in rows]


def golden_outputs() -> dict[str, list[str]]:
    corpus = load_corpus(TOY)
    out: dict[str, list[str]] = {}

    sig = Signature()
    out["echo"] = [
        print_tt(entry)
        for theory in corpus.theories
        for entry in parse_tt((TOY / f"{theory}.tt").read_text(encoding="utf-8"), sig)
    ]

    out["deps"] = []
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        for cid, deps in zip(entry.conjunct_ids(), entry.dependencies):
            labels = sorted(corpus.conjunct_label(d) for d in deps)
            out["deps"].append(f"{corpus.conjunct_label(cid)}: {' '.join(labels)}")

    out["features"] = []
    for tid in corpus.order():
        entry = corpus.theorem(tid)
        out["features"].append(f"{entry.name}: {' '.join(sorted(extract(entry.statement)))}")
        for cid in entry.conjunct_ids():
            feats = " ".join(sorted(extract(corpus.conjunct_statement(cid))))
            out["features"].append(f"{corpus.conjunct_label(cid)}: {feats}")

    targets = [tid for tid in corpus.order() if not corpus.theorem(tid).is_definition]
    assert len(targets) == 59
    out["exact"] = []
    for tid in targets:
        entry = corpus.theorem(tid)
        premises = conjunct_premises(corpus, frozenset().union(*entry.dependencies))
        _, text = build_problem(corpus, premises, (entry.name, entry.statement))
        out["exact"].append(text)
    out["verdicts"] = [
        microres.prove(parse_problem(text), timeout=None)[0] for text in out["exact"]
    ]

    # The toy theories form one ancestry chain, so linear and loaded
    # accessibility coincide there and their digests agree.
    cache: dict = {}
    for relation in ("linear", "loaded", "transitive"):
        ranked_lines, problems = [], []
        for tid in targets:
            entry = corpus.theorem(tid)
            ranked = suggest(
                corpus,
                entry.statement,
                k=40,
                n_premises=32,
                relation=AccessRelation(relation),
                target=tid,
                feature_cache=cache,
            )
            ranked_lines.append(
                entry.name
                + ": "
                + " ".join(f"{corpus.conjunct_label(c)}={w!r}" for c, w in ranked)
            )
            if ranked:
                premises = [
                    (corpus.conjunct_label(c), corpus.conjunct_statement(c))
                    for c, _ in ranked
                ]
                _, text = build_problem(corpus, premises, (entry.name, entry.statement))
                problems.append(text)
        out[f"ranked_{relation}"] = ranked_lines
        out[f"problems_{relation}"] = problems
    # Ranked problems run into the clause cap, so this pins the order of
    # the prover's search, not only its verdicts.
    out["search"] = [
        microres.prove(parse_problem(text), timeout=None, max_clauses=100)[0]
        for text in out["problems_loaded"]
    ]

    for split, kind in (("unsplit", "report_exact"), ("conjuncts", "report_conjuncts")):
        report = experiment(
            corpus, "exact", [builtin_config("microres")], jobs=2, split=split
        )
        out[kind] = _report_lines(report)
    return out


@pytest.fixture(scope="module")
def outputs():
    return golden_outputs()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_output_is_unchanged(outputs, kind):
    assert _digest(outputs[kind]) == GOLDEN[kind]


def test_problem_texts_read_back_unchanged(outputs):
    texts = [
        text
        for kind, lines in outputs.items()
        if kind == "exact" or kind.startswith("problems_")
        for text in lines
    ]
    assert len(texts) > 59
    for text in texts:
        assert print_problem(parse_problem(text)) == text
