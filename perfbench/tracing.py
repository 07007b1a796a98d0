"""In-memory spans and counts at hammerkit's layer boundaries.

``Tracer.install`` replaces public functions in the hammerkit module
namespaces where the pipeline looks them up with wrappers that record a
span (name, start, end, parent, request) and the layer's work counts.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
Spans stay in memory until ``dump`` writes them out.

Span names are the layer metrics' stems: ``corpus.load``,
``corpus.accessible``, ``features.extract``, ``knn.build_index``,
``knn.k_nearest``, ``knn.rank_premises``, ``harness.suggest``,
``harness.run_prover``, ``fof.translate``, ``tptp.print`` and
``tptp.readback``.  Times are inclusive: a span covers its children.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        # (problem text, prover timeout, run_prover wall seconds)
        self.problems: list[tuple[str, float, float]] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "request": self.request}
            )

    @contextmanager
    def request_span(self, name: str, request: int):
        """The root span of one request; spans opened on pool threads
        without a parent of their own hang under it."""
        self.request = request
        with self.span(name):
            self._root = self._local.stack[-1]
            try:
                yield
            finally:
                self._root = None

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    # ----------------------------------------------------------- wrapping

    def _wrap(self, module, attr: str, name: str, after=None) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def install(self) -> None:
        from hammerkit import corpus, harness, knn

        def extracted(result, args, kwargs):
            self.add("features.extract_calls")

        def indexed(result, args, kwargs):
            self.add("knn.build_index_calls")
            self.add("knn.indexed_statements", len(args[1]))

        def scored(result, args, kwargs):
            index, query = args[0], frozenset(args[1])
            candidates = {t for f in query for t in index.postings.get(f, ())}
            self.add("knn.candidates_scored", len(candidates))

        def translated(result, args, kwargs):
            self.add("fof.axioms", len(result.axioms))

        def printed(result, args, kwargs):
            self.add("tptp.problem_bytes", len(result.encode("utf-8")))

        def proved(result, args, kwargs):
            self.add("harness.prover_calls")
            text = Path(args[0]).read_text(encoding="utf-8")
            with self._lock:
                self.problems.append((text, args[1].timeout, result.wall_time))

        self._wrap(corpus, "load_corpus", "corpus.load")
        self._wrap(harness, "accessible_set", "corpus.accessible")
        self._wrap(harness, "extract", "features.extract", extracted)
        self._wrap(knn, "build_index", "knn.build_index", indexed)
        self._wrap(knn, "k_nearest", "knn.k_nearest", scored)
        self._wrap(knn, "rank_premises", "knn.rank_premises")
        self._wrap(harness, "suggest", "harness.suggest")
        self._wrap(harness, "run_prover", "harness.run_prover", proved)
        self._wrap(harness, "translate_problem", "fof.translate", translated)
        self._wrap(harness, "print_problem", "tptp.print", printed)
        self._wrap(harness, "parse_szs", "tptp.readback")
        self._wrap(harness, "extract_core", "tptp.readback")

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    # ------------------------------------------------------------ output

    def state(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "problems": self.problems}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.state()), encoding="utf-8")
