"""Nearest-neighbour premise ranking against a brute-force oracle."""

import random

import pytest

from hammerkit.knn import build_index, k_nearest, rank_premises


def index_of(rows: dict[str, set[str]], order=None):
    order = list(rows) if order is None else order
    return build_index(rows, order)


def test_identical_statement_is_distance_zero():
    idx = index_of({"a": {"f1", "f2"}, "b": {"f2", "f3"}})
    # b: one query feature missing, one extra
    assert k_nearest(idx, {"f1", "f2"}, 2) == [(0, 0), (1, 2)]


def test_candidates_must_share_a_feature():
    idx = index_of({"a": {"f1"}, "b": {"f2"}})
    assert k_nearest(idx, {"f1"}, 5) == [(0, 0)]
    assert k_nearest(idx, {"zzz"}, 5) == []


def test_ties_break_by_linear_order():
    rows = {"late": {"f1"}, "early": {"f1"}}
    order = ["early", "late"]
    idx = index_of(rows, order=order)
    assert [order[i] for i, _ in k_nearest(idx, {"f1"}, 2)] == ["early", "late"]


def test_k_truncates_and_validates():
    rows = {f"t{i}": {"f"} for i in range(10)}
    idx = index_of(rows)
    assert len(k_nearest(idx, {"f"}, 3)) == 3
    with pytest.raises(ValueError):
        k_nearest(idx, {"f"}, 0)


def test_rank_premises_votes_for_deps_and_self():
    # p = 0, q = 1, a = 2, b = 3; a uses p, b uses p and q.
    neighbors = [(2, 0), (3, 2)]
    deps = [[], [], [0], [0, 1]]
    spans = [(0, 4)]
    got = rank_premises(neighbors, deps, spans, 4)
    # Sorted by weight, number breaking ties.
    assert got == [(0, 1.0 + 1.0 / 3.0), (2, 1.0), (1, 1.0 / 3.0), (3, 1.0 / 3.0)]
    assert rank_premises(neighbors, deps, spans, 2) == got[:2]
    assert rank_premises(neighbors, deps, spans, 0) == []
    # A dependency outside the spans gets no vote.
    assert rank_premises(neighbors, deps, [(1, 4)], 4) == [(2, 1.0), (1, 1.0 / 3.0), (3, 1.0 / 3.0)]
    with pytest.raises(ValueError, match="negative"):
        rank_premises(neighbors, deps, spans, -1)


def test_rank_premises_is_deterministic_under_ties():
    got = rank_premises([(1, 1), (0, 1)], [[], [], []], [(0, 3)], 3)
    assert got == [(0, 0.5), (1, 0.5)]


# ------------------------------------------------------------------ oracle


def naive_k_nearest(rows, order, query, k, allowed):
    cands = [i for i, t in enumerate(order) if rows[t] & query and i in allowed]
    scored = sorted(
        (len(rows[order[i]]) + len(query) - 2 * len(rows[order[i]] & query), i) for i in cands
    )
    return [(i, d2) for d2, i in scored[:k]]


def naive_rank(neighbors, deps, allowed, n):
    """Votes summed in neighbour order, as the program and the benchmark's
    reference do, so that weights compare with ``==``."""
    rel: dict[int, float] = {}
    for i, d2 in neighbors:
        w = 1.0 / (1.0 + d2)
        for p in {d for d in deps[i] if d in allowed} | {i}:
            rel[p] = rel.get(p, 0.0) + w
    ranked = sorted(rel.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n]


def random_instance(rng):
    n = rng.randrange(2, 40)
    feats = [f"f{i}" for i in range(rng.randrange(3, 30))]
    order = [f"t{i}" for i in range(n)]
    rows = {
        t: set(rng.sample(feats, rng.randrange(1, min(8, len(feats)) + 1)))
        for t in order
    }
    # Each statement's dependencies: distinct earlier numbers, increasing.
    deps = [sorted(rng.sample(range(i), min(i, rng.randrange(0, 6)))) for i in range(n)]
    query = set(rng.sample(feats, rng.randrange(1, min(8, len(feats)) + 1)))
    k = rng.randrange(1, n + 2)
    # What the target may use: everything, or sorted disjoint position
    # spans, empty ones included.
    spans = None
    if rng.random() < 0.75:
        cuts = sorted(rng.choices(range(n + 1), k=2 * rng.randrange(1, 4)))
        spans = list(zip(cuts[::2], cuts[1::2]))
    return rows, order, deps, query, k, spans


def test_matches_naive_oracle_on_random_instances():
    rng = random.Random(77)
    # How the neighbours' dependency lists met the spans: inside one span,
    # partly inside (cut) and wholly outside.
    seen = {"inside": 0, "cut": 0, "outside": 0}
    for _ in range(300):
        rows, order, deps, query, k, spans = random_instance(rng)
        if spans is None:
            allowed = set(range(len(order)))
        else:
            allowed = {i for lo, hi in spans for i in range(lo, hi)}
        idx = build_index(rows, order)
        neighbors = k_nearest(idx, query, k, spans=spans)
        assert neighbors == naive_k_nearest(rows, order, query, k, allowed)
        for i, _ in neighbors:
            if deps[i] and spans is not None:
                kept = [d for d in deps[i] if d in allowed]
                inside = any(lo <= deps[i][0] and deps[i][-1] < hi for lo, hi in spans)
                seen["inside" if inside else "cut" if kept else "outside"] += 1
        mine = rank_premises(neighbors, deps, spans or [(0, len(order))], 10)
        assert mine == naive_rank(neighbors, deps, allowed, 10)
    assert all(seen.values()), seen


def test_unrelated_theorem_does_not_change_ranking():
    rows = {"a": {"f1", "f2"}, "b": {"f2"}}
    base = k_nearest(build_index(rows, ["a", "b"]), {"f1"}, 5)
    rows2 = dict(rows, z={"zzz"})
    assert k_nearest(build_index(rows2, ["a", "b", "z"]), {"f1"}, 5) == base
