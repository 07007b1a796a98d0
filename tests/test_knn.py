"""Nearest-neighbour premise ranking against a brute-force oracle."""

import random

import pytest

from hammerkit.knn import Neighbor, build_index, k_nearest, rank_premises


def index_of(rows: dict[str, set[str]], order=None):
    order = list(rows) if order is None else order
    return build_index(rows, order)


def test_identical_statement_is_distance_zero():
    idx = index_of({"a": {"f1", "f2"}, "b": {"f2", "f3"}})
    got = k_nearest(idx, {"f1", "f2"}, 2)
    assert got[0] == Neighbor("a", 0, 1.0)
    assert got[1].id == "b"
    assert got[1].d2 == 2  # one missing, one extra
    assert got[1].weight == pytest.approx(1.0 / 3.0)


def test_candidates_must_share_a_feature():
    idx = index_of({"a": {"f1"}, "b": {"f2"}})
    assert [n.id for n in k_nearest(idx, {"f1"}, 5)] == ["a"]
    assert k_nearest(idx, {"zzz"}, 5) == []


def test_ties_break_by_linear_order():
    rows = {"late": {"f1"}, "early": {"f1"}}
    idx = index_of(rows, order=["early", "late"])
    got = k_nearest(idx, {"f1"}, 2)
    assert [n.id for n in got] == ["early", "late"]


def test_k_truncates_and_validates():
    rows = {f"t{i}": {"f"} for i in range(10)}
    idx = index_of(rows)
    assert len(k_nearest(idx, {"f"}, 3)) == 3
    with pytest.raises(ValueError):
        k_nearest(idx, {"f"}, 0)


def test_rank_premises_votes_for_deps_and_self():
    idx = index_of({"a": {"f"}, "b": {"g"}, "p": {"h"}, "q": {"i"}})
    neighbors = [Neighbor("a", 0, 1.0), Neighbor("b", 2, 1.0 / 3.0)]
    deps = {"a": ["p"], "b": ["p", "q"]}
    got = rank_premises(idx, neighbors, deps, 4)
    scores = dict(got)
    assert scores["p"] == pytest.approx(1.0 + 1.0 / 3.0)
    assert scores["a"] == pytest.approx(1.0)
    assert scores["q"] == pytest.approx(1.0 / 3.0)
    assert scores["b"] == pytest.approx(1.0 / 3.0)
    # Sorted by relevance, position breaking ties.
    assert [p for p, _ in got] == ["p", "a", "b", "q"]
    assert len(rank_premises(idx, neighbors, deps, 2)) == 2
    assert rank_premises(idx, neighbors, deps, 0) == []
    with pytest.raises(ValueError, match="negative"):
        rank_premises(idx, neighbors, deps, -1)


def test_rank_premises_is_deterministic_under_ties():
    idx = index_of({"a": {"f"}, "b": {"f"}, "c": {"f"}})
    neighbors = [Neighbor("a", 1, 0.5), Neighbor("b", 1, 0.5)]
    got = rank_premises(idx, neighbors, {}, 3)
    assert [p for p, _ in got] == ["a", "b"]


# ------------------------------------------------------------------ oracle


def naive_k_nearest(rows, order, query, k, allowed):
    pos = {t: i for i, t in enumerate(order)}
    cands = [t for t in order if rows[t] & query and t in allowed]
    scored = sorted(
        (len(rows[t]) + len(query) - 2 * len(rows[t] & query), pos[t], t)
        for t in cands
    )
    return [(t, d2) for d2, _, t in scored[:k]]


def naive_rank(rows, order, neighbors, deps, n):
    pos = {t: i for i, t in enumerate(order)}
    rel: dict[str, float] = {}
    for t, d2 in neighbors:
        w = 1.0 / (1.0 + d2)
        for p in set(deps.get(t, [])) | {t}:
            rel[p] = rel.get(p, 0.0) + w
    ranked = sorted(rel.items(), key=lambda kv: (-kv[1], pos[kv[0]]))
    return ranked[:n]


def random_instance(rng):
    n = rng.randrange(2, 40)
    feats = [f"f{i}" for i in range(rng.randrange(3, 30))]
    order = [f"t{i}" for i in range(n)]
    rows = {
        t: set(rng.sample(feats, rng.randrange(1, min(8, len(feats)) + 1)))
        for t in order
    }
    deps = {
        t: rng.sample(order[:i], min(i, rng.randrange(0, 4)))
        for i, t in enumerate(order)
    }
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
    for _ in range(200):
        rows, order, deps, query, k, spans = random_instance(rng)
        allowed = set(order) if spans is None else {
            order[i] for lo, hi in spans for i in range(lo, hi)
        }
        idx = build_index(rows, order)
        got = [(n.id, n.d2) for n in k_nearest(idx, query, k, spans=spans)]
        assert got == naive_k_nearest(rows, order, query, k, allowed)
        neighbors = k_nearest(idx, query, k, spans=spans)
        mine = rank_premises(idx, neighbors, deps, 10)
        theirs = naive_rank(rows, order, got, deps, 10)
        assert [p for p, _ in mine] == [p for p, _ in theirs]
        for (p1, s1), (p2, s2) in zip(mine, theirs):
            assert s1 == pytest.approx(s2)


def test_unrelated_theorem_does_not_change_ranking():
    rows = {"a": {"f1", "f2"}, "b": {"f2"}}
    idx1 = build_index(rows, ["a", "b"])
    base = [(n.id, n.d2) for n in k_nearest(idx1, {"f1"}, 5)]
    rows2 = dict(rows, z={"zzz"})
    idx2 = build_index(rows2, ["a", "b", "z"])
    assert [(n.id, n.d2) for n in k_nearest(idx2, {"f1"}, 5)] == base
