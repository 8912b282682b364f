"""Tests of the benchmark's oracle against literal definitions.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def naive_dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def naive_skyline(rows, dims):
    proj = [[row[j] for j in dims] for row in rows]
    return [i for i, p in enumerate(proj)
            if not any(naive_dominates(o, p) for o in proj)]


def naive_topk(rows, ids, q, k, dims):
    moved = [[abs(row[j] - q[j]) for j in dims] for row in rows]
    sky = naive_skyline(moved, range(len(dims)))
    ranked = sorted((float(np.sum(np.asarray(moved[i]))), int(ids[i])) for i in sky)
    return [pid for _, pid in ranked[:k]]


CASES = {
    "exact-duplicates": np.array([[1, 2], [1, 2], [2, 1], [2, 1], [3, 3]], dtype=float),
    "partial-ties": np.array([[1, 3, 2], [1, 2, 3], [2, 2, 2], [1, 3, 3], [0, 4, 4]], dtype=float),
    "single-point": np.array([[0.5, 0.25, 0.75]]),
    "d1": np.array([[3.0], [1.0], [1.0], [2.0]]),
    "random": np.random.default_rng(5).integers(0, 4, (60, 4)).astype(float),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_skyline_matches_definition(name):
    rows = CASES[name]
    d = rows.shape[1]
    for delta in range(1, 1 << d):
        dims = oracle.dims_of(delta, d)
        assert oracle.skyline(rows, delta).tolist() == naive_skyline(rows.tolist(), dims)
        for row in range(len(rows)):
            assert oracle.member(rows, row, delta) == (row in naive_skyline(rows.tolist(), dims))


def test_exact_duplicates_stay_together():
    rows = CASES["exact-duplicates"]
    assert oracle.skyline(rows, 0b11).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("k", [1, 3, 100])
def test_topk_matches_definition(name, k):
    rows = CASES[name]
    n, d = rows.shape
    ids = np.arange(10, 10 + n)
    rng = np.random.default_rng(k)
    for _ in range(4):
        q = rng.random(d) * 3
        for delta in (None, 1, (1 << d) - 1):
            dims = range(d) if delta is None else oracle.dims_of(delta, d)
            assert oracle.topk(rows, ids, q, k, delta) == naive_topk(rows, ids, q, k, list(dims))


def test_topk_k_beyond_dynamic_skyline_returns_whole_skyline():
    rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert oracle.topk(rows, np.arange(3), [0.0, 0.0], 10) == [0]


def test_topk_on_query_between_duplicates():
    rows = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    assert oracle.topk(rows, np.array([7, 4, 9]), [2.0, 2.0], 5) == [4, 7, 9]


def test_replay_tracks_versions():
    base = np.array([[1.0, 2.0], [2.0, 1.0]])
    replay = oracle.Replay(base)
    replay.record_insert(1, 2, [0.5, 0.5])
    replay.record_delete(2, 0)
    replay.advance(1)
    ids, rows = replay.state()
    assert ids.tolist() == [0, 1, 2]
    assert ids[oracle.skyline(rows, 0b11)].tolist() == [2]
    replay.advance(2)
    ids, rows = replay.state()
    assert ids.tolist() == [1, 2]
    assert replay.rewound().state()[0].tolist() == [0, 1]
    with pytest.raises(ValueError):
        replay.advance(1)
