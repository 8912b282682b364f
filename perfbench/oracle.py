"""The benchmark's independent oracle: brute-force answers in plain numpy.

Nothing here imports the program under test.  Every answer the server
or the library gives during a run is compared against these functions:

* :func:`skyline` — the subspace skyline by exhaustive dominance tests
  (a point is kept iff no row is ``<=`` on every active dimension and
  ``<`` on one; exact duplicates never dominate each other);
* :func:`member` — one point's skyline membership, the same test;
* :func:`topk` — the dynamic top-k by an early-stopping scan in
  ``(L1 over the active dims, id)`` order;
* :class:`Replay` — the benchmark's own record of the rows, so the state
  after any sequence of writes is checked by brute force.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Upper bound on the cells of one (candidates x rows) comparison block.
_BLOCK_CELLS = 1 << 22

#: Candidates tested per step of the sorted scan in :func:`skyline`.
_SCAN = 256


def dims_of(delta: int, d: int) -> List[int]:
    return [j for j in range(d) if delta >> j & 1]


def dominated(cands: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[i]`` iff some row of ``rows`` dominates ``cands[i]``."""
    cands = np.asarray(cands, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros(len(cands), dtype=bool)
    if len(rows) == 0 or len(cands) == 0:
        return out
    step = max(1, _BLOCK_CELLS // len(rows))
    for lo in range(0, len(cands), step):
        block = cands[lo:lo + step]
        le = np.ones((len(block), len(rows)), dtype=bool)
        lt = np.zeros((len(block), len(rows)), dtype=bool)
        for j in range(cands.shape[1]):
            column, value = rows[None, :, j], block[:, j, None]
            le &= column <= value
            lt |= column < value
        out[lo:lo + step] = (le & lt).any(axis=1)
    return out


def distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distinct, first, inverse)``: the distinct rows, the index of
    each one's first copy, and each input row's distinct index."""
    if rows.shape[1] == 0:
        raise ValueError("rows need at least one column")
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts) if len(rows) else order
    return ordered[starts], first, inverse


def skyline(data: np.ndarray, delta: int) -> np.ndarray:
    """Sorted row indices of the skyline of ``data`` in subspace ``delta``.

    Exhaustive, over a candidate set that provably holds the skyline:

    * dominance depends only on values and equal rows never dominate
      each other, so the test runs over the distinct projected rows and
      every copy of a kept row is kept;
    * rows dominated by one of the ``_SCAN`` rows of smallest coordinate
      sum are out; the rest (every skyline row among them) are tested
      against each other, which is exact because a dominated row is
      dominated by some skyline row;
    * a dominator is ``<=`` everywhere, so its sum is no larger (float
      sums are monotone): each row meets only rows up to its own sum.
    """
    data = np.asarray(data, dtype=np.float64)
    if len(data) == 0:
        return np.empty(0, dtype=np.int64)
    proj, _, inverse = distinct_rows(data[:, dims_of(delta, data.shape[1])])
    order = np.argsort(proj.sum(axis=1), kind="stable")
    rows = proj[order]
    alive = np.flatnonzero(~dominated(rows, rows[:_SCAN]))
    rows, order = rows[alive], order[alive]
    sums = rows.sum(axis=1)
    kept = np.zeros(len(rows), dtype=bool)
    for lo in range(0, len(rows), _SCAN):
        block = rows[lo:lo + _SCAN]
        end = int(np.searchsorted(sums, sums[lo + len(block) - 1], side="right"))
        kept[lo:lo + _SCAN] = ~dominated(block, rows[:end])
    keep_distinct = np.zeros(len(proj), dtype=bool)
    keep_distinct[order[kept]] = True
    return np.flatnonzero(keep_distinct[inverse]).astype(np.int64)


def member(data: np.ndarray, row: int, delta: int) -> bool:
    """Whether ``data[row]`` is in the ``delta`` skyline of ``data``."""
    dims = dims_of(delta, data.shape[1])
    proj = np.asarray(data, dtype=np.float64)[:, dims]
    return not dominated(proj[row:row + 1], proj)[0]


def topk(
    data: np.ndarray,
    ids: np.ndarray,
    q: Sequence[float],
    k: int,
    delta: Optional[int] = None,
) -> List[int]:
    """The ``k`` dynamic-skyline ids closest to ``q``, early-stopping.

    Rows are scanned in ``(L1 distance over the active dims, id)``
    order.  A dominator of a row in the transformed space ``|x - q|`` is
    no farther than it (float sums are monotone), so each candidate is
    tested only against the rows at no greater distance, and the scan
    stops after ``k`` hits (and any row tying the k-th).  Candidates are
    tested a chunk at a time against the rows up to the chunk's farthest
    distance; a row farther than a candidate cannot dominate it.
    """
    data = np.asarray(data, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if len(data) == 0:
        return []
    transformed = np.abs(data - np.asarray(q, dtype=np.float64))
    if delta is not None:
        transformed = transformed[:, dims_of(delta, data.shape[1])]
    distance = transformed.sum(axis=1)
    # Equal transformed rows share one verdict: test each value once.
    distinct, first, inverse = distinct_rows(transformed)
    order = np.argsort(distance[first], kind="stable")
    ranked = distance[first][order]
    hits: List[Tuple[float, int]] = []
    lo, chunk = 0, 16
    while lo < len(order):
        rows = order[lo:lo + chunk]
        end = int(np.searchsorted(ranked, ranked[lo + len(rows) - 1], side="right"))
        beaten = dominated(distinct[rows], distinct[order[:end]])
        for value in rows[~beaten]:
            members = np.flatnonzero(inverse == value)
            hits.extend(zip(distance[members].tolist(), ids[members].tolist()))
        lo += len(rows)
        chunk *= 2
        hits.sort()
        # Stop once k hits are in hand and no unscanned row could tie
        # with or beat the k-th of them.
        if len(hits) >= k and (lo >= len(order) or ranked[lo] > hits[k - 1][0]):
            break
    return [pid for _, pid in hits[:k]]


class Replay:
    """The rows the server should hold, version by version.

    Base rows get ids ``0..n-1`` (the order of the dataset file).  Each
    acknowledged write is recorded with the snapshot version the server
    published for it; :meth:`advance` applies the writes up to a version
    and :meth:`state` returns the live ``(ids, rows)``.
    """

    def __init__(self, base: np.ndarray) -> None:
        base = np.asarray(base, dtype=np.float64)
        self._base = base
        self._matrix = [base]
        self._ids = [np.arange(len(base), dtype=np.int64)]
        self._log: List[tuple] = []
        self._applied = 0
        self.version = 0
        self._alive: Dict[int, int] = {i: i for i in range(len(base))}
        self._count = len(base)
        self._flat: Optional[np.ndarray] = base
        self._flat_ids: Optional[np.ndarray] = self._ids[0]

    def record_insert(self, version: int, point_id: int, row: Sequence[float]) -> None:
        self._log.append((version, "insert", point_id, np.asarray(row, dtype=np.float64)))

    def record_delete(self, version: int, point_id: int) -> None:
        self._log.append((version, "delete", point_id, None))

    def advance(self, version: int) -> None:
        """Apply every recorded write with a version ``<= version``."""
        if version < self.version:
            raise ValueError(f"cannot rewind from v{self.version} to v{version}")
        pending = sorted(self._log[self._applied:], key=lambda e: e[0])
        self._log[self._applied:] = pending
        while self._applied < len(self._log) and self._log[self._applied][0] <= version:
            _, kind, point_id, row = self._log[self._applied]
            if kind == "insert":
                self._matrix.append(row[None, :])
                self._ids.append(np.array([point_id], dtype=np.int64))
                self._alive[point_id] = self._count
                self._count += 1
            else:
                del self._alive[point_id]
            self._applied += 1
            self._flat = None
        self.version = version

    def state(self) -> "tuple[np.ndarray, np.ndarray]":
        """Live ``(ids, rows)`` at the current version, in id order."""
        if self._flat is None:
            matrix = np.concatenate(self._matrix)
            all_ids = np.concatenate(self._ids)
            self._matrix, self._ids = [matrix], [all_ids]
            positions = np.fromiter(self._alive.values(), dtype=np.int64)
            positions.sort()
            self._flat = matrix[positions]
            self._flat_ids = all_ids[positions]
        return self._flat_ids, self._flat

    def rewound(self) -> "Replay":
        """A replay of the same writes, back at version 0."""
        fresh = Replay(self._base)
        fresh._log = list(self._log)
        return fresh
