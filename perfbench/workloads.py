"""Workload specs and their seeded inputs.

The benchmark makes every input itself from ``--seed``: the dataset
(saved to a file, the only thing the server is given), the rows later
inserted, and each connection's request stream.  The generators are
the benchmark's own, so a change to the program's data module cannot
shift the workloads.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``anticorrelated``, ``independent`` or ``quantised``.
    distribution: str
    n: int
    d: int
    #: Extra ``serve`` flags selecting the tier.
    serve_args: Tuple[str, ...]
    #: Reader connections in the read phase (closed loop each).
    connections: int
    #: One read cycle per connection, replayed in a seeded order.
    read_cycle: Tuple[str, ...]
    #: Highest lattice level the server materialises (``None``: all).
    max_level: int = 0
    #: Distinct values per dimension for ``quantised`` data.
    levels: int = 0
    #: Whether the run has a write phase (``serve --live`` only).
    live: bool = False
    top_k: int = 8

    @property
    def materialised_level(self) -> int:
        return self.max_level or self.d


def _cycle(**counts: int) -> Tuple[str, ...]:
    return tuple(op for op, count in counts.items() for _ in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="anti-live",
            why="anticorrelated d=8, no duplicate rows: large S+, dearest "
                "top-k and deletes that re-derive almost every mask",
            distribution="anticorrelated", n=8000, d=8,
            serve_args=("--live",), connections=2,
            read_cycle=_cycle(skyline=6, membership=5, topk=1), live=True,
        ),
        Workload(
            name="dup-live",
            why="quantised d=6, 3 values a dimension: 8000 rows hold at "
                "most 729 distinct, so dedup and equal ranks dominate",
            distribution="quantised", n=8000, d=6, levels=3,
            serve_args=("--live",), connections=2,
            read_cycle=_cycle(skyline=6, membership=5, topk=1), live=True,
        ),
        Workload(
            name="indep-shard",
            why="independent d=8 on 2 shard processes, read-only: "
                "scatter-gather, per-shard ad-hoc skylines, top-k merge",
            distribution="independent", n=20000, d=8,
            serve_args=("--shards", "2", "--max-level", "3"),
            connections=1, max_level=3,
            read_cycle=_cycle(skyline=16, membership=16, adhoc=2, topk=3),
        ),
    )
}


def make_rows(workload: Workload, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` rows of the workload's distribution (smaller is better)."""
    d = workload.d
    if workload.distribution == "independent":
        return rng.random((n, d))
    if workload.distribution == "quantised":
        return rng.integers(0, workload.levels, (n, d)) / (workload.levels - 1)
    if workload.distribution == "anticorrelated":
        # Rows near the plane sum(x) = d/2: better on one dimension means
        # worse on another (Borzsonyi et al.'s anticorrelated family).
        totals = rng.normal(0.5 * d, 0.05 * d, n)
        raw = rng.random((n, d))
        rows = raw / raw.sum(axis=1, keepdims=True) * totals[:, None]
        return np.clip(rows, 1e-9, 1.0)
    raise ValueError(f"unknown distribution {workload.distribution!r}")


@dataclass
class Inputs:
    data: np.ndarray
    #: Rows the write phase inserts, in order.
    inserts: np.ndarray
    #: Base ids the write phase deletes, in order.
    deletes: np.ndarray
    #: Base ids the readers probe for membership (never deleted).
    probe_ids: np.ndarray
    #: Probe subspaces, spanning every lattice level.
    subspaces: List[int]
    #: Subspaces above the materialised level (ad-hoc path).
    adhoc_subspaces: List[int]
    #: Subspaces the write-phase reader probes with ``skyline``.
    live_subspaces: List[int]


def subspace_set(d: int, rng: np.random.Generator) -> List[int]:
    """Seeded subspaces at every level ``1..d``: two at levels 1-3, where
    skylines are small and probes cheap, one at each level above."""
    chosen: List[int] = []
    for level in range(1, d + 1):
        masks = [sum(1 << j for j in dims) for dims in combinations(range(d), level)]
        picks = rng.choice(len(masks), size=min(2 if level <= 3 else 1, len(masks)),
                           replace=False)
        chosen.extend(sorted(masks[i] for i in picks))
    return chosen


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 17])
    data = make_rows(workload, workload.n, rng)
    inserts = make_rows(workload, 4096, rng)
    order = rng.permutation(workload.n)
    deletes, probe_ids = order[: workload.n // 2], order[workload.n // 2:]
    everything = subspace_set(workload.d, rng)
    level = workload.materialised_level
    subspaces = [s for s in everything if bin(s).count("1") <= level]
    adhoc = [s for s in everything if bin(s).count("1") > level]
    live = [s for s in subspaces if bin(s).count("1") <= 2]
    return Inputs(data, inserts, deletes, probe_ids, subspaces, adhoc, live)


def stream(workload: Workload, seed: int, connection: int) -> np.random.Generator:
    """The seeded generator behind one connection's request stream."""
    return np.random.default_rng([seed, 29, connection])


def shuffled_cycle(cycle: Sequence[str], rng: np.random.Generator) -> List[str]:
    return [cycle[i] for i in rng.permutation(len(cycle))]
