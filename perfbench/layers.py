"""Per-layer metrics of a traced run, from spans and the server's trace.

Spans come from :mod:`spans` (the benchmark's wrappers, in its own
process for the build layers and inside the server for the rest);
request stages come from the jsonl the server writes under
``serve --trace``.  Each metric is a mean per call unless named a count
or ratio.  A boundary that is absent reads 0 and is flagged.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

import spans as spanlib

#: (name, unit, layer module, boundary span or trace stage) — the ones
#: every workload exercises, emitted in the run's last-line JSON.
COMMON = (
    ("dominance.rank_ms", "ms", "core.dominance", "dominance.rank"),
    ("dominance.pair_codes_ms", "ms", "core.dominance", "dominance.pair_codes"),
    ("kernels.splus_ms", "ms", "engine.kernels", "kernels.splus"),
    ("kernels.splus_rows", "count", "engine.kernels", "kernels.splus"),
    ("packed.sweep_self_ms", "ms", "engine.packed", "packed.point_masks"),
    ("hashcube.from_masks_ms", "ms", "core.hashcube", "hashcube.from_masks"),
    ("hashcube.cube_mb", "MB", "core.hashcube", None),
    ("hashcube.probe_us", "us", "core.hashcube", "hashcube.probe"),
    ("parallel.run_ms", "ms", "engine.parallel", "parallel.run"),
    ("parallel.tasks", "count", "engine.parallel", "parallel.run"),
    ("snapshot.bootstrap_ms", "ms", "serve.snapshot", "snapshot.bootstrap"),
    ("dynamic.topk_ms", "ms", "query.dynamic", None),
    ("dynamic.skyline_rows", "count", "query.dynamic", None),
    ("dynamic.useful_ratio", "ratio", "query.dynamic", None),
    ("serve.batch_wait_ms", "ms", "serve.batcher", "stage:batch"),
    ("serve.batch_size", "count", "serve.batcher", "stage:batch"),
    ("serve.compute_probe_ms", "ms", "serve.service", "stage:compute"),
    ("serve.compute_topk_ms", "ms", "serve.service", "stage:compute"),
    ("serve.respond_ms", "ms", "serve.service", "stage:respond"),
)

#: Layers only one tier has: printed and recorded, not in the JSON line.
LIVE_ONLY = (
    ("snapshot.publish_ms", "ms", "serve.snapshot", "snapshot.insert"),
    ("hashcube.with_updates_ms", "ms", "core.hashcube", "hashcube.with_updates"),
    ("maintain.insert_ms", "ms", "core.maintain", "maintain.insert"),
    ("maintain.delete_ms", "ms", "core.maintain", "maintain.delete"),
    ("maintain.delete_rederived_rows", "count", "core.maintain", "delta.recompute"),
    ("maintain.delete_changed_masks", "count", "core.maintain", "maintain.delete"),
    ("maintain.delete_useful_ratio", "ratio", "core.maintain", "maintain.delete"),
    ("delta.recompute_ms", "ms", "engine.delta", "delta.recompute"),
)
SHARD_ONLY = (
    ("shard.call_ms", "ms", "shard.coordinator", "shard.skyline"),
    ("shard.merge_ms", "ms", "shard.coordinator", "stage:merge"),
    ("shard.straggler_ms", "ms", "shard.coordinator", "stage:merge"),
    ("shard.worker_compute_ms", "ms", "shard.coordinator", "stage:compute"),
)

PROBE_OPS = ("skyline", "membership")


def _mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return sum(values) / len(values) if values else None


def _dur(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


class Layers:
    """Per-layer figures from one traced run."""

    def __init__(
        self,
        build_spans: List[Dict[str, Any]],
        server_spans: List[Dict[str, Any]],
        events: List[Dict[str, Any]],
        present: Dict[str, bool],
        cube_mb: float,
        top_k: int,
        max_level: int,
    ) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.calls: Dict[str, int] = {}
        self.present = present
        self.cube_mb = cube_mb
        self.top_k = top_k
        self.max_level = max_level
        self._build(build_spans)
        self._server(server_spans)
        self._stages(events)

    def _set(self, name: str, value: Optional[float], calls: int) -> None:
        self.values[name] = value
        self.calls[name] = calls

    # -- the build layers (benchmark process) --------------------------

    def _build(self, spans: List[Dict[str, Any]]) -> None:
        by_id = {span["id"]: span for span in spans}
        own = spanlib.self_times(spans)

        def root(span):
            while span.get("parent") is not None:
                span = by_id[span["parent"]]
            return span

        per_root: Dict[int, Dict[str, List[Dict[str, Any]]]] = defaultdict(lambda: defaultdict(list))
        for span in spans:
            top = root(span)
            if top is not span:
                per_root[top["id"]][span["name"]].append(span)
        fast = [s for s in spans if s["name"] == "build.fast"]
        par = [s for s in spans if s["name"] == "build.par"]

        def per_build(roots, name, value):
            chosen = [per_root[r["id"]][name] for r in roots]
            calls = sum(len(c) for c in chosen)
            return _mean(value(c) for c in chosen) if calls else None, calls

        ms = lambda group: 1e3 * sum(_dur(s) for s in group)  # noqa: E731
        self_ms = lambda group: 1e3 * sum(own[(s["pid"], s["id"])] for s in group)  # noqa: E731
        self._set("dominance.rank_ms", *per_build(fast, "dominance.rank", ms))
        self._set("dominance.pair_codes_ms", *per_build(fast, "dominance.pair_codes", ms))
        self._set("kernels.splus_ms", *per_build(fast, "kernels.splus", ms))
        self._set("kernels.splus_rows", *per_build(
            fast, "kernels.splus", lambda g: sum(s["extra"]["rows"] for s in g)))
        self._set("packed.sweep_self_ms", *per_build(fast, "packed.point_masks", self_ms))
        self._set("hashcube.from_masks_ms", *per_build(fast, "hashcube.from_masks", ms))
        self._set("hashcube.cube_mb", self.cube_mb, len(fast))
        self._set("parallel.run_ms", *per_build(par, "parallel.run", ms))
        self._set("parallel.tasks", *per_build(
            par, "parallel.run", lambda g: sum(s["extra"]["tasks"] for s in g)))
        # Coverage: the layers' self times against the whole build.
        layer_names = ("dominance.rank", "kernels.splus", "dominance.pair_codes",
                       "packed.point_masks", "hashcube.from_masks")
        shares = [
            sum(own[(s["pid"], s["id"])] for name in layer_names
                for s in per_root[r["id"]][name]) / _dur(r)
            for r in fast
        ]
        self.build_ms = _mean(1e3 * _dur(r) for r in fast)
        self.coverage = _mean(shares)

    # -- the server's layers -------------------------------------------

    def _server(self, spans: List[Dict[str, Any]]) -> None:
        named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        for span in spans:
            named[span["name"]].append(span)
        children: Dict[Tuple[int, int], List[Dict[str, Any]]] = defaultdict(list)
        for span in spans:
            if span.get("parent") is not None:
                children[(span["pid"], span["parent"])].append(span)

        def kids(span, name):
            return [c for c in children[(span["pid"], span["id"])] if c["name"] == name]

        def mean_ms(name):
            group = named[name]
            return _mean(1e3 * _dur(s) for s in group), len(group)

        self._set("snapshot.bootstrap_ms", *mean_ms("snapshot.bootstrap"))
        probes = named["hashcube.probe"]
        self._set("hashcube.probe_us", _mean(1e6 * _dur(s) for s in probes), len(probes))

        # Dynamic top-k: the tier's top-k entry point.
        live_topk = named["dynamic.topk"]
        shard_topk = named["shard.topk_dynamic"]
        topk = live_topk or shard_topk
        self._set("dynamic.topk_ms", _mean(1e3 * _dur(s) for s in topk), len(topk))
        rows = [c["extra"]["rows"] for s in live_topk for c in kids(s, "dynamic.skyline")]
        self._topk_rows = rows

        # Write path.
        writes = named["snapshot.insert"] + named["snapshot.delete"]
        publish = [
            1e3 * (_dur(s) - sum(_dur(c) for c in kids(s, "maintain.insert") + kids(s, "maintain.delete")))
            for s in writes
        ]
        self._set("snapshot.publish_ms", _mean(publish), len(publish))
        self._set("hashcube.with_updates_ms", *mean_ms("hashcube.with_updates"))
        self._set("maintain.insert_ms", *mean_ms("maintain.insert"))
        self._set("maintain.delete_ms", *mean_ms("maintain.delete"))
        deletes = named["maintain.delete"]
        rederived = [sum(c["extra"]["rows"] for c in kids(s, "delta.recompute")) for s in deletes]
        changed = [s["extra"]["changed"] for s in deletes]
        self._set("maintain.delete_rederived_rows", _mean(rederived), len(deletes))
        self._set("maintain.delete_changed_masks", _mean(changed), len(deletes))
        self._set("maintain.delete_useful_ratio",
                  sum(changed) / sum(rederived) if sum(rederived) else None, len(deletes))
        self._set("delta.recompute_ms", *mean_ms("delta.recompute"))

        calls = named["shard.skyline"] + named["shard.membership"] + named["shard.topk_dynamic"]
        self._set("shard.call_ms", _mean(1e3 * _dur(s) for s in calls), len(calls))
        self._shard_probe_ms = [
            1e3 * _dur(s) for s in named["shard.membership"]
        ] + [
            1e3 * _dur(s) for s in named["shard.skyline"]
            if bin(s["extra"]["delta"]).count("1") <= self.max_level
        ]
        self._shard_topk_ms = [1e3 * _dur(s) for s in shard_topk]

    # -- request stages from the server's own trace --------------------

    def _stages(self, events: List[Dict[str, Any]]) -> None:
        # The server's trace flattens each event's extras into the record.
        stage: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        for event in events:
            if event.get("outcome") == "ok":
                stage[event["stage"]].append(event)
        batch = stage["batch"]
        self._set("serve.batch_wait_ms", _mean(e.get("duration_ms") or 0.0 for e in batch), len(batch))
        self._set("serve.batch_size", _mean(e.get("batch_size") or 0 for e in batch), len(batch))
        computes = [e for e in stage["compute"]
                    if "shard" not in e and e.get("detail") != "coalesced"]
        probe = [e["duration_ms"] for e in computes if e.get("op") in PROBE_OPS]
        topk = [e["duration_ms"] for e in computes if e.get("op") == "topk_dynamic"]
        # The sharded front emits no compute span of its own for an
        # executed request: its compute is the coordinator call.
        probe = probe or self._shard_probe_ms
        topk = topk or self._shard_topk_ms
        self._set("serve.compute_probe_ms", _mean(probe), len(probe))
        self._set("serve.compute_topk_ms", _mean(topk), len(topk))
        respond = stage["respond"]
        self._set("serve.respond_ms", _mean(e.get("duration_ms") or 0.0 for e in respond), len(respond))

        merges = stage["merge"]
        self._set("shard.merge_ms", _mean(e.get("duration_ms") or 0.0 for e in merges), len(merges))
        gaps = [e["straggler_ms"] - e["fastest_ms"] for e in merges]
        self._set("shard.straggler_ms", _mean(gaps), len(gaps))
        workers = [e["duration_ms"] for e in stage["compute"] if "shard" in e]
        self._set("shard.worker_compute_ms", _mean(workers), len(workers))

        rows = self._topk_rows or [
            e["candidates"] for e in merges if e.get("op") == "topk_dynamic"
        ]
        self._set("dynamic.skyline_rows", _mean(rows), len(rows))
        self._set("dynamic.useful_ratio",
                  _mean(min(self.top_k, r) / r for r in rows if r), len(rows))

    # -- output --------------------------------------------------------

    def table(self, tier_rows) -> List[Tuple[str, str, str, Optional[float], int, bool]]:
        out = []
        for name, unit, module, source in COMMON + tier_rows:
            absent = source is not None and not source.startswith("stage:") \
                and not self.present.get(source, True)
            out.append((name, unit, module, self.values.get(name), self.calls.get(name, 0), absent))
        return out


def read_events(path: str) -> List[Dict[str, Any]]:
    events = []
    try:
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    events.append(json.loads(line))
    except OSError:
        pass
    return events
