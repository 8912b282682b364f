"""Spans around the program's public calls, recorded from outside it.

A :class:`Recorder` patches each boundary *where its caller looks it
up* (``repro.serve.snapshot.dynamic_topk``, not only its defining
module), records ``(name, start, end, parent)`` per call, keeps the
spans in memory and writes them to jsonl at the end.  A boundary that a
later change renamed or removed is reported absent with zero calls; it
never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    #: ``name`` or ``Class.name`` inside ``module``.
    attr: str
    #: ``extra(args, kwargs, result) -> dict`` of counts for the span.
    extra: Optional[Callable[..., Dict[str, Any]]] = None


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _tasks(args, kwargs, result):
    tasks = args[2] if len(args) > 2 else kwargs.get("tasks", ())
    return {"tasks": len(tasks)}


def _affected(args, kwargs, result):
    affected = args[1] if len(args) > 1 else kwargs["affected"]
    return {"rows": len(affected)}


def _changed(args, kwargs, result):
    return {"changed": len(result.changed)}


def _delta(args, kwargs, result):
    return {"delta": int(args[1] if len(args) > 1 else kwargs["delta"])}


#: Layers of one materialisation, timed in the benchmark's own process.
BUILD_BOUNDARIES = (
    Boundary("dominance.rank", "repro.engine.kernels", "rank_columns"),
    Boundary("dominance.pair_codes", "repro.core.dominance", "PairCoder.codes"),
    Boundary("dominance.pair_codes", "repro.core.dominance", "PairCoder.codes_at"),
    Boundary("kernels.splus", "repro.engine.kernels", "splus_ids_for_engine", _rows),
    Boundary("packed.point_masks", "repro.engine.jit.base", "KernelBackend.point_masks"),
    Boundary("packed.point_masks", "repro.engine.jit.base", "KernelBackend.filtered_point_masks"),
    Boundary("hashcube.from_masks", "repro.core.hashcube", "HashCube.from_masks"),
    Boundary("parallel.run", "repro.engine.parallel", "ParallelExecutor.run", _tasks),
)

#: Layers inside ``serve``, installed by ``traced_serve.py``.
SERVER_BOUNDARIES = (
    Boundary("snapshot.bootstrap", "repro.serve.snapshot", "LiveUpdater.bootstrap"),
    Boundary("snapshot.bootstrap", "repro.shard.coordinator", "ShardCoordinator.start"),
    Boundary("snapshot.insert", "repro.serve.snapshot", "LiveUpdater.insert"),
    Boundary("snapshot.delete", "repro.serve.snapshot", "LiveUpdater.delete"),
    Boundary("maintain.insert", "repro.core.maintain", "SkycubeMaintainer.insert_with_delta"),
    Boundary("maintain.delete", "repro.core.maintain", "SkycubeMaintainer.delete_with_delta", _changed),
    Boundary("delta.recompute", "repro.engine.delta", "recompute_rows", _affected),
    Boundary("hashcube.with_updates", "repro.core.hashcube", "HashCube.with_updates"),
    Boundary("hashcube.probe", "repro.core.hashcube", "HashCube.skyline"),
    Boundary("hashcube.probe", "repro.core.hashcube", "HashCube.contains"),
    Boundary("dynamic.topk", "repro.serve.snapshot", "dynamic_topk"),
    Boundary("dynamic.skyline", "repro.query.dynamic", "fast_skyline", _rows),
    Boundary("shard.skyline", "repro.shard.coordinator", "ShardCoordinator.skyline", _delta),
    Boundary("shard.membership", "repro.shard.coordinator", "ShardCoordinator.membership"),
    Boundary("shard.topk_dynamic", "repro.shard.coordinator", "ShardCoordinator.topk_dynamic"),
)

#: Where the shard tier's workers start: wrapped so a forked worker
#: writes its own spans when it stops.
WORKER_ENTRY = ("repro.shard.coordinator", "shard_worker_main")


class Recorder:
    """In-memory spans of one process; :meth:`dump` writes them out."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.spans: List[Dict[str, Any]] = []
        self.present: Dict[str, bool] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _finish(self, span_id, name, start, parent, extra) -> None:
        record = {
            "id": span_id, "name": name, "start": start,
            "end": time.perf_counter(), "parent": parent, "pid": os.getpid(),
        }
        if extra:
            record["extra"] = extra
        with self._lock:
            self.spans.append(record)

    def wrap(self, fn: Callable, name: str, extra=None) -> Callable:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                # Coroutines interleave on one thread: no parent links.
                span_id, start = self._new_id(), time.perf_counter()
                result = await fn(*args, **kwargs)
                self._finish(span_id, name, start, None,
                             extra(args, kwargs, result) if extra else None)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            self._finish(span_id, name, start, parent,
                         extra(args, kwargs, result) if extra else None)
            return result
        return traced

    def span(self, name: str):
        """Context manager for a span around the benchmark's own call."""
        return _Span(self, name)

    def install(self, boundaries) -> Dict[str, bool]:
        """Patch every boundary that exists; record which were found."""
        for boundary in boundaries:
            found = _patch(boundary.module, boundary.attr,
                           lambda fn, b=boundary: self.wrap(fn, b.span, b.extra))
            self.present[boundary.span] = self.present.get(boundary.span, False) or found
        return self.present

    def install_worker_flush(self) -> bool:
        """Make each forked shard worker start empty and dump on exit."""
        def wrap(fn):
            @functools.wraps(fn)
            def worker_main(*args, **kwargs):
                with self._lock:
                    self.spans = []
                self._local = threading.local()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.dump()
            return worker_main
        return _patch(*WORKER_ENTRY, wrap)

    def dump(self) -> Optional[str]:
        if self.out_dir is None:
            return None
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")
        return path


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder, self.name = recorder, name

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.parent = stack[-1] if stack else None
        self.id = self.recorder._new_id()
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.recorder._stack().pop()
        self.recorder._finish(self.id, self.name, self.start, self.parent, None)


def _patch(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
    try:
        owner: Any = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    except (ImportError, AttributeError, KeyError):
        return False
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    elif callable(raw):
        setattr(owner, name, make(raw))
    else:
        return False
    return True


def load(paths) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in paths:
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: List[Dict[str, Any]]) -> Dict[tuple, float]:
    """Seconds of each span not covered by its direct children."""
    covered: Dict[tuple, float] = {}
    for span in spans:
        if span.get("parent") is not None:
            key = (span["pid"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    return {
        (span["pid"], span["id"]):
            span["end"] - span["start"] - covered.get((span["pid"], span["id"]), 0.0)
        for span in spans
    }
