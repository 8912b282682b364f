"""One workload run: build, set-up, read, write and finish phases.

Every answer is kept with its latency and checked against
:mod:`oracle` after its phase, so checking costs the server nothing.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import oracle
from server import Server, ServerExited, Wire
from workloads import Inputs, Workload, shuffled_cycle, stream

#: Server launches per run; ``setup_s`` is their median.
SETUPS = 6
#: Seconds a server may take to print its readiness line.
READY_TIMEOUT = 120.0
#: Share of ``--seconds`` given to the read phase of a live workload.
READ_SHARE = 0.7

#: Benchmark op names that travel as another wire op.
WIRE_OPS = {
    "adhoc": "skyline", "topk": "topk_dynamic", "live_skyline": "skyline",
    "live_membership": "membership", "final_skyline": "skyline",
}


#: Input of the host-speed loop; the same on every run.
_CALIBRATION = np.random.default_rng(0).random(1 << 20)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Answer:
    op: str
    args: Dict[str, Any]
    result: Any
    version: int
    latency_s: float


@dataclass
class Run:
    workload: Workload
    seed: int
    seconds: float
    inputs: Inputs
    root: str
    work_dir: str
    traced: bool = False
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    cube_mb: float = 0.0
    phase_s: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _cube: Any = None
    _base: Optional[Dict[int, List[int]]] = None

    # -- bookkeeping ---------------------------------------------------

    def attempt(self, op: str) -> None:
        with self._lock:
            self.attempted[op] += 1

    def fail(self, op: str, failure: str) -> None:
        with self._lock:
            self.failed[op] += 1
            self.failures.append((op, failure))

    def mismatch(self, text: str) -> None:
        with self._lock:
            self.mismatches.append(text)

    # -- the phases ----------------------------------------------------

    def dataset_path(self) -> str:
        path = os.path.join(self.work_dir, f"{self.workload.name}-{self.seed}.npy")
        if not os.path.exists(path):
            np.save(path, self.inputs.data)
        return path

    def build_warmup(self) -> None:
        """One checked, untimed materialisation before any timed one.

        The first large materialisation in a process runs up to a third
        slower while the allocator settles.
        """
        from repro.engine import fast_skycube

        self.attempt("build")
        self._cube = fast_skycube(self.inputs.data)
        self.cube_mb = self._cube.store.memory_bytes() / 1e6
        for delta, ids in self.base_skylines().items():
            if sorted(self._cube.skyline(delta)) != ids:
                self.mismatch(f"fast_skycube S_{delta} differs from the oracle")

    def build_round(self, recorder=None) -> None:
        """One timed ``fast_skycube`` and one timed process-executor
        ``MDMC`` materialisation; the first ``MDMC`` cube is checked.

        A fixed numpy loop is timed first (``host_s`` in the record): it
        shows how fast the host ran, apart from the program.
        """
        from repro.engine import fast_skycube
        from repro.templates.mdmc import MDMC

        data = self.inputs.data
        started = time.perf_counter()
        for _ in range(3):
            np.argsort(_CALIBRATION)
        self.samples["host_s"].append(time.perf_counter() - started)
        self.attempt("build")
        with recorder.span("build.fast") if recorder else nullcontext():
            started = time.perf_counter()
            fast_skycube(data)
            self.samples["build_s"].append(time.perf_counter() - started)
        self.attempt("build_par")
        template = MDMC("cpu", executor="process", workers=nproc(), engine="packed")
        with recorder.span("build.par") if recorder else nullcontext():
            started = time.perf_counter()
            run = template.materialise(data)
            self.samples["build_par_s"].append(time.perf_counter() - started)
        if len(self.samples["build_par_s"]) == 1:
            for delta, ids in self.base_skylines().items():
                if sorted(run.skycube.skyline(delta)) != ids:
                    self.mismatch(f"MDMC process S_{delta} differs from the oracle")
            if not run.skycube == self._cube:
                self.mismatch("MDMC process cube differs from fast_skycube")

    def base_skylines(self) -> Dict[int, List[int]]:
        """Oracle skylines of the dataset on every probe subspace."""
        if self._base is None:
            self._base = {
                delta: oracle.skyline(self.inputs.data, delta).tolist()
                for delta in self.inputs.subspaces + self.inputs.adhoc_subspaces
            }
        return self._base

    def serve_argv(self, trace_path: Optional[str]) -> List[str]:
        argv = ["serve", self.dataset_path(), "--port", "0", *self.workload.serve_args]
        if trace_path:
            argv += ["--trace", trace_path]
        if self.traced:
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_serve.py")
            return [sys.executable, script, self.work_dir, *argv]
        return [sys.executable, "-m", "repro", *argv]

    def launch(self, env: Dict[str, str], trace_path: Optional[str], keep: bool) -> Server:
        """Time one server launch to its readiness line; drain it unless ``keep``."""
        self.attempt("setup")
        server = Server(self.serve_argv(trace_path), self.root, env)
        try:
            self.samples["setup_s"].append(server.wait_ready(READY_TIMEOUT))
            if keep:
                with Wire(server.port) as wire:
                    info = wire.call("ping").get("result") or {}
        except ServerExited as error:
            self.fail("setup", f"ServerExited: {error}")
            raise
        except BaseException:
            server.kill()
            raise
        if not keep:
            self._stop(server)
        elif (info.get("n"), info.get("d")) != (self.workload.n, self.workload.d):
            self.mismatch(f"ping reports {info}, expected n={self.workload.n} d={self.workload.d}")
        return server

    def _stop(self, server: Server) -> None:
        self.attempt("drain")
        code, clean = server.stop()
        if not clean:
            self.fail("drain", f"exit {code} without a clean drain")

    def read_phase(self, port: int, seconds: float) -> List[Answer]:
        """Closed loop: each connection replays its own seeded stream."""
        answers: List[Answer] = []
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._reader, args=(port, c, deadline, answers))
            for c in range(self.workload.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        self.samples["read_ops_per_s"].append(len(answers) / elapsed)
        for answer in answers:
            kind = {"skyline": "probe", "membership": "probe"}.get(answer.op, answer.op)
            self.samples[f"{kind}_ms"].append(answer.latency_s * 1e3)
        return answers

    def _reader(self, port: int, connection: int, deadline: float, out: List[Answer]) -> None:
        inputs, rng = self.inputs, stream(self.workload, self.seed, connection)
        # Subspaces are taken in rotation, not drawn: every run then asks
        # each lattice level equally often, whatever the seed.
        turn = Counter({op: connection for op in self.workload.read_cycle})

        def rotate(op: str, subspaces: List[int]) -> int:
            turn[op] += 1
            return int(subspaces[turn[op] % len(subspaces)])

        try:
            with Wire(port) as wire:
                # Whole cycles only: a cycle cut at the deadline would make
                # the op mix, and so reads/s, depend on where the cut fell
                # (one indep-shard top-k is a tenth of the phase).
                while time.perf_counter() < deadline:
                    for op in shuffled_cycle(self.workload.read_cycle, rng):
                        if op == "skyline":
                            args = {"delta": rotate(op, inputs.subspaces)}
                        elif op == "adhoc":
                            args = {"delta": rotate(op, inputs.adhoc_subspaces)}
                        elif op == "membership":
                            args = {"point_id": int(rng.choice(inputs.probe_ids)),
                                    "delta": rotate(op, inputs.subspaces)}
                        else:
                            args = {"q": rng.random(self.workload.d).tolist(),
                                    "k": self.workload.top_k}
                        answer = self._call(wire, op, args)
                        if answer is not None:
                            with self._lock:
                                out.append(answer)
        except (OSError, ValueError):
            pass  # counted against the op by _call; the connection is gone

    def _call(self, wire: Wire, op: str, args: Dict[str, Any]) -> Optional[Answer]:
        self.attempt(op)
        started = time.perf_counter()
        try:
            reply = wire.call(WIRE_OPS.get(op, op), **args)
        except (OSError, ValueError) as error:
            self.fail(op, f"{type(error).__name__}: {error}")
            raise
        latency = time.perf_counter() - started
        if not reply.get("ok"):
            error = reply.get("error") or {}
            self.fail(op, f"{error.get('type', 'Internal')}: {error.get('message', '')}")
            return None
        if reply.get("partial"):
            self.fail(op, f"Partial: {reply['partial']}")
            return None
        return Answer(op, args, reply.get("result"),
                      int(reply.get("snapshot_version") or 0), latency)

    def write_phase(self, port: int, seconds: float, replay: oracle.Replay) -> List[Answer]:
        """One writer (insert, delete) beside one probe-only reader."""
        inputs = self.inputs
        done = threading.Event()
        probes: List[Answer] = []
        rounds = min(len(inputs.inserts), len(inputs.deletes))

        def writer() -> None:
            deadline = time.perf_counter() + seconds
            try:
                with Wire(port) as wire:
                    for i in range(rounds):
                        if time.perf_counter() >= deadline:
                            break
                        row = inputs.inserts[i].tolist()
                        answer = self._call(wire, "insert", {"point": row})
                        if answer is not None:
                            self.samples["insert_ms"].append(answer.latency_s * 1e3)
                            replay.record_insert(answer.version, int(answer.result["point_id"]), row)
                        victim = int(inputs.deletes[i])
                        answer = self._call(wire, "delete", {"point_id": victim})
                        if answer is not None:
                            self.samples["delete_ms"].append(answer.latency_s * 1e3)
                            replay.record_delete(answer.version, victim)
            except (OSError, ValueError):
                pass  # counted against the op by _call; the connection is gone
            finally:
                done.set()

        def reader() -> None:
            rng = stream(self.workload, self.seed, 100)
            try:
                with Wire(port) as wire:
                    while not done.is_set():
                        if rng.random() < 0.5:
                            op, args = "live_skyline", {"delta": int(rng.choice(inputs.live_subspaces))}
                        else:
                            op, args = "live_membership", {
                                "point_id": int(rng.choice(inputs.probe_ids)),
                                "delta": int(rng.choice(inputs.subspaces))}
                        answer = self._call(wire, op, args)
                        if answer is not None:
                            probes.append(answer)
                            self.samples["live_probe_ms"].append(answer.latency_s * 1e3)
            except (OSError, ValueError):
                pass  # counted against the op by _call; the connection is gone

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return probes

    def final_check(self, port: int, replay: oracle.Replay) -> None:
        """The post-write state, subspace by subspace, against the replay."""
        with Wire(port) as wire:
            for delta in self.inputs.subspaces:
                answer = self._call(wire, "final_skyline", {"delta": delta})
                if answer is None:
                    continue
                replay.advance(max(replay.version, answer.version))
                ids, rows = replay.state()
                if sorted(answer.result) != ids[oracle.skyline(rows, delta)].tolist():
                    self.mismatch(f"final S_{delta} differs from the replayed state")
            info = wire.call("ping").get("result") or {}
            if info.get("n") != len(replay.state()[0]):
                self.mismatch(f"final n={info.get('n')}, replay holds {len(replay.state()[0])}")

    # -- checking ------------------------------------------------------

    def check_reads(self, answers: List[Answer]) -> None:
        data, base = self.inputs.data, self.base_skylines()
        members = {delta: set(ids) for delta, ids in base.items()}
        ids = np.arange(len(data))
        for answer in answers:
            args = answer.args
            if answer.op in ("skyline", "adhoc"):
                if sorted(answer.result) != base[args["delta"]]:
                    self.mismatch(f"{answer.op} S_{args['delta']} differs from the oracle")
            elif answer.op == "membership":
                if bool(answer.result) != (args["point_id"] in members[args["delta"]]):
                    self.mismatch(f"membership {args} differs from the oracle")
            elif answer.op == "topk":
                if list(answer.result) != oracle.topk(data, ids, args["q"], args["k"]):
                    self.mismatch(f"topk q={args['q']} differs from the oracle")

    def check_live(self, probes: List[Answer], replay: oracle.Replay) -> None:
        cache: Dict[Tuple[int, int], List[int]] = {}
        for answer in sorted(probes, key=lambda a: a.version):
            replay.advance(answer.version)
            ids, rows = replay.state()
            delta = answer.args["delta"]
            if answer.op == "live_skyline":
                key = (answer.version, delta)
                if key not in cache:
                    cache[key] = ids[oracle.skyline(rows, delta)].tolist()
                if sorted(answer.result) != cache[key]:
                    self.mismatch(f"S_{delta} at v{answer.version} differs from the replay")
            else:
                row = int(np.searchsorted(ids, answer.args["point_id"]))
                if bool(answer.result) != oracle.member(rows, row, delta):
                    self.mismatch(f"membership {answer.args} at v{answer.version} differs")

    # -- one whole run -------------------------------------------------

    def execute(self, env: Dict[str, str], recorder=None, trace_path=None) -> Optional[float]:
        """All phases in order; returns the server's peak RSS in MB.

        This host's speed swings by a third for seconds at a time, so the
        timed work is spread out rather than run back to back: one
        ``fast_skycube`` and one ``MDMC`` before each of the ``SETUPS``
        server launches and one of each after the last server phase (the
        server idles meanwhile).
        """
        with self.phase("oracle"):
            self.base_skylines()
        with self.phase("build"):
            self.build_warmup()
        for index in range(SETUPS):
            with self.phase("build"):
                self.build_round(recorder)
            with self.phase("setup"):
                server = self.launch(env, trace_path, keep=index == SETUPS - 1)
        try:
            read_s = self.seconds * (READ_SHARE if self.workload.live else 1.0)
            with self.phase("read"):
                answers = self.read_phase(server.port, read_s)
            if self.workload.live:
                replay = oracle.Replay(self.inputs.data)
                with self.phase("write"):
                    probes = self.write_phase(server.port, self.seconds - read_s, replay)
                with self.phase("final"):
                    self.final_check(server.port, replay)
            with self.phase("build"):
                self.build_round(recorder)
            rss = server.peak_rss_mb()
        except BaseException:
            server.kill()
            raise
        with self.phase("drain"):
            self._stop(server)
        with self.phase("check"):
            self.check_reads(answers)
            if self.workload.live:
                self.check_live(probes, replay.rewound())
        return rss

    @contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] = self.phase_s.get(name, 0.0) + time.perf_counter() - started


def median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def percentile(values: List[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (nearest rank) or ``None`` when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]
