"""Launching ``python -m repro serve`` and talking to it over its NDJSON wire.

The client is the benchmark's own (one socket, one request in flight,
like every caller of the program's blocking client), so a change to the
program's client cannot change what is measured.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import signal
import socket
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

READY = re.compile(r"listening on [\d.]+:(\d+)")
DRAINED = "drained, bye"


class ServerExited(RuntimeError):
    pass


class Wire:
    """A blocking NDJSON connection; :meth:`call` returns the reply dict."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next = 0

    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        self._next += 1
        payload = {"id": self._next, "op": op}
        payload.update({k: v for k, v in params.items() if v is not None})
        self._file.write((json.dumps(payload) + "\n").encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if reply.get("id") != self._next:
            raise ConnectionError(f"reply id {reply.get('id')} for request {self._next}")
        return reply

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Wire":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Server:
    """One server process: started, waited for, measured, drained."""

    def __init__(self, argv: Sequence[str], cwd: str, env: Dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.lines: List[str] = []
        self.port = 0
        self.setup_s = 0.0
        self._reader: Optional[threading.Thread] = None

    def wait_ready(self, timeout: float) -> float:
        """Block until the readiness line; returns launch-to-ready seconds."""
        deadline = self.started + timeout
        stdout = self.process.stdout
        assert stdout is not None
        while time.perf_counter() < deadline:
            line = stdout.readline()
            if not line:
                raise ServerExited(
                    f"server exited with {self.process.wait()} before ready: "
                    + "".join(self.lines[-20:])
                )
            self.lines.append(line)
            match = READY.search(line)
            if match:
                self.setup_s = time.perf_counter() - self.started
                self.port = int(match.group(1))
                self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
                self._reader.start()
                return self.setup_s
        self.kill()
        raise ServerExited(f"no readiness line within {timeout:.0f} s")

    def _drain_stdout(self) -> None:
        stdout = self.process.stdout
        assert stdout is not None
        for line in stdout:
            self.lines.append(line)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server process and its descendants."""
        total_kb = 0
        for pid in [self.process.pid] + descendants(self.process.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue  # exited between listing and reading
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> Tuple[int, bool]:
        """SIGTERM and wait; returns ``(exit code, drained cleanly)``."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -9, False
        if self._reader is not None:
            self._reader.join(timeout=10)
        drained = any(DRAINED in line for line in self.lines)
        return code, code == 0 and drained

    def kill(self) -> None:
        for pid in descendants(self.process.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A server's ``multiprocessing`` resource tracker outlives the server by
    a moment; adopted rather than left to init, :func:`end_descendants`
    can still find it and wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_descendants(grace: float = 10.0) -> None:
    """Stop every process below this one and wait until each has ended.

    The resource tracker that a process-executor ``MDMC`` starts in this
    process is stopped the way ``multiprocessing`` stops it; what is left
    gets ``grace`` seconds to exit by itself, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    own = os.getpid()
    deadline = time.monotonic() + grace
    while True:
        left = descendants(own)
        if not left:
            return
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)  # reaps it if it is our exited child
            except ChildProcessError:
                pass
        if time.monotonic() > deadline + grace:
            return  # unkillable (uninterruptible sleep): nothing more to do
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.05)


def descendants(root: int) -> List[int]:
    """Every live process below ``root``, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            out.append(child)
            frontier.append(child)
    return out
