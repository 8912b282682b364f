"""The repo's benchmark: build, read and write paths of ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload anti-live --seed 1 --seconds 8 --trace 0

``--workload all`` runs every workload in turn.  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` runs the same
phases with the span wrappers installed and the server under
``serve --trace``, and prints the per-layer table plus the tracing
overhead against an untraced run of the same seed, workload spec and
source files (reused from an earlier record, or run first).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes a record under
``perfbench/records/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDS = os.path.join(HERE, "records")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)

#: (name, unit, samples key, statistic) of every end-to-end metric that
#: all workloads exercise — the metrics of the last-line JSON.
END_TO_END = (
    ("setup_s", "s", "setup_s", "p50"),
    ("build_s", "s", "build_s", "p50"),
    ("build_par_s", "s", "build_par_s", "p50"),
    ("topk_p50_ms", "ms", "topk_ms", "p50"),
    ("peak_rss_mb", "MB", "peak_rss_mb", "value"),
)

#: Printed and recorded on every workload but given no bound: over ten
#: seeds these follow the host's drift past the largest bound the form
#: allows (probe median and reads/s to 0.26 in one set of two, the probe
#: tail to 0.97); see perfbench/README.md, "Bounds".
UNBOUNDED = (
    ("read_ops_per_s", "1/s", "read_ops_per_s", "value"),
    ("probe_p50_ms", "ms", "probe_ms", "p50"),
    ("probe_p95_ms", "ms", "probe_ms", "p95"),
)

#: End-to-end metrics of one tier only (printed and recorded).
TIER_METRICS = {
    "live": (
        ("insert_p50_ms", "ms", "insert_ms", "p50"),
        ("delete_p50_ms", "ms", "delete_ms", "p50"),
        ("live_probe_p99_ms", "ms", "live_probe_ms", "p99"),
    ),
    "shard": (("adhoc_p50_ms", "ms", "adhoc_ms", "p50"),),
}

#: Samples a tail percentile needs: at least ten beyond it.
TAIL_SAMPLES = {"p95": 200, "p99": 1000}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fingerprint(env: Dict[str, str]) -> Dict[str, Any]:
    import numpy

    from harness import nproc

    try:
        probe = subprocess.run(
            [sys.executable, "-m", "repro", "backends", "--json"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=60,
        )
        backends = json.loads(probe.stdout) if probe.returncode == 0 else probe.stderr
    except (OSError, subprocess.TimeoutExpired, ValueError) as error:
        backends = f"{type(error).__name__}: {error}"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "backends": backends,
        "loadavg_start": os.getloadavg(),
    }


def statistic(values: List[float], stat: str) -> Optional[float]:
    from harness import median, percentile

    if stat == "value":
        return values[-1] if values else None
    if stat == "p50":
        return median(values)
    return percentile(values, float(stat[1:]))


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 5
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [min(values), q1, q2, q3, max(values)]


def collect(run, rss: Optional[float], table) -> Dict[str, Dict[str, Any]]:
    run.samples["peak_rss_mb"] = [rss] if rss is not None else []
    metrics = {}
    for name, unit, key, stat in table:
        values = run.samples.get(key, [])
        metrics[name] = {
            "value": statistic(values, stat), "unit": unit, "samples": len(values),
        }
        if stat in TAIL_SAMPLES and len(values) < TAIL_SAMPLES[stat]:
            metrics[name]["note"] = f"{len(values)} samples: under 10 beyond {stat}"
    return metrics


def run_once(workload, seed: int, seconds: float, traced: bool, env) -> Dict[str, Any]:
    """One pass of every phase; returns the per-run record."""
    from harness import Run
    from workloads import make_inputs

    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        inputs = make_inputs(workload, seed)
        run = Run(workload, seed, seconds, inputs, ROOT, work_dir, traced=traced)
        recorder, trace_path = None, None
        if traced:
            from spans import BUILD_BOUNDARIES, Recorder

            recorder = Recorder(work_dir)
            recorder.install(BUILD_BOUNDARIES)
            trace_path = os.path.join(work_dir, "serve-trace.jsonl")
        error = None
        rss = None
        try:
            rss = run.execute(env, recorder, trace_path)
        except Exception as caught:  # any phase: record it, report the run
            error = f"{type(caught).__name__}: {caught}"
            run.fail("run", error)
        metrics = collect(run, rss, END_TO_END + UNBOUNDED)
        metrics.update(collect(run, rss, TIER_METRICS["live" if workload.live else "shard"]))
        record: Dict[str, Any] = {
            "workload": workload_spec(workload, inputs),
            "seed": seed, "seconds": seconds, "trace": int(traced),
            "metrics": metrics,
            "ops": {
                op: {"attempted": run.attempted[op], "failed": run.failed[op]}
                for op in sorted(run.attempted)
            },
            "failures": [{"op": op, "class": text.split(":")[0], "detail": text}
                         for op, text in run.failures],
            "mismatches": run.mismatches,
            "error": error,
            "phase_s": run.phase_s,
            "build_samples": {key: run.samples[key]
                              for key in ("host_s", "build_s", "build_par_s", "setup_s")},
            "distributions": {
                key: dict(zip(("min", "q1", "median", "q3", "max"), quartiles(values)))
                for key, values in run.samples.items() if values
            },
        }
        if traced and error is None:
            record["layers"] = trace_layers(run, recorder, trace_path, work_dir)
        return record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def workload_spec(workload, inputs) -> Dict[str, Any]:
    """The workload as a record holds it (JSON types, so records compare)."""
    spec = dict(asdict(workload), subspaces=inputs.subspaces,
                adhoc_subspaces=inputs.adhoc_subspaces)
    return json.loads(json.dumps(spec))


def trace_layers(run, recorder, trace_path, work_dir) -> Dict[str, Any]:
    from layers import LIVE_ONLY, SHARD_ONLY, Layers, read_events
    from spans import load

    present = dict(recorder.present)
    try:
        with open(os.path.join(work_dir, "present.json")) as handle:
            present.update(json.load(handle))
    except OSError:
        pass
    server_spans = load(glob.glob(os.path.join(work_dir, "spans-*.jsonl")))
    own = os.getpid()
    server_spans = [s for s in server_spans if s["pid"] != own]
    os.makedirs(RECORDS, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    spans_path = os.path.join(RECORDS, f"{stamp}-{run.workload.name}-s{run.seed}-spans.jsonl")
    with open(spans_path, "w") as handle:
        for span in recorder.spans + server_spans:
            handle.write(json.dumps(span) + "\n")
    layers = Layers(recorder.spans, server_spans, read_events(trace_path), present,
                    run.cube_mb, run.workload.top_k, run.workload.materialised_level)
    tier = LIVE_ONLY if run.workload.live else SHARD_ONLY
    return {
        "table": [
            {"name": name, "unit": unit, "module": module, "value": value,
             "calls": calls, "absent": absent}
            for name, unit, module, value, calls, absent in layers.table(tier)
        ],
        "build_ms": layers.build_ms,
        "build_layer_coverage": layers.coverage,
        "spans": os.path.relpath(spans_path, ROOT),
    }


def save(record: Dict[str, Any]) -> str:
    os.makedirs(RECORDS, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        RECORDS,
        f"{stamp}-{record['workload']['name']}-s{record['seed']}-t{record['trace']}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's source files.

    A checkout need not be a git repository, so a record names the code
    it measured by content rather than by commit.
    """
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(glob.glob(os.path.join(base, "**", "*.py"), recursive=True)):
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read() + b"\0")
    return digest.hexdigest()


def latest_untraced(spec: Dict[str, Any], seed: int, seconds: float,
                    source: str) -> Optional[Dict[str, Any]]:
    """The newest clean untraced record of the same code, spec, seed and length."""
    pattern = os.path.join(RECORDS, f"*-{spec['name']}-s{seed}-t0.json")
    for path in sorted(glob.glob(pattern), reverse=True):
        with open(path) as handle:
            record = json.load(handle)
        if (record.get("source") == source and record.get("workload") == spec
                and record.get("seconds") == seconds and not record.get("error")):
            return record
    return None


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def report(record: Dict[str, Any], untraced: Optional[Dict[str, Any]]) -> None:
    name = record["workload"]["name"]
    print(f"== {name} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print(f"{'metric':<24}{'value':>12}  {'unit':<6}{'samples':>8}")
    for metric, entry in record["metrics"].items():
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"{metric:<24}{fmt(entry['value']):>12}  {entry['unit']:<6}"
              f"{entry['samples']:>8}{note}")
    print(f"{'op':<24}{'attempted':>12}{'failed':>8}")
    for op, entry in record["ops"].items():
        print(f"{op:<24}{entry['attempted']:>12}{entry['failed']:>8}")
    for failure in record["failures"][:10]:
        print(f"  failed {failure['op']}: {failure['detail'][:160]}")
    for mismatch in record["mismatches"][:10]:
        print(f"  MISMATCH {mismatch}")
    layers = record.get("layers")
    if layers:
        print(f"{'layer metric':<34}{'value':>12}  {'unit':<6}{'calls':>7}  module")
        for row in layers["table"]:
            value = "absent" if row["absent"] else fmt(row["value"])
            print(f"{row['name']:<34}{value:>12}  {row['unit']:<6}{row['calls']:>7}  {row['module']}")
        print(f"build layers' self time covers {fmt(100 * (layers['build_layer_coverage'] or 0))}% "
              f"of the traced fast_skycube ({fmt(layers['build_ms'])} ms)")
        if untraced is not None:
            print("tracing overhead (traced vs untraced, same seed):")
            for metric, entry in record["metrics"].items():
                base = untraced["metrics"].get(metric, {}).get("value")
                if entry["value"] is not None and base:
                    print(f"  {metric:<22}{fmt(base):>10} -> {fmt(entry['value']):>10} "
                          f"({100 * (entry['value'] / base - 1):+.1f}%)")


def summary(records: List[Dict[str, Any]], traced: bool, prefix: bool) -> Dict[str, Any]:
    from layers import COMMON

    correct = all(not r["mismatches"] and not r["error"] for r in records)
    attempted = sum(e["attempted"] for r in records for e in r["ops"].values())
    failed = sum(e["failed"] for r in records for e in r["ops"].values())
    metrics: Dict[str, Any] = {}
    for record in records:
        label = f"{record['workload']['name']}:" if prefix else ""
        if traced:
            # An absent boundary reads 0; a run that broke off reads None.
            rows = {row["name"]: row["value"] or 0.0
                    for row in (record.get("layers") or {}).get("table", [])}
            for name, unit, _, _ in COMMON:
                metrics[label + name] = {"value": rows.get(name), "unit": unit}
        else:
            for name, unit, _, _ in END_TO_END:
                metrics[label + name] = {"value": record["metrics"][name]["value"], "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse, run, and on every way out stop each process the run started."""
    from server import adopt_orphans, end_descendants

    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run_workloads(argv)
    finally:
        end_descendants()


def run_workloads(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail_setup(f"no program to measure: {SRC}/repro is missing")
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        fail_setup(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    sys.path.insert(0, SRC)
    env = {**os.environ, "PYTHONPATH": SRC}

    host = fingerprint(env)
    source = source_digest()
    records = []
    for name in names:
        workload = WORKLOADS[name]
        untraced = None
        if args.trace:
            from workloads import make_inputs

            spec = workload_spec(workload, make_inputs(workload, args.seed))
            untraced = latest_untraced(spec, args.seed, args.seconds, source)
            if untraced is None:
                untraced = run_once(workload, args.seed, args.seconds, False, env)
                untraced.update(host=host, source=source)
                save(untraced)
        started = time.perf_counter()
        record = run_once(workload, args.seed, args.seconds, bool(args.trace), env)
        record["wall_s"] = time.perf_counter() - started
        record.update(host=dict(host, loadavg_end=os.getloadavg()), source=source)
        report(record, untraced)
        print(f"record: {os.path.relpath(save(record), ROOT)}")
        records.append(record)

    result = summary(records, bool(args.trace), prefix=len(records) > 1)
    print(json.dumps(result))
    ok = result["correct"] and not result["failed"] and all(
        entry["value"] is not None for entry in result["metrics"].values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
