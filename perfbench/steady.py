"""Steadiness: two interleaved sets of runs per workload, spread and shift.

    python3 perfbench/steady.py --workloads anti-live,indep-shard --runs 10

Set A takes seeds ``--first-seed`` onwards, set B the seeds 1000 above.
Round ``r`` runs every workload once in each set: workloads go forward
on even rounds and reversed on odd ones, and the two sets swap places
likewise, so both sets see the same drift of the host.  Every run is
``run_seconds`` long, as in ``BENCHMARK.json``.

For every metric and set it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) / median``;
for the end-to-end metrics it checks each spread, and the shift of set
B's median from set A's in the metric's worse direction, against the
metric's bound.  Record-only metrics (tier metrics, the probe tail) are
printed without a bound.  It exits 1 when a check fails or the two sets
differ in their share of failed operations.  Used to set the bounds and
kept for re-baselining.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = ("A", "B")
SET_B_OFFSET = 1000


def run_one(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    record_line = next(line for line in lines if line.startswith("record: "))
    with open(os.path.join(ROOT, record_line.split(" ", 1)[1])) as handle:
        result["record"] = json.load(handle)
    return result


def summarise(series: List[float]) -> Tuple[float, float, float, float]:
    med = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="anti-live,indep-shard")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    names = args.workloads.split(",")

    # values[workload][set][metric] -> one value per run
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = defaultdict(
        lambda: {s: defaultdict(list) for s in SETS})
    shares: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: {s: [] for s in SETS})
    for round_ in range(args.runs):
        forward = round_ % 2 == 0
        for name in (names if forward else names[::-1]):
            for set_ in (SETS if forward else SETS[::-1]):
                seed = args.first_seed + round_ + (SET_B_OFFSET if set_ == "B" else 0)
                result = run_one(name, seed, seconds)
                shares[name][set_].append(result["failed"] / result["attempted"])
                for metric, entry in result["record"]["metrics"].items():
                    if entry["value"] is not None:
                        values[name][set_][metric].append(entry["value"])
                print(f"round {round_} {name} set {set_} seed {seed}: "
                      f"{result['record'].get('wall_s', 0):.1f} s", flush=True)

    ok = True
    report = {}
    for name in names:
        same_share = shares[name]["A"] == shares[name]["B"] and len(set(shares[name]["A"])) == 1
        ok &= same_share
        print(f"== {name}: {args.runs} runs a set, failed share "
              f"A {sorted(set(shares[name]['A']))} B {sorted(set(shares[name]['B']))}")
        print(f"{'metric':<22}{'set':>4}{'median':>11}{'q1':>11}{'q3':>11}"
              f"{'spread':>8}{'shift':>8}{'bound':>7}")
        report[name] = {}
        for metric in values[name]["A"]:
            bound, better = bounds.get(metric, (None, None))
            rows = {s: summarise(values[name][s][metric]) for s in SETS}
            worse = rows["B"][0] / rows["A"][0] - 1 if rows["A"][0] else 0.0
            shift = -worse if better == "higher" else worse
            for set_ in SETS:
                med, q1, q3, spread = rows[set_]
                flags = []
                if bound is not None and spread > bound:
                    flags.append("spread over bound")
                shown = ""
                if set_ == "B":
                    shown = f"{shift:>+8.3f}"
                    if bound is not None and shift > bound:
                        flags.append("shift over bound")
                ok &= not flags
                print(f"{metric if set_ == 'A' else '':<22}{set_:>4}{med:>11.4g}{q1:>11.4g}"
                      f"{q3:>11.4g}{spread:>8.3f}{shown:>8}"
                      f"{bound if bound is not None else '-':>7}"
                      f"{'  ' + ', '.join(flags) if flags else ''}")
            report[name][metric] = {
                "bound": bound, "shift": shift,
                **{s: dict(zip(("median", "q1", "q3", "spread"), rows[s]),
                           values=values[name][s][metric]) for s in SETS},
            }
    os.makedirs(os.path.join(HERE, "records"), exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = os.path.join(HERE, "records", f"steady-{stamp}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"steadiness record: {os.path.relpath(path, ROOT)}")
    print("every check holds" if ok else "a check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
