"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steadiness.py

Runs ``BENCHMARK.json``'s command on each of its workloads once per seed
in :data:`SEEDS`, and repeats that as a second set.  For every
end-to-end metric on every workload it prints each set's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) against the metric's bound, and the gap
between the two sets' medians against the bound.  It also compares the
share of failed operations between the sets.  Raw results go to
``perfbench/out/steadiness.json``.  Exits non-zero when a spread or the gap
between the two medians, in either direction, exceeds the metric's
bound, or the failed shares differ.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=180, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def describe(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = [[] for _ in range(SETS)]
        for set_index in range(SETS):
            for seed in SEEDS:
                result = run_once(spec, workload, seed)
                results[workload][set_index].append(result)
                values = {name: round(m["value"], 4)
                          for name, m in result["metrics"].items()}
                print(f"{workload} set {set_index + 1} seed {seed}: {values} "
                      f"failed {result['failed']}/{result['attempted']}",
                      flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as handle:
        json.dump(results, handle, indent=1)

    steady = True
    print(f"\n{'workload':15} {'metric':13} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} {'gap':>7}")
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) > 1 or not all(r["correct"] for s in sets for r in s):
            steady = False
            print(f"{workload}: failed shares {sorted(shares)}, or incorrect")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, runs in enumerate(sets):
                median, q1, q3, spread = describe(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                gap = (medians[-1] - medians[0]) / medians[0]
                if spread > bound or abs(gap) > bound:
                    steady = False
                print(f"{workload:15} {name:13} {set_index + 1:>3} "
                      f"{median:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
                      f"{bound:6.2f} {gap:+7.3f}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
