"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-verif --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout; the library is imported from
its ``src`` directory.  Workloads: ``paper-verif``, ``paper-physical``,
``floor-stream`` (see README.md).

``--trace 0`` (timed run) starts :data:`PROCESSES` worker processes one
after another, each from a fresh interpreter.  Each sets up, runs a first
pass, and then runs later passes from cold caches while its share of the
``--seconds`` budget allows.  It prints the end-to-end metrics:

- ``setup_s``: median over the processes of start-to-inputs-ready time;
- ``first_pass_s``: median over the processes of the first pass;
- ``pass_s``: median of all later passes, pooled over the processes;
- ``peak_rss_mb``: median over the processes of peak resident memory
  at the end of the first pass.

``--trace 1`` (traced run) starts one worker whose later passes alternate
untraced and traced, and prints the per-layer metrics.  It also writes a
Chrome-trace JSON and a per-layer table under ``perfbench/out/``.

Every pass's outputs are checked; a stage whose check fails counts as a
failed operation.  ``correct`` is false when passes of the same seed
disagree on their outputs or their Gram counters (cache hits included).
The last line of standard output is the JSON result; the exit code is
non-zero, with no result printed, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper-verif", "paper-physical", "floor-stream")
#: worker processes per timed run (each pays set-up and a first pass)
PROCESSES = 2
#: seconds after the run starts at which a worker still running is killed
RUN_LIMIT = 170.0
RUN_START = time.monotonic()


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, deadline: float, min_passes: int,
               trace: bool = False) -> dict:
    """Start one worker, wait for it, and return its parsed result."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--deadline", repr(deadline), "--min-passes", str(min_passes),
        "--trace", "1" if trace else "0",
    ]
    if trace:
        command += ["--trace-out",
                    os.path.join(OUT, f"trace-{workload}-{seed}.json")]
    started = time.monotonic()
    process = subprocess.Popen(command + ["--started", repr(started)],
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(RUN_START + RUN_LIMIT - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise WorkerError(f"{workload} worker timed out")
    if process.returncode != 0:
        raise WorkerError(f"{workload} worker exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def operations(workers) -> tuple:
    """(attempted, failed, consistent) over every pass of every worker.

    Consistent: every pass did the same Gram work, cache hits included,
    as the first pass of a fresh process (whose hits can only come from
    sharing inside the pass), and produced the same outputs.
    """
    passes = [p for worker in workers for p in worker["passes"]]
    attempted = sum(len(p["stages"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    reference = passes[0]
    consistent = all(
        p["counters"] == reference["counters"]
        and p["digests"] == reference["digests"]
        for p in passes
    )
    return attempted, failed, consistent


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    workers = []
    for index in range(PROCESSES):
        deadline = start + seconds * (index + 1) / PROCESSES
        later = sum(len(w["passes"]) - 1 for w in workers)
        last = index == PROCESSES - 1
        workers.append(run_worker(workload, seed, deadline,
                                  min_passes=2 if last and not later else 1))
    attempted, failed, consistent = operations(workers)
    later_passes = [p["seconds"] for w in workers for p in w["passes"][1:]]
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "first_pass_s": (
            statistics.median(w["passes"][0]["seconds"] for w in workers), "s"),
        "pass_s": (statistics.median(later_passes), "s"),
        "peak_rss_mb": (
            statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }
    return {
        "correct": consistent, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    sys.path.insert(0, HERE)
    from layers import UNITS, table

    os.makedirs(OUT, exist_ok=True)
    worker = run_worker(workload, seed, time.monotonic() + seconds,
                        min_passes=3, trace=True)
    attempted, failed, consistent = operations([worker])
    layers = worker["layers"]
    pass_s = statistics.median(
        p["seconds"] for p in worker["passes"][1:] if not p["traced"])
    text = table(layers, worker["setup_layers"], pass_s)
    with open(os.path.join(OUT, f"layers-{workload}-{seed}.txt"), "w") as out:
        out.write(f"{workload} seed {seed}: untraced pass_s {pass_s:.4f} s\n")
        out.write(text + "\n")
    print(text, file=sys.stderr)
    return {
        "correct": consistent, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in layers.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = traced_run if args.trace else timed_run
    try:
        result = run(args.workload, args.seed, args.seconds)
    except WorkerError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
