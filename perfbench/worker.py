"""One benchmark process: set up a workload, then run timed passes.

Started by ``run.py`` (one at a time, never in parallel).  The process
times its own set-up from the moment the parent started it, runs a first
pass (which pays lazy imports and first-call costs), then further passes
while its deadline allows, each from a fresh ``GramEngine`` and a fresh
checkpoint directory.  After each pass it checks the outputs (untimed)
and records the engine's counters and a digest of the outputs.  The
process's ``peak_rss_mb`` is its peak resident memory at the end of the
first pass, before any check has run.  It prints one JSON object as its
last line of output.

With ``--trace 1`` the passes after the first alternate untraced and
traced, and the traced ones also report per-layer times and counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out", "work")


def _import_repro():
    """Import the library from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def _pass_record(workload, inputs, index, tracer=None) -> dict:
    from checks import CHECKS, digest
    from repro.kernels.engine import GramEngine, set_default_engine

    engine = GramEngine()
    set_default_engine(engine)
    workdir = os.path.join(WORK, f"{os.getpid()}-{index}")
    os.makedirs(workdir)
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        span = tracer.span if tracer is not None else None
        gc.collect()  # every pass starts from the same collected heap
        start = time.perf_counter()
        try:
            outputs = workload.run_pass(inputs, workdir, span)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the process peak so far, read before the checks' own reference
    # fits can raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters = engine.counters_snapshot()
    check_start = time.perf_counter()
    failed = {}
    for name, output in outputs.items():
        if isinstance(output, Exception):
            failed[name] = [f"{type(output).__name__}: {output}"]
            continue
        problems = CHECKS[name](output, inputs)
        if problems:
            failed[name] = problems
    record = {
        "seconds": seconds,
        "peak_rss_mb": peak_rss_mb,
        "check_seconds": time.perf_counter() - check_start,
        "traced": tracer is not None,
        "stages": list(outputs),
        "failed": failed,
        "counters": {
            "pair_evaluations": counters.pair_evaluations,
            "cache_misses": counters.cache_misses,
            "cache_hits": counters.cache_hits,
            "gram_calls": counters.gram_calls,
            "cross_calls": counters.cross_calls,
        },
        "digests": {
            name: digest(output) for name, output in outputs.items()
            if name not in failed
        },
    }
    if tracer is not None:
        from layers import layer_metrics

        record["layers"] = layer_metrics(tracer, seconds, counters, outputs)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() after which no pass starts")
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    modules_at_start = len(sys.modules)
    import_start = time.perf_counter()
    _import_repro()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    for module in workload.modules:
        __import__(module)
    imports = {
        "import.repro_s": time.perf_counter() - import_start,
        "import.modules": len(sys.modules) - modules_at_start,
        "import.scipy_modules": sum(
            1 for name in sys.modules if name.split(".")[0] == "scipy"),
    }
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.make_inputs(args.seed)
    setup_seconds = time.monotonic() - args.started
    setup_layers = None
    if tracer is not None:
        tracer.uninstall()
        setup_layers = (dict(tracer.self_time), dict(tracer.counts))

    passes = [_pass_record(workload, inputs, 0)]
    # later passes (untraced, or alternately untraced and traced) start
    # only when one more pass and its checks are expected to fit; the
    # first pass's checks also pay one-time reference fits, so they do
    # not predict a later pass's
    while len(passes) < args.min_passes or (
        time.monotonic() + passes[-1]["seconds"]
        + min((p["check_seconds"] for p in passes[1:]), default=0.0)
        <= args.deadline
    ):
        traced = tracer is not None and len(passes) % 2 == 0
        passes.append(_pass_record(workload, inputs, len(passes),
                                   tracer if traced else None))

    result = {
        "setup_s": setup_seconds,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "imports": imports,
        "passes": passes,
    }
    if tracer is not None:
        from layers import setup_metrics, summarize_traced

        result["layers"] = summarize_traced(passes, imports, setup_layers)
        result["setup_layers"] = setup_metrics(setup_layers)
        if args.trace_out:
            tracer.chrome_trace(args.trace_out)  # the last traced pass
        for record in passes:
            record.pop("layers", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
