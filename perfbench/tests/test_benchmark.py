"""Tests of the benchmark itself: pass independence, tracer, checks.

    python3 -m pytest perfbench/tests -q

The pass-independence tests start real worker processes (about 100 s).
"""

import json
import os
import time

import numpy as np
import pytest

import run
from checks import numpy_blended_spectrum, rank_auc, svr_kkt_residual
from layers import PER_LAYER
from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(run.HERE)
#: stages that fail their check in every pass, because of the program:
#: Fig. 11 flags more than 0.05% of good parts (see CHANGES.md)
FAILING = {"paper-physical": {"fig11"}}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_passes_are_independent(workload):
    """Every pass, in either of two processes, does the same Gram work as
    a fresh process's first pass, produces the same checked outputs and
    fails the same checks."""
    workers = [run.run_worker(workload, seed=0, deadline=time.monotonic(),
                              min_passes=2) for _ in range(2)]
    passes = [p for worker in workers for p in worker["passes"]]
    assert len(passes) == 4
    first = passes[0]
    # the Fmax GP reuses the SVR's training Gram (same RBF kernel, same
    # chips): one hit inside every paper-physical pass, none elsewhere
    assert first["counters"]["cache_hits"] == (
        1 if workload == "paper-physical" else 0)
    failing = FAILING.get(workload, set())
    for record in passes:
        assert set(record["failed"]) == failing
        assert record["failed"] == first["failed"]
        assert record["counters"] == first["counters"]
        assert record["digests"] == first["digests"]
    attempted, failed, consistent = run.operations(workers)
    assert (attempted, failed, consistent) == (
        4 * len(WORKLOADS[workload].stages), 4 * len(failing), True)


def test_fresh_engine_is_what_keeps_passes_cold():
    """The counters the passes compare do see warm state: refitting on a
    kept engine hits the cache, on a fresh one it does not."""
    from repro.kernels import BlendedSpectrumKernel
    from repro.kernels.engine import GramEngine, set_default_engine
    from repro.learn import OneClassSVM
    from repro.verification import Randomizer, TestTemplate

    programs = [p.tokens() for p in
                Randomizer(random_state=0).stream(TestTemplate(), 30)]
    kept = GramEngine()
    previous = set_default_engine(kept)
    try:
        for _ in range(2):
            OneClassSVM(kernel=BlendedSpectrumKernel(), nu=0.1).fit(programs)
        assert kept.counters.cache_hits > 0
        fresh = GramEngine()
        set_default_engine(fresh)
        OneClassSVM(kernel=BlendedSpectrumKernel(), nu=0.1).fit(programs)
        assert fresh.counters.cache_hits == 0
    finally:
        set_default_engine(previous)


def test_tracer_counts_self_time_once():
    tracer = Tracer()
    with tracer.span("stage.outer"):
        with tracer.span("kernels.gram"):
            with tracer.span("kernels.spectrum"):
                time.sleep(0.001)
        with tracer.span("stage.inner"):
            time.sleep(0.001)
    duration = {e["name"]: e["dur"] / 1e6 for e in tracer.events}
    parent = {e["name"]: e["args"]["parent"] for e in tracer.events}
    ids = {e["name"]: e["args"]["id"] for e in tracer.events}
    assert parent["kernels.spectrum"] == ids["kernels.gram"]
    assert parent["stage.inner"] == ids["stage.outer"]
    assert parent["stage.outer"] == 0
    approx = lambda value: pytest.approx(value, rel=1e-6, abs=1e-9)
    assert tracer.self_time["kernels.gram"] == approx(
        duration["kernels.gram"] - duration["kernels.spectrum"])
    # self times partition the outermost span
    assert sum(tracer.self_time.values()) == approx(duration["stage.outer"])
    # a stage excludes the stage nested in it, but not other layers
    assert tracer.stage_time["stage.outer"] == approx(
        duration["stage.outer"] - duration["stage.inner"])
    assert tracer.stage_time["stage.inner"] == approx(duration["stage.inner"])


def test_tracer_wraps_and_restores_library_functions():
    import repro.core
    import repro.core.validation as validation

    original = validation.complexity_curve
    tracer = Tracer()
    tracer.install()
    try:
        assert validation.complexity_curve is not original
        assert repro.core.complexity_curve is validation.complexity_curve
    finally:
        tracer.uninstall()
    assert validation.complexity_curve is original
    assert repro.core.complexity_curve is original


def test_numpy_spectrum_gram_matches_library():
    from repro.kernels import BlendedSpectrumKernel

    rng = np.random.default_rng(0)
    tokens = ["ld", "st", "add", "br", "nop"]
    samples = [list(rng.choice(tokens, size=rng.integers(3, 12)))
               for _ in range(15)]
    K = BlendedSpectrumKernel(max_k=3).matrix(samples)
    assert np.max(np.abs(K - numpy_blended_spectrum(samples))) <= 1e-12


def test_rank_auc_matches_library_auc():
    from repro.core.metrics import roc_auc

    rng = np.random.default_rng(1)
    truth = rng.integers(0, 2, size=200)
    scores = np.round(rng.normal(size=200) + truth, 1)  # with ties
    assert rank_auc(truth, scores) == pytest.approx(roc_auc(truth, scores),
                                                    abs=1e-12)


def test_svr_kkt_residual_sees_a_wrong_solution():
    from repro.kernels import RBFKernel
    from repro.learn import SVR

    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=30)
    svr = SVR(kernel=RBFKernel(0.5), C=5.0, epsilon=0.05).fit(X, y)
    beta = np.zeros(30)
    beta[svr.support_indices_] = svr.dual_coef_
    args = (X, y, beta, svr.intercept_, svr.C, svr.epsilon, 0.5)
    assert svr_kkt_residual(*args) <= svr.epsilon / 2
    shifted = (X, y, beta, svr.intercept_ + 0.2, svr.C, svr.epsilon, 0.5)
    assert svr_kkt_residual(*shifted) >= 0.1


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "first_pass_s", "pass_s", "peak_rss_mb"}
