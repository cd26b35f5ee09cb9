"""Per-layer metrics of a traced run.

Span names from :mod:`tracing` map to metric names by a ``_s`` suffix
(self time); ``stage.*`` spans report their own duration less any stage
nested inside them.  A layer the workload does not call reports 0.
"""

from __future__ import annotations

import pickle
import statistics
from typing import Dict, List

#: every per-layer metric, as (name, unit)
PER_LAYER = [
    ("import.repro_s", "s"), ("import.modules", "count"),
    ("import.scipy_modules", "count"),
    ("verification.randomize_s", "s"), ("verification.programs", "count"),
    ("verification.simulate_s", "s"), ("verification.simulate_calls", "count"),
    ("litho.simulate_s", "s"), ("litho.features_s", "s"),
    ("timing.sta_s", "s"), ("timing.silicon_s", "s"),
    ("mfgtest.generate_s", "s"), ("mfgtest.chips", "count"),
    ("mfgtest.outlier.partial_fit_s", "s"), ("mfgtest.outlier.score_s", "s"),
    ("kernels.gram_s", "s"), ("kernels.cross_gram_s", "s"),
    ("kernels.spectrum_s", "s"), ("kernels.gram_calls", "count"),
    ("kernels.cross_calls", "count"), ("kernels.pair_evals", "count"),
    ("kernels.cache_hit_ratio", "ratio"),
    ("learn.svc.fit_s", "s"), ("learn.svc.iters", "count"),
    ("learn.svr.fit_s", "s"), ("learn.gp.fit_s", "s"),
    ("learn.rules.fit_s", "s"), ("learn.ocsvm.fit_s", "s"),
    ("learn.ocsvm.decision_s", "s"), ("learn.nb.partial_fit_s", "s"),
    ("learn.nb.rows", "count"),
    ("cluster.kmeans.fit_s", "s"),
    ("core.streaming.update_s", "s"), ("core.streaming.rows", "count"),
    ("core.streaming.finalize_s", "s"), ("core.streaming.state_bytes", "bytes"),
    ("core.checkpoint.put_s", "s"), ("core.checkpoint.puts", "count"),
    ("core.checkpoint.bytes", "bytes"), ("core.validation.curve_s", "s"),
    ("flows.kdl.run_s", "s"), ("flows.kdl.iterations", "count"),
    ("stage.fig3_s", "s"), ("stage.fig5_s", "s"), ("stage.fig9_s", "s"),
    ("stage.fig10_s", "s"), ("stage.fig11_s", "s"), ("stage.fig12_s", "s"),
    ("stage.fmax_s", "s"), ("stage.fig7_s", "s"), ("stage.table1_s", "s"),
    ("stage.floor_kdl_s", "s"), ("stage.nb_stream_s", "s"),
    ("layer.other_s", "s"), ("trace.overhead_s", "s"),
]
UNITS = dict(PER_LAYER)


def _state_bytes(outputs: dict) -> int:
    """Pickled size of the exact-moment state the floor's models hold."""
    floor = outputs.get("floor_kdl")
    if not isinstance(floor, dict):
        return 0
    return sum(
        len(pickle.dumps(model._moments_))
        for model in (floor["detector"], floor["nb"])
    )


def layer_metrics(tracer, pass_seconds: float, counters,
                  outputs: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    layered = 0.0
    for span, seconds in tracer.self_time.items():
        if not span.startswith("stage."):
            metrics[f"{span}_s"] += seconds
            layered += seconds
    for span, seconds in tracer.stage_time.items():
        metrics[f"{span}_s"] += seconds
    for counter, amount in tracer.counts.items():
        metrics[counter] += amount
    lookups = counters.cache_hits + counters.cache_misses
    metrics.update({
        "kernels.gram_calls": counters.gram_calls,
        "kernels.cross_calls": counters.cross_calls,
        "kernels.pair_evals": counters.pair_evaluations,
        "kernels.cache_hit_ratio": (
            counters.cache_hits / lookups if lookups else 0.0),
        "core.streaming.state_bytes": _state_bytes(outputs),
        "layer.other_s": pass_seconds - layered,
    })
    return metrics


def setup_metrics(setup_layers) -> Dict[str, float]:
    """Layer time and counts the traced set-up spent, by metric name."""
    setup_time, setup_counts = setup_layers
    metrics = {f"{span}_s": seconds for span, seconds in setup_time.items()}
    metrics.update(setup_counts)
    return metrics


def summarize_traced(passes: List[dict], imports: Dict[str, float],
                     setup_layers) -> dict:
    """Median of each layer metric over the traced passes, plus the layer
    time and counts of the traced set-up (input generation), the import
    figures, and the tracing overhead (median traced minus median
    untraced later pass)."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p["seconds"] for p in passes[1:] if not p["traced"]]
    summary = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, _ in PER_LAYER
        if name not in imports and name != "trace.overhead_s"
    }
    for name, value in setup_metrics(setup_layers).items():
        summary[name] += value
    summary.update(imports)
    summary["trace.overhead_s"] = (
        statistics.median(p["seconds"] for p in traced)
        - statistics.median(untraced)
    )
    return summary


def table(metrics: Dict[str, float], setup: Dict[str, float],
          pass_seconds: float) -> str:
    """Per-layer table: value, unit, and for pass times their share of
    the untraced pass (what set-up spent in the layer left out)."""
    lines = [f"{'metric':34} {'value':>14} {'unit':6} {'share':>7}"]
    for name, unit in PER_LAYER:
        value = metrics[name]
        share = (f"{100 * (value - setup.get(name, 0.0)) / pass_seconds:6.1f}%"
                 if unit == "s" and not name.startswith(("import.", "trace."))
                 else "")
        lines.append(f"{name:34} {value:14.6g} {unit:6} {share:>7}")
    return "\n".join(lines)
