"""Layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the library's
modules (nothing inside ``src/`` changes) so that each call opens a span
with a parent link.  Per layer it sums *self* time — a span's duration
minus the part covered by its child spans — so nested layers are not
counted twice, and the layer times of one pass add up to the pass time
together with ``layer.other_s`` (time in no wrapped call).

Spans are kept in memory; :meth:`Tracer.chrome_trace` writes the first
:data:`MAX_EVENTS` of them as Chrome-trace JSON (``chrome://tracing`` or
Perfetto).  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

MAX_EVENTS = 50_000


def _rows(args, kwargs, name="X", index=1):
    data = kwargs.get(name, args[index] if len(args) > index else None)
    return len(data) if data is not None else 0


# (span name, "module:Class.method" or "module:function", count hook)
# A count hook gets (args, kwargs, result) and returns {counter: amount}.
TARGETS = [
    ("verification.randomize", "repro.verification.randomizer:Randomizer.generate",
     lambda a, k, r: {"verification.programs": 1}),
    ("verification.simulate",
     "repro.verification.simulator:LoadStoreUnitSimulator.simulate",
     lambda a, k, r: {"verification.simulate_calls": 1}),
    *[("litho.simulate", f"repro.litho.simulator:LithographySimulator.{m}", None)
      for m in ("aerial_image", "printed_image", "variability_map",
                "window_variability", "label_windows",
                "margin_training_labels")],
    *[("litho.features", f"repro.litho.features:{f}", None)
      for f in ("density_histogram", "run_length_histogram", "edge_histogram",
                "smoothed_density_histogram", "clip_histogram_features",
                "histogram_feature_matrix")],
    ("litho.features", "repro.litho.layout:window_grid", None),
    *[("timing.sta", f"repro.timing.timer:StaticTimer.{m}", None)
      for m in ("stage_delay", "path_delay", "report", "critical_paths",
                "slack_report", "worst_negative_slack",
                "total_negative_slack")],
    ("timing.silicon", "repro.timing.silicon:SiliconModel.measure", None),
    ("timing.silicon", "repro.timing.silicon:SiliconModel.measure_all", None),
    ("mfgtest.generate", "repro.mfgtest.testgen:ParametricTestGenerator.generate",
     lambda a, k, r: {"mfgtest.chips": k.get("n_chips", a[1])}),
    ("mfgtest.generate", "repro.mfgtest.costreduction:TestDropGenerator.generate",
     lambda a, k, r: {"mfgtest.chips": k.get("n_chips", a[1])}),
    ("mfgtest.outlier.partial_fit",
     "repro.mfgtest.outlier:StreamingMahalanobisDetector.partial_fit", None),
    *[("mfgtest.outlier.score", f"repro.mfgtest.outlier:{c}.{m}", None)
      for c in ("StreamingMahalanobisDetector", "RobustMahalanobisDetector")
      for m in ("score_samples", "predict", "is_outlier")],
    ("kernels.gram", "repro.kernels.engine:GramEngine.gram", None),
    ("kernels.cross_gram", "repro.kernels.engine:GramEngine.cross_gram", None),
    *[("kernels.spectrum", f"repro.kernels.sequence:{c}.{m}", None)
      for c in ("SpectrumKernel", "BlendedSpectrumKernel")
      for m in ("matrix", "cross_matrix")],
    ("learn.svc.fit", "repro.learn.svm:SVC.fit",
     lambda a, k, r: {"learn.svc.iters": getattr(r, "n_iter_", 0)}),
    ("learn.svr.fit", "repro.learn.svr:SVR.fit", None),
    ("learn.gp.fit", "repro.learn.gaussian_process:GaussianProcessRegressor.fit",
     None),
    ("learn.rules.fit", "repro.learn.rules:CN2SD.fit", None),
    ("learn.rules.fit", "repro.learn.rules:RuleSetClassifier.fit", None),
    ("learn.ocsvm.fit", "repro.learn.one_class_svm:OneClassSVM.fit", None),
    ("learn.ocsvm.decision",
     "repro.learn.one_class_svm:OneClassSVM.decision_function", None),
    ("learn.nb.partial_fit", "repro.learn.naive_bayes:GaussianNaiveBayes.partial_fit",
     lambda a, k, r: {"learn.nb.rows": _rows(a, k)}),
    ("cluster.kmeans.fit", "repro.cluster.kmeans:KMeans.fit", None),
    ("core.streaming.update", "repro.core.streaming:ExactMoments.update",
     lambda a, k, r: {"core.streaming.rows": _rows(a, k)}),
    *[("core.streaming.finalize", f"repro.core.streaming:ExactMoments.{m}", None)
      for m in ("merge", "mean", "variance", "variance_exact", "covariance")],
    ("core.checkpoint.put", "repro.core.resilience:CheckpointStore.put",
     lambda a, k, r: {"core.checkpoint.puts": 1,
                      "core.checkpoint.bytes": os.path.getsize(r)}),
    ("core.validation.curve", "repro.core.validation:complexity_curve", None),
    ("flows.kdl.run", "repro.flows.methodology:KnowledgeDiscoveryLoop.run",
     lambda a, k, r: {"flows.kdl.iterations": len(a[0].history)}),
]


class Tracer:
    """Spans with parent links, per-layer self time, and counters."""

    def __init__(self):
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.stage_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.events: List[dict] = []
        self.dropped = 0

    # -- spans -----------------------------------------------------------
    def span(self, name: str):
        return _Span(self, name)

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else 0
        frame = [name, time.perf_counter(), self._next_id, parent, 0.0, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, span_id, parent, children, stages = self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][4] += duration
        if name.startswith("stage."):
            # a stage's time excludes stages nested inside it
            self.stage_time[name] += duration - stages
            for outer in reversed(self._stack):
                if outer[0].startswith("stage."):
                    outer[5] += duration
                    break
        if len(self.events) < MAX_EVENTS:
            self.events.append({
                "name": name, "ph": "X", "pid": os.getpid(), "tid": 0,
                "ts": start * 1e6, "dur": duration * 1e6,
                "args": {"id": span_id, "parent": parent},
            })
        else:
            self.dropped += 1

    # -- wrapping --------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target; rebinds module-level aliases of functions."""
        for name, target, hook in targets:
            module_name, attribute = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[method] if owner_name else getattr(
                module, method)
            wrapper = self._wrap(name, original, hook)
            self._patch(owner, method, original, wrapper)
            if not owner_name:
                for loaded in list(sys.modules.values()):
                    if (loaded is not module
                            and getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, method, None) is original):
                        self._patch(loaded, method, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name: str, original: Callable,
              hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                for counter, amount in hook(args, kwargs, result).items():
                    tracer.counts[counter] += amount
            return result

        return traced

    # -- output ----------------------------------------------------------
    def chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.events,
                       "otherData": {"dropped_events": self.dropped}}, handle)


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name)

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        return False
