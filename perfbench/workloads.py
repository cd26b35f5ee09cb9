"""The benchmark's three workloads: seeded inputs, one pass, its outputs.

Each workload is a :class:`Workload` with three steps:

- set-up imports ``modules`` and calls ``make_inputs(seed)``, which
  builds the seeded inputs that live outside the flows (both counted in
  ``setup_s``);
- ``run_pass(inputs, workdir)`` runs the flows once and returns their
  outputs, grouped by stage (timed as one pass);
- the stage checks in :mod:`checks` then judge those outputs with
  computations of their own (not timed).

The seed draws every input whose cost does not depend on the draw and
whose check holds on every seed: the floor campaign and Fig. 3, 5 and
12 (paper-verif draws nothing from it).  Seed 0 reproduces the seeds of
``examples/reproduce_all.py``; each step shifts those stage seeds by
``1009``.

The other paper inputs are fixed at the ``reproduce_all.py`` seeds
(:data:`FIXED`).  Fig. 7's program stream (how many tests get selected
sets the Gram work), Fig. 9's layouts and Fig. 10's paths (solver
iterations) and the Fmax chips (SLSQP iterations) set a pass's cost:
over five seeds they made a pass take 4.7-6.6 s (paper-verif) and
5.6-8.5 s (paper-physical), more than the bounds allow.  Fig. 11 is
fixed because its overkill check fails at the ``reproduce_all.py`` seed
and passes on a few others; fixed, it fails in every pass, so the share
of failed operations is the same in every run.  Table 1 is fixed because
its refinement misses full coverage on a few seeds (41 and 47 of 0-59),
which would make that share depend on the seed.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

SEED_STRIDE = 1009


def stage_seed(seed: int, base: int) -> int:
    """The seed of one stage's draw: *base* is its reproduce_all seed."""
    return base + SEED_STRIDE * seed


#: the ``reproduce_all.py`` seeds of the inputs ``--seed`` does not draw
FIXED = {"fig7": 3, "table1": 42, "fig9_layouts": 7, "fig9": 0, "fig10": 11,
         "fig11": 2, "fmax": 20}


@dataclass(frozen=True)
class Workload:
    name: str
    modules: Tuple[str, ...]
    make_inputs: Callable[[int], dict]
    stages: Tuple[Tuple[str, Callable], ...]

    def run_pass(self, inputs: dict, workdir: str, span=None) -> Dict[str, dict]:
        """Run every stage once; *span(name)* wraps each stage when given.

        A stage that raises is recorded as its exception, and the pass
        goes on with the next stage.
        """
        span = span or (lambda name: contextlib.nullcontext())
        outputs = {}
        for name, stage in self.stages:
            with span(f"stage.{name}"):
                try:
                    outputs[name] = stage(inputs, workdir, span)
                except Exception as error:  # counted as a failed operation
                    outputs[name] = error
        return outputs


@contextlib.contextmanager
def recording(module, name: str, calls: list):
    """Record the arguments and result of every call to ``module.name``."""
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(module, name, recorder)
    try:
        yield calls
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------
# paper-verif: Fig. 7 novelty test selection + Table 1 refinement
# ---------------------------------------------------------------------

def _verif_inputs(seed: int) -> dict:
    from repro.verification import Randomizer, TestTemplate

    programs = list(
        Randomizer(random_state=FIXED["fig7"]).stream(TestTemplate(), 600)
    )
    return {"seed": seed, "programs": programs}


def _fig7(inputs, workdir, span) -> dict:
    from repro.verification import (
        NoveltyTestSelector,
        run_selection_experiment,
    )

    models = []

    class RecordingSelector(NoveltyTestSelector):
        def _retrain(self):
            super()._retrain()
            models.append(self._model)

    selector = RecordingSelector(nu=0.05, seed_count=10)
    result = run_selection_experiment(inputs["programs"], selector=selector)
    return {
        "result": result,
        "models": models,
        "nu": selector.nu,
        "kernel": selector.kernel,
        "selected_tokens": selector.selected_tokens,
    }


def _table1(inputs, workdir, span) -> dict:
    from repro.verification import (
        Randomizer,
        TemplateRefinementFlow,
        TestTemplate,
    )

    flow = TemplateRefinementFlow(Randomizer(random_state=FIXED["table1"]))
    stages = flow.run(TestTemplate(), stage_sizes=(300, 80, 40))
    return {"covered": [sorted(stage.covered_points()) for stage in stages]}


# ---------------------------------------------------------------------
# paper-physical: Fig. 3, 5, 9, 10, 11, 12 + the [20] Fmax study
# ---------------------------------------------------------------------

def _physical_inputs(seed: int) -> dict:
    from repro.litho import LayoutGenerator

    rng = np.random.default_rng(stage_seed(seed, 0))
    radii = np.r_[rng.uniform(0, 1, 70), rng.uniform(2, 3, 70)]
    angles = rng.uniform(0, 2 * np.pi, 140)
    fig3 = (
        np.c_[radii * np.cos(angles), radii * np.sin(angles)],
        np.r_[np.zeros(70), np.ones(70)],
    )

    rng = np.random.default_rng(stage_seed(seed, 1))
    X = rng.uniform(-1, 1, size=(250, 2))
    y_clean = (X[:, 0] > 0).astype(int)
    y = np.where(rng.uniform(size=250) < 0.25, 1 - y_clean, y_clean)
    X_val = rng.uniform(-1, 1, size=(250, 2))
    fig5 = (X, y, X_val, (X_val[:, 0] > 0).astype(int))

    generator = LayoutGenerator(random_state=FIXED["fig9_layouts"])
    layouts = (
        generator.generate(rows=192, cols=192),
        generator.generate(rows=192, cols=192),
    )
    return {"seed": seed, "fig3": fig3, "fig5": fig5, "fig9": layouts}


def _fig3(inputs, workdir, span) -> dict:
    from repro.kernels import LinearKernel, PolynomialKernel
    from repro.learn import SVC

    X, y = inputs["fig3"]
    linear = SVC(kernel=LinearKernel(), random_state=0).fit(X, y)
    quad = SVC(
        kernel=PolynomialKernel(degree=2, coef0=0.0), C=10.0, random_state=0,
    ).fit(X, y)
    return {"linear_acc": linear.score(X, y), "quad_acc": quad.score(X, y)}


def _fig5(inputs, workdir, span) -> dict:
    from repro.core import complexity_curve
    from repro.learn import DecisionTreeClassifier

    X, y, X_val, y_val = inputs["fig5"]
    curve = complexity_curve(
        lambda: DecisionTreeClassifier(random_state=0),
        "max_depth", [1, 3, 6, 10, 14], X, y, X_val, y_val,
    )
    return {"overfitting": curve.overfitting_detected(),
            "best": curve.best_value()}


def _fig9(inputs, workdir, span) -> dict:
    from repro.litho import run_variability_experiment

    train, test = inputs["fig9"]
    report, details = run_variability_experiment(
        train, test, stride=8, random_state=FIXED["fig9"],
    )
    return {"auc": report.auc, "recall": report.recall,
            "truth": details["truth"], "scores": details["scores"]}


def _fig10(inputs, workdir, span) -> dict:
    from repro.timing import run_dstc_experiment

    result = run_dstc_experiment(n_paths=300, random_state=FIXED["fig10"])
    return {"rule_features": result.rule_features()}


def _fig11(inputs, workdir, span) -> dict:
    from repro.mfgtest import CustomerReturnStudy

    report = CustomerReturnStudy(random_state=FIXED["fig11"]).run(
        n_train=5000, n_later=5000, n_sister=5000,
        train_defect_rate=0.001, later_defect_rate=0.001,
        sister_defect_rate=0.001,
    )
    populations = (report.training, report.later_batch, report.sister_product)
    return {
        "returns": [p.n_returns for p in populations],
        "flagged": [p.n_returns_flagged for p in populations],
        "overkill": [p.overkill_rate for p in populations],
    }


def _fig12(inputs, workdir, span) -> dict:
    from repro.mfgtest import run_drop_study

    result = run_drop_study(
        n_history=100_000, n_future=80_000,
        future_excursion_rate=1e-4, random_state=stage_seed(inputs["seed"], 1),
    )
    return {"drop": [d.recommended_drop for d in result.decisions],
            "escapes": result.total_escapes()}


def _fmax(inputs, workdir, span) -> dict:
    import repro.mfgtest.fmax as fmax_module
    from repro.learn import SVR

    families = []

    class RecordingStudy(fmax_module.FmaxStudy):
        def families(self, X_train):
            models = super().families(X_train)
            families.extend(models)
            return models

    svr_fits: List[tuple] = []
    scored: List[tuple] = []
    with recording(SVR, "fit", svr_fits), \
            recording(fmax_module, "r2_score", scored):
        study = RecordingStudy(random_state=FIXED["fmax"])
        result = study.run(n_chips=1500, max_train=100)
    svr = dict(families)["SVR"]
    return {
        "rows": result.rows,
        "names": [name for name, _ in families],
        "scored": [(np.asarray(args[0]), np.asarray(args[1]))
                   for args, _ in scored],
        "svr": svr,
        "svr_train": tuple(np.asarray(a, dtype=float)
                           for a in svr_fits[-1][0][1:3]),
    }


# ---------------------------------------------------------------------
# floor-stream: streaming Mahalanobis KDL + GaussianNB over one campaign
# ---------------------------------------------------------------------

FLOOR_BATCHES = 20
FLOOR_BATCH_SIZE = 250


def _floor_inputs(seed: int) -> dict:
    from repro.mfgtest import StreamingTestFloor

    floor = StreamingTestFloor(
        n_batches=FLOOR_BATCHES, batch_size=FLOOR_BATCH_SIZE,
        random_state=stage_seed(seed, 77),
    )
    return {"seed": seed, "floor": floor}


def _floor_kdl(inputs, workdir, span) -> dict:
    """The KDL stream, with GaussianNB folded in batch by batch.

    The naive-Bayes model learns pass/fail from every tested chip of a
    batch inside the loop's judge step, so the detector's write path,
    both read paths and the checkpoint writes alternate in one loop.
    """
    from repro.core import CheckpointStore
    from repro.learn import GaussianNaiveBayes
    from repro.mfgtest import run_streaming_discovery

    floor = inputs["floor"]
    nb = GaussianNaiveBayes()
    nb_batches = []

    def judge(result):
        index = result["batch"]
        dataset = floor.batch(index).dataset
        labels = dataset.pass_mask().astype(int)
        with span("stage.nb_stream"):
            nb.partial_fit(dataset.X, labels, classes=[0, 1])
            predicted = nb.predict(dataset.X)
        nb_batches.append((index, int(np.sum(predicted == labels))))
        return index == len(floor) - 1, f"batch {index}"

    store = CheckpointStore(os.path.join(workdir, "kdl"), allow_pickle=True)
    result = run_streaming_discovery(floor, judge=judge, checkpoint=store)
    return {
        "detector": result.model,
        "records": [
            {key: value for key, value in record.items() if key != "model"}
            for record in result.records
        ],
        "resumed": result.resumed_batches,
        "nb": nb,
        "nb_batches": nb_batches,
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-verif",
            modules=("repro", "repro.verification", "repro.kernels",
                     "repro.learn"),
            make_inputs=_verif_inputs,
            stages=(("fig7", _fig7), ("table1", _table1)),
        ),
        Workload(
            name="paper-physical",
            modules=("repro", "repro.litho", "repro.timing", "repro.mfgtest",
                     "repro.learn", "repro.kernels", "repro.core"),
            make_inputs=_physical_inputs,
            stages=(("fig3", _fig3), ("fig5", _fig5), ("fig9", _fig9),
                    ("fig10", _fig10), ("fig11", _fig11), ("fig12", _fig12),
                    ("fmax", _fmax)),
        ),
        Workload(
            name="floor-stream",
            modules=("repro", "repro.mfgtest", "repro.learn", "repro.core"),
            make_inputs=_floor_inputs,
            stages=(("floor_kdl", _floor_kdl),),
        ),
    )
}
