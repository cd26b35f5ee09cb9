"""Output checks made apart from the program.

Each check recomputes what it judges with numpy/scipy code of its own
(n-gram counting, rank AUC, an RBF Gram, moment recounts) or tests a
property the paper states; none compares against a stored copy of an
earlier run's output.  A stage check returns a list of failure messages;
an empty list means the stage's outputs are correct.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

import numpy as np


# ---------------------------------------------------------------------
# independent recomputations
# ---------------------------------------------------------------------

def numpy_blended_spectrum(samples, max_k: int = 3,
                           decay: float = 0.5) -> np.ndarray:
    """Cosine-normalised blended k-spectrum Gram from n-gram count matrices."""
    vocabulary, flat = np.unique(
        np.concatenate([np.asarray(s, dtype=object).astype(str)
                        for s in samples]),
        return_inverse=True,
    )
    base = len(vocabulary) + 1
    lengths = [len(s) for s in samples]
    starts = np.r_[0, np.cumsum(lengths)[:-1]]
    total = np.zeros((len(samples), len(samples)))
    weights = [decay ** (k - 1) for k in range(1, max_k + 1)]
    for k, weight in zip(range(1, max_k + 1), weights):
        rows, codes = [], []
        for row, (start, length) in enumerate(zip(starts, lengths)):
            ids = flat[start:start + length].astype(np.int64) + 1
            if length < k:
                continue
            code = np.zeros(length - k + 1, dtype=np.int64)
            for offset in range(k):
                code = code * base + ids[offset:length - k + 1 + offset]
            rows.append(np.full(len(code), row))
            codes.append(code)
        _, columns = np.unique(np.concatenate(codes), return_inverse=True)
        counts = np.zeros((len(samples), columns.max() + 1))
        np.add.at(counts, (np.concatenate(rows), columns), 1.0)
        gram = counts @ counts.T
        norms = np.sqrt(np.diag(gram))
        total += weight * gram / np.outer(norms, norms)
    return total / sum(weights)


def rank_auc(truth, scores) -> float:
    """AUC by the Mann-Whitney rank-sum formula (average ranks on ties)."""
    from scipy.stats import rankdata

    truth = np.asarray(truth).astype(bool)
    ranks = rankdata(np.asarray(scores, dtype=float))
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    return float(
        (ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def r2(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    residual = np.sum((y_true - np.asarray(y_pred, dtype=float)) ** 2)
    return float(1.0 - residual / np.sum((y_true - y_true.mean()) ** 2))


def rbf_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    squared = np.sum(X * X, axis=1)
    distances = np.maximum(squared[:, None] + squared[None, :] - 2 * X @ X.T, 0)
    return np.exp(-gamma * distances)


def svr_kkt_residual(X, y, beta, intercept, C, epsilon, gamma) -> float:
    """Largest violation of the epsilon-SVR optimality conditions.

    With ``r = y - f(x)``: ``beta = 0`` needs ``|r| <= eps``; ``0 < beta < C``
    needs ``r = eps``; ``beta = C`` needs ``r >= eps`` (mirrored for
    negative beta).
    """
    r = y - (rbf_gram(X, gamma) @ beta + intercept)
    at_bound = 1e-8 * C
    violation = np.zeros(len(y))
    zero = np.abs(beta) <= 1e-8
    violation[zero] = np.maximum(np.abs(r[zero]) - epsilon, 0.0)
    upper = beta >= C - at_bound
    violation[upper] = np.maximum(epsilon - r[upper], 0.0)
    lower = beta <= -C + at_bound
    violation[lower] = np.maximum(r[lower] + epsilon, 0.0)
    free_pos = ~zero & ~upper & (beta > 0)
    violation[free_pos] = np.abs(r[free_pos] - epsilon)
    free_neg = ~zero & ~lower & (beta < 0)
    violation[free_neg] = np.abs(r[free_neg] + epsilon)
    return float(violation.max())


def mahalanobis_flags(X_seen, X_batch, quantile: float, regularization: float):
    """(certain flags, ambiguous count) recounted from numpy moments."""
    from scipy.stats import chi2

    dof = X_seen.shape[1]
    location = np.mean(X_seen, axis=0)
    scatter = np.cov(X_seen, rowvar=False, ddof=1)
    scale = max(float(np.trace(scatter)) / dof, 1e-12)
    precision = np.linalg.inv(scatter + regularization * scale * np.eye(dof))
    centered = X_batch - location
    distances = np.sum((centered @ precision) * centered, axis=1)
    threshold = float(chi2.ppf(quantile, dof))
    margin = 1e-9 * max(1.0, threshold)
    ambiguous = np.abs(distances - threshold) <= margin
    return int(np.sum((distances > threshold) & ~ambiguous)), int(ambiguous.sum())


def close(actual, expected, tolerance: float = 1e-12) -> bool:
    """Entry-wise relative agreement, scaled by each entry's magnitude."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(np.abs(expected), np.finfo(float).tiny)
    return bool(np.all(np.abs(actual - expected) <= tolerance * scale))


def close_covariance(actual, expected, tolerance: float = 1e-12) -> bool:
    """Covariances agree relative to ``sqrt(var_i * var_j)`` per entry."""
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    return bool(np.all(np.abs(actual - expected) <= tolerance * scale))


# ---------------------------------------------------------------------
# stage checks
# ---------------------------------------------------------------------

def _expect(failures: List[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def check_fig7(out, inputs) -> List[str]:
    failures: List[str] = []
    result = out["result"]
    _expect(failures, result.coverage_match_fraction == 1.0,
            f"fig7 kept {result.coverage_match_fraction:.3f} of coverage")
    sample = out["selected_tokens"][:80]
    reference = numpy_blended_spectrum(sample)
    K = out["kernel"].matrix(sample)
    _expect(failures, np.max(np.abs(K - reference)) <= 1e-12,
            "spectrum Gram differs from the numpy n-gram Gram")
    _expect(failures, np.all(np.abs(np.diag(K) - 1.0) <= 1e-12),
            "spectrum Gram diagonal is not 1")
    _expect(failures, np.array_equal(K, K.T), "spectrum Gram not symmetric")
    _expect(failures, np.linalg.eigvalsh(K).min() >= -1e-9,
            "spectrum Gram is not positive semidefinite")
    _expect(failures, len(out["models"]) > 0, "fig7 never retrained")
    for model in out["models"]:
        alpha = model.alpha_
        upper = 1.0 / (out["nu"] * len(alpha))
        _expect(failures,
                alpha.min() >= 0.0 and alpha.max() <= upper * (1 + 1e-12),
                "one-class SVM dual outside [0, 1/(nu m)]")
        _expect(failures, abs(alpha.sum() - 1.0) <= 1e-9,
                f"one-class SVM duals sum to {alpha.sum()!r}")
    return failures


def check_table1(out, inputs) -> List[str]:
    original, final = out["covered"][0], out["covered"][-1]
    failures: List[str] = []
    _expect(failures, len(final) == 8, f"table1 final covers {len(final)}/8")
    _expect(failures, len(final) > len(original),
            "table1 refinement did not add coverage")
    return failures


def check_fig3(out, inputs) -> List[str]:
    failures: List[str] = []
    _expect(failures, out["quad_acc"] == 1.0,
            f"fig3 <x,z>^2 accuracy {out['quad_acc']:.3f}")
    _expect(failures, out["linear_acc"] < 0.9,
            f"fig3 linear accuracy {out['linear_acc']:.3f} separates")
    return failures


def check_fig5(out, inputs) -> List[str]:
    return [] if out["overfitting"] else ["fig5 overfitting not detected"]


def check_fig9(out, inputs) -> List[str]:
    recomputed = rank_auc(out["truth"], out["scores"])
    if abs(recomputed - out["auc"]) > 1e-9:
        return [f"fig9 AUC {out['auc']!r} but rank formula {recomputed!r}"]
    return []


FIG10_INJECTED = {"n_via45", "n_via56", "wire_M5"}


def check_fig10(out, inputs) -> List[str]:
    features = set(out["rule_features"])
    if not features or not features <= FIG10_INJECTED:
        return [f"fig10 rule names {out['rule_features']}"]
    return []


#: the overkill EXPERIMENTS.md states for every Fig. 11 population
FIG11_OVERKILL = 0.0005


def check_fig11(out, inputs) -> List[str]:
    failures: List[str] = []
    _expect(failures, out["flagged"] == out["returns"],
            f"fig11 flagged {out['flagged']} of {out['returns']} returns")
    _expect(failures, max(out["overkill"]) <= FIG11_OVERKILL,
            "fig11 overkill " + ", ".join(f"{rate:.4%}"
                                          for rate in out["overkill"]))
    return failures


def check_fig12(out, inputs) -> List[str]:
    failures: List[str] = []
    _expect(failures, all(out["drop"]), "fig12 did not recommend the drop")
    _expect(failures, out["escapes"] > 0, "fig12 future has no escapes")
    return failures


def check_fmax(out, inputs) -> List[str]:
    failures: List[str] = []
    rows = out["rows"]
    for (name, reported, _), (y_true, y_pred) in zip(rows, out["scored"]):
        _expect(failures, abs(r2(y_true, y_pred) - reported) <= 1e-9,
                f"fmax {name} R^2 {reported!r} disagrees with recount")
    r2_of = {name: value for name, value, _ in rows}
    _expect(failures, r2_of["SVR"] > r2_of["LSF"],
            f"fmax SVR R^2 {r2_of['SVR']:.4f} <= LSF {r2_of['LSF']:.4f}")
    svr = out["svr"]
    X, y = out["svr_train"]
    beta = np.zeros(len(y))
    beta[svr.support_indices_] = svr.dual_coef_
    _expect(failures, abs(beta.sum()) <= 1e-6 * svr.C,
            f"SVR duals sum to {beta.sum()!r}")
    _expect(failures, np.abs(beta).max() <= svr.C * (1 + 1e-12),
            "SVR dual outside [-C, C]")
    residual = svr_kkt_residual(X, y, beta, svr.intercept_, svr.C,
                                svr.epsilon, svr.kernel_.gamma)
    # half the tube: no point can sit on the wrong side of the tube by
    # more than half its width
    _expect(failures, residual <= svr.epsilon / 2,
            f"SVR KKT residual {residual:.2e}")
    return failures


# The one-shot reference fits cost as much as the stream itself; a
# process computes each once per (floor, batches fed) and reuses it to
# check every later pass.  They are functions of the inputs alone.

@functools.lru_cache(maxsize=2)
def _one_shot_detector(floor, batches, quantile, regularization):
    from repro.mfgtest import StreamingMahalanobisDetector

    fed = np.concatenate([floor.batch(i).dataset.passing().X for i in batches])
    return StreamingMahalanobisDetector(
        threshold_quantile=quantile, regularization=regularization,
    ).fit(fed)


def _labelled(floor, batches):
    datasets = [floor.batch(i).dataset for i in batches]
    return (np.concatenate([d.X for d in datasets]),
            np.concatenate([d.pass_mask().astype(int) for d in datasets]))


@functools.lru_cache(maxsize=2)
def _one_shot_nb(floor, batches, var_smoothing):
    from repro.learn import GaussianNaiveBayes

    return GaussianNaiveBayes(var_smoothing=var_smoothing).fit(
        *_labelled(floor, batches))


def check_floor_kdl(out, inputs) -> List[str]:
    failures: List[str] = []
    floor = inputs["floor"]
    detector = out["detector"]
    records = out["records"]
    _expect(failures, len(records) == len(floor) and out["resumed"] == 0,
            f"floor consumed {len(records)} of {len(floor)} batches")

    fed_batches = tuple(r["batch"] for r in records)
    shipped = [floor.batch(index).dataset.passing().X for index in fed_batches]
    fed = np.concatenate(shipped)
    one_shot = _one_shot_detector(floor, fed_batches, detector.threshold_quantile,
                                  detector.regularization)
    _expect(failures, all(
        np.array_equal(getattr(detector, name), getattr(one_shot, name))
        for name in ("location_", "precision_", "threshold_", "n_samples_")
    ), "streamed detector differs bitwise from one-shot fit")
    moments = detector._moments_
    _expect(failures, close(moments.mean(), np.mean(fed, axis=0)),
            "detector mean disagrees with np.mean")
    _expect(failures, close_covariance(moments.covariance(ddof=1),
                                       np.cov(fed, rowvar=False, ddof=1)),
            "detector covariance disagrees with np.cov")

    seen = []
    for record, batch_X in zip(records, shipped):
        seen.append(batch_X)
        certain, ambiguous = mahalanobis_flags(
            np.concatenate(seen), batch_X, detector.threshold_quantile,
            detector.regularization,
        )
        _expect(failures,
                certain <= record["n_flagged"] <= certain + ambiguous,
                f"batch {record['batch']} flagged {record['n_flagged']}, "
                f"recount {certain}(+{ambiguous})")

    nb = out["nb"]
    nb_batches = tuple(index for index, _ in out["nb_batches"])
    X_all, y_all = _labelled(floor, nb_batches)
    reference = _one_shot_nb(floor, nb_batches, nb.var_smoothing)
    _expect(failures, all(
        np.array_equal(getattr(nb, name), getattr(reference, name))
        for name in ("classes_", "theta_", "var_", "class_prior_")
    ), "streamed naive Bayes differs bitwise from one-shot fit")
    epsilon = nb.var_smoothing * max(float(np.var(X_all, axis=0).max()), 1e-12)
    for index, label in enumerate(nb.classes_):
        members = X_all[y_all == label]
        _expect(failures, close(nb.theta_[index], members.mean(axis=0)),
                f"naive Bayes class {label} mean disagrees with numpy")
        _expect(failures,
                close(nb.var_[index] - epsilon, members.var(axis=0)),
                f"naive Bayes class {label} variance disagrees with numpy")
    return failures


CHECKS: Dict[str, Callable] = {
    "fig7": check_fig7,
    "table1": check_table1,
    "fig3": check_fig3,
    "fig5": check_fig5,
    "fig9": check_fig9,
    "fig10": check_fig10,
    "fig11": check_fig11,
    "fig12": check_fig12,
    "fmax": check_fmax,
    "floor_kdl": check_floor_kdl,
}


def digest(value, hasher=None) -> str:
    """Content hash of a stage's outputs, for pass-to-pass comparison.

    Walks dicts, sequences, arrays and numbers; any other object (fitted
    models, results) contributes its fitted array and number attributes.
    """
    import hashlib

    top = hasher is None
    hasher = hasher or hashlib.blake2b(digest_size=16)
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            hasher.update(str(key).encode())
            digest(value[key], hasher)
    elif isinstance(value, (list, tuple)):
        hasher.update(b"[%d" % len(value))
        for item in value:
            digest(item, hasher)
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            digest(value.tolist(), hasher)
        else:
            hasher.update(value.dtype.str.encode() + str(value.shape).encode())
            hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, int, float, str, np.generic)) or value is None:
        hasher.update(repr(value).encode())
    elif hasattr(value, "__dict__"):
        hasher.update(type(value).__name__.encode())
        fields = {
            name: item for name, item in vars(value).items()
            if isinstance(item, (np.ndarray, bool, int, float, np.generic))
        }
        digest(fields, hasher)
    return hasher.hexdigest() if top else ""
