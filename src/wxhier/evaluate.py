"""Confusion matrices, accuracy/precision/recall, and comparison tables.

Counting is exact: matrices hold integers, accuracy is trace/total with
one final division, and a precision or recall whose denominator is zero
is reported as ``None`` (undefined), never as 0.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import ManifestEntry
from .errors import EmptyMatrixError, LabelRangeError
from .hierarchy import (
    GROUP_ROLES,
    HierarchicalModel,
    leaf_labels,
    load_image_tensors,
    predict_batch,
    role_targets,
)
from .nn import predict
from .preprocess import normalize
from .taxonomy import (
    COARSE_GROUPS,
    GROUP_INDEX,
    LEAF_CLASSES,
    LEAF_INDEX,
    SAFETY_INDEX,
    SAFETY_LEVELS,
    safety_of,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # (n, n) int64; rows = true class, columns = predicted

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (n, n):
            raise LabelRangeError(f"counts shape {counts.shape} != ({n}, {n})")
        if (counts < 0).any():
            raise LabelRangeError("confusion counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(
    true_labels, predicted_labels, n: int, labels: tuple[str, ...] | None = None
) -> ConfusionMatrix:
    """counts[i][j] = number of samples with true class i predicted as j."""
    true_arr = np.asarray(true_labels, dtype=np.int64)
    pred_arr = np.asarray(predicted_labels, dtype=np.int64)
    if true_arr.shape != pred_arr.shape or true_arr.ndim != 1:
        raise LabelRangeError(
            f"label sequences must be equal-length vectors, got {true_arr.shape} and {pred_arr.shape}"
        )
    for name, arr in (("true", true_arr), ("predicted", pred_arr)):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise LabelRangeError(f"{name} labels must lie in [0, {n})")
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (true_arr, pred_arr), 1)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return ConfusionMatrix(labels, counts)


def merge(a: ConfusionMatrix, b: ConfusionMatrix) -> ConfusionMatrix:
    if a.labels != b.labels:
        raise LabelRangeError(f"cannot merge matrices over {a.labels} and {b.labels}")
    return ConfusionMatrix(a.labels, a.counts + b.counts)


@dataclass(frozen=True)
class MetricsReport:
    labels: tuple[str, ...]
    accuracy: float
    precision: tuple[float | None, ...]  # None = undefined (no predictions)
    recall: tuple[float | None, ...]  # None = undefined (no support)
    support: tuple[int, ...]


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    total = cm.total
    if total == 0:
        raise EmptyMatrixError("metrics need at least one evaluated sample")
    trace = int(np.trace(cm.counts))
    col_sums = cm.counts.sum(axis=0)
    row_sums = cm.counts.sum(axis=1)
    precision = tuple(
        (int(cm.counts[j, j]) / int(col_sums[j])) if col_sums[j] else None for j in range(cm.n)
    )
    recall = tuple(
        (int(cm.counts[i, i]) / int(row_sums[i])) if row_sums[i] else None for i in range(cm.n)
    )
    return MetricsReport(
        labels=cm.labels,
        accuracy=trace / total,
        precision=precision,
        recall=recall,
        support=tuple(int(v) for v in row_sums),
    )


def accuracy_of(cm: ConfusionMatrix) -> float:
    return metrics(cm).accuracy


# ------------------------------------------------------------------ reports

def confusion_to_csv(cm: ConfusionMatrix) -> str:
    """Grid CSV: header = predicted labels, one row per true label."""
    buf = io.StringIO()
    buf.write("true\\pred," + ",".join(cm.labels) + "\n")
    for label, row in zip(cm.labels, cm.counts):
        buf.write(label + "," + ",".join(str(int(v)) for v in row) + "\n")
    return buf.getvalue()


def metrics_to_json(report: MetricsReport) -> str:
    doc = {
        "accuracy": report.accuracy,
        "per_class": {
            label: {
                "precision": report.precision[i],
                "recall": report.recall[i],
                "support": report.support[i],
            }
            for i, label in enumerate(report.labels)
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_percent(value: float) -> str:
    """Accuracy cell in two-decimal percent form, e.g. 0.8038 -> '80.38%'."""
    return f"{value * 100:.2f}%"


def compare_models(rows: list[tuple[str, float]]) -> str:
    """CSV table of model name vs accuracy, in input order."""
    buf = io.StringIO()
    buf.write("model,accuracy,accuracy_percent\n")
    for name, acc in rows:
        buf.write(f"{name},{acc:.6f},{format_percent(acc)}\n")
    return buf.getvalue()


# -------------------------------------------------- hierarchical evaluation

@dataclass(frozen=True)
class HierEvalReport:
    primary: ConfusionMatrix  # 3x3 over coarse groups
    leaf: ConfusionMatrix  # 11x11 end-to-end, hard-routed
    safety: ConfusionMatrix  # 3x3 over safety levels
    routed: dict[str, ConfusionMatrix]  # per group, correctly-routed samples only
    oracle_routed: dict[str, ConfusionMatrix]  # per group, all true-group samples
    primary_accuracy: float = field(init=False)
    e2e_leaf_accuracy: float = field(init=False)
    oracle_leaf_accuracy: float = field(init=False)
    routing_error_rate: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "primary_accuracy", accuracy_of(self.primary))
        object.__setattr__(self, "e2e_leaf_accuracy", accuracy_of(self.leaf))
        oracle_correct = sum(int(np.trace(cm.counts)) for cm in self.oracle_routed.values())
        object.__setattr__(self, "oracle_leaf_accuracy", oracle_correct / self.leaf.total)
        object.__setattr__(self, "routing_error_rate", 1.0 - self.primary_accuracy)


def evaluate_hierarchical(
    model: HierarchicalModel, entries: list[ManifestEntry], root: str = "."
) -> HierEvalReport:
    """Score the full route on a manifest.

    Per-group sub-model matrices come in two flavors: `routed` counts
    only samples the primary model sent to the right sub-model (so it
    compounds routing errors realistically), while `oracle_routed` runs
    each sub-model on all samples of its true group, isolating the
    sub-model from the primary.  End-to-end accuracy can exceed neither
    the oracle accuracy plus the routing error rate (counting bound).
    """
    x = normalize(load_image_tensors(entries, model.input_hw, root), model.stats)
    return evaluate_hierarchical_tensors(model, x, leaf_labels(entries))


def evaluate_hierarchical_tensors(
    model: HierarchicalModel, x: np.ndarray, true_leaves: np.ndarray
) -> HierEvalReport:
    t = model.taxonomy
    preds = predict_batch(model, x)
    true_leaf_names = [LEAF_CLASSES[i] for i in np.asarray(true_leaves)]
    _, true_groups = role_targets("primary", true_leaf_names, t)
    pred_groups = np.array([GROUP_INDEX[p.group] for p in preds])
    primary_cm = confusion(true_groups, pred_groups, len(COARSE_GROUPS), COARSE_GROUPS)

    leaf_cm = confusion(
        np.asarray(true_leaves),
        np.array([LEAF_INDEX[p.leaf] for p in preds]),
        len(LEAF_CLASSES),
        LEAF_CLASSES,
    )

    true_safety = np.array([SAFETY_INDEX[safety_of(name, t)] for name in true_leaf_names])
    pred_safety = np.array([SAFETY_INDEX[p.safety] for p in preds])
    safety_cm = confusion(true_safety, pred_safety, len(SAFETY_LEVELS), SAFETY_LEVELS)

    routed: dict[str, ConfusionMatrix] = {}
    oracle: dict[str, ConfusionMatrix] = {}
    for group, role in GROUP_ROLES.items():
        sub = model.sub_for_group(group)
        rows, labels = role_targets(role, true_leaf_names, t)

        # correctly-routed subset: the leaf prediction came from this sub-model
        hit = pred_groups[rows] == GROUP_INDEX[group]
        pred_pos = [sub.classes.index(preds[r].leaf) for r in rows[hit]]
        routed[group] = confusion(labels[hit], pred_pos, len(sub.classes), sub.classes)

        # oracle routing: run the sub-model on every true-group sample
        pred_pos = np.empty(0, dtype=np.int64)
        if rows.size:
            pred_pos = predict(sub.spec, sub.params, x[rows]).argmax(axis=1)
        oracle[group] = confusion(labels, pred_pos, len(sub.classes), sub.classes)

    return HierEvalReport(primary_cm, leaf_cm, safety_cm, routed, oracle)


def hier_report_json(report: HierEvalReport, bundle_hash: str | None = None) -> str:
    doc = {
        "bundle_hash": bundle_hash,
        "primary_accuracy": report.primary_accuracy,
        "e2e_leaf_accuracy": report.e2e_leaf_accuracy,
        "oracle_leaf_accuracy": report.oracle_leaf_accuracy,
        "routing_error_rate": report.routing_error_rate,
        "sub_model_accuracy": {
            "routed": {
                g: (accuracy_of(cm) if cm.total else None) for g, cm in report.routed.items()
            },
            "oracle_routed": {
                g: (accuracy_of(cm) if cm.total else None)
                for g, cm in report.oracle_routed.items()
            },
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
