"""Confusion matrices, accuracy/precision/recall, and comparison tables.

Counting is exact: matrices hold integers, accuracy is trace/total with
one final division, and a precision or recall whose denominator is zero
is reported as ``None`` (undefined), never as 0.

Hierarchical scoring counts two leaf tables, routed and oracle.  A sub-model
only predicts leaves of its own group (acceptance criterion 6), so the
primary matrix is the routed table summed by group, and each group's routed
or oracle matrix is that table's diagonal block over the group.  Safety,
which the cold safety head decides apart from the leaf, is counted alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import ManifestEntry, csv_text
from .errors import EmptyMatrixError, LabelRangeError
from .hierarchy import (
    GROUP_ROLES,
    HierarchicalModel,
    leaf_labels,
    load_standardized,
    predict_batch,
    role_classes,
    role_targets,
)
from .nn import Workspace, predict
from .taxonomy import (
    COARSE_GROUPS,
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
    rows = [(label, *(int(v) for v in row)) for label, row in zip(cm.labels, cm.counts)]
    return csv_text([("true\\pred", *cm.labels), *rows])


def format_percent(value: float) -> str:
    """Accuracy cell in two-decimal percent form, e.g. 0.8038 -> '80.38%'."""
    return f"{value * 100:.2f}%"


def compare_models(rows: list[tuple[str, float]]) -> str:
    """CSV table of model name vs accuracy, in input order."""
    body = [(name, f"{acc:.6f}", format_percent(acc)) for name, acc in rows]
    return csv_text([("model", "accuracy", "accuracy_percent"), *body])


# -------------------------------------------------- hierarchical evaluation

@dataclass(frozen=True)
class HierEvalReport:
    primary: ConfusionMatrix  # 3x3 over coarse groups; `leaf` summed by group
    leaf: ConfusionMatrix  # 11x11 end-to-end, hard-routed
    safety: ConfusionMatrix  # 3x3 over safety levels
    routed: dict[str, ConfusionMatrix]  # correctly-routed samples: a diagonal block of `leaf`
    oracle_routed: dict[str, ConfusionMatrix]  # all true-group samples: oracle table's block

    @property
    def primary_accuracy(self) -> float:
        return accuracy_of(self.primary)

    @property
    def e2e_leaf_accuracy(self) -> float:
        return accuracy_of(self.leaf)

    @property
    def oracle_leaf_accuracy(self) -> float:
        oracle_correct = sum(int(np.trace(cm.counts)) for cm in self.oracle_routed.values())
        return oracle_correct / self.leaf.total

    @property
    def routing_error_rate(self) -> float:
        return 1.0 - self.primary_accuracy


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
    x, _ = load_standardized(entries, model.input_hw, root, model.stats)
    return evaluate_hierarchical_tensors(model, x, leaf_labels(entries))


def evaluate_hierarchical_tensors(
    model: HierarchicalModel, x: np.ndarray, true_leaves: np.ndarray
) -> HierEvalReport:
    t = model.taxonomy
    workspace = Workspace()  # every forward of this call shares its activation buffers
    preds = predict_batch(model, x, workspace)
    pred_leaves = np.array([LEAF_INDEX[p.leaf] for p in preds])
    leaf_cm = confusion(true_leaves, pred_leaves, len(LEAF_CLASSES), LEAF_CLASSES)

    true_leaf_names = [LEAF_CLASSES[i] for i in np.asarray(true_leaves)]
    true_safety = np.array([SAFETY_INDEX[safety_of(name, t)] for name in true_leaf_names])
    pred_safety = np.array([SAFETY_INDEX[p.safety] for p in preds])
    safety_cm = confusion(true_safety, pred_safety, len(SAFETY_LEVELS), SAFETY_LEVELS)

    classes = role_classes(t)
    leaves = {g: [LEAF_INDEX[name] for name in classes[r]] for g, r in GROUP_ROLES.items()}
    oracle_leaves = np.empty_like(pred_leaves)
    for group, role in GROUP_ROLES.items():
        # oracle routing: run the sub-model on every true-group sample
        rows, _ = role_targets(role, true_leaf_names, t)
        if rows.size:
            sub = model.sub_for_group(group)
            probs = predict(sub.spec, sub.params, x[rows], workspace)
            oracle_leaves[rows] = np.take(leaves[group], probs.argmax(axis=1))
    oracle_counts = confusion(true_leaves, oracle_leaves, len(LEAF_CLASSES)).counts

    def block(counts, g, h):  # rows: true leaves of group g; columns: predicted leaves of h
        return counts[np.ix_(leaves[g], leaves[h])]

    primary = [[block(leaf_cm.counts, g, h).sum() for h in COARSE_GROUPS] for g in COARSE_GROUPS]
    routed, oracle = (
        {g: ConfusionMatrix(classes[r], block(counts, g, g)) for g, r in GROUP_ROLES.items()}
        for counts in (leaf_cm.counts, oracle_counts)
    )
    primary_cm = ConfusionMatrix(COARSE_GROUPS, primary)
    return HierEvalReport(primary_cm, leaf_cm, safety_cm, routed, oracle)


def hier_report_json(report: HierEvalReport, bundle_hash: str) -> str:
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
