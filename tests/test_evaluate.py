"""Confusion-matrix arithmetic, metric reports, hierarchical scoring."""

import csv
import io
import json

import numpy as np
import pytest

from wxhier.errors import DegenerateError, EmptyMatrixError, LabelRangeError
from wxhier.evaluate import (
    ConfusionMatrix,
    HierEvalReport,
    accuracy_of,
    compare_models,
    confusion,
    confusion_to_csv,
    evaluate_hierarchical_tensors,
    format_percent,
    hier_report_json,
    metrics,
)


def cm(counts, labels=None):
    counts = np.asarray(counts, dtype=np.int64)
    labels = tuple(labels or [f"c{i}" for i in range(counts.shape[0])])
    return ConfusionMatrix(labels=labels, counts=counts)


# ------------------------------------------------------- exact arithmetic

def test_hand_enumerated_two_class_example():
    # rows true, columns predicted
    m = cm([[1, 1], [0, 1]])
    rep = metrics(m)
    assert rep.accuracy == 2 / 3
    assert rep.precision[0] == 1.0  # 1 of 1 predicted c0 is right
    assert rep.precision[1] == 1 / 2
    assert rep.recall[0] == 1 / 2
    assert rep.recall[1] == 1.0
    assert rep.support == (2, 1)


def test_accuracy_is_trace_over_total():
    m = cm([[5, 2, 0], [1, 7, 1], [0, 0, 4]])
    assert accuracy_of(m) == (5 + 7 + 4) / 20
    assert metrics(m).accuracy == accuracy_of(m)


def test_undefined_columns_are_none_not_zero():
    # nothing predicted as c1 and no true c2: both must be marked undefined
    m = cm([[3, 0, 0], [2, 0, 0], [0, 0, 0]])
    rep = metrics(m)
    assert rep.precision[1] is None
    assert rep.recall[2] is None
    assert rep.precision[0] == 3 / 5


def test_confusion_from_label_arrays():
    true = np.array([0, 0, 1, 2, 2, 2])
    pred = np.array([0, 1, 1, 2, 2, 0])
    m = confusion(true, pred, 3)
    np.testing.assert_array_equal(m.counts, [[1, 1, 0], [0, 1, 0], [1, 0, 2]])
    assert m.total == 6


def test_confusion_rejects_out_of_range():
    with pytest.raises(LabelRangeError):
        confusion(np.array([0, 3]), np.array([0, 0]), 3)
    with pytest.raises(LabelRangeError):
        confusion(np.array([0]), np.array([-1]), 3)
    with pytest.raises(LabelRangeError):
        confusion(np.array([0, 1]), np.array([0]), 3)  # length mismatch


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrixError):
        metrics(cm([[0, 0], [0, 0]]))


# ----------------------------------------------------------------- exports

def test_confusion_csv_layout():
    m = cm([[1, 2], [3, 4]], labels=["x", "y"])
    lines = confusion_to_csv(m).strip().splitlines()
    assert lines[0] == "true\\pred,x,y"
    assert lines[1] == "x,1,2"
    assert lines[2] == "y,3,4"


def test_format_percent():
    assert format_percent(0.8038) == "80.38%"
    assert format_percent(1.0) == "100.00%"
    assert format_percent(0.005) == "0.50%"


def test_compare_models_table():
    table = compare_models([("flat", 0.5), ("hier", 0.8038)])
    lines = table.strip().splitlines()
    assert lines[0] == "model,accuracy,accuracy_percent"
    assert lines[1] == "flat,0.500000,50.00%"
    assert lines[2] == "hier,0.803800,80.38%"


def test_compare_models_names_with_commas_and_quotes_round_trip():
    names = ["a,b", 'say "hi"', "plain"]
    table = compare_models([(name, 0.5) for name in names])
    rows = list(csv.reader(io.StringIO(table)))
    assert [row[0] for row in rows[1:]] == names
    assert {len(row) for row in rows} == {3}


# ------------------------------------------------------- hierarchical eval

@pytest.fixture(scope="module")
def scored_report():
    from wxhier.hierarchy import init_hierarchical
    from wxhier.taxonomy import default_taxonomy

    model = init_hierarchical(default_taxonomy(), input_hw=(10, 10), scale="micro", seed=2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((120, 10, 10, 3)).astype(np.float32)
    true = rng.integers(0, 11, size=120)
    return evaluate_hierarchical_tensors(model, x, true)


def test_report_shapes(scored_report):
    rep = scored_report
    assert rep.primary.counts.shape == (3, 3)
    assert rep.leaf.counts.shape == (11, 11)
    assert rep.safety.counts.shape == (3, 3)
    assert set(rep.routed) == {"Rainy", "Dusty", "Cold"}
    assert set(rep.oracle_routed) == {"Rainy", "Dusty", "Cold"}
    assert rep.leaf.total == 120
    assert rep.primary.total == 120


def test_report_counting_bound(scored_report):
    # end-to-end correctness needs correct routing, so the oracle bound holds
    rep = scored_report
    assert rep.e2e_leaf_accuracy <= rep.oracle_leaf_accuracy + rep.routing_error_rate + 1e-12
    assert 0.0 <= rep.routing_error_rate <= 1.0
    assert rep.primary_accuracy == pytest.approx(1.0 - rep.routing_error_rate, abs=1e-12)


def test_oracle_counts_cover_every_true_group_sample(scored_report):
    rep = scored_report
    for group, m in rep.oracle_routed.items():
        # oracle runs the sub-model on all samples whose true group matches
        assert m.total == int(sum(rep.leaf.counts[i].sum() for i in range(11)
                                  if _group_index_of_leaf(i) == group))


def _group_index_of_leaf(leaf_idx):
    from wxhier.taxonomy import LEAF_CLASSES, default_taxonomy, group_of

    return group_of(LEAF_CLASSES[leaf_idx], default_taxonomy())


def test_hier_report_json(scored_report):
    doc = json.loads(hier_report_json(scored_report, bundle_hash="abc123"))
    assert doc["bundle_hash"] == "abc123"
    assert doc["primary_accuracy"] == scored_report.primary_accuracy
    assert doc["e2e_leaf_accuracy"] == scored_report.e2e_leaf_accuracy
    assert doc["oracle_leaf_accuracy"] == scored_report.oracle_leaf_accuracy
    assert set(doc["sub_model_accuracy"]) == {"routed", "oracle_routed"}
    assert set(doc["sub_model_accuracy"]["oracle_routed"]) == {"Rainy", "Dusty", "Cold"}


def test_oracle_rejects_non_finite_probabilities():
    # every row routes to Rainy, so only the oracle pass runs sub_dusty
    from wxhier.hierarchy import init_hierarchical
    from wxhier.taxonomy import LEAF_CLASSES, default_taxonomy

    model = init_hierarchical(default_taxonomy(), input_hw=(16, 16), seed=1)
    model.primary.params[-2]["b"][:] = [1e3, 0, 0]
    model.sub_dusty.params[-2]["b"][:] = np.inf
    x = np.random.default_rng(0).standard_normal((6, 16, 16, 3)).astype(np.float32)
    true = np.array([LEAF_CLASSES.index("fog_smog")] * 3 + [LEAF_CLASSES.index("rain")] * 3)
    with pytest.raises(DegenerateError):
        evaluate_hierarchical_tensors(model, x, true)
