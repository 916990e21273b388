import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radiobarrier.errors import InputDataError, TrainingError
from radiobarrier.learn import (
    MODEL_FORMAT,
    MODEL_VERSION,
    KnnClassifier,
    LengthThresholdClassifier,
    SvmClassifier,
    cross_validate,
    evaluate_predictions,
    format_percent,
    load_model,
    mean_std,
    save_model,
    stratified_folds,
    train_test_split,
)

from test_cli import _mutate_bytes


# -- k-NN -----------------------------------------------------------------------

def test_knn_nearest_point():
    model = KnnClassifier(k=1).fit(np.array([[0.0], [10.0]]), np.array(["A", "B"]))
    assert model.predict(np.array([[1.0]]))[0] == "A"


def test_knn_degenerate_k_equals_n():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
    y = np.array(["A", "A", "A", "B", "B"])
    model = KnnClassifier(k=5).fit(X, y)
    # with k = n every query sees the whole set: majority class wins anywhere
    for q in (-100.0, 0.0, 10.5, 500.0):
        assert model.predict(np.array([[q]]))[0] == "A"


def brute_force_knn(X, y, k, query):
    """Independent oracle: full distance scan with the same tie rules."""
    mean = X.mean(axis=0)
    std = np.where(X.std(axis=0) == 0, 1.0, X.std(axis=0))
    Xs = (X - mean) / std
    q = (query - mean) / std
    dists = [math.dist(row, q) for row in Xs]
    order = sorted(range(len(X)), key=lambda i: dists[i])[:k]
    votes = Counter(y[i] for i in order)
    best = max(votes.values())
    tied = sorted(lab for lab, c in votes.items() if c == best)
    if len(tied) > 1:
        means = {lab: np.mean([dists[i] for i in order if y[i] == lab]) for lab in tied}
        lo = min(means.values())
        tied = sorted(lab for lab in tied if means[lab] == lo)
    if len(tied) > 1:
        counts = {lab: int((y == lab).sum()) for lab in tied}
        hi = max(counts.values())
        tied = sorted(lab for lab in tied if counts[lab] == hi)
    return tied[0]


def test_knn_matches_brute_force_oracle():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [5.0, 5.0], [5.5, 4.5]])
    y = np.array(["A", "A", "B", "B", "B"])
    model = KnnClassifier(k=3).fit(X, y)
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.uniform(-1.0, 7.0, size=2)
        assert model.predict(q[None])[0] == brute_force_knn(X, y, 3, q)


def test_knn_k1_self_prediction_is_perfect():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = np.array(["A", "B"] * 15)
    model = KnnClassifier(k=1).fit(X, y)
    assert all(model.predict(row[None])[0] == lab for row, lab in zip(X, y))


def test_knn_k_larger_than_n_rejected():
    with pytest.raises(TrainingError):
        KnnClassifier(k=3).fit(np.array([[0.0], [1.0]]), np.array(["A", "B"]))


def test_knn_dimension_mismatch():
    model = KnnClassifier(k=1).fit(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array(["A", "B"]))
    with pytest.raises(InputDataError, match=r"query has \(3,\) features, model expects 2"):
        model.predict(np.array([[1.0, 2.0, 3.0]]))


def test_knn_nan_query_with_tied_labels_names_the_row():
    # both queries' nearest two are bus and car, a tie.  An inf query's mean distances
    # are equal, so the larger class wins; a NaN query's are NaN and order nothing
    model = KnnClassifier(k=2).fit(np.zeros((4, 1)), np.array(["bus", "car", "car", "car"]))
    assert model.predict(np.array([[1.0], [np.inf]])).tolist() == ["car", "car"]
    with pytest.raises(InputDataError, match=r"^query row 2 holds NaN"):
        model.predict(np.array([[1.0], [np.inf], [np.nan]]))


# -- SVM -----------------------------------------------------------------------

def blobs(n=40, seed=0, separation=6.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n // 2, 2)) + [0.0, 0.0]
    b = rng.normal(size=(n // 2, 2)) + [separation, separation]
    X = np.vstack([a, b])
    y = np.array(["neg"] * (n // 2) + ["pos"] * (n // 2))
    return X, y


def test_svm_separable_blobs():
    X, y = blobs()
    model = SvmClassifier(kernel="linear", C=1.0).fit(X, y)
    assert (model.predict(X) == y).all()
    assert model.max_kkt_residual <= model.tol
    assert np.all(np.abs(model.dual_coef) <= model.C + 1e-12)


def test_svm_xor_with_rbf():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], dtype=float)
    y = np.array(["A", "A", "B", "B"])
    model = SvmClassifier(kernel="rbf", C=1000.0, gamma=1.0).fit(X, y)
    assert (model.predict(X) == y).all()
    assert model.max_kkt_residual <= model.tol
    # decision values verified by direct kernel-sum evaluation
    Xs = (X - model.mean) / model.std
    for i, x in enumerate(Xs):
        manual = model.bias
        for coef, sv in zip(model.dual_coef, model.support_vectors):
            manual += coef * math.exp(-1.0 * sum((a - b) ** 2 for a, b in zip(x, sv)))
        assert model.decision_function(X[i:i + 1])[0] == pytest.approx(manual, abs=1e-9)


def test_svm_feature_scaling_is_noop():
    X, y = blobs(seed=5)
    base = SvmClassifier(kernel="rbf", C=10.0).fit(X, y)
    scaled = SvmClassifier(kernel="rbf", C=10.0).fit(X * 1000.0, y)
    queries = np.random.default_rng(1).normal(3.0, 3.0, size=(50, 2))
    assert (base.predict(queries) == scaled.predict(queries * 1000.0)).all()


def test_knn_feature_scaling_is_noop():
    X, y = blobs(seed=8)
    base = KnnClassifier(k=3).fit(X, y)
    scaled = KnnClassifier(k=3).fit(X * 250.0, y)
    queries = np.random.default_rng(2).normal(3.0, 3.0, size=(50, 2))
    for q in queries:
        assert base.predict(q[None])[0] == scaled.predict(q[None] * 250.0)[0]


def test_svm_single_class_rejected():
    X = np.zeros((4, 2))
    y = np.array(["A"] * 4)
    with pytest.raises(TrainingError):
        SvmClassifier().fit(X, y)


def test_svm_nonconvergence_raises():
    X, y = blobs(n=20, seed=3)
    with pytest.raises(TrainingError):
        SvmClassifier(kernel="rbf", C=1000.0, max_iter=1).fit(X, y)


@pytest.mark.parametrize("kwargs, needle", [
    ({"tol": "x"}, "tol must be a finite number"),
    ({"tol": float("nan")}, "tol must be a finite number"),
    ({"tol": False}, "tol must be a finite number"),
    ({"max_iter": 0}, "max_iter must be a whole number of at least 1, got 0"),
    ({"max_iter": 2.5}, "max_iter must be a whole number of at least 1, got 2.5"),
    ({"max_iter": "5"}, "max_iter must be a whole number of at least 1, got '5'"),
], ids=["tol_a_word", "tol_nan", "tol_a_bool", "max_iter_0", "max_iter_not_whole",
        "max_iter_a_word"])
def test_svm_refuses_a_stop_rule_no_fit_can_use(kwargs, needle):
    with pytest.raises(TrainingError, match=re.escape(needle)):
        SvmClassifier(**kwargs)
    assert SvmClassifier(tol=-0.05, max_iter=np.int64(3)).tol == -0.05  # a negative tol stays


def test_svm_predict_single_query():
    X, y = blobs(seed=2)
    model = SvmClassifier(kernel="linear", C=1.0).fit(X, y)
    assert model.predict(X[0][None])[0] == y[0]


def test_svm_nan_score_reads_as_the_first_class():
    X, y = blobs(seed=2)
    model = SvmClassifier(kernel="linear", C=1.0).fit(X, y)
    queries = np.array([[np.nan, 0.0], [6.0, 6.0], [0.0, 0.0]])
    assert np.isnan(model.decision_function(queries)[0])
    assert model.predict(queries).tolist() == ["neg", "pos", "neg"]


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("C", [1.0, 10.0, 100.0])
def test_svm_converges_deterministically_on_overlapping_blobs(kernel, C):
    for seed in range(100):
        X, y = blobs(seed=seed, separation=3.0)
        model = SvmClassifier(kernel=kernel, C=C).fit(X, y)
        assert model.max_kkt_residual <= model.tol
        assert np.all(np.abs(model.dual_coef) <= C)
        again = SvmClassifier(kernel=kernel, C=C).fit(X, y)
        assert np.array_equal(again.dual_coef, model.dual_coef)
        assert again.bias == model.bias


# -- length threshold --------------------------------------------------------------

def test_length_threshold_clear_margin():
    model = LengthThresholdClassifier().fit(
        np.array([4.0, 5.0, 14.0, 16.0]),
        np.array(["passenger_car", "passenger_car", "truck", "truck"]),
    )
    label = model.predict(np.array([12.0]))[0]
    assert label == "truck"


def test_length_threshold_boundary_is_truck():
    model = LengthThresholdClassifier().fit(
        np.array([4.0, 6.0, 12.0, 15.0]),
        np.array(["passenger_car", "passenger_car", "truck", "truck"]),
    )
    assert model.predict(np.array([model.threshold]))[0] == "truck"
    assert model.predict(np.array([model.threshold - 1e-9]))[0] == "passenger_car"


def brute_force_threshold(lengths, labels):
    values = sorted(set(lengths))
    candidates = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    best_thr, best_acc = None, -1.0
    for thr in candidates:
        acc = np.mean([
            ("truck" if x >= thr else "passenger_car") == lab
            for x, lab in zip(lengths, labels)
        ])
        if acc > best_acc:  # strict: ties keep the lower threshold
            best_acc, best_thr = acc, thr
    return best_thr


def test_length_threshold_matches_scan_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        cars = rng.uniform(3.5, 8.5, size=8)
        trucks = rng.uniform(6.0, 16.0, size=6)
        lengths = np.concatenate([cars, trucks])
        labels = np.array(["passenger_car"] * 8 + ["truck"] * 6)
        model = LengthThresholdClassifier().fit(lengths, labels)
        assert model.threshold == pytest.approx(brute_force_threshold(lengths, labels))


def reference_threshold_fit(lengths, y):
    """The scan the threshold rule was fitted with: every midpoint in turn."""
    values = np.unique(lengths)
    candidates = [(values[i] + values[i + 1]) / 2.0 for i in range(len(values) - 1)]
    best_thr = None
    best_acc = -1.0
    for thr in candidates:
        pred = np.where(lengths >= thr, "truck", "passenger_car")
        acc = float((pred == y).mean())
        if acc > best_acc:
            best_acc = acc
            best_thr = thr
    return best_thr


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from([3.5, 4.0, 4.25, 6.0, 9.5, 16.0, math.nan]),
                               st.sampled_from(["passenger_car", "truck"])), min_size=2))
def test_length_threshold_matches_the_midpoint_scan(rows):
    lengths = np.array([length for length, _ in rows])
    y = np.array([label for _, label in rows])
    assume(len(set(y.tolist())) == 2 and len(np.unique(lengths)) >= 2)
    threshold = LengthThresholdClassifier().fit(lengths, y).threshold
    assert np.array_equal(threshold, reference_threshold_fit(lengths, y), equal_nan=True)


def test_length_threshold_single_class_rejected():
    with pytest.raises(TrainingError):
        LengthThresholdClassifier().fit(np.array([4.0, 5.0]), np.array(["truck", "truck"]))


def test_length_threshold_needs_two_distinct_lengths():
    with pytest.raises(TrainingError, match="two distinct lengths"):
        LengthThresholdClassifier().fit(np.full(4, 5.0),
                                        np.array(["passenger_car", "truck"] * 2))


# -- cross-validation -----------------------------------------------------------------

def test_fold_sizes_partition():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array(["A", "B"] * 5)
    assignments = dict(zip(range(10), stratified_folds(y, list(range(10)), 5, seed=0).tolist()))
    folds = list(assignments.values())
    assert sorted(Counter(folds).values()) == [2, 2, 2, 2, 2]
    assert set(assignments.keys()) == set(range(10))


def test_crossval_partition_is_exact(layout=None):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(23, 3))
    y = np.array(["A"] * 12 + ["B"] * 11)
    ids = list(range(100, 123))
    cv = cross_validate(X, y, ids, lambda: KnnClassifier(k=1), folds=5, seed=9)
    assert len(cv["fold_accuracies"]) == 5
    assignments = dict(zip(ids, stratified_folds(y, ids, 5, seed=9).tolist()))
    assert sorted(assignments.keys()) == ids  # union is the whole set
    assert all(0 <= f < 5 for f in assignments.values())


def test_permuting_rows_changes_nothing():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 2))
    X[10:] += 4.0
    y = np.array(["A"] * 10 + ["B"] * 10)
    ids = list(range(20))
    ref = cross_validate(X, y, ids, lambda: KnnClassifier(k=3), folds=5, seed=3)
    perm = rng.permutation(20)
    shuffled = cross_validate(X[perm], y[perm], [ids[i] for i in perm],
                              lambda: KnnClassifier(k=3), folds=5, seed=3)
    assert shuffled["fold_accuracies"] == ref["fold_accuracies"]
    ref_folds = dict(zip(ids, stratified_folds(y, ids, 5, seed=3).tolist()))
    shuffled_ids = [ids[i] for i in perm]
    assert dict(zip(shuffled_ids, stratified_folds(y[perm], shuffled_ids, 5, seed=3).tolist())) \
        == ref_folds


def test_equal_fold_accuracies_have_zero_std():
    X = np.vstack([np.zeros((10, 1)), np.ones((10, 1)) * 9.0])
    y = np.array(["A"] * 10 + ["B"] * 10)
    cv = cross_validate(X, y, list(range(20)), lambda: KnnClassifier(k=1), folds=5, seed=1)
    assert all(a == 1.0 for a in cv["fold_accuracies"])
    assert cv["mean"] == 1.0
    assert cv["std"] == 0.0


def test_too_few_events_rejected():
    with pytest.raises(InputDataError):
        cross_validate(np.zeros((3, 1)), np.array(["A", "B", "A"]), [1, 2, 3],
                       lambda: KnnClassifier(k=1), folds=5)


def test_more_folds_than_the_largest_label_has_rows_rejected():
    # 3 + 2 rows fill 5 folds in count, but round robin would leave folds 4 and 5 empty
    y = np.array(["passenger_car"] * 3 + ["truck"] * 2)
    with pytest.raises(InputDataError, match="5 folds .* largest label has 3 events"):
        stratified_folds(y, [1, 2, 3, 4, 5], 5)
    assert sorted(Counter(stratified_folds(y, [1, 2, 3, 4, 5], 3).tolist()).values()) == [1, 2, 2]


@pytest.mark.parametrize("factory", [lambda: KnnClassifier(k=3), lambda: SvmClassifier()],
                         ids=["knn", "svm"])
def test_each_fold_accuracy_is_a_fit_on_the_rows_left_out(factory):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(31, 3))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=31) > 0, "A", "B")
    ids = rng.permutation(1000)[:31].tolist()
    folds = stratified_folds(y, ids, 4, seed=5)
    order = np.argsort(ids, kind="stable")  # models train on rows in event-id order
    expected = []
    for f in range(4):
        train, test = order[folds[order] != f], order[folds[order] == f]
        predicted = factory().fit(X[train], y[train]).predict(X[test])
        expected.append(float((predicted == y[test]).mean()))
    assert cross_validate(X, y, ids, factory, folds=4, seed=5)["fold_accuracies"] == expected


def test_train_test_split_is_stratified_and_in_event_id_order():
    rng = np.random.default_rng(8)
    y = np.array(["A"] * 9 + ["B"] * 5 + ["C"])
    ids = rng.permutation(100)[:15]
    train, test = train_test_split(y, ids, 0.3, seed=4)
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(15))
    assert Counter(y[test].tolist()) == {"A": 3, "B": 2, "C": 1}  # max(1, round(0.3 n))
    assert all(np.diff(ids[rows]).min() > 0 for rows in (train, test))
    perm = rng.permutation(15)
    again = train_test_split(y[perm], ids[perm], 0.3, seed=4)
    assert [sorted(ids[perm][rows].tolist()) for rows in again] == \
        [sorted(ids[rows].tolist()) for rows in (train, test)]


def test_train_test_split_refuses_an_empty_train_side():
    with pytest.raises(InputDataError, match="empty side"):
        train_test_split(np.array(["A", "B"]), [1, 2], 0.25)


# -- evaluation reports ----------------------------------------------------------------

def test_evaluate_rounding_of_totals():
    # 225 of 228 and 227 of 228 correct
    y_true = np.array(["truck"] * 228)
    for correct, expected in [(225, "98.68%"), (227, "99.56%")]:
        y_pred = np.array(["truck"] * correct + ["passenger_car"] * (228 - correct))
        report = evaluate_predictions(y_true, {"svm": y_pred}, ["truck"] * 228)
        assert format_percent(report["overall"]["rates"]["svm"]) == expected


def test_evaluate_all_correct():
    y = np.array(["passenger_car", "truck", "truck"])
    report = evaluate_predictions(y, {"knn": y}, ["van", "bus", "truck"])
    assert report["overall"]["rates"]["knn"] == 1.0
    assert all(row["rates"]["knn"] == 1.0 for row in report["rows"])
    assert format_percent(report["overall"]["rates"]["knn"]) == "100.00%"


def test_evaluate_counts_sum_to_total():
    y_true = np.array(["passenger_car"] * 5 + ["truck"] * 3)
    y_pred = y_true.copy()
    types = ["van"] * 2 + ["passenger car"] * 3 + ["truck"] * 3
    report = evaluate_predictions(y_true, {"knn": y_pred}, types)
    assert sum(row["samples"] for row in report["rows"]) == report["overall"]["samples"] == 8

    # the overall rate is the fraction of matching labels, and the per-type hits add up to it
    rng = np.random.default_rng(9)
    y_true = np.array(rng.choice(["passenger_car", "truck"], size=60))
    y_pred = np.array(rng.choice(["passenger_car", "truck"], size=60))
    types = rng.choice(["van", "bus"], size=60)
    report = evaluate_predictions(y_true, {"svm": y_pred}, types)
    matches = sum(t == p for t, p in zip(y_true, y_pred))
    assert report["overall"]["samples"] == 60
    assert report["overall"]["rates"]["svm"] == matches / 60
    assert sum(round(row["rates"]["svm"] * row["samples"]) for row in report["rows"]) == matches


def test_evaluate_rows_every_algorithm_per_type_in_first_seen_order():
    y_true = np.array(["truck", "passenger_car", "truck", "passenger_car", "truck"])
    types = ["bus", "van", "truck", "van", "bus"]
    predictions = {"svm": np.array(["truck", "truck", "truck", "passenger_car", "truck"]),
                   "knn": np.array(["passenger_car", "passenger_car", "truck", "passenger_car",
                                    "truck"])}
    assert evaluate_predictions(y_true, predictions, types) == {
        "columns": ["svm", "knn"],
        "rows": [
            {"label": "truck", "type_name": "bus", "samples": 2,
             "rates": {"svm": 1.0, "knn": 0.5}},
            {"label": "passenger_car", "type_name": "van", "samples": 2,
             "rates": {"svm": 0.5, "knn": 1.0}},
            {"label": "truck", "type_name": "truck", "samples": 1,
             "rates": {"svm": 1.0, "knn": 1.0}},
        ],
        "overall": {"samples": 5, "rates": {"svm": 0.8, "knn": 0.8}},
    }


@pytest.mark.parametrize("y_pred, types", [
    (["truck"], ["bus", "bus"]),
    (["truck", "truck"], ["bus"]),
], ids=["predictions_too_short", "type_names_too_short"])
def test_evaluate_rejects_misaligned_inputs(y_pred, types):
    with pytest.raises(InputDataError, match="must align"):
        evaluate_predictions(np.array(["truck", "truck"]), {"svm": np.array(y_pred)}, types)


def test_evaluate_with_model():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array(["passenger_car"] * 2 + ["truck"] * 2)
    model = KnnClassifier(k=1).fit(X, y)
    report = evaluate_predictions(y, {"knn": model.predict(X)},
                                  ["van", "van", "truck", "truck"])
    assert report["overall"]["rates"]["knn"] == 1.0


# -- mean / std ---------------------------------------------------------------------

def test_mean_std_fold_column_values():
    m, s = mean_std([98.68, 98.68, 98.25, 98.68, 99.12])
    assert m == pytest.approx(98.68, abs=0.005)
    assert s == pytest.approx(0.31, abs=0.005)


def test_mean_std_equal_values():
    m, s = mean_std([98.68] * 5)
    assert m == pytest.approx(98.68)
    assert s == 0.0


def test_mean_std_two_point_case():
    m, s = mean_std([0.0, 100.0])
    assert m == pytest.approx(50.0)
    assert s == pytest.approx(70.71, abs=0.005)


def test_mean_std_needs_two_values():
    with pytest.raises(InputDataError):
        mean_std([98.68])


# -- persistence ------------------------------------------------------------------------

def test_knn_round_trip(tmp_path):
    X, y = blobs(seed=12)
    model = KnnClassifier(k=3).fit(X, y)
    p = tmp_path / "knn.json"
    save_model(model, p)
    loaded = load_model(p)
    queries = np.random.default_rng(0).normal(3.0, 3.0, size=(40, 2))
    assert (model.predict(queries) == loaded.predict(queries)).all()


def test_svm_round_trip(tmp_path):
    X, y = blobs(seed=13)
    model = SvmClassifier(kernel="rbf", C=10.0).fit(X, y)
    p = tmp_path / "svm.json"
    save_model(model, p)
    loaded = load_model(p)
    queries = np.random.default_rng(1).normal(3.0, 3.0, size=(40, 2))
    assert np.array_equal(model.decision_function(queries), loaded.decision_function(queries))
    assert (model.predict(queries) == loaded.predict(queries)).all()


def test_threshold_round_trip(tmp_path):
    model = LengthThresholdClassifier().fit(
        np.array([4.0, 5.0, 12.0, 15.0]),
        np.array(["passenger_car", "passenger_car", "truck", "truck"]),
    )
    p = tmp_path / "thr.json"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.threshold == model.threshold


@pytest.mark.parametrize("make", [
    lambda X, y: KnnClassifier(k=3).fit(X, y),
    lambda X, y: SvmClassifier(kernel="rbf", C=10.0).fit(X, y),
    lambda X, y: SvmClassifier(kernel="linear", C=1.0).fit(X, y),
    lambda X, y: LengthThresholdClassifier().fit(
        X[:, 0], np.where(y == "pos", "truck", "passenger_car")),
], ids=["knn", "svm_rbf", "svm_linear", "length_threshold"])
def test_a_loaded_model_saves_the_same_bytes(tmp_path, make):
    # a field that is written but not read back would be missing from the second file
    p = tmp_path / "model.json"
    save_model(make(*blobs(seed=14)), p)
    first = p.read_bytes()
    save_model(load_model(p), p)
    assert p.read_bytes() == first


@pytest.mark.parametrize("model", [KnnClassifier(), SvmClassifier(),
                                   LengthThresholdClassifier()], ids=lambda m: type(m).__name__)
def test_save_model_refuses_an_unfitted_model(tmp_path, model):
    with pytest.raises(TrainingError, match="cannot persist an unfitted"):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_load_model_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(InputDataError):
        load_model(p)


def _saved_threshold_model(path):
    model = LengthThresholdClassifier().fit(np.array([4.0, 12.0]),
                                            np.array(["passenger_car", "truck"]))
    save_model(model, path)
    return json.loads(path.read_text())


def _saved_model(path, model, **edits):
    """The JSON of `model` fitted on 3-feature blobs, with `edits` to its fields."""
    X, y = blobs(seed=15)
    save_model(model.fit(np.hstack([X, X[:, :1] * 2.0]), y), path)
    payload = json.loads(path.read_text())
    return {**payload, **{key: edit(payload[key]) for key, edit in edits.items()}}


@pytest.mark.parametrize("write", [
    lambda p: p.write_text("[1, 2]"),
    lambda p: p.write_text(json.dumps({"format": MODEL_FORMAT, "version": MODEL_VERSION})),
    lambda p: p.write_text(json.dumps({"format": MODEL_FORMAT, "version": MODEL_VERSION,
                                       "algo": "knn"})),
    lambda p: p.write_text(json.dumps({"format": MODEL_FORMAT, "version": MODEL_VERSION,
                                       "algo": "knn", "k": "3"})),
    lambda p: p.write_bytes(b'{"format": "\xff"}'),
    lambda p: p.mkdir(),
    lambda p: p.write_text(json.dumps({**_saved_threshold_model(p), "version": 2})),
    lambda p: p.write_text(json.dumps({key: value for key, value
                                       in _saved_threshold_model(p).items() if key != "version"})),
    lambda p: p.write_text(json.dumps(_saved_model(p, KnnClassifier(1), mean=lambda _: "abc"))),
    lambda p: p.write_text(json.dumps(_saved_model(p, KnnClassifier(1), mean=lambda _: [0.0]))),
    lambda p: p.write_text(json.dumps(_saved_model(p, SvmClassifier(),
                                                   dual_coef=lambda c: c[:-1]))),
    lambda p: p.write_text(json.dumps(_saved_model(p, KnnClassifier(1),
                                                   y=lambda y: [len(l) for l in y]))),
    lambda p: p.write_text(json.dumps(_saved_model(p, SvmClassifier(),
                                                   classes=lambda c: [c[0], c[0]]))),
    lambda p: p.write_text(json.dumps(_saved_model(p, SvmClassifier(),
                                                   dual_coef=lambda c: [None, *c[1:]]))),
], ids=["not_an_object", "no_algo", "knn_without_k", "k_not_a_number", "not_utf8", "a_directory",
        "another_version", "no_version", "knn_mean_not_numbers", "knn_mean_of_one_feature",
        "svm_dual_coef_one_short", "knn_labels_not_strings", "svm_classes_not_distinct",
        "svm_dual_coef_not_finite"])
def test_load_model_refuses_a_malformed_file(tmp_path, write):
    p = tmp_path / "model.json"
    write(p)
    with pytest.raises(InputDataError):
        load_model(p)


@pytest.mark.parametrize("model, key, edit", [
    (KnnClassifier(1), "mean", lambda _: "abc"),
    (KnnClassifier(1), "mean", lambda _: [0.0]),
    (SvmClassifier(), "dual_coef", lambda c: c[:-1]),
], ids=["knn_mean_not_numbers", "knn_mean_of_one_feature", "svm_dual_coef_one_short"])
def test_load_model_names_the_field_it_refuses(tmp_path, model, key, edit):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(_saved_model(p, model, **{key: edit})))
    with pytest.raises(InputDataError, match=re.escape(f"{p}: {key}")):
        load_model(p)


def test_a_model_file_nested_too_deep_is_refused(tmp_path):
    p = tmp_path / "model.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(InputDataError, match=re.escape(f"cannot read model file {p}")):
        load_model(p)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """The bytes save_model writes for a k-NN, an SVM and a threshold rule fitted on one
    feature of four rows: few numbers, so that a mutation often meets another field."""
    X, y = blobs(n=4, seed=16)
    X = X[:, :1]
    models = {"knn": KnnClassifier(k=3).fit(X, y), "svm": SvmClassifier(C=10.0).fit(X, y),
              "length_threshold": LengthThresholdClassifier().fit(
                  X[:, 0], np.where(y == "pos", "truck", "passenger_car"))}
    p = tmp_path_factory.mktemp("models") / "model.json"
    files = {}
    for kind, model in models.items():
        save_model(model, p)
        files[kind] = p.read_bytes()
    return files


@settings(max_examples=1500, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_model_file_loads_a_model_that_predicts_or_is_refused(saved_models, tmp_path_factory,
                                                                data):
    kind = data.draw(st.sampled_from(sorted(saved_models)), label="kind")
    p = tmp_path_factory.mktemp("mutated") / "model.json"
    p.write_bytes(_mutate_bytes(saved_models[kind], data.draw))
    try:
        model = load_model(p)
    except InputDataError:
        return
    queries = np.random.default_rng(17).normal(3.0, 3.0, size=(5, 1))
    labels = model.predict(queries[:, 0] if kind == "length_threshold" else queries)
    assert len(labels) == len(queries)


@pytest.mark.parametrize("model, key, value, needle", [
    (KnnClassifier(3), "k", 0, "k must be a whole number of at least 1, got 0"),
    (KnnClassifier(3), "k", 2.5, "k must be a whole number of at least 1, got 2.5"),
    (KnnClassifier(3), "k", 41, "k = 41 exceeds the 40 training rows"),
    (SvmClassifier(), "kernel", "poly", "unknown kernel 'poly'"),
    (SvmClassifier(), "C", -1.0, "C and gamma must be finite and positive"),
    (KnnClassifier(3), "std", [0.0, 1.0, 1.0], "std: an entry is not above 0"),
    (SvmClassifier(), "std", [1.0, -1.0, 1.0], "std: an entry is not above 0"),
    (SvmClassifier(), "tol", "x", "tol must be a finite number, got 'x'"),
    (SvmClassifier(), "tol", True, "tol must be a finite number, got True"),
    (SvmClassifier(), "tol", None, "tol must be a finite number, got None"),
    (SvmClassifier(), "tol", 1e309, "tol must be a finite number, got inf"),
], ids=["knn_k_0", "knn_k_not_whole", "knn_k_beyond_the_rows", "svm_unknown_kernel",
        "svm_negative_C", "knn_std_0", "svm_std_negative", "svm_tol_a_word", "svm_tol_a_bool",
        "svm_tol_null", "svm_tol_infinite"])
def test_load_model_refuses_what_no_fit_leaves(tmp_path, model, key, value, needle):
    # a model that loaded would predict nothing, or divide by a zero or negative scale
    p = tmp_path / "model.json"
    p.write_text(json.dumps(_saved_model(p, model, **{key: lambda _: value})))
    with pytest.raises(InputDataError, match=re.escape(needle)):
        load_model(p)
