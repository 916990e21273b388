"""The block k-NN classifier against the per-query scan it replaced.

`reference_knn_predict` is that scan, kept verbatim as the oracle: for each
query it takes the distance to every training row, a stable argsort and the
vote.  `KnnClassifier.predict` screens whole blocks of queries with one
matrix product and takes exact distances of the few candidates left; it must
pick the same neighbours, with bit-identical distances, and the same labels.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier import learn
from radiobarrier.errors import InputDataError
from radiobarrier.learn import KnnClassifier


def reference_knn_neighbours(model, query):
    """Indices and distances of the k nearest training rows from a full scan."""
    query = np.asarray(query, dtype=float)
    if query.shape != (model._X.shape[1],):
        raise InputDataError(
            f"query has {query.shape} features, model expects {model._X.shape[1]}"
        )
    q = (query - model.mean) / model.std
    dists = np.sqrt(((model._X - q) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")[: model.k]
    return order, dists[order]


def reference_knn_predict(model, query) -> str:
    order, neigh_dists = reference_knn_neighbours(model, query)
    neigh_labels = model._y[order]

    counts = {}
    for lab in neigh_labels:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    tied = sorted(lab for lab, c in counts.items() if c == best)
    if len(tied) == 1:
        return tied[0]
    mean_dist = {
        lab: float(neigh_dists[neigh_labels == lab].mean()) for lab in tied
    }
    lowest = min(mean_dist.values())
    tied = sorted(lab for lab in tied if mean_dist[lab] == lowest)
    if len(tied) == 1:
        return tied[0]
    train_counts = {lab: int((model._y == lab).sum()) for lab in tied}
    most = max(train_counts.values())
    tied = sorted(lab for lab in tied if train_counts[lab] == most)
    return tied[0]


def assert_same_neighbours(model, queries):
    """Both classifiers on every query: same rows, same distance bits, same labels.

    A NaN query whose neighbour labels tie makes the reference vote raise
    ValueError: its mean distances are NaN and never equal the lowest one.
    `predict` then raises InputDataError naming the first such row.
    """
    rows, dists = model._neighbours(queries)
    for query, got_rows, got_dists in zip(queries, rows, dists):
        want_rows, want_dists = reference_knn_neighbours(model, query)
        assert got_rows.tolist() == want_rows.tolist()
        assert got_dists.tobytes() == want_dists.tobytes()
    want = []
    for query in queries:
        try:
            want.append(reference_knn_predict(model, query))
        except ValueError:
            want.append(None)
    voted = np.array([label is not None for label in want])
    if not voted.all():
        with pytest.raises(InputDataError, match=rf"query row {voted.argmin()} holds NaN"):
            model.predict(queries)
    assert model.predict(queries[voted]).tolist() == [label for label in want if label]


@st.composite
def knn_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    # small integers: many tied distances; a few repeated rows and constant columns
    X = rng.integers(-2, 3, size=(n, d)).astype(float)
    X[rng.integers(0, n, n // 3)] = X[rng.integers(0, n, n // 3)]
    X[:, rng.random(d) < 0.25] = draw(st.sampled_from([0.0, 7.0]))
    if draw(st.booleans()):
        X *= rng.choice([0.1, 1.0, 250.0], size=d)
    if draw(st.booleans()):
        # a cluster far out on some columns that differs on those only: near it,
        # |q|^2 + |x|^2 dwarfs the distances and the matrix product cancels worst
        far, cols = rng.random(n) < 0.5, rng.random(d) < 0.5
        X[np.ix_(far, ~cols)] = X[0, ~cols]
        X[np.ix_(far, cols)] += 10.0 ** draw(st.integers(3, 9))
    if draw(st.integers(0, 9)) == 0:
        X[:] = X[0]  # every row a duplicate: every row is a candidate
    y = rng.choice(["bus", "car", "truck"][:draw(st.integers(1, 3))], size=n)
    k = draw(st.integers(1, n))
    queries = np.vstack([
        X[rng.integers(0, n, 4)],  # equal to training rows
        X[rng.integers(0, n, 4)] + rng.integers(-1, 2, size=(4, d)),
        rng.integers(-3, 4, size=(4, d)).astype(float),
        X[rng.integers(0, n, 3)] + 1e6 * rng.choice([-1.0, 0.0, 1.0], size=(3, d)),
        rng.normal(size=(3, d)),
    ])
    queries[rng.integers(0, len(queries))] = np.nan
    queries[rng.integers(0, len(queries)), rng.integers(0, d)] = np.inf
    return X, y, k, queries, draw(st.booleans())


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=knn_cases())
def test_matches_reference_on_random_cases(case):
    X, y, k, queries, one_query_blocks = case
    model = KnnClassifier(k=k).fit(X, y)
    cells = 1 if one_query_blocks else learn.KNN_BATCH_CELLS  # 1: one query, one candidate a time
    with mock.patch.object(learn, "KNN_BATCH_CELLS", cells):
        assert_same_neighbours(model, queries)


@pytest.mark.parametrize("cells", [1, 960, learn.KNN_BATCH_CELLS])
def test_matches_reference_on_a_profile_sized_fold(cells):
    """A fold the size of the benchmark's, 289 features (sums of over 128 terms go
    pairwise), in blocks of 1, 4 and all 60 queries."""
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(300, 289)), 1)
    y = rng.choice(["passenger_car", "truck"], size=300)
    model = KnnClassifier(k=3).fit(X[:240], y[:240])
    with mock.patch.object(learn, "KNN_BATCH_CELLS", cells):
        assert_same_neighbours(model, X[240:])
