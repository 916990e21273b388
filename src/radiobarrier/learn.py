"""Classifiers, cross-validation and evaluation reports.

Both classifiers standardize features with statistics fitted on their own
training data, so per-fold standardization in cross-validation follows for
free.  The SVM solves the soft-margin dual with the deterministic
second-order SMO of Fan, Chen & Lin (JMLR 6, 2005) and stops once the KKT
gap is at most ``tol``; see ``SvmClassifier``.
"""
from __future__ import annotations

import json
import math
from itertools import count
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, InputDataError, TrainingError

MODEL_FORMAT = "radiobarrier-model"
MODEL_VERSION = 1

# Lower bound on the curvature K_ii + K_jj - 2 K_ij of a working pair, as in LIBSVM.
_TAU = 1e-12

# Most cells one k-NN temporary holds: the screen takes blocks of (queries x
# training rows), the exact distances chunks of (candidates x features), so the
# cap holds when every training row is a candidate too (at least one row a time).
KNN_BATCH_CELLS = 1 << 20

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _standardize_fit(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


class KnnClassifier:
    """k-nearest-neighbour vote over standardized Euclidean distances.

    Ties are broken by the smaller mean neighbour distance, then by the
    label with more training samples, then lexicographically.
    """

    def __init__(self, k: int = 3):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise TrainingError(f"k must be a whole number of at least 1, got {k!r}")
        self.k = k
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, X, y) -> "KnnClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise InputDataError("X must be 2-D with one label per row")
        if self.k > len(X):
            raise TrainingError(f"k={self.k} exceeds the {len(X)} training samples")
        self.mean, self.std = _standardize_fit(X)
        self._X = (X - self.mean) / self.std
        self._y = y
        return self

    def predict(self, X) -> np.ndarray:
        """The label of each row of `X`, as a scan of every training row would give it."""
        rows, dists = self._neighbours(X)
        return np.array([self._vote(labels, d, row)
                         for row, (labels, d) in enumerate(zip(self._y[rows], dists))])

    def _neighbours(self, X) -> Tuple[np.ndarray, np.ndarray]:
        """The k nearest training rows of each row of `X`, nearest first, and their
        distances: the first k of a stable sort of the exact distances to every row.

        One matrix product screens each block of queries; only the rows it cannot
        rule out get their exact distances.
        """
        X = np.asarray(X, dtype=float)
        Xs, k = self._X, self.k
        n, d = Xs.shape
        if X.shape[1:] != (d,):
            raise InputDataError(f"query has {X.shape[1:]} features, model expects {d}")
        Q = (X - self.mean) / self.std
        xx = np.einsum("ij,ij->i", Xs, Xs)
        rows, dists = np.empty((len(Q), k), dtype=np.intp), np.empty((len(Q), k))
        step, chunk = max(1, KNN_BATCH_CELLS // n), max(1, KNN_BATCH_CELLS // max(d, 1))
        for first in range(0, len(Q), step):
            block = Q[first:first + step]
            with np.errstate(all="ignore"):  # a non-finite screen row keeps every row below
                qq = np.einsum("ij,ij->i", block, block)[:, None]
                approx = qq + xx - 2.0 * (block @ Xs.T)
                # |approx - exact| stays below this for any summation order of either
                slack = 4 * (d + 4) * _EPS * (qq + xx)
                lo, hi = approx - slack, approx + slack
                # no row beyond `bound` is among the k nearest, nor ties one after sqrt
                bound = np.partition(hi, k - 1, axis=1)[:, k - 1:k]
                keep = lo <= bound + 16 * _EPS * np.abs(bound) + _TINY
                keep[~np.isfinite(hi).all(axis=1)] = True
            query, row = np.divmod(np.flatnonzero(keep), n)
            # the scan's own expression on the same rows: the same bits
            dist = np.concatenate([
                np.sqrt(((Xs[row[c:c + chunk]] - block[query[c:c + chunk]]) ** 2).sum(axis=1))
                for c in range(0, len(row), chunk)])
            counts = keep.sum(axis=1)
            pick = np.lexsort((dist, query))[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            rows[first:first + step], dists[first:first + step] = row[pick], dist[pick]
        return rows, dists

    def _vote(self, neigh_labels: np.ndarray, neigh_dists: np.ndarray, row: int) -> str:
        counts: Dict[str, int] = {}
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
        if not tied:  # NaN distances, which no tie-break orders
            raise InputDataError(f"query row {row} holds NaN; its neighbours' labels tie")
        if len(tied) == 1:
            return tied[0]
        train_counts = {lab: int((self._y == lab).sum()) for lab in tied}
        most = max(train_counts.values())
        tied = sorted(lab for lab in tied if train_counts[lab] == most)
        return tied[0]


class SvmClassifier:
    """Binary soft-margin SVM trained by SMO with second-order working sets.

    The solver is the maximal-violating-pair SMO of Fan, Chen & Lin,
    "Working Set Selection Using Second Order Information for Training
    SVM", JMLR 6 (2005), as used by LIBSVM.  It keeps the dual gradient
    G = Q alpha - e (Q_ij = y_i y_j K_ij) as yg = -y G in two masked arrays,
    yg on I_up (-inf elsewhere) and yg on I_low (+inf elsewhere), which each
    pair update changes in place.  It picks i as the most violating index of
    I_up and j of I_low by the second-order gain, whose denominators it
    computes once per fit, and stops when the KKT gap m(alpha) - M(alpha) is
    at most ``tol`` (Keerthi et al., Neural Computation 13, 2001).  ``tol``
    therefore also bounds ``max_kkt_residual``.  ``n_iter`` counts pair
    updates; reaching ``max_iter`` of them raises ``TrainingError``.  There
    is no randomness: the same data gives bit-identical coefficients.
    """

    def __init__(
        self,
        kernel: str = "rbf",
        C: float = 10.0,
        gamma: Optional[float] = None,
        tol: float = 1e-3,
        max_iter: int = 1_000_000,
    ):
        if kernel not in ("linear", "rbf"):
            raise TrainingError(f"unknown kernel {kernel!r}")
        if not (0 < C < math.inf and (gamma is None or 0 < gamma < math.inf)):  # NaN fails too
            raise TrainingError(f"C and gamma must be finite and positive: C={C}, gamma={gamma}")
        if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)) \
                or not math.isfinite(tol):  # a negative tol is a tighter stop, not an error
            raise TrainingError(f"tol must be a finite number, got {tol!r}")
        if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
            raise TrainingError(f"max_iter must be a whole number of at least 1, got {max_iter!r}")
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.classes: Optional[Tuple[str, str]] = None
        self.support_vectors: Optional[np.ndarray] = None
        self.dual_coef: Optional[np.ndarray] = None  # alpha_i * y_i
        self.bias: float = 0.0
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None
        self.n_iter: int = 0
        self.max_kkt_residual: float = math.inf

    # -- kernel ------------------------------------------------------------

    def _gamma_value(self, n_features: int) -> float:
        return self.gamma if self.gamma is not None else 1.0 / n_features

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return A @ B.T
        g = self._gamma_value(A.shape[1])
        sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
        return np.exp(-g * np.maximum(sq, 0.0))

    # -- training ----------------------------------------------------------

    def fit(self, X, y) -> "SvmClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        classes = sorted(set(y.tolist()))
        if len(classes) != 2:
            raise TrainingError(f"binary SVM needs exactly two classes, got {classes}")
        self.classes = (classes[0], classes[1])
        ysign = np.where(y == classes[1], 1.0, -1.0)

        self.mean, self.std = _standardize_fit(X)
        Xs = (X - self.mean) / self.std
        K = self._kernel_matrix(Xs, Xs)
        diag = np.diag(K)
        C, tol = float(self.C), self.tol
        curvature = np.maximum(diag[:, None] + diag - 2.0 * K, _TAU)  # a of every pair

        ys, alphas = ysign.tolist(), [0.0] * len(ysign)
        # yg = -y G on I_up (else -inf) and on I_low (else +inf); G = -e at alpha = 0
        g_up, g_low = g = np.where(ysign > 0, [[1.0], [np.inf]], [[-np.inf], [-1.0]])

        def yg(k):  # every row is in I_up or in I_low
            return g_up.item(k) if g_up.item(k) != -np.inf else g_low.item(k)

        for n_iter in count():
            i = int(g_up.argmax())
            m, M = g_up.item(i), g_low.item(g_low.argmin())
            if m - M <= tol or n_iter >= self.max_iter:
                break
            b, a = m - g_low, curvature[i]
            j = int(np.where(b > 0, b * b / a, -np.inf).argmax())  # 0 if no b_j > 0 (tol < 0)
            # alpha_i += y_i t and alpha_j -= y_j t keep sum(y alpha) fixed; the
            # unclipped optimum is t = b_j / a_j.  A multiplier whose room runs
            # out lands exactly on its bound, so round-off never leaves it free.
            steps = ((i, ys[i]), (j, -ys[j]))
            room = [C - alphas[k] if d > 0 else alphas[k] for k, d in steps]
            t = min((m - yg(j)) / a.item(j), *room)
            for (k, d), r in zip(steps, room):
                old = alphas[k]
                alphas[k] = (C if d > 0 else 0.0) if t == r else old + d * t
                # G += dG is yg -= (dalpha_k y_k) K_k; y = +-1, so it rounds alike but for 0's sign
                g -= ((alphas[k] - old) * ys[k]) * K[k]
            for k in (i, j):  # i and j may have changed sets
                value = yg(k)
                inside = (alphas[k] < C, alphas[k] > 0)  # (I_up, I_low) where y = +1
                up, low = inside if ys[k] > 0 else inside[::-1]
                g_up[k], g_low[k] = (value if up else -np.inf), (value if low else np.inf)

        self.n_iter = n_iter
        # G is never -0 (it starts at -1; only -0 + -0 sums to -0): yg takes -y G's zeros
        g_up, g_low = -ysign * (0.0 - ysign * g)
        m, M = g_up[i], g_low.min()
        if not m - M <= tol:
            raise TrainingError(f"SVM did not converge after {n_iter} pair updates "
                                f"(KKT gap {m - M:.3g}, tol {tol})")
        alphas = np.array(alphas)
        free = (alphas > 0) & (alphas < C)
        self.bias = float(g_up[free].mean()) if free.any() else float(m + M) / 2.0
        self.max_kkt_residual = self._max_residual(alphas, ysign, K, self.bias)
        if self.max_kkt_residual > tol:
            raise TrainingError(
                f"SVM stalled with KKT residual {self.max_kkt_residual:.3g} > tol {tol}"
            )
        keep = alphas > 1e-9
        self.support_vectors = Xs[keep]
        self.dual_coef = (alphas * ysign)[keep]
        return self

    def _max_residual(self, alphas, ysign, K, b) -> float:
        f = (alphas * ysign) @ K + b
        r = ysign * f - 1.0
        lo = np.where(alphas < 1e-9, np.maximum(0.0, -r), 0.0)
        hi = np.where(alphas > self.C - 1e-9, np.maximum(0.0, r), 0.0)
        mid = np.where((alphas >= 1e-9) & (alphas <= self.C - 1e-9), np.abs(r), 0.0)
        return float(np.maximum(np.maximum(lo, hi), mid).max())

    # -- prediction ----------------------------------------------------------

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Xs = (X - self.mean) / self.std
        K = self._kernel_matrix(Xs, self.support_vectors)
        return K @ self.dual_coef + self.bias

    def predict(self, X) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0, self.classes[1], self.classes[0])


class LengthThresholdClassifier:
    """1-D rule: length >= threshold reads 'truck', below it 'passenger_car'.

    The threshold is the accuracy-maximizing midpoint between adjacent
    sorted training lengths; ties pick the lower midpoint.
    """

    def __init__(self):
        self.threshold: Optional[float] = None

    def fit(self, X, y) -> "LengthThresholdClassifier":
        X = np.asarray(X, dtype=float)
        lengths = X[:, 0] if X.ndim == 2 else X
        y = np.asarray(y)
        labels = set(y.tolist())
        if len(labels) < 2:
            raise TrainingError("threshold training needs both labels present")
        if not labels <= {"passenger_car", "truck"}:
            raise TrainingError(f"threshold rule only knows passenger_car/truck, got {sorted(labels)}")
        values = np.unique(lengths)
        if len(values) < 2:
            raise TrainingError("threshold training needs at least two distinct lengths")
        candidates = (values[:-1] + values[1:]) / 2.0
        cars, trucks = (np.sort(lengths[y == label]) for label in ("passenger_car", "truck"))
        # rows each candidate gets right, less a constant: cars below it less trucks
        # below it (a NaN length sorts, and is searched, past every other)
        correct = np.searchsorted(cars, candidates) - np.searchsorted(trucks, candidates)
        self.threshold = candidates[np.argmax(correct)]  # the first best: the lowest
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        lengths = X[:, 0] if X.ndim == 2 else X
        return np.where(lengths >= self.threshold, "truck", "passenger_car")


# ---------------------------------------------------------------------------
# Cross-validation

def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 denominator)."""
    if len(values) < 2:
        raise InputDataError("need at least two values for mean/std")
    m = sum(values) / len(values)
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, math.sqrt(var)


def _shuffled_by_label(y, event_ids: Sequence[int], seed: int) -> List[np.ndarray]:
    """Each label's row indices, labels in sorted order, shuffled by one generator
    seeded from `seed`.  The rows are put in event-id order first, so permuting
    them changes nothing."""
    ids = np.asarray(event_ids)
    if len(set(ids.tolist())) != len(y):
        raise InputDataError("need one unique event id per row")
    order = np.argsort(ids, kind="stable")
    labels = np.asarray(y)[order]
    rng = np.random.default_rng(seed)
    groups = [order[labels == label] for label in sorted(set(labels.tolist()))]
    for rows in groups:
        rng.shuffle(rows)
    return groups


def stratified_folds(y, event_ids: Sequence[int], folds: int, seed: int = 0) -> np.ndarray:
    """The fold, 0 to `folds` - 1, of each row in input order.

    Each label's shuffled rows are dealt to the folds round robin, so every
    fold holds a near-equal share of every label, and none is empty.
    """
    n = len(y)
    if folds < 2:
        raise ConfigurationError(f"cross-validation needs at least 2 folds, got {folds}")
    if n < folds:
        raise InputDataError(f"{n} events cannot fill {folds} folds")
    groups = _shuffled_by_label(y, event_ids, seed)
    largest = max(len(rows) for rows in groups)
    if largest < folds:
        raise InputDataError(f"{folds} folds would leave a fold empty: the largest label "
                             f"has {largest} events")
    fold_of = np.empty(n, dtype=int)
    for rows in groups:
        fold_of[rows] = np.arange(len(rows)) % folds
    return fold_of


def train_test_split(y, event_ids: Sequence[int], test_fraction: float,
                     seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Train and test row indices, each in event-id order, stratified by label: the
    first max(1, round(test_fraction * count)) shuffled rows of each label are tested."""
    test = np.zeros(len(y), dtype=bool)
    for rows in _shuffled_by_label(y, event_ids, seed):
        test[rows[:max(1, int(round(test_fraction * len(rows))))]] = True
    if test.all():  # every label tests at least one row, so only the train side can be empty
        raise InputDataError("train/test split left an empty side")
    order = np.argsort(event_ids, kind="stable")
    return order[~test[order]], order[test[order]]


def cross_validate(X, y, event_ids: Sequence[int], factory: Callable[[], object],
                   folds: int = 5, seed: int = 0) -> dict:
    """Seeded k-fold cross-validation over the `stratified_folds` of the rows; each
    event is tested exactly once.

    Every model trains on its rows in event-id order and standardizes inside
    its fit, i.e. on the training folds only.  Returns the record
    ``crossval.json`` holds for one algorithm: ``fold_accuracies`` in fold
    order, their ``mean`` and their sample standard deviation ``std``.
    """
    y = np.asarray(y)
    fold_of = stratified_folds(y, event_ids, folds, seed)
    order = np.argsort(event_ids, kind="stable")
    X, y, fold_of = np.asarray(X, dtype=float)[order], y[order], fold_of[order]
    accuracies = []
    for f in range(folds):
        test = fold_of == f
        model = factory()
        model.fit(X[~test], y[~test])
        accuracies.append(float((model.predict(X[test]) == y[test]).mean()))
    m, s = mean_std(accuracies)
    return {"fold_accuracies": accuracies, "mean": m, "std": s}


# ---------------------------------------------------------------------------
# Evaluation reports

def format_percent(fraction: float) -> str:
    """Render a fraction as a percentage with two decimals, e.g. '98.68%'."""
    return f"{fraction * 100.0:.2f}%"


def evaluate_predictions(y_true, predictions: Mapping[str, Sequence], type_names) -> dict:
    """Per-type and overall recognition rates of each algorithm's predictions of `y_true`.

    Returns the record ``evaluation.json`` holds: ``columns`` names the
    algorithms of `predictions` in order; each of ``rows`` gives a vehicle
    type (in first-seen order), its label, its ``samples`` and the fraction
    of them each algorithm got right in ``rates``; ``overall`` does the same
    for the whole test set.
    """
    y_true, type_names = np.asarray(y_true), np.asarray(type_names)
    if len(y_true) == 0:
        raise InputDataError("empty test set")
    if any(len(y) != len(y_true) for y in (type_names, *predictions.values())):
        raise InputDataError("labels, predictions and type names must align")
    correct = {algo: np.asarray(y_pred) == y_true for algo, y_pred in predictions.items()}
    rows = []
    for name in dict.fromkeys(type_names.tolist()):
        mask = type_names == name
        count = int(mask.sum())
        rows.append({"label": str(y_true[mask][0]), "type_name": name, "samples": count,
                     "rates": {algo: int(hits[mask].sum()) / count
                               for algo, hits in correct.items()}})
    return {"columns": list(predictions), "rows": rows,
            "overall": {"samples": len(y_true),
                        "rates": {algo: int(hits.sum()) / len(y_true)
                                  for algo, hits in correct.items()}}}


# ---------------------------------------------------------------------------
# Model persistence: self-describing text, round-trips predictions exactly.

def _floats(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float64 array if every entry is finite."""
    array = np.array(value)
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ValueError("an entry is not a finite number")
    return array.astype(np.float64)


def _scales(value) -> np.ndarray:
    """Standard deviations as fit leaves them: finite numbers above 0."""
    array = _floats(value)
    if not (array > 0).all():
        raise ValueError("an entry is not above 0")
    return array


def _labels(value) -> np.ndarray:
    """A JSON list of strings as a numpy string array."""
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
        raise ValueError("is not a list of strings")
    return np.array(value, dtype=str)


def _class_pair(value) -> Tuple[str, str]:
    classes = tuple(_labels(value).tolist())
    if len(classes) != 2 or classes[0] == classes[1]:
        raise ValueError("is not two distinct strings")
    return classes


# Per model kind: its class, the constructor arguments a file holds, and each fitted
# attribute by its file key, with the function that rebuilds it from JSON and its shape
# (None for the SVM's classes): one letter per axis, and one size per letter in a model.
_MODEL_FIELDS = {
    "knn": (KnnClassifier, ("k",),
            {"X": ("_X", _floats, "nd"), "y": ("_y", _labels, "n"),
             "mean": ("mean", _floats, "d"), "std": ("std", _scales, "d")}),
    "svm": (SvmClassifier, ("kernel", "C", "gamma", "tol"),
            {"classes": ("classes", _class_pair, None),
             "support_vectors": ("support_vectors", _floats, "md"),
             "dual_coef": ("dual_coef", _floats, "m"), "mean": ("mean", _floats, "d"),
             "std": ("std", _scales, "d"), "bias": ("bias", _floats, ""),
             "max_kkt_residual": ("max_kkt_residual", _floats, "")}),
    "length_threshold": (LengthThresholdClassifier, (), {"threshold": ("threshold", _floats, "")}),
}


def save_model(model, path) -> None:
    for algo, (cls, args, fitted) in _MODEL_FIELDS.items():
        if isinstance(model, cls):
            break
    else:
        raise TrainingError(f"cannot persist model of type {type(model)!r}")
    if any(getattr(model, attr) is None for attr, *_ in fitted.values()):
        raise TrainingError(f"cannot persist an unfitted {type(model).__name__}")
    payload = {key: getattr(model, key) for key in args}
    payload.update({key: getattr(model, attr) for key, (attr, *_) in fitted.items()})
    payload.update(algo=algo, format=MODEL_FORMAT, version=MODEL_VERSION)
    text = json.dumps(payload, sort_keys=True, indent=1, default=np.ndarray.tolist)
    Path(path).write_text(text + "\n")


def load_model(path):
    """The model `save_model` wrote to `path`; any other file raises InputDataError, as does
    a fitted field that is not finite numbers or strings or whose shape does not fit the
    model's other arrays."""
    path = Path(path)
    try:
        payload = json.loads(path.read_bytes().decode())
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON or too deep
        raise InputDataError(f"cannot read model file {path}: {exc}") from exc
    if not (isinstance(payload, dict) and payload.get("format") == MODEL_FORMAT):
        raise InputDataError(f"{path} is not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise InputDataError(f"{path} is a {MODEL_FORMAT} file of version "
                             f"{payload.get('version')!r}, this program reads {MODEL_VERSION}")
    try:
        if payload["algo"] not in _MODEL_FIELDS:
            raise InputDataError(f"unknown model algo {payload['algo']!r}")
        cls, args, fitted = _MODEL_FIELDS[payload["algo"]]
        model = cls(**{key: payload[key] for key in args})
        stored = {key: payload[key] for key in fitted}
    except (KeyError, TypeError, ValueError, TrainingError) as exc:  # a key missing or bad
        raise InputDataError(f"{path} does not hold a usable model: {exc!r}") from exc
    sizes = {}
    for key, (attr, rebuild, axes) in fitted.items():
        try:
            value = rebuild(stored[key])
        except ValueError as exc:  # not numbers or not strings, or nested unevenly
            raise InputDataError(f"{path}: {key}: {exc}") from exc
        shape = np.shape(value)
        if axes is not None and (len(shape) != len(axes) or any(
                sizes.setdefault(axis, size) != size for axis, size in zip(axes, shape))):
            shapes = ", ".join(f"{k} ({', '.join(a)})" for k, (_, _, a) in fitted.items() if a)
            raise InputDataError(f"{path}: {key} has shape {shape}, and a model's arrays "
                                 f"must be {shapes}")
        setattr(model, attr, float(value) if axes == "" else value)
    if isinstance(model, KnnClassifier) and model.k > sizes["n"]:
        raise InputDataError(f"{path}: k = {model.k} exceeds the {sizes['n']} training rows")
    return model
