"""The lean SMO loop of `SvmClassifier.fit` against the loop it replaced.

`reference_svm_fit` is that loop, kept verbatim as the oracle: every pair
update recomputes yg = -y G, both index sets and the step denominators from
the whole arrays.  The lean loop keeps yg on I_up and on I_low as two masked
arrays updated in place; it must make the same pair updates and give the same
bits for `dual_coef`, `support_vectors`, `bias`, `n_iter` and
`max_kkt_residual`, and raise the same TrainingError where it does not converge.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier.config import default_config
from radiobarrier.errors import TrainingError
from radiobarrier.learn import _TAU, SvmClassifier, _standardize_fit, stratified_folds
from radiobarrier.pipeline import feature_matrix, featurize_dataset
from radiobarrier.simulator import generate_dataset


def reference_svm_fit(self, X, y):
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
    C, tol = self.C, self.tol

    alphas = np.zeros(len(Xs))
    grad = -np.ones(len(Xs))  # G = Q alpha - e at alpha = 0
    self.n_iter = 0
    while True:
        yg = -ysign * grad
        up = np.where(ysign > 0, alphas < C, alphas > 0)
        low = np.where(ysign > 0, alphas > 0, alphas < C)
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        m = yg[i]
        M = np.where(low, yg, np.inf).min()
        if m - M <= tol:
            break
        if self.n_iter >= self.max_iter:
            raise TrainingError(
                f"SVM did not converge after {self.n_iter} pair updates "
                f"(KKT gap {m - M:.3g}, tol {tol})"
            )
        b = m - yg
        a = np.maximum(K[i, i] + diag - 2.0 * K[i], _TAU)
        j = int(np.argmax(np.where(low & (b > 0), b * b / a, -np.inf)))
        # alpha_i += y_i t and alpha_j -= y_j t keep sum(y alpha) fixed; the
        # unclipped optimum is t = b_j / a_j.  A multiplier whose room runs
        # out lands exactly on its bound, so round-off never leaves it free.
        steps = ((i, ysign[i]), (j, -ysign[j]))
        room = [C - alphas[k] if d > 0 else alphas[k] for k, d in steps]
        t = min(b[j] / a[j], *room)
        for (k, d), r in zip(steps, room):
            old = alphas[k]
            alphas[k] = (C if d > 0 else 0.0) if t == r else old + d * t
            grad += ((alphas[k] - old) * ysign[k]) * ysign * K[k]
        self.n_iter += 1

    free = (alphas > 0) & (alphas < C)
    self.bias = float(yg[free].mean()) if free.any() else float(m + M) / 2.0
    self.max_kkt_residual = self._max_residual(alphas, ysign, K, self.bias)
    if self.max_kkt_residual > tol:
        raise TrainingError(
            f"SVM stalled with KKT residual {self.max_kkt_residual:.3g} > tol {tol}"
        )
    keep = alphas > 1e-9
    self.support_vectors = Xs[keep]
    self.dual_coef = (alphas * ysign)[keep]
    return self


def outcome(fit, make, X, y):
    """What one fit leaves: its arrays as bytes and its scalars as bits, or its error."""
    model = make()
    try:
        fit(model, X, y)
    except TrainingError as exc:
        return "TrainingError", str(exc), model.n_iter
    return (model.dual_coef.tobytes(), model.support_vectors.tobytes(),
            np.float64(model.bias).tobytes(), model.n_iter,
            np.float64(model.max_kkt_residual).tobytes())


def assert_same_fit(make, X, y):
    assert outcome(SvmClassifier.fit, make, X, y) == outcome(reference_svm_fit, make, X, y)


@st.composite
def svm_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):  # small integers: ties, exact cancellations, zero gradients
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d)) + rng.choice([0.0, 1.5], size=(n, 1))
    X[rng.integers(0, n, n // 3)] = X[rng.integers(0, n, n // 3)]  # repeated rows
    X[:, rng.random(d) < 0.25] = draw(st.sampled_from([0.0, 7.0]))  # constant columns
    y = np.where(rng.random(n) < draw(st.sampled_from([0.2, 0.5])), "truck", "car")
    y[:2] = ["car", "truck"]  # both classes
    rng.shuffle(y)
    kernel = draw(st.sampled_from(["linear", "rbf"]))
    C = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0, 1000.0]))
    gamma = draw(st.none() | st.floats(0.01, 10.0))
    tol = draw(st.sampled_from([1e-3, 0.1, -0.05]))  # below 0, a step may find no b_j > 0
    max_iter = draw(st.sampled_from([1, 5, 20, 200 if tol < 0 else 1_000_000]))
    return X, y, dict(kernel=kernel, C=C, gamma=gamma, tol=tol, max_iter=max_iter)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=svm_cases())
def test_matches_reference_on_random_cases(case):
    X, y, params = case
    assert_same_fit(lambda: SvmClassifier(**params), X, y)


def test_a_zero_bias_keeps_its_sign():
    # both multipliers end at C, and the bias (m + M) / 2 adds two gradients of exactly
    # 0 on second-class rows: -0.0 in the reference, where yg updated in place holds +0.0
    X = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
    y = np.array(["a", "b", "b", "a"])
    model = SvmClassifier(kernel="linear", C=0.5).fit(X, y)
    assert model.bias == 0.0 and np.signbit(model.bias)
    assert_same_fit(lambda: SvmClassifier(kernel="linear", C=0.5), X, y)


@pytest.fixture(scope="module")
def seed_42_table():
    """The paper's benchmark table: default config, seed 42, 50 events per type."""
    cfg = default_config()
    layout = cfg.build_layout()
    dataset = generate_dataset(layout, cfg.channel, cfg.build_patterns(layout), cfg.catalog,
                               {t: 50 for t in cfg.catalog}, cfg.sim, seed=42)
    table, _ = featurize_dataset(dataset, layout, cfg.detection, cfg.features)
    return table


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("feature_set", ["both", "rssi", "length"])
def test_matches_reference_on_every_seed_42_fold(seed_42_table, feature_set, kernel):
    X, y = feature_matrix(seed_42_table, feature_set), np.array(seed_42_table.labels)
    fold_of = stratified_folds(y, seed_42_table.event_ids, 5, seed=42)
    for fold in range(5):
        train = fold_of != fold
        assert_same_fit(lambda: SvmClassifier(kernel=kernel), X[train], y[train])
