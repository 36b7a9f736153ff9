import math
import warnings

import numpy as np
import pytest

from seasonvpc import (
    DivergenceError,
    TrainConfig,
    fine_tune,
    init_model,
    loss_and_gradient,
    predict,
    train,
)

from conftest import same_params


def _blobs(rng, n_classes=3, per_class=12, dim=8, sep=3.0, spread=0.8):
    centers = rng.normal(0, sep, size=(n_classes, dim))
    x = np.concatenate([c + rng.normal(0, spread, size=(per_class, dim)) for c in centers])
    y = np.repeat(np.arange(n_classes), per_class)
    return x, y


def test_init_model_deterministic():
    a = init_model(6, 4, 3, seed=42)
    b = init_model(6, 4, 3, seed=42)
    assert same_params(a, b)
    c = init_model(6, 4, 3, seed=43)
    assert not same_params(a, c)


def test_zero_weight_scale_gives_uniform_prediction():
    m = init_model(5, 4, 3, seed=0, weight_scale=0.0)
    p = predict(m, np.ones((1, 5)))
    np.testing.assert_allclose(p, np.full((1, 3), 1 / 3))


def test_single_class_predicts_one():
    m = init_model(5, 4, 1, seed=0)
    np.testing.assert_allclose(predict(m, np.ones((2, 5))), [[1.0], [1.0]])


def test_predict_probabilities_normalized_and_shift_invariant():
    rng = np.random.default_rng(1)
    m = init_model(6, 5, 4, seed=7, weight_scale=0.5)
    p = predict(m, rng.normal(size=(20, 6)))
    assert p.shape == (20, 4)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-6)
    assert np.all(p >= 0)
    shifted = init_model(6, 5, 4, seed=7, weight_scale=0.5)
    shifted.b2[:] = m.b2 + 3.7  # constant added to every logit
    f = rng.normal(size=(1, 6))
    np.testing.assert_allclose(predict(m, f), predict(shifted, f), atol=1e-12)


def test_predict_dimension_mismatch():
    m = init_model(5, 4, 3, seed=0)
    with pytest.raises(ValueError):
        predict(m, np.ones((1, 6)))
    with pytest.raises(ValueError):
        predict(m, np.ones(5))  # one vector, not a batch


def test_loss_analytic_values():
    # uniform prediction: zero weights -> loss = ln K
    m = init_model(4, 3, 5, seed=0, weight_scale=0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 4))
    y = rng.integers(0, 5, size=10)
    loss, _ = loss_and_gradient(m, x, y)
    assert loss == pytest.approx(math.log(5), rel=1e-12)
    # near-one-hot prediction: tiny loss
    m2 = init_model(2, 2, 2, seed=0, weight_scale=0.0)
    m2.w1[:] = np.eye(2) * 50.0
    m2.w2[:] = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 50.0
    x2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    y2 = np.array([0, 1])
    loss2, _ = loss_and_gradient(m2, x2, y2)
    assert loss2 == pytest.approx(0.0, abs=1e-9)


def test_loss_label_out_of_range():
    m = init_model(4, 3, 2, seed=0)
    with pytest.raises(ValueError):
        loss_and_gradient(m, np.zeros((2, 4)), np.array([0, 2]))


def _numeric_gradient(m, x, y, eps=1e-4):
    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(m, name)
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = loss_and_gradient(m, x, y)
            arr[idx] = orig - eps
            lm, _ = loss_and_gradient(m, x, y)
            arr[idx] = orig
            num[idx] = (lp - lm) / (2 * eps)
        grads[name] = num
    return grads


def _max_rel_error(analytic, numeric):
    worst = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        a = getattr(analytic, name)
        n = numeric[name]
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst


def test_gradient_matches_central_finite_differences():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        m = init_model(5, 4, 3, seed=seed, weight_scale=0.5)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        _, g = loss_and_gradient(m, x, y)
        assert _max_rel_error(g, _numeric_gradient(m, x, y)) < 1e-4


def test_train_separable_blobs():
    rng = np.random.default_rng(0)
    x, y = _blobs(rng)
    m = train(x, y, 3, TrainConfig(epochs=30, seed=0))
    pred = predict(m, x).argmax(axis=1)
    assert (pred == y).mean() >= 0.95


def test_train_zero_epochs_returns_init():
    rng = np.random.default_rng(1)
    x, y = _blobs(rng)
    cfg = TrainConfig(epochs=0, seed=5)
    m = train(x, y, 3, cfg)
    ref = init_model(x.shape[1], cfg.hidden, 3, seed=5, weight_scale=cfg.weight_scale)
    assert same_params(m, ref)


def test_train_deterministic():
    rng = np.random.default_rng(2)
    x, y = _blobs(rng)
    cfg = TrainConfig(epochs=10, seed=9)
    assert same_params(train(x, y, 3, cfg), train(x, y, 3, cfg))


def test_train_requires_every_class():
    x = np.zeros((4, 3))
    y = np.array([0, 0, 2, 2])
    with pytest.raises(ValueError):
        train(x, y, 3, TrainConfig(epochs=1))


def test_full_batch_loss_non_increasing_with_small_lr():
    rng = np.random.default_rng(3)
    x, y = _blobs(rng, per_class=10)
    losses = []
    for epochs in range(0, 16, 3):
        m = train(x, y, 3, TrainConfig(learning_rate=0.01, epochs=epochs,
                                       batch_size=len(x), seed=4))
        loss, _ = loss_and_gradient(m, x, y)
        losses.append(loss)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("fn", ["train", "fine_tune"])
def test_diverging_training_raises_instead_of_returning_non_finite_parameters(fn):
    rng = np.random.default_rng(7)
    x, y = _blobs(rng)
    cfg = TrainConfig(learning_rate=1e300, epochs=3, seed=1)
    with pytest.raises(DivergenceError, match="train.learning_rate 1e"):
        if fn == "train":
            train(x, y, 3, cfg)
        else:
            fine_tune(init_model(x.shape[1], cfg.hidden, 3), x, y, 3, cfg)


def test_divergence_from_the_weight_scale_names_it():
    # An initial weight scale too large overflows at the learning rate the
    # user left at its default: the message names both values.
    rng = np.random.default_rng(7)
    x, y = _blobs(rng)
    with pytest.raises(DivergenceError, match=r"^training diverged at train.learning_rate 0.05 "
                                              r"and train.weight_scale 1e\+200$"):
        train(x, y, 3, TrainConfig(weight_scale=1e200, epochs=2))


def test_diverging_training_warns_nothing():
    rng = np.random.default_rng(7)
    x, y = _blobs(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        with pytest.raises(DivergenceError):
            train(x, y, 3, TrainConfig(learning_rate=1e300, epochs=3, seed=1))


def test_fine_tune_zero_epochs_copies_body_and_replaces_head():
    rng = np.random.default_rng(4)
    x, y = _blobs(rng)
    m = train(x, y, 3, TrainConfig(epochs=5, seed=1))
    ft = fine_tune(m, x, y, 3, TrainConfig(epochs=0, seed=2))
    assert np.array_equal(ft.w1, m.w1)
    assert np.array_equal(ft.b1, m.b1)
    assert not np.array_equal(ft.w2, m.w2)
    assert ft.n_classes == 3


def test_fine_tune_resizes_head():
    rng = np.random.default_rng(5)
    x, y = _blobs(rng, n_classes=3)
    m = train(x, y, 3, TrainConfig(epochs=5, seed=1))
    y5 = np.concatenate([y, np.array([3, 3, 4, 4])])
    x5 = np.concatenate([x, rng.normal(size=(4, x.shape[1]))])
    ft = fine_tune(m, x5, y5, 5, TrainConfig(epochs=2, seed=1))
    assert ft.n_classes == 5


def test_fine_tune_dimension_mismatch():
    rng = np.random.default_rng(6)
    x, y = _blobs(rng)
    m = train(x, y, 3, TrainConfig(epochs=1, seed=1))
    with pytest.raises(ValueError):
        fine_tune(m, np.zeros((4, x.shape[1] + 1)), np.array([0, 1, 2, 0]), 3,
                  TrainConfig(epochs=1))


def test_fine_tune_warm_start_beats_scratch_on_most_seeds():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, y = _blobs(rng, n_classes=4, per_class=12, sep=3.0)
        cfg = TrainConfig(epochs=30, seed=seed)
        scratch = train(x, y, 4, cfg)
        warm = fine_tune(scratch, x, y, 4, cfg)
        wins += warm.final_loss <= scratch.final_loss
    assert wins >= 8


# (rows of features, labels): shapes that train, fine_tune and
# loss_and_gradient refuse before any work.
BAD_SHAPES = {
    "more-labels-than-rows": (np.zeros((4, 3)), np.array([0, 1, 2, 0, 1])),
    "fewer-labels-than-rows": (np.zeros((4, 3)), np.array([0, 1, 2])),
    "2d-labels": (np.zeros((4, 3)), np.array([[0], [1], [2], [0]])),
    "1d-features": (np.zeros(3), np.array([0, 1, 2])),
}


def _call(fn, features, labels):
    model = init_model(3, 4, 3, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=2)
    if fn == "train":
        return train(features, labels, 3, cfg)
    if fn == "fine_tune":
        return fine_tune(model, features, labels, 3, cfg)
    return loss_and_gradient(model, features, labels)


@pytest.mark.parametrize("fn", ["train", "fine_tune", "loss_and_gradient"])
@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
def test_training_inputs_of_the_wrong_shape_raise_value_error(fn, shape):
    with pytest.raises(ValueError, match="are not"):
        _call(fn, *BAD_SHAPES[shape])
