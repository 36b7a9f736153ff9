"""The block-based SGD step against the loop it replaced (tests/sgd_oracle.py),
and the alignment of every model's parameter arrays."""

import numpy as np
import pytest

from seasonvpc import (
    MissionConfig,
    ModelParams,
    StrategyConfig,
    SynthConfig,
    TrainConfig,
    fine_tune,
    init_model,
    initial_state,
    load_state,
    loss_and_gradient,
    predict,
    run_adaptation,
    save_state,
    synth_generate,
    train,
)
from seasonvpc.classify import ALIGN

import sgd_oracle
from conftest import same_params


def _labels(rng, n, k):
    """n labels covering every class in [0, k)."""
    y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(y)
    return y


def _assert_same(model, reference):
    assert same_params(model, reference)
    assert model.final_loss == reference.final_loss
    assert model.seed == reference.seed


def _check_against_oracle(rng, n, f_dim, k, k2, cfg, dtype=np.float64):
    x = rng.normal(size=(n, f_dim)).astype(dtype)
    y = _labels(rng, n, k)
    trained = train(x, y, k, cfg)
    reference = sgd_oracle.train_reference(x, y, k, cfg)
    _assert_same(trained, reference)
    y2 = _labels(rng, n, k2)
    _assert_same(fine_tune(trained, x, y2, k2, cfg),
                 sgd_oracle.fine_tune_reference(reference, x, y2, k2, cfg))


# (n, F, K, K after fine-tuning, TrainConfig fields)
EDGE_CASES = {
    "batch-1": (10, 5, 3, 3, dict(batch_size=1, epochs=3, hidden=4)),
    "batch-not-dividing-n": (10, 5, 3, 3, dict(batch_size=3, epochs=3, hidden=4)),
    "batch-above-n": (10, 5, 3, 3, dict(batch_size=25, epochs=3, hidden=4)),
    "epochs-0": (10, 5, 3, 3, dict(batch_size=4, epochs=0, hidden=4)),
    "hidden-1": (12, 5, 3, 3, dict(batch_size=4, epochs=3, hidden=1)),
    "one-class": (8, 5, 1, 1, dict(batch_size=3, epochs=3, hidden=4)),
    "one-row": (1, 5, 1, 1, dict(batch_size=32, epochs=3, hidden=4)),
    "head-grows": (20, 6, 3, 7, dict(batch_size=4, epochs=3, hidden=5)),
    "head-shrinks": (20, 6, 7, 2, dict(batch_size=4, epochs=3, hidden=5)),
    "features-4096": (40, 4096, 5, 6, dict(batch_size=8, epochs=2, hidden=16)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_train_and_fine_tune_equal_oracle_on_edge_cases(case):
    n, f_dim, k, k2, fields = EDGE_CASES[case]
    cfg = TrainConfig(learning_rate=0.5, seed=7, **fields)
    _check_against_oracle(np.random.default_rng(len(case)), n, f_dim, k, k2, cfg)


def test_train_and_fine_tune_equal_oracle_on_random_configs():
    for i in range(160):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(1, 41))
        k, k2 = (int(v) for v in rng.integers(1, min(n, 6) + 1, size=2))
        cfg = TrainConfig(learning_rate=float(rng.uniform(0.01, 1.0)),
                          epochs=int(rng.integers(0, 5)),
                          batch_size=int(rng.integers(1, n + 9)),
                          hidden=int(rng.integers(1, 11)),
                          weight_scale=float(rng.uniform(0.0, 0.5)),
                          seed=i)
        dtype = np.float32 if i % 2 else np.float64
        _check_against_oracle(rng, n, int(rng.integers(1, 17)), k, k2, cfg, dtype)


def test_loss_and_gradient_equal_oracle():
    for i in range(40):
        rng = np.random.default_rng(i)
        n, f_dim, h, k = (int(v) for v in rng.integers(1, 12, size=4))
        m = init_model(f_dim, h, k, seed=i, weight_scale=float(rng.uniform(0.0, 2.0)))
        x = rng.normal(size=(n, f_dim))
        y = rng.integers(0, k, size=n)
        loss, g = loss_and_gradient(m, x, y)
        ref_loss, ref = sgd_oracle.loss_and_gradient(m, x, y)
        assert loss == ref_loss
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(g, name), getattr(ref, name))


def _assert_aligned(m):
    for a in (m.w1, m.b1, m.w2, m.b2):
        assert a.flags.c_contiguous
        assert a.ctypes.data % ALIGN == 0


def _copy_at(a, offset):
    """A C-contiguous copy of a whose data starts at `offset` mod 64 bytes."""
    raw = np.empty(a.size + 16)
    start = (offset - raw.ctypes.data) % 64 // 8
    out = raw[start:start + a.size].reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def test_every_model_is_aligned(tmp_path):
    seasons = synth_generate(SynthConfig(n_places=4, loop_length=80.0, images_per_place=3,
                                         feature_dim=9, n_seasons=3, seed=2))
    cfg = MissionConfig(strategy=StrategyConfig("ST1"), capacity=1,
                        train=TrainConfig(epochs=2, hidden=5))
    trained = run_adaptation(initial_state(1), seasons[0], cfg)
    tuned = run_adaptation(trained, seasons[1], cfg)
    for state in (trained, tuned):
        model = state.classifiers[0].model
        _assert_aligned(model)
        save_state(state, tmp_path / "state.svpc")
        loaded = load_state(tmp_path / "state.svpc").classifiers[0].model
        _assert_aligned(loaded)
        assert same_params(loaded, model)
    _assert_aligned(init_model(9, 5, 4))


def test_predict_does_not_depend_on_alignment():
    rng = np.random.default_rng(1)
    m = init_model(4096, 64, 100, seed=3)
    x = rng.normal(size=(20, 4096))
    aligned = predict(m, x)
    for offset in (16, 32, 48):
        moved = ModelParams(_copy_at(m.w1, offset), _copy_at(m.b1, offset),
                            _copy_at(m.w2, offset), _copy_at(m.b2, offset))
        assert np.array_equal(predict(moved, x), aligned)
