"""Reference training path: the minibatch SGD loop that `classify._sgd` ran
before it was rewritten on one parameter block, with the loss and gradient
it called each step.

Every step calls `loss_and_gradient` on a freshly gathered minibatch and
subtracts `learning_rate` times each of the four gradients from separately
allocated arrays. Kept as the oracle the block-based step must reproduce bit
for bit: same parameters, same final loss.
"""

from __future__ import annotations

import numpy as np

from seasonvpc.classify import Gradients, ModelParams


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(m, x):
    z1 = x @ m.w1.T + m.b1
    a1 = np.maximum(z1, 0.0)
    return z1, a1, _softmax(a1 @ m.w2.T + m.b2)


def loss_and_gradient(m, features, labels):
    """Mean cross-entropy over the batch and exact analytic gradients."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if np.any(y < 0) or np.any(y >= m.n_classes):
        raise ValueError("label out of range")
    z1, a1, probs = _forward(m, x)
    loss = float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dw2 = dlogits.T @ a1
    db2 = dlogits.sum(axis=0)
    da1 = dlogits @ m.w2
    dz1 = da1 * (z1 > 0.0)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return loss, Gradients(w1=dw1, b1=db1, w2=dw2, b2=db2)


def _sgd(m, x, y, cfg, rng):
    w1, b1 = m.w1.copy(), m.b1.copy()
    w2, b2 = m.w2.copy(), m.b2.copy()
    n = x.shape[0]
    cur = ModelParams(w1, b1, w2, b2)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            _, g = loss_and_gradient(cur, x[idx], y[idx])
            w1 -= cfg.learning_rate * g.w1
            b1 -= cfg.learning_rate * g.b1
            w2 -= cfg.learning_rate * g.w2
            b2 -= cfg.learning_rate * g.b2
    final, _ = loss_and_gradient(cur, x, y)
    return ModelParams(w1, b1, w2, b2, final_loss=final, seed=cfg.seed)


def train_reference(features, labels, n_classes, cfg) -> ModelParams:
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    m = ModelParams(
        w1=rng.uniform(-cfg.weight_scale, cfg.weight_scale, size=(cfg.hidden, x.shape[1])),
        b1=np.zeros(cfg.hidden),
        w2=rng.uniform(-cfg.weight_scale, cfg.weight_scale, size=(n_classes, cfg.hidden)),
        b2=np.zeros(n_classes),
    )
    return _sgd(m, x, y, cfg, rng)


def fine_tune_reference(m, features, labels, n_classes, cfg) -> ModelParams:
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    warm = ModelParams(
        w1=m.w1.copy(),
        b1=m.b1.copy(),
        w2=rng.uniform(-cfg.weight_scale, cfg.weight_scale, size=(n_classes, m.hidden)),
        b2=np.zeros(n_classes),
    )
    return _sgd(warm, x, y, cfg, rng)
