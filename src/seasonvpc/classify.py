"""Place-classifier backend.

A small two-layer softmax network: a shared body (linear + ReLU) standing
in for a transferred trunk, and a per-partition softmax head that is
replaced whenever the class set changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    hidden: int = 64
    weight_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.hidden < 1:
            raise ValueError("learning_rate, batch_size and hidden must be positive")
        if self.epochs < 0 or self.weight_scale < 0:
            raise ValueError("epochs and weight_scale must be non-negative")
        if not (math.isfinite(self.learning_rate) and math.isfinite(self.weight_scale)):
            raise ValueError("learning_rate and weight_scale must be finite")


@dataclass(eq=False)
class ModelParams:
    """Body (w1, b1) + softmax head (w2, b2); immutable by convention.

    final_loss and seed are training metadata carried for reporting and
    serialization; they do not affect predictions.
    """

    w1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (K, H)
    b2: np.ndarray  # (K,)
    final_loss: float | None = None
    seed: int | None = None

    @property
    def feature_dim(self) -> int:
        return int(self.w1.shape[1])

    @property
    def hidden(self) -> int:
        return int(self.w1.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.w2.shape[0])


def models_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bitwise parameter equality."""
    return (
        np.array_equal(a.w1, b.w1)
        and np.array_equal(a.b1, b.b1)
        and np.array_equal(a.w2, b.w2)
        and np.array_equal(a.b2, b.b2)
    )


def _init_from_rng(f_dim: int, hidden: int, n_classes: int, rng: np.random.Generator,
                   weight_scale: float, seed: int | None = None) -> ModelParams:
    return ModelParams(
        w1=rng.uniform(-weight_scale, weight_scale, size=(hidden, f_dim)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-weight_scale, weight_scale, size=(n_classes, hidden)),
        b2=np.zeros(n_classes),
        seed=seed,
    )


def init_model(f_dim: int, hidden: int, n_classes: int, seed: int = 0,
               weight_scale: float = 0.1) -> ModelParams:
    """Seeded uniform init in [-weight_scale, weight_scale]; zero biases."""
    if min(f_dim, hidden, n_classes) < 1:
        raise ValueError("all dimensions must be >= 1")
    return _init_from_rng(f_dim, hidden, n_classes, np.random.default_rng(seed),
                          weight_scale, seed=seed)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(m: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z1 = x @ m.w1.T + m.b1
    a1 = np.maximum(z1, 0.0)
    return z1, a1, _softmax(a1 @ m.w2.T + m.b2)


def predict(m: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, K) for a batch of feature vectors (n, F).

    Each row is multiplied on its own: the matmuls are stacked over an
    (n, 1, F) batch, so every row runs the same matrix-vector product as a
    batch of one. A row's probabilities are therefore bit-identical whatever
    batch it arrives in; one (n, F) GEMM would block the sums differently
    depending on n and change the last bits.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.feature_dim:
        raise ValueError(f"feature batch shape {x.shape} != (n, {m.feature_dim})")
    a1 = np.maximum((x[:, None, :] @ m.w1.T)[:, 0, :] + m.b1, 0.0)
    return _softmax((a1[:, None, :] @ m.w2.T)[:, 0, :] + m.b2)


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def loss_and_gradient(m: ModelParams, features: np.ndarray,
                      labels: np.ndarray) -> tuple[float, Gradients]:
    """Mean cross-entropy over the batch and exact analytic gradients.

    features: (n, F) batch, labels: (n,) class ids in [0, K).
    """
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


def _sgd(m: ModelParams, x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
         rng: np.random.Generator) -> ModelParams:
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


def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    present = np.unique(y)
    if np.any(present < 0) or np.any(present >= n_classes):
        raise ValueError("label out of range")
    missing = set(range(n_classes)) - set(int(c) for c in present)
    if missing:
        raise ValueError(f"classes without examples: {sorted(missing)}")
    return y


def train(features: np.ndarray, labels: np.ndarray, n_classes: int,
          cfg: TrainConfig) -> ModelParams:
    """Train a fresh model with seeded init and seeded minibatch shuffling.

    Every class in [0, n_classes) must have at least one example.
    """
    x = np.asarray(features, dtype=np.float64)
    y = _check_labels(labels, n_classes)
    rng = np.random.default_rng(cfg.seed)
    m = _init_from_rng(x.shape[1], cfg.hidden, n_classes, rng, cfg.weight_scale)
    return _sgd(m, x, y, cfg, rng)


def fine_tune(m: ModelParams, features: np.ndarray, labels: np.ndarray,
              n_classes: int, cfg: TrainConfig) -> ModelParams:
    """Warm-started retraining: keep the body, replace the softmax head with
    a fresh one sized to the new class count, then train as usual."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[1] != m.feature_dim:
        raise ValueError(f"feature dimension {x.shape[1]} != model input {m.feature_dim}")
    y = _check_labels(labels, n_classes)
    rng = np.random.default_rng(cfg.seed)
    warm = ModelParams(
        w1=m.w1.copy(),
        b1=m.b1.copy(),
        w2=rng.uniform(-cfg.weight_scale, cfg.weight_scale, size=(n_classes, m.hidden)),
        b2=np.zeros(n_classes),
    )
    return _sgd(warm, x, y, cfg, rng)

