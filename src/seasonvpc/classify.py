"""Place-classifier backend.

A small two-layer softmax network: a shared body (linear + ReLU) standing
in for a transferred trunk, and a per-partition softmax head that is
replaced whenever the class set changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import require_integers, require_reals


class DivergenceError(Exception):
    """Training reached non-finite parameters: the learning rate is too large."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    hidden: int = 64
    weight_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        require_integers(self, "epochs", "batch_size", "hidden", "seed")
        require_reals(self, "learning_rate", "weight_scale")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.hidden < 1:
            raise ValueError("learning_rate, batch_size and hidden must be positive")
        if self.epochs < 0 or self.weight_scale < 0 or self.seed < 0:
            raise ValueError("epochs, weight_scale and seed must be non-negative")


@dataclass(eq=False)
class ModelParams:
    """Body (w1, b1) + softmax head (w2, b2); immutable by convention.

    Models built by this package keep their four arrays in one block, each
    starting on an ALIGN-byte boundary (`_block`); the class itself accepts
    any arrays. final_loss and seed are training metadata carried for
    reporting and serialization; they do not affect predictions.
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


# Every parameter array of a model starts on a cache-line boundary. A
# 500 x 4096 predict (H 64, K 100; one BLAS thread, x86-64) took 19-20 ms with
# w1 at 0 or 32 mod 64 bytes and 22-23 ms at 16 or 48, with bit-identical
# results; heap placement would leave that to luck.
ALIGN = 64
_UNIT = ALIGN // 8  # float64 elements per aligned unit


def _block(f_dim: int, hidden: int, n_classes: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat float64 block holding w1, b1, w2 and b2 in that order, each
    starting on an ALIGN-byte boundary, and the four views into it.

    The parameter values are left unset; the padding between arrays is zero,
    so whole-block arithmetic on two blocks of one shape stays finite."""
    shapes = ((hidden, f_dim), (hidden,), (n_classes, hidden), (n_classes,))
    sizes = [math.prod(shape) for shape in shapes]
    padded = [-(-size // _UNIT) * _UNIT for size in sizes]
    total = sum(padded)
    raw = np.empty(total + _UNIT)
    start = -raw.ctypes.data % ALIGN // 8
    flat = raw[start:start + total]
    views, pos = [], 0
    for shape, size, span in zip(shapes, sizes, padded):
        views.append(flat[pos:pos + size].reshape(shape))
        flat[pos + size:pos + span] = 0.0
        pos += span
    return flat, views


def _in_block(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
              **meta) -> tuple[np.ndarray, ModelParams]:
    """A model holding copies of the four arrays in one new block, and the block."""
    flat, views = _block(w1.shape[1], w1.shape[0], w2.shape[0])
    for view, a in zip(views, (w1, b1, w2, b2)):
        view[...] = a
    return flat, ModelParams(*views, **meta)


def model_from_flat(values: np.ndarray, f_dim: int, hidden: int, n_classes: int,
                    final_loss: float | None = None, seed: int | None = None) -> ModelParams:
    """A model whose w1, b1, w2 and b2 are stored back to back in the 1-D
    `values` (e.g. a view of a state file), copied into one aligned block."""
    _, views = _block(f_dim, hidden, n_classes)
    pos = 0
    for view in views:
        view.reshape(-1)[:] = values[pos:pos + view.size]
        pos += view.size
    return ModelParams(*views, final_loss=final_loss, seed=seed)


def _init_from_rng(f_dim: int, hidden: int, n_classes: int, rng: np.random.Generator,
                   weight_scale: float, seed: int | None = None
                   ) -> tuple[np.ndarray, ModelParams]:
    return _in_block(rng.uniform(-weight_scale, weight_scale, size=(hidden, f_dim)),
                     np.zeros(hidden),
                     rng.uniform(-weight_scale, weight_scale, size=(n_classes, hidden)),
                     np.zeros(n_classes), seed=seed)


def init_model(f_dim: int, hidden: int, n_classes: int, seed: int = 0,
               weight_scale: float = 0.1) -> ModelParams:
    """Seeded uniform init in [-weight_scale, weight_scale]; zero biases."""
    if min(f_dim, hidden, n_classes) < 1:
        raise ValueError("all dimensions must be >= 1")
    return _init_from_rng(f_dim, hidden, n_classes, np.random.default_rng(seed),
                          weight_scale, seed=seed)[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _forward(m: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z1 = x @ m.w1.T
    z1 += m.b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ m.w2.T
    logits += m.b2
    return z1, a1, _softmax(logits)


# The first-layer weight matrix is multiplied in blocks of whole rows
# (hidden units), each run over the whole query batch while it stays in
# cache. Half of a 2 MiB per-core L2: 500 queries x 4096-d through 4 models
# of H 64 (one OpenBLAS thread, x86-64) took 101-107 ms unblocked, where
# every row streams the whole 2 MiB w1 from L3 again, and 58-60 ms in two
# 32-row blocks. A w1 within BLOCK_BYTES is one block.
BLOCK_BYTES = 1 << 20
# Blocks start on, and span, multiples of this many rows. This is not a BLAS
# contract: it was found by testing against the unblocked per-row product
# (tests/test_vpc.py, the oracle grid) with OpenBLAS's x86-64 GEMV kernel at
# one thread, where a 16-row group sums each hidden unit as the whole matrix
# does. Another BLAS library or CPU kernel may group rows differently.
_ROW_GROUP = 16


@functools.lru_cache(maxsize=16)
def _row_blocks(hidden: int, f_dim: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) of each first-layer row block of a (hidden, f_dim) w1.

    Rows left over after the last whole block join it: split off, they run
    a narrower GEMV whose sums differ in the last bits (seen at H 17, F 8192).
    The bounds depend on the shape alone, never on the batch; cached, since
    a single query's predict is short enough for their arithmetic to show."""
    rows = max(_ROW_GROUP, BLOCK_BYTES // (8 * f_dim) // _ROW_GROUP * _ROW_GROUP)
    starts = range(0, max(1, hidden // rows) * rows, rows)
    return tuple(zip(starts, [*starts[1:], hidden]))


def predict(m: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, K) for a batch of feature vectors (n, F).

    Each row is multiplied on its own: the matmuls are stacked over an
    (n, 1, F) batch, so every row runs the same matrix-vector products as a
    batch of one. A row's probabilities are therefore bit-identical whatever
    batch it arrives in; one (n, F) GEMM would block the sums differently
    depending on n and change the last bits.

    w1 is multiplied in row blocks (`_row_blocks`) that fit in L2, each
    over the whole batch; a w1 within BLOCK_BYTES is one block. The bounds
    depend on the model's shape only, so batch invariance holds at any BLAS
    thread count. With OpenBLAS at one thread on x86-64 (the benchmark's
    setting, where the oracle grid was run) the result also equals the
    unblocked product bit for bit; with more threads, or another BLAS, the
    bits can differ from the unblocked product, but still not with the batch.
    """
    x = np.asarray(features, dtype=np.float64)
    hidden, f_dim = m.w1.shape
    if x.ndim != 2 or x.shape[1] != f_dim:
        raise ValueError(f"feature batch shape {x.shape} != (n, {f_dim})")
    rows = x[:, None, :]
    z1 = np.empty((len(x), 1, hidden))
    for a, b in _row_blocks(hidden, f_dim):
        np.matmul(rows, m.w1[a:b].T, out=z1[:, :, a:b])
    # In place: the same ufuncs on the same values as z1 + b1 and so on,
    # so the same bits, without a temporary per step.
    z1 += m.b1
    np.maximum(z1, 0.0, out=z1)
    logits = (z1 @ m.w2.T)[:, 0, :]
    logits += m.b2
    return _softmax(logits)


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _mean_nll(probs: np.ndarray, y: np.ndarray) -> float:
    return float(-np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300)).mean())


def _backward(m: ModelParams, x: np.ndarray, z1: np.ndarray, a1: np.ndarray,
              probs: np.ndarray, onehot: np.ndarray, g: Gradients) -> None:
    """Write the gradients of the batch's mean cross-entropy into g.

    z1, a1 and probs come from _forward(m, x); onehot holds the batch's
    targets. probs is overwritten."""
    dlogits = probs
    dlogits -= onehot
    dlogits /= x.shape[0]
    np.matmul(dlogits.T, a1, out=g.w2)
    dlogits.sum(axis=0, out=g.b2)
    dz1 = dlogits @ m.w2
    dz1 *= z1 > 0.0
    np.matmul(dz1.T, x, out=g.w1)
    dz1.sum(axis=0, out=g.b1)


def _check_batch(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError(f"features {x.shape} and labels {y.shape} are not (n, F) and (n,)")
    return x, y


def loss_and_gradient(m: ModelParams, features: np.ndarray,
                      labels: np.ndarray) -> tuple[float, Gradients]:
    """Mean cross-entropy over the batch and exact analytic gradients.

    features: (n, F) batch, labels: (n,) class ids in [0, K).
    """
    x, y = _check_batch(features, labels)
    if np.any(y < 0) or np.any(y >= m.n_classes):
        raise ValueError("label out of range")
    z1, a1, probs = _forward(m, x)
    loss = _mean_nll(probs, y)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(y)), y] = 1.0
    g = Gradients(*_block(m.feature_dim, m.hidden, m.n_classes)[1])
    _backward(m, x, z1, a1, probs, onehot, g)
    return loss, g


def _sgd(params: np.ndarray, m: ModelParams, x: np.ndarray, y: np.ndarray,
         cfg: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Minibatch SGD on m, whose arrays are views into the block `params`,
    updated in place.

    Bit-identical to taking loss_and_gradient(m, x[idx], y[idx]) each step
    and subtracting learning_rate times each gradient: the step runs the same
    _forward and _backward, writes the gradients into a block laid out like
    `params`, and updates all four arrays with two whole-block ufuncs."""
    n = x.shape[0]
    grads, views = _block(m.feature_dim, m.hidden, m.n_classes)
    g = Gradients(*views)
    onehot = np.empty((n, m.n_classes))
    # A diverging run overflows; the check below reports it as one error.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            perm = rng.permutation(n)
            onehot.fill(0.0)
            onehot[np.arange(n), y[perm]] = 1.0
            for start in range(0, n, cfg.batch_size):
                stop = start + cfg.batch_size
                xb = x[perm[start:stop]]
                z1, a1, probs = _forward(m, xb)
                _backward(m, xb, z1, a1, probs, onehot[start:stop], g)
                grads *= cfg.learning_rate
                params -= grads
        final = _mean_nll(_forward(m, x)[2], y)
    if not (np.isfinite(params).all() and math.isfinite(final)):
        raise DivergenceError(f"training diverged at train.learning_rate {cfg.learning_rate!r}")
    return ModelParams(m.w1, m.b1, m.w2, m.b2, final_loss=final, seed=cfg.seed)


def _check_labels(y: np.ndarray, n_classes: int) -> None:
    present = np.unique(y)
    if np.any(present < 0) or np.any(present >= n_classes):
        raise ValueError("label out of range")
    missing = set(range(n_classes)) - set(int(c) for c in present)
    if missing:
        raise ValueError(f"classes without examples: {sorted(missing)}")


def train(features: np.ndarray, labels: np.ndarray, n_classes: int,
          cfg: TrainConfig) -> ModelParams:
    """Train a fresh model with seeded init and seeded minibatch shuffling.

    features: (n, F), labels: (n,). Every class in [0, n_classes) must have
    at least one example.
    """
    x, y = _check_batch(features, labels)
    _check_labels(y, n_classes)
    rng = np.random.default_rng(cfg.seed)
    params, m = _init_from_rng(x.shape[1], cfg.hidden, n_classes, rng, cfg.weight_scale)
    return _sgd(params, m, x, y, cfg, rng)


def fine_tune(m: ModelParams, features: np.ndarray, labels: np.ndarray,
              n_classes: int, cfg: TrainConfig) -> ModelParams:
    """Warm-started retraining: keep the body, replace the softmax head with
    a fresh one sized to the new class count, then train as usual."""
    x, y = _check_batch(features, labels)
    if x.shape[1] != m.feature_dim:
        raise ValueError(f"feature dimension {x.shape[1]} != model input {m.feature_dim}")
    _check_labels(y, n_classes)
    rng = np.random.default_rng(cfg.seed)
    params, warm = _in_block(
        m.w1, m.b1,
        rng.uniform(-cfg.weight_scale, cfg.weight_scale, size=(n_classes, m.hidden)),
        np.zeros(n_classes))
    return _sgd(params, warm, x, y, cfg, rng)
