"""Place-classifier backend.

A small two-layer softmax network: a shared body (linear + ReLU) standing
in for a transferred trunk, and a per-partition softmax head that is
replaced whenever the class set changes.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import require_integers, require_reals


class DivergenceError(Exception):
    """Training reached non-finite parameters: the learning rate or the
    initial weight scale is too large."""


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
    reporting and serialization; they do not affect predictions. A model in
    a `ClassifierRecord` carries both.
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
                    final_loss: float, seed: int) -> ModelParams:
    """A model whose w1, b1, w2 and b2 are stored back to back in the 1-D
    `values` (e.g. a view of a state file), copied into one aligned block,
    with the final_loss and seed it was trained with."""
    w1, b1, w2, b2 = np.split(values, np.cumsum([hidden * f_dim, hidden, n_classes * hidden]))
    return _in_block(w1.reshape(hidden, f_dim), b1, w2.reshape(n_classes, hidden), b2,
                     final_loss=final_loss, seed=seed)[1]


def init_model(f_dim: int, hidden: int, n_classes: int, seed: int = 0,
               weight_scale: float = 0.1) -> ModelParams:
    """Seeded uniform init in [-weight_scale, weight_scale]; zero biases."""
    if min(f_dim, hidden, n_classes) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    return _in_block(rng.uniform(-weight_scale, weight_scale, size=(hidden, f_dim)),
                     np.zeros(hidden),
                     rng.uniform(-weight_scale, weight_scale, size=(n_classes, hidden)),
                     np.zeros(n_classes), seed=seed)[1]


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
# 32-row blocks. A w1 within BLOCK_BYTES is one block, and so is a stack of
# two or more models of one shape whose weights together fit in it
# (`ModelStack`'s stacked layout): it copies them, so a stack copies at most
# BLOCK_BYTES.
BLOCK_BYTES = 1 << 20
# Blocks start on, and span, multiples of this many rows. This is not a BLAS
# contract: it was found by testing against the unblocked per-row product
# (tests/test_vpc.py, the oracle grid) with OpenBLAS's x86-64 GEMV kernel at
# one thread, where a 16-row group sums each hidden unit as the whole matrix
# does. Another BLAS library or CPU kernel may group rows differently.
_ROW_GROUP = 16


def _row_blocks(hidden: int, f_dim: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) of each first-layer row block of a (hidden, f_dim) w1.

    Rows left over after the last whole block join it: split off, they run
    a narrower GEMV whose sums differ in the last bits (seen at H 17, F 8192).
    The bounds depend on the shape alone, never on the batch."""
    rows = max(_ROW_GROUP, BLOCK_BYTES // (8 * f_dim) // _ROW_GROUP * _ROW_GROUP)
    starts = range(0, max(1, hidden // rows) * rows, rows)
    return tuple(zip(starts, [*starts[1:], hidden]))


class ModelStack:
    """Models of one input width as one network, their hidden units and
    classes side by side (hidden ΣH, n_classes C); width is their common
    class count, None if they differ. Immutable by convention. Built with
    Python integers.

    The layout is chosen by shape alone, never by batch:
    - Stacked, when two or more models share one (H, K) and their w1 and w2
      together fit in BLOCK_BYTES: w1t (S, 1, F, H) and w2t (S, H, K) hold
      copies of each w1.T and w2.T, at most BLOCK_BYTES, and b1 is
      (S, 1, 1, H).
    - Spans, otherwise, a stack of one model included (w1t is None): body
      holds each w1 row block's .T (`_row_blocks`) and hidden-unit span,
      heads each w2.T and its hidden-unit and class spans, all views; b1
      concatenates the biases.
    b2 concatenates the models' biases in either layout."""

    def __init__(self, models: list[ModelParams]) -> None:
        f_dims = [m.w1.shape[1] for m in models]
        if len(set(f_dims)) > 1:
            raise ValueError("models take features of different dimensions: " + ", ".join(
                f"model {i}: {f}" for i, f in enumerate(f_dims)))
        self.feature_dim = f_dim = f_dims[0]
        shapes = [m.w2.shape for m in models]  # (K, H) each
        s, (k, hidden) = len(models), shapes[0]
        self.width = k if len({c for c, _ in shapes}) == 1 else None
        self.b1 = np.concatenate([m.b1 for m in models])
        self.b2 = np.concatenate([m.b2 for m in models])
        if s > 1 and shapes.count(shapes[0]) == s and 8 * s * hidden * (f_dim + k) <= BLOCK_BYTES:
            self.hidden, self.n_classes, self.body, self.heads = s * hidden, s * k, (), ()
            self.b1 = self.b1.reshape(s, 1, 1, hidden)
            # each slice F-contiguous, as w1.T and w2.T are: the same GEMVs
            self.w1t = np.concatenate([m.w1 for m in models]).reshape(
                s, hidden, f_dim).transpose(0, 2, 1)[:, None]
            self.w2t = np.concatenate([m.w2 for m in models]).reshape(
                s, k, hidden).transpose(0, 2, 1)
            return
        self.w1t = self.w2t = None
        body, heads, h0, k0 = [], [], 0, 0
        for m in models:
            k, hidden = m.w2.shape
            body += [(m.w1[a:b].T, h0 + a, h0 + b) for a, b in _row_blocks(hidden, f_dim)]
            heads.append((m.w2.T, h0, h0 + hidden, k0, k0 + k))
            h0, k0 = h0 + hidden, k0 + k
        self.hidden, self.n_classes, self.body, self.heads = h0, k0, tuple(body), tuple(heads)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _span_rows(stack: ModelStack, x: np.ndarray, z1: np.ndarray, logits: np.ndarray) -> None:
    """The span layout's forward pass of the rows x (n, F) into z1 (n, 1, ΣH)
    and logits (n, C), each row on its own: views, so a thread running some
    rows of a batch writes only those rows' slices."""
    for w1t, a, b in stack.body:
        np.matmul(x[:, None, :], w1t, out=z1[:, :, a:b])
    z1 += stack.b1
    np.maximum(z1, 0.0, out=z1)
    for w2t, a, b, c, d in stack.heads:
        np.matmul(z1[:, :, a:b], w2t, out=logits[:, None, c:d])
    logits += stack.b2
    if stack.width:  # each row's S spans of K classes: one (n * S, K) softmax
        _softmax(logits.reshape(-1, stack.width))
    else:
        for *_, c, d in stack.heads:
            _softmax(logits[:, c:d])


def _split_rows(stack: ModelStack, x: np.ndarray, z1: np.ndarray, logits: np.ndarray) -> None:
    """_span_rows over the batch, its first half in the caller and its second
    as one executor future, run in a copy of the caller's context (so under
    the caller's `np.errstate`); the executor joins its worker before this
    returns, and `result()` raises the worker's exception here.

    concurrent.futures is imported on first use: it loads logging, which
    `import seasonvpc` does not pay for."""
    from concurrent.futures import ThreadPoolExecutor

    h = len(x) // 2
    with ThreadPoolExecutor(1) as pool:
        rest = pool.submit(contextvars.copy_context().run, _span_rows,
                           stack, x[h:], z1[h:], logits[h:])
        _span_rows(stack, x[:h], z1[:h], logits[:h])
        rest.result()


# A span-layout batch whose first layer takes at least this many
# multiply-adds (rows x ΣH x F) runs half its rows in a worker thread, when
# the process may use two CPUs. Below it the split lost (one BLAS thread,
# 2-CPU x86-64): starting and joining the thread, and the GIL both halves
# take for each numpy call, cost 0.2-0.4 ms, and numpy holds the GIL through
# a matmul of few rows. Unsplit against split, four 64-unit models: of
# mixed class counts at F 32, 100 rows took 0.7-1.0 ms against 0.9-1.5 ms;
# of 100 classes at F 4096 (desk-4096-loc's stack), 24 rows 3.3 against
# 3.7 ms, 32 rows (2^25) 4.0 against 2.3 ms and 500 rows 66 against 41 ms.
SPLIT_WORK = 1 << 25


def predict(m: ModelParams | ModelStack, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, K) for a batch of feature vectors (n, F); for
    a `ModelStack`, (n, C), each model's in its class span.

    Each row is multiplied on its own: the matmuls are stacked over an
    (n, 1, F) batch, so every row runs the same matrix-vector products as a
    batch of one. A row's probabilities are therefore bit-identical whatever
    batch it arrives in; one (n, F) GEMM would block the sums differently
    depending on n and change the last bits.

    w1 is multiplied in row blocks (`_row_blocks`) whose bounds depend on
    its shape only, so batch invariance holds at any BLAS thread count. With
    OpenBLAS at one thread on x86-64 (the benchmark's setting, where the
    oracle grids were run) the result also equals the unblocked product bit
    for bit; with more threads, or another BLAS, it can differ from that
    product in the last bits, but still not with the batch.

    A model in a stack gives the bits it gives alone: in either layout the
    same matrix-vector products on operands of the same layout write its
    part of the hidden layer and its class span of the logits, the rest is
    elementwise, and its softmax sum is one contiguous per-row reduction
    over its classes, in numpy's pairwise order. A stacked layout runs each
    layer as one broadcast matmul over every (model, row) pair instead of
    one call per span: the body model-outer, so each w1 is reused across
    the rows while in cache, the heads row-outer, straight into the logits.

    A model alone is a span stack of one. A span-layout batch of at least
    2 rows and SPLIT_WORK first-layer multiply-adds, in a process that may
    run on 2 CPUs or more, is split at n // 2: one executor future runs the
    second half while the caller runs the first, each writing its own rows
    of the arrays allocated here. Every row still runs the same per-row
    calls, so its bits are those of its single-row call. Single rows,
    stacked stacks and one-CPU processes never split.
    """
    stack = ModelStack([m]) if isinstance(m, ModelParams) else m
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != stack.feature_dim:
        raise ValueError(f"feature batch shape {x.shape} != (n, {stack.feature_dim})")
    n = len(x)
    logits = np.empty((n, stack.n_classes))
    if stack.w1t is None:
        z1 = np.empty((n, 1, stack.hidden))
        split = n >= 2 and n * stack.hidden * stack.feature_dim >= SPLIT_WORK and _cpus() >= 2
        (_split_rows if split else _span_rows)(stack, x, z1, logits)
        return logits
    z1 = np.matmul(x[None, :, None, :], stack.w1t)  # (S, n, 1, H)
    # In place: the same ufuncs on the same values as z1 + b1 and so on,
    # so the same bits, without a temporary per step.
    z1 += stack.b1
    np.maximum(z1, 0.0, out=z1)
    np.matmul(z1.transpose(1, 0, 2, 3), stack.w2t,
              out=logits.reshape(n, len(stack.w2t), 1, stack.width))
    logits += stack.b2
    _softmax(logits.reshape(-1, stack.width))
    return logits


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
        raise DivergenceError(f"training diverged at train.learning_rate {cfg.learning_rate!r}"
                              f" and train.weight_scale {cfg.weight_scale!r}")
    return ModelParams(m.w1, m.b1, m.w2, m.b2, final_loss=final, seed=cfg.seed)


def _check_labels(y: np.ndarray, n_classes: int) -> None:
    present = np.unique(y)
    if np.any(present < 0) or np.any(present >= n_classes):
        raise ValueError("label out of range")
    missing = set(range(n_classes)) - set(int(c) for c in present)
    if missing:
        raise ValueError(f"classes without examples: {sorted(missing)}")


def _fit(warm: ModelParams | None, features: np.ndarray, labels: np.ndarray,
         n_classes: int, cfg: TrainConfig) -> ModelParams:
    """train and fine_tune: a fresh head on warm's body, or on a fresh body
    when warm is None, drawn before the head from the one cfg.seed stream."""
    x, y = _check_batch(features, labels)
    if warm is not None and x.shape[1] != warm.feature_dim:
        raise ValueError(f"feature dimension {x.shape[1]} != model input {warm.feature_dim}")
    _check_labels(y, n_classes)
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.weight_scale
    w1, b1 = ((rng.uniform(-scale, scale, size=(cfg.hidden, x.shape[1])), np.zeros(cfg.hidden))
              if warm is None else (warm.w1, warm.b1))
    params, m = _in_block(w1, b1, rng.uniform(-scale, scale, size=(n_classes, len(w1))),
                          np.zeros(n_classes))
    return _sgd(params, m, x, y, cfg, rng)


def train(features: np.ndarray, labels: np.ndarray, n_classes: int,
          cfg: TrainConfig) -> ModelParams:
    """Train a fresh model with seeded init and seeded minibatch shuffling.

    features: (n, F), labels: (n,). Every class in [0, n_classes) must have
    at least one example.
    """
    return _fit(None, features, labels, n_classes, cfg)


def fine_tune(m: ModelParams, features: np.ndarray, labels: np.ndarray,
              n_classes: int, cfg: TrainConfig) -> ModelParams:
    """Warm-started retraining: keep the body, replace the softmax head with
    a fresh one sized to the new class count, then train as usual."""
    return _fit(m, features, labels, n_classes, cfg)
