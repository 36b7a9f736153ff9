"""Probability-rank fusion of ensemble outputs: concatenate each classifier's
top-X classes mapped to global poses, re-rank by raw probability, truncate.
No calibration, no deduplication.

The order is probability descending, then slot ascending, then class
ascending. Over a row that concatenates every slot's class probabilities in
slot order, that is one stable sort of -p; and since every member of the
global top X is also within its own slot's top X, ranking the whole row at
once equals ranking each slot and merging the lists.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Viewpoint


@dataclass(frozen=True)
class GlobalCandidate:
    """One ranked place hypothesis in the global frame."""

    source_classifier: int
    class_id: int
    probability: float
    location: Viewpoint

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class FusedResult:
    """Final ranked candidate list, probabilities non-increasing."""

    ranked: tuple[GlobalCandidate, ...]

    def __post_init__(self) -> None:
        probs = [c.probability for c in self.ranked]
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ValueError("fused probabilities must be non-increasing")


# A batch of rows at least this many times wider than x is ranked by
# selection (`_partial_order`). At x 10 (x86-64) a full stable sort took
# 19 us for 100 x 20, 82 us for 100 x 40 and 199 us for 100 x 80; selection
# 74, 93 and 104 us. At 500 x 400 it was 9.2 against 2.5 ms. A single row
# always sorts in full: 7 us against 20 us at 400 columns. In the
# benchmark at x 10, every desk-4096-loc batch (500 x 100 to 400) and
# accept-sweep's 4-slot batches (100 x 80, 9% of its batch calls) are
# ranked by selection; its 1- to 3-slot batches sort in full.
PARTIAL_WIDTH = 8


def _order(probs: np.ndarray, x: int) -> np.ndarray:
    """Indices of the x largest entries along the last axis, largest first;
    equal entries keep their index order."""
    if probs.ndim == 2 and len(probs) >= 2 and probs.shape[1] >= PARTIAL_WIDTH * x:
        return _partial_order(-probs, x)
    return np.argsort(-probs, axis=-1, kind="stable")[..., :x]


def _partial_order(neg: np.ndarray, x: int) -> np.ndarray:
    """The first x columns of each row of np.argsort(neg, kind="stable"),
    for 2-D neg with more than x columns, without sorting whole rows.

    argpartition picks x candidates per row; sorted by column and then
    stable-sorted by value, they are in stable-sort order. They are the
    right candidates unless the x-th value also occurs outside them, where
    the stable sort could prefer a lower column: such rows are sorted in
    full."""
    cand = np.argpartition(neg, x - 1, axis=1)[:, :x]
    cand.sort(axis=1)
    vals = np.take_along_axis(neg, cand, axis=1)
    order = np.take_along_axis(cand, np.argsort(vals, axis=1, kind="stable"), axis=1)
    tied = (neg <= vals.max(axis=1, keepdims=True)).sum(axis=1) > x
    if tied.any():
        order[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :x]
    return order


def top_x(probs: np.ndarray, x: int) -> np.ndarray:
    """Rank a batch of slot-concatenated probability rows.

    probs is (n, C): row i holds query i's class probabilities of every
    active slot, slot after slot. Returns the (n, min(x, C)) column indices
    of each row's fused top x, in fusion order: those of one stable sort of
    -probs. A batch of two or more rows with C >= PARTIAL_WIDTH * x is
    ranked by selection (`_partial_order`), which returns the same indices
    without sorting whole rows; single rows and narrower ones sort in full,
    which is faster there.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    # NaN compares false, so this rejects it too; an unchecked sort would put
    # NaN last and answer from the other slots.
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise ValueError("probabilities must be finite and in [0, 1]")
    return _order(probs, x)


@dataclass(frozen=True, eq=False)
class Ranking(Sequence):
    """The fused candidates of n queries as columns, row i ranking query i:
    slots and classes (n, X) int64, probabilities (n, X) float64, and poses
    (n, X, 3) float64, each candidate's class representative (x, y, heading).

    As a sequence, item i is row i as a FusedResult, built when it is read;
    a slice is a Ranking of the rows. A Ranking equals any sequence of the
    same FusedResults, so an empty one equals [].
    """

    slots: np.ndarray
    classes: np.ndarray
    probabilities: np.ndarray
    poses: np.ndarray

    @classmethod
    def empty(cls) -> "Ranking":
        return cls(np.empty((0, 0), np.int64), np.empty((0, 0), np.int64),
                   np.empty((0, 0)), np.empty((0, 0, 3)))

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ranking(self.slots[i], self.classes[i], self.probabilities[i], self.poses[i])
        i = range(len(self))[i]  # negative indices, IndexError
        return FusedResult(tuple(
            GlobalCandidate(slot, cls, p, Viewpoint(*pose))
            for slot, cls, p, pose in zip(self.slots[i].tolist(), self.classes[i].tolist(),
                                          self.probabilities[i].tolist(),
                                          self.poses[i].tolist())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)


def fuse(lists: Sequence[Sequence[GlobalCandidate]], x: int) -> FusedResult:
    """Merge per-classifier candidate lists by raw probability.

    Ties break to the lower slot index, then the lower class id; duplicates
    of the same place from different classifiers are kept.
    """
    merged = sorted((c for lst in lists for c in lst),
                    key=lambda c: (c.source_classifier, c.class_id))
    if not merged:
        raise ValueError("fuse needs at least one non-empty candidate list")
    order = top_x(np.array([c.probability for c in merged]), x)
    return FusedResult(ranked=tuple(merged[i] for i in order))
