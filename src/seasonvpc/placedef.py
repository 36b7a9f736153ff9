"""Unsupervised place definition: carve one season's trajectory into place
classes by travel distance, appearance clustering, or incremental keyframe
matching."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (PlacePartition, TrainingSet, angle_difference, require_integers,
                   require_reals, step_lengths)

PARTITION_METHODS = ("location", "location-appearance", "incremental")


@dataclass(frozen=True)
class PartitionConfig:
    method: str = "location"
    t_d: float = 18.0
    k: int | None = None  # None: ~ expected location-class count / 4
    kmeans_iters: int = 50
    seed: int = 0
    pos_max: float = 30.0
    ang_max: float = math.pi / 6.0
    feat_max: float = 0.8

    def __post_init__(self) -> None:
        require_integers(self, "k", "kmeans_iters", "seed")
        require_reals(self, "t_d", "pos_max", "ang_max", "feat_max")
        if self.method not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.method!r}")
        if self.t_d <= 0:
            raise ValueError("t_d must be positive")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kmeans_iters < 1 or self.seed < 0:
            raise ValueError("kmeans_iters must be >= 1 and seed >= 0")
        if min(self.pos_max, self.ang_max, self.feat_max) <= 0:
            raise ValueError("incremental thresholds must be positive")


@dataclass
class ClusterAssignment:
    """k-means output: per-point labels, centroids, and the per-iteration
    distortion trace (non-increasing by Lloyd monotonicity)."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia_history: list[float] = field(default_factory=list)


def default_k(n_images: int, t_d: float) -> int:
    # Appearance clusters are coarser than places: expected location-class
    # count (images ~3 m apart) divided by 4, and never more than the images.
    # The cap comes before ceil: a tiny t_d makes the quotient infinite.
    return max(1, math.ceil(min(n_images, n_images * 3.0 / t_d / 4.0)))


def build_partition(train: TrainingSet, cfg: PartitionConfig) -> PlacePartition:
    """Dispatch to the configured place-definition strategy."""
    if cfg.method == "location":
        return partition_by_location(train, cfg.t_d)
    if cfg.method == "location-appearance":
        return partition_location_appearance(train, cfg)
    return partition_incremental(train, cfg)


def partition_by_location(train: TrainingSet, t_d: float) -> PlacePartition:
    """Split the image sequence into contiguous classes of ~t_d meters of travel.

    A class closes on the image whose arrival pushes accumulated travel to
    t_d or beyond; that image opens the next class.
    """
    if t_d <= 0:
        raise ValueError("t_d must be positive")
    keys = np.empty(len(train), np.int64)
    _split_by_travel(step_lengths(train.poses), range(len(train)), t_d, keys)
    return _partition(train, keys, "location")


def l2_normalize(f: np.ndarray) -> np.ndarray:
    """Scale a feature vector to unit Euclidean norm."""
    v = np.asarray(f, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("cannot L2-normalize a zero or non-finite vector")
    return v / norm


def kmeans(features: np.ndarray, k: int, iters: int = 50, seed: int = 0) -> ClusterAssignment:
    """Seeded Lloyd's k-means.

    Initialization draws k distinct points uniformly without replacement;
    one count per iteration finds the clusters that empty out, which are
    re-seeded with the point farthest from its assigned centroid.
    Deterministic for a given seed.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a (n, F) array")
    n = x.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()

    def assign(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = np.maximum(
            (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * x @ c.T,
            0.0,
        )
        labels = np.argmin(d2, axis=1)
        return labels, d2[np.arange(n), labels]

    history: list[float] = []
    labels, dist2 = assign(centroids)
    history.append(float(dist2.sum()))
    for _ in range(iters):
        counts = np.bincount(labels, minlength=k)
        new_centroids = centroids.copy()
        for c in np.flatnonzero(counts).tolist():
            new_centroids[c] = x[labels == c].mean(axis=0)
        empty = np.flatnonzero(counts == 0).tolist()
        if empty:
            order = np.argsort(-dist2, kind="stable")
            for c, point in zip(empty, order):
                new_centroids[c] = x[point]
        new_labels, dist2 = assign(new_centroids)
        history.append(float(dist2.sum()))
        centroids = new_centroids
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return ClusterAssignment(labels=labels, centroids=centroids, inertia_history=history)


def _split_by_travel(steps: list[float], member_ids, t_d: float, keys: np.ndarray) -> None:
    """Split the ascending `member_ids` into runs of ~t_d meters of travel,
    writing into the (N,) keys[m] the first member of member m's run."""
    # steps[i] is the step from image i to i + 1. Travel between consecutive
    # members sums every step between them, so distance skipped through other
    # clusters still counts; cum adds it as a subtotal, as path_length sums it.
    key = keys[member_ids[0]] = member_ids[0]
    cum = 0.0
    for prev, cur in zip(member_ids, member_ids[1:]):
        travel = 0.0
        for step in steps[prev:cur]:
            travel += step
        cum += travel
        if cum >= t_d:
            key = cur
            cum = 0.0
        keys[cur] = key


def _partition(train: TrainingSet, keys: np.ndarray, method: str) -> PlacePartition:
    """The partition of `train` into the runs `keys` names, in key order."""
    return PlacePartition(np.unique(keys, return_inverse=True)[1], train.season_id, method)


def partition_location_appearance(train: TrainingSet, cfg: PartitionConfig) -> PlacePartition:
    """Two-stage partition: k-means on raw features, then each cluster is
    split into sub-clusters by travel distance along the trajectory."""
    k = cfg.k if cfg.k is not None else default_k(len(train), cfg.t_d)
    clusters = kmeans(train.features, k, iters=cfg.kmeans_iters, seed=cfg.seed).labels
    steps = step_lengths(train.poses)
    keys = np.empty(len(train), np.int64)
    for c in range(k):
        member_ids = np.flatnonzero(clusters == c).tolist()
        if member_ids:
            _split_by_travel(steps, member_ids, cfg.t_d, keys)
    return _partition(train, keys, "location-appearance")


def partition_incremental(train: TrainingSet, cfg: PartitionConfig) -> PlacePartition:
    """Online clustering against class keyframes.

    Each image joins the spatially nearest class iff position, heading and
    L2-normalized feature distance to that class's keyframe all clear the
    thresholds; otherwise it founds a new class and becomes its keyframe.
    """
    feats = [l2_normalize(f) for f in train.features]
    labels: list[int] = []
    kf_xy: list[tuple[float, float]] = []
    kf_theta: list[float] = []
    kf_feat: list[np.ndarray] = []
    for idx, (x, y, theta) in enumerate(train.poses.tolist()):
        target = -1
        if kf_xy:
            dists = [math.hypot(x - kx, y - ky) for kx, ky in kf_xy]
            nearest = int(np.argmin(dists))
            if (
                dists[nearest] < cfg.pos_max
                and angle_difference(theta, kf_theta[nearest]) < cfg.ang_max
                and float(np.linalg.norm(feats[idx] - kf_feat[nearest])) < cfg.feat_max
            ):
                target = nearest
        if target < 0:
            target = len(kf_xy)
            kf_xy.append((x, y))
            kf_theta.append(theta)
            kf_feat.append(feats[idx])
        labels.append(target)
    return PlacePartition(labels, train.season_id, "incremental")


def incremental_margins(train: TrainingSet, partition: PlacePartition) -> list[dict]:
    """Post-hoc insertion log for an incremental partition.

    Keyframes never move, so recomputing each member's distances against its
    class keyframe reproduces the values seen at insertion time.
    """
    poses = train.poses.tolist()
    rows = []
    for cls in partition.classes:
        kf, *others = cls.members.tolist()
        kx, ky, ktheta = poses[kf]
        kf_feat = l2_normalize(train.features[kf])
        for m in others:
            x, y, theta = poses[m]
            feat = l2_normalize(train.features[m])
            rows.append(
                {
                    "image_id": m,
                    "class_id": cls.class_id,
                    "pos_dist": math.hypot(x - kx, y - ky),
                    "ang_diff": angle_difference(theta, ktheta),
                    "feat_dist": float(np.linalg.norm(feat - kf_feat)),
                }
            )
    return rows

