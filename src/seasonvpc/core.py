"""Shared domain types for the season-loop place classification pipeline.

Geometry is planar (x, y, heading); headings live in (-pi, pi]. A season is
columnar: one array each for timestamps, poses and features, row i being
image i. A place partition is one label column, row i holding image i's
class id; each class's member rows are derived from it. All types are
immutable after construction (season arrays are read-only) and safe to share
across concurrent readers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .classify import ModelParams

TAU = 2.0 * math.pi
MAX_SEED = 2**63 - 1  # the largest seed a state file stores (signed 64-bit)


def _require(config, names: tuple[str, ...], cls: type, kind: str) -> None:
    for name in names:
        value = getattr(config, name)
        # A bool is refused: JSON's true and false would pass as 1 and 0.
        if value is not None and (isinstance(value, bool) or not isinstance(value, cls)):
            raise TypeError(f"{name} must be {kind}, got {value!r}")


def require_integers(config, *names: str) -> None:
    """Raise TypeError naming the first of `config`'s fields `names` that holds
    neither None nor an integer (`numbers.Integral`, so numpy integers pass;
    bools do not)."""
    _require(config, names, numbers.Integral, "an integer")


def require_reals(config, *names: str) -> None:
    """Raise TypeError naming the first of `config`'s fields `names` that holds
    neither None nor a real number (`numbers.Real`; bools do not pass), or
    ValueError naming the first that holds NaN or an infinity."""
    _require(config, names, numbers.Real, "a real number")
    for name in names:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = math.remainder(theta, TAU)
    if t <= -math.pi:
        t += TAU
    return t


@dataclass(frozen=True)
class Viewpoint:
    """A planar viewing pose: position in meters, heading in radians."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("viewpoint components must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))


def viewpoint_distance(a: Viewpoint, b: Viewpoint) -> float:
    """Euclidean distance between two viewing positions (heading ignored)."""
    return math.hypot(a.x - b.x, a.y - b.y)


def angle_difference(a: float, b: float) -> float:
    """Smallest absolute angular difference on the circle, in [0, pi]."""
    return abs(normalize_angle(a - b))


@dataclass(frozen=True, eq=False)
class MappedImage:
    """One image of a season as a row: the query type of `run_vpc` and
    `success_ratio`."""

    id: int
    timestamp: int
    viewpoint: Viewpoint
    feature: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TrainingSet(Sequence):
    """One season as columns: timestamps (N,) int64 microseconds, strictly
    increasing; poses (N, 3) float64 x, y, heading; features (N, F).

    The arrays are read-only copies of the inputs, headings normalized. The
    season is also the sequence of its images as `MappedImage` rows. `len()`
    builds none, and the batch path (`missions.run_vpc`, `success_ratio`)
    reads the columns and builds none; a row built by indexing stays on the
    season, so `season[i] is season[i]` (concurrent first reads may each
    build an equal row). Building every row for a length query slowed the
    next `run_vpc` (garbage-collector work), and rebuilding a row on each
    read slowed the locate calls, which send one row per call.
    """

    season_id: int
    label: str
    timestamps: np.ndarray
    poses: np.ndarray
    features: np.ndarray
    _rows: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.season_id < 1:
            raise ValueError("season_id must be >= 1")
        ts = np.array(self.timestamps, dtype=np.int64)
        poses = np.array(self.poses, dtype=np.float64)
        feats = np.array(self.features)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("training set has no images")
        n = len(ts)
        if poses.shape != (n, 3):
            raise ValueError(f"poses must be an ({n}, 3) array, got {poses.shape}")
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-D array, one row per image, got {feats.shape}")
        if len(feats) != n:
            raise ValueError(f"count mismatch: {n} images vs {len(feats)} feature rows")
        if not np.all(np.isfinite(poses)):
            raise ValueError("viewpoint components must be finite")
        # Summed in order, these bound every class centroid's sums and every step.
        if not all(math.isfinite(sum(map(abs, c))) for c in poses[:, :2].T.tolist()):
            raise ValueError("the sum of |x| or of |y| over the season is not finite")
        bad = ~np.isfinite(feats).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite feature at index {int(np.argmax(bad))}")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        poses[:, 2] = [normalize_angle(t) for t in poses[:, 2].tolist()]
        object.__setattr__(self, "timestamps", _read_only(ts))
        object.__setattr__(self, "poses", _read_only(poses))
        object.__setattr__(self, "features", _read_only(feats))
        object.__setattr__(self, "_rows", [None] * n)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self._rows))[i]]
        row = self._rows[i]  # negative indices, IndexError
        if row is None:
            i = range(len(self._rows))[i]
            row = self._rows[i] = MappedImage(
                id=i, timestamp=int(self.timestamps[i]),
                viewpoint=Viewpoint(*self.poses[i].tolist()), feature=self.features[i])
        return row

    @property
    def images(self) -> TrainingSet:
        """The season itself, as the sequence of its rows."""
        return self


def step_lengths(poses: np.ndarray) -> list[float]:
    """The planar distance from each pose row (x, y, heading) to the next."""
    xy = poses[:, :2].tolist()
    return [math.hypot(x0 - x1, y0 - y1) for (x0, y0), (x1, y1) in zip(xy, xy[1:])]


def path_length(train: TrainingSet, start: int, end: int) -> float:
    """Travel distance along the season from image start to end (inclusive),
    summed step by step in order."""
    if start < 0 or end >= len(train) or start > end:
        raise ValueError(f"invalid range [{start}, {end}] for {len(train)} images")
    total = 0.0
    for step in step_lengths(train.poses[start:end + 1]):
        total += step
    return total


@dataclass(frozen=True)
class RetrainHistory:
    """Bit string recording, per mission, whether a classifier was fine-tuned."""

    bits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("history bits must be 0 or 1")

    def extended(self, bit: int) -> "RetrainHistory":
        return RetrainHistory(self.bits + (bit,))

    def last_bit(self) -> int:
        return self.bits[-1] if self.bits else 0

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def ones_count(history: RetrainHistory) -> int:
    """Number of 1-bits in a retrain history."""
    return history.bits.count(1)


@dataclass(frozen=True, eq=False)
class PlaceClass:
    """A place class as `PlacePartition.classes` derives it: the ascending,
    read-only row indices of its member images. The first member is the
    keyframe."""

    class_id: int
    members: np.ndarray


@dataclass(frozen=True, eq=False)
class PlacePartition:
    """One season's images assigned to place classes: labels (N,) int64,
    read-only, holds image i's class id. The ids are dense 0..K-1, so every
    image is in exactly one class and every class has a member."""

    labels: np.ndarray
    source_season: int
    method: str

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError(f"labels must be a non-empty (N,) array, got shape {labels.shape}")
        if labels.min() < 0 or not np.bincount(labels).all():
            raise ValueError("class ids must be dense 0..K-1")
        object.__setattr__(self, "labels", _read_only(labels))

    @property
    def classes(self) -> tuple[PlaceClass, ...]:
        """The classes in id order, derived from the labels on each read."""
        order = _read_only(np.argsort(self.labels, kind="stable"))  # so its slices are too
        ends = np.cumsum(np.bincount(self.labels)).tolist()
        return tuple(PlaceClass(cid, order[start:end])
                     for cid, (start, end) in enumerate(zip([0, *ends], ends)))

    def summary(self, train: TrainingSet) -> "PartitionSummary":
        """Per class: the keyframe's id, timestamp and pose, the member count,
        and the representative pose (member centroid; heading noted below),
        each sum adding the members in row order (np.bincount's weighted loop,
        whatever the interpreter's builtin `sum` does)."""
        if train.season_id != self.source_season:
            raise ValueError(f"partition of season {self.source_season} "
                             f"summarized with season {train.season_id}")
        labels, poses = membership_labels(self, len(train)), train.poses
        sizes = np.bincount(labels)
        keyframes = np.unique(labels, return_index=True)[1]
        rows = np.empty(len(sizes), CLASS_RECORD)
        rows["class_id"] = np.arange(len(sizes))
        rows["keyframe_ids"] = keyframes
        rows["keyframe_timestamps"] = train.timestamps[keyframes]
        rows["keyframe_poses"] = poses[keyframes]
        # The heading the state files hold: atan2(sum of sines, 0), so +-pi/2
        # or 0, not the circular mean atan2(sum of sines, sum of cosines);
        # changing it changes their bytes.
        sines = [math.sin(t) for t in poses[:, 2].tolist()]
        rows["representatives"] = np.column_stack([
            np.bincount(labels, weights=poses[:, 0]) / sizes,
            np.bincount(labels, weights=poses[:, 1]) / sizes,
            np.arctan2(np.bincount(labels, weights=sines), 0.0)])
        rows["sizes"] = sizes
        return PartitionSummary(rows, self.source_season, self.method)


# One place class as a PartitionSummary holds it and the state file stores
# it (packed, 72 bytes).
CLASS_RECORD = np.dtype([("class_id", "<u4"), ("keyframe_ids", "<i8"),
                         ("keyframe_timestamps", "<i8"), ("keyframe_poses", "<f8", (3,)),
                         ("representatives", "<f8", (3,)), ("sizes", "<u4")])


@dataclass(frozen=True, eq=False)
class PartitionSummary:
    """Feature-free partition metadata retained inside classifier records:
    `rows`, one `CLASS_RECORD` per class as the state file stores them: a
    read-only (K,) copy of a CLASS_RECORD array (never a view of a file's
    bytes; never cast, which would broadcast a number into a record), class
    ids 0..K-1 in order, sizes >= 1, every pose finite with a heading in
    (-pi, pi]. The properties below read the other fields as columns.

    A PlacePartition holds a class label per row of its season, and both exist
    only while that season is being processed; only this summary, built by
    `PlacePartition.summary(season)`, survives into the persistent ensemble
    state.
    """

    rows: np.ndarray
    source_season: int
    method: str

    keyframe_ids = property(lambda self: self.rows["keyframe_ids"])
    keyframe_timestamps = property(lambda self: self.rows["keyframe_timestamps"])
    keyframe_poses = property(lambda self: self.rows["keyframe_poses"])
    representatives = property(lambda self: self.rows["representatives"])
    sizes = property(lambda self: self.rows["sizes"])

    def __post_init__(self) -> None:
        dtype = getattr(self.rows, "dtype", None)
        if dtype != CLASS_RECORD:
            raise ValueError(f"partition rows must be CLASS_RECORD records, got dtype {dtype}")
        rows = np.array(self.rows)
        if rows.ndim != 1 or not np.array_equal(rows["class_id"], np.arange(len(rows))):
            raise ValueError("partition rows must be (K,), their class ids 0..K-1 in order")
        if (rows["sizes"] < 1).any():
            raise ValueError("class of size 0 in a partition summary")
        poses = np.concatenate([rows["keyframe_poses"], rows["representatives"]])
        if not np.isfinite(poses).all():
            raise ValueError("non-finite pose in a partition summary")
        if not ((poses[:, 2] > -math.pi) & (poses[:, 2] <= math.pi)).all():
            raise ValueError("heading outside (-pi, pi] in a partition summary")
        object.__setattr__(self, "rows", _read_only(rows))

    @property
    def classes(self) -> range:
        """The class ids, 0..K-1."""
        return range(len(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionSummary):
            return NotImplemented
        return ((self.source_season, self.method) == (other.source_season, other.method)
                and np.array_equal(self.rows, other.rows))


def membership_labels(partition: PlacePartition, n_images: int) -> np.ndarray:
    """The partition's per-image class labels, read-only; raises if the
    partition is not of n_images images."""
    if len(partition.labels) != n_images:
        raise ValueError(f"partition of {len(partition.labels)} images "
                         f"for a season of {n_images}")
    return partition.labels


@dataclass(frozen=True, eq=False)
class ClassifierRecord:
    """One trained ensemble slot: retrain history, the partition summary of
    the season it last trained on, and its model, which carries the
    final_loss and the seed (0..MAX_SEED) it was trained with."""

    history: RetrainHistory
    partition: PartitionSummary
    model: "ModelParams"

    def __post_init__(self) -> None:
        m = self.model
        if m.final_loss is None or m.seed is None or not 0 <= m.seed <= MAX_SEED:
            raise ValueError(f"a slot's model needs a final_loss and a seed in 0..{MAX_SEED}, "
                             f"got {m.final_loss} and {m.seed}")
        if not math.isfinite(m.final_loss):
            raise ValueError(f"a slot's model needs a finite final_loss, got {m.final_loss}")
        if m.n_classes != len(self.partition.sizes):
            raise ValueError(f"partition of {len(self.partition.sizes)} classes for a "
                             f"model of {m.n_classes}")
        if not all(np.isfinite(a).all() for a in (m.w1, m.b1, m.w2, m.b2)):
            raise ValueError("non-finite model parameter")


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """The classifier set plus mission index; the only state kept between
    seasons. Never holds past training features. A slot is trained in the
    mission that adds it, so mission i holds min(i, capacity) slots.

    `missions.vpc_plan` keeps what VPC derives from the fields in the
    instance's `__dict__`; it is not a field and not part of the state."""

    mission: int
    classifiers: tuple[ClassifierRecord, ...]
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.mission < 0:
            raise ValueError("mission must be >= 0")
        expected = min(self.mission, self.capacity)
        if len(self.classifiers) != expected:
            raise ValueError(f"expected {expected} classifiers at mission {self.mission}, "
                             f"got {len(self.classifiers)}")
        for rec in self.classifiers:
            if len(rec.history) != self.mission:
                raise ValueError("history length must equal the mission index")
