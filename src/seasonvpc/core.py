"""Shared domain types for the season-loop place classification pipeline.

Geometry is planar (x, y, heading); headings live in (-pi, pi]. A season is
columnar: one array each for timestamps, poses and features, row i being
image i. A place class holds the row indices of its members. All types are
immutable after construction (season arrays are read-only) and safe to share
across concurrent readers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .classify import ModelParams

TAU = 2.0 * math.pi


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
class TrainingSet:
    """One season as columns: timestamps (N,) int64 microseconds, strictly
    increasing; poses (N, 3) float64 x, y, heading; features (N, F).

    The arrays are read-only copies of the inputs, headings normalized.
    """

    season_id: int
    label: str
    timestamps: np.ndarray
    poses: np.ndarray
    features: np.ndarray

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
        if feats.ndim != 2 or len(feats) != n:
            raise ValueError("feature dimension differs within one dataset")
        if not np.all(np.isfinite(poses)):
            raise ValueError("viewpoint components must be finite")
        bad = ~np.isfinite(feats).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite feature at index {int(np.argmax(bad))}")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        poses[:, 2] = [normalize_angle(t) for t in poses[:, 2].tolist()]
        object.__setattr__(self, "timestamps", _read_only(ts))
        object.__setattr__(self, "poses", _read_only(poses))
        object.__setattr__(self, "features", _read_only(feats))

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def images(self) -> "SeasonRows":
        """The season as per-image rows."""
        return SeasonRows(self)


@dataclass(frozen=True)
class SeasonRows(Sequence):
    """A season's images as `MappedImage` rows, each built when it is read.
    `len()` builds none and no row is kept: building every row for a length
    query slowed the next `run_vpc` (garbage-collector work), and keeping
    them raised peak RSS."""

    season: TrainingSet

    def __len__(self) -> int:
        return len(self.season)

    def __getitem__(self, i):
        i = range(len(self.season))[i]  # negative indices, slices, IndexError
        if isinstance(i, range):
            return [self[j] for j in i]
        s = self.season
        return MappedImage(id=i, timestamp=int(s.timestamps[i]),
                           viewpoint=Viewpoint(*s.poses[i].tolist()), feature=s.features[i])


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

    @classmethod
    def from_string(cls, s: str) -> "RetrainHistory":
        return cls(tuple(int(c) for c in s))

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
    """A place class: the ascending row indices of its member images. The
    first member is the keyframe."""

    class_id: int
    members: np.ndarray

    def __post_init__(self) -> None:
        members = np.array(self.members, dtype=np.int64)
        if members.ndim != 1 or len(members) == 0:
            raise ValueError("place class needs at least one member")
        if np.any(np.diff(members) <= 0):
            raise ValueError("place class members must be ascending")
        object.__setattr__(self, "members", _read_only(members))


@dataclass(frozen=True, eq=False)
class PlacePartition:
    """Assignment of one season's images to place classes (ids dense 0..K-1)."""

    classes: tuple[PlaceClass, ...]
    source_season: int
    method: str

    def __post_init__(self) -> None:
        for idx, cls in enumerate(self.classes):
            if cls.class_id != idx:
                raise ValueError("class ids must be dense 0..K-1 in order")

    def summary(self, train: TrainingSet) -> "PartitionSummary":
        """Per class: the keyframe's id, timestamp and pose, the member count,
        and the representative pose (member centroid; heading noted below)."""
        if train.season_id != self.source_season:
            raise ValueError(f"partition of season {self.source_season} "
                             f"summarized with season {train.season_id}")
        representatives = []
        for c in self.classes:
            xs, ys, thetas = train.poses[c.members].T.tolist()
            # The heading the state files hold: atan2(sum of sines, 0), so
            # +-pi/2 or 0, not the circular mean atan2(sum of sines, sum of
            # cosines); changing it changes their bytes.
            heading = normalize_angle(math.atan2(sum(math.sin(t) for t in thetas), 0))
            representatives.append((sum(xs) / len(xs), sum(ys) / len(ys), heading))
        keyframes = [int(c.members[0]) for c in self.classes]
        return PartitionSummary(
            keyframe_ids=keyframes,
            keyframe_timestamps=train.timestamps[keyframes],
            keyframe_poses=train.poses[keyframes],
            representatives=representatives,
            sizes=[len(c.members) for c in self.classes],
            source_season=self.source_season,
            method=self.method,
        )


# One place class as the state file stores it (packed, 72 bytes): its id,
# then a PartitionSummary's columns in their order and types.
CLASS_RECORD = np.dtype([("class_id", "<u4"), ("keyframe_ids", "<i8"),
                         ("keyframe_timestamps", "<i8"), ("keyframe_poses", "<f8", (3,)),
                         ("representatives", "<f8", (3,)), ("sizes", "<u4")])
SUMMARY_COLUMNS = CLASS_RECORD.names[1:]


@dataclass(frozen=True, eq=False)
class PartitionSummary:
    """Feature-free partition metadata retained inside classifier records,
    one entry per class: keyframe_ids and keyframe_timestamps (K,) int64,
    keyframe_poses and representatives (K, 3) float64 x, y, heading, and
    sizes (K,) uint32 (`CLASS_RECORD`). The arrays are read-only copies of
    the inputs. Equal summaries hold equal columns.

    A PlacePartition holds member row indices into its season, and both exist
    only while that season is being processed; only this summary, built by
    `PlacePartition.summary(season)`, survives into the persistent ensemble
    state.
    """

    keyframe_ids: np.ndarray
    keyframe_timestamps: np.ndarray
    keyframe_poses: np.ndarray
    representatives: np.ndarray
    sizes: np.ndarray
    source_season: int
    method: str

    def __post_init__(self) -> None:
        k = len(self.sizes)
        for name in SUMMARY_COLUMNS:
            a = np.array(getattr(self, name), dtype=CLASS_RECORD[name].base)
            shape = (k, *CLASS_RECORD[name].shape)
            if a.shape != shape:
                raise ValueError(f"{name} must be a {shape} array, got {a.shape}")
            object.__setattr__(self, name, _read_only(a))

    @property
    def classes(self) -> range:
        """The class ids, 0..K-1."""
        return range(len(self.sizes))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionSummary):
            return NotImplemented
        return ((self.source_season, self.method) == (other.source_season, other.method)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in SUMMARY_COLUMNS))


def membership_labels(partition: PlacePartition, n_images: int) -> np.ndarray:
    """Per-image class label array; raises if any image is missing or doubly
    assigned."""
    members = [c.members for c in partition.classes]
    ids = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    outside = (ids < 0) | (ids >= n_images)
    if outside.any():
        raise ValueError(f"member id {ids[outside][0]} outside dataset of {n_images}")
    counts = np.bincount(ids, minlength=n_images)
    if np.any(counts > 1):
        raise ValueError(f"image {int(np.argmax(counts > 1))} assigned to more than one class")
    if np.any(counts == 0):
        raise ValueError(f"image {int(np.argmax(counts == 0))} not assigned to any class")
    labels = np.empty(n_images, dtype=np.int64)
    labels[ids] = np.repeat(np.arange(len(members)), [len(m) for m in members])
    return labels


@dataclass(frozen=True, eq=False)
class ClassifierRecord:
    """One ensemble slot: retrain history, partition summary, model handle.

    The never-fine-tuned base slot carries no model and no partition.
    """

    history: RetrainHistory
    partition: PartitionSummary | None
    model: "ModelParams | None"

    def __post_init__(self) -> None:
        if (self.model is None) != (self.partition is None):
            raise ValueError("model and partition must be present or absent together")
        if self.model is not None and self.model.n_classes != len(self.partition.classes):
            raise ValueError("model output classes must match the partition")


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """The classifier set plus mission index; the only state kept between
    seasons. Never holds past training features.

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
        expected = 1 if self.mission == 0 else min(self.mission, self.capacity)
        if len(self.classifiers) != expected:
            raise ValueError(
                f"expected {expected} classifiers at mission {self.mission}, "
                f"got {len(self.classifiers)}"
            )
        for rec in self.classifiers:
            if len(rec.history) != self.mission:
                raise ValueError("history length must equal the mission index")
