"""Dataset ingestion (pose CSV + feature files, JSON manifests) and the
deterministic synthetic season-drift generator used for desk-scale runs."""

from __future__ import annotations

import json
import math
import reprlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import TrainingSet, normalize_angle, require_integers, require_reals

FEATURE_MAGIC = b"FVEC"
FEATURE_VERSION = 1
FEATURE_HEADER = struct.Struct("<4sIII")  # magic, version, dim, count


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class DatasetBundle:
    """Paths of one season's pose and feature files."""

    poses_path: Path
    features_path: Path
    label: str
    season_id: int


def load_poses(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a pose CSV into its columns: timestamps (N,) int64 microseconds
    and poses (N, 3) float64 x, y, theta.

    Accepts `timestamp,x,y,theta` rows or NCLT-style ground truth
    (`utime,x,y,z,roll,pitch,yaw`, yaw used as theta). Timestamps must be
    strictly increasing; headings are normalized when a TrainingSet is built.
    """
    times: list[int] = []
    poses: list[tuple[float, float, float]] = []
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in the path
        raise DataError(f"cannot read pose file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split(",")
        try:
            if len(cols) == 4:
                ts, x, y, theta = (float(c) for c in cols)
            elif len(cols) >= 7:
                ts, x, y = float(cols[0]), float(cols[1]), float(cols[2])
                theta = float(cols[6])
            else:
                raise ValueError(f"expected 4 or >=7 columns, got {len(cols)}")
            if not all(math.isfinite(v) for v in (ts, x, y, theta)):
                raise ValueError("non-finite pose component")
            ts_us = int(round(ts))
            if not -2**63 <= ts_us < 2**63:  # stored as int64 in the state file
                raise ValueError("timestamp outside the signed 64-bit range")
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed pose row: {exc}") from exc
        if times and ts_us <= times[-1]:
            raise DataError(f"{path}:{lineno}: non-monotone timestamp {ts_us}")
        times.append(ts_us)
        poses.append((x, y, theta))
    if not times:
        raise DataError(f"{path}: no pose rows")
    return np.array(times, dtype=np.int64), np.array(poses, dtype=np.float64)


def write_poses(path, timestamps: np.ndarray, poses: np.ndarray) -> None:
    lines = [f"{ts},{x!r},{y!r},{theta!r}"
             for ts, (x, y, theta) in zip(np.asarray(timestamps).tolist(),
                                          np.asarray(poses, dtype=np.float64).tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_features(path, features: np.ndarray) -> None:
    """Write features as the binary f32 format, or CSV for .csv paths."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("features must be a (n, F) array")
    path = Path(path)
    if path.suffix == ".csv":
        rows = [",".join(repr(float(v)) for v in row) for row in arr]
        path.write_text("\n".join(rows) + "\n")
        return
    header = FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, arr.shape[1], arr.shape[0])
    path.write_bytes(header + arr.tobytes())


def load_features(path, f_dim: int | None = None) -> np.ndarray:
    """Load a (n, F) array: a read-only view of a binary f32 feature file, or CSV rows."""
    try:
        blob = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path
        raise DataError(f"cannot read feature file {path}: {exc}") from exc
    if blob[:4] == FEATURE_MAGIC:
        if len(blob) < FEATURE_HEADER.size:
            raise DataError(f"{path}: truncated header")
        _, version, dim, count = FEATURE_HEADER.unpack_from(blob)
        if version != FEATURE_VERSION:
            raise DataError(f"{path}: unsupported feature file version {version}")
        if dim < 1:
            raise DataError(f"{path}: feature dimension must be >= 1")
        if f_dim is not None and dim != f_dim:
            raise DataError(f"{path}: header dimension {dim} != expected {f_dim}")
        payload = len(blob) - FEATURE_HEADER.size
        expected = 4 * dim * count
        if payload != expected:
            raise DataError(f"{path}: payload is {payload} bytes, expected {expected}")
        return np.frombuffer(blob, "<f4", dim * count, FEATURE_HEADER.size).reshape(count, dim)
    # CSV fallback: one comma-separated row per feature vector.
    rows, linenos = [], []
    for lineno, line in enumerate(blob.decode("utf-8", errors="replace").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vec = [float(c) for c in line.split(",")]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed feature row") from exc
        if f_dim is not None and len(vec) != f_dim:
            raise DataError(f"{path}:{lineno}: row has {len(vec)} values, expected {f_dim}")
        if rows and len(vec) != len(rows[0]):
            raise DataError(f"{path}:{lineno}: inconsistent row length")
        rows.append(vec)
        linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: no feature rows")
    wide = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        feats = wide.astype(np.float32)
    overflow = np.isinf(feats) & np.isfinite(wide)
    if overflow.any():
        row, col = np.argwhere(overflow)[0]
        raise DataError(f"{path}:{linenos[row]}: value {rows[row][col]!r} is outside the "
                        f"float32 range +-{float(np.finfo(np.float32).max)!r}")
    return feats


def associate(timestamps: np.ndarray, poses: np.ndarray, features: np.ndarray, *,
              season_id: int = 1, label: str = "") -> TrainingSet:
    """Join pose and feature rows positionally into a TrainingSet; the
    counts must be equal. Each refusal is a DataError naming the season."""
    try:
        return TrainingSet(season_id=season_id, label=label, timestamps=timestamps,
                           poses=poses, features=features)
    except ValueError as exc:
        raise DataError(f"season {season_id}: {exc}") from exc


def read_json(path, what: str):
    """Parse the JSON file at `path`. One that cannot be read or parsed is a
    DataError that calls it `what` ("manifest", "spec file")."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


_MANIFEST_KINDS = {int: "an integer", str: "a path string", list: "a list of season entries",
                   dict: "an object"}


def load_manifest(path) -> tuple[int, list[DatasetBundle]]:
    """Read a dataset manifest: feature dimension plus one entry per season.

    Paths inside the manifest are resolved relative to its directory.
    """
    path = Path(path)
    doc = read_json(path, "manifest")

    def field(entry, key, kind: type, where: str = ""):
        try:
            value = entry[key]
        except KeyError:
            raise DataError(f"{path}: manifest missing field: {where}{key!r}") from None
        if isinstance(value, bool) or not isinstance(value, kind):  # JSON true would pass as 1
            raise DataError(f"{path}: malformed manifest field: {where}{key} must be "
                            f"{_MANIFEST_KINDS[kind]}, got {reprlib.repr(value)}")
        return value

    if not isinstance(doc, dict):
        raise DataError(f"{path}: malformed manifest: must be a JSON object, "
                        f"got {reprlib.repr(doc)}")
    f_dim = field(doc, "feature_dim", int)
    entries = field(doc, "seasons", list)
    bundles = []
    for i in range(len(entries)):
        e, where = field(entries, i, dict, "season entry "), f"season entry {i}: "
        bundles.append(DatasetBundle(
            poses_path=path.parent / field(e, "poses", str, where),
            features_path=path.parent / field(e, "features", str, where),
            label=str(e.get("label", "")), season_id=field(e, "season_id", int, where)))
    if f_dim < 1:
        raise DataError(f"{path}: feature_dim must be >= 1, got {f_dim}")
    if not bundles:
        raise DataError(f"{path}: manifest lists no seasons")
    bundles.sort(key=lambda b: b.season_id)
    return f_dim, bundles


def load_bundle(bundle: DatasetBundle, f_dim: int | None = None) -> TrainingSet:
    timestamps, poses = load_poses(bundle.poses_path)
    feats = load_features(bundle.features_path, f_dim)
    return associate(timestamps, poses, feats, season_id=bundle.season_id, label=bundle.label)


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic multi-season benchmark: a polygonal loop of places revisited
    every season, with per-place signal, per-season drift, and i.i.d. noise."""

    n_places: int = 20
    loop_length: float = 400.0
    images_per_place: int = 5
    feature_dim: int = 32
    place_signal: float = 1.0
    season_drift: float = 0.8
    noise: float = 0.21
    n_seasons: int = 5
    seed: int = 0
    pose_jitter: float = 0.25

    def __post_init__(self) -> None:
        require_integers(self, "n_places", "images_per_place", "feature_dim", "n_seasons", "seed")
        require_reals(self, "loop_length", "place_signal", "season_drift", "noise", "pose_jitter")
        counts = (self.n_places, self.images_per_place, self.feature_dim, self.n_seasons)
        if min(counts) < 1 or self.seed < 0:
            raise ValueError("counts must be >= 1 and seed >= 0")
        if self.loop_length <= 0:
            raise ValueError("loop_length must be positive")
        magnitudes = (self.place_signal, self.season_drift, self.noise, self.pose_jitter)
        if min(magnitudes) < 0:
            raise ValueError("magnitudes must be non-negative")

    @property
    def place_spacing(self) -> float:
        """Euclidean distance between consecutive place waypoints."""
        return self.loop_length / self.n_places


def _unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _loop_waypoints(cfg: SynthConfig) -> np.ndarray:
    """(P, 3) x, y, heading of the place waypoints: a regular polygon whose
    side equals the place spacing, each heading towards the next waypoint."""
    n = cfg.n_places
    if n == 1:
        return np.zeros((1, 3))
    radius = cfg.place_spacing / (2.0 * math.sin(math.pi / n))
    pts = [(radius * math.cos(2 * math.pi * p / n), radius * math.sin(2 * math.pi * p / n))
           for p in range(n)]
    return np.array([(x, y, normalize_angle(math.atan2(ny - y, nx - x)))
                     for (x, y), (nx, ny) in zip(pts, pts[1:] + pts[:1])])


def synth_generate(cfg: SynthConfig) -> list[TrainingSet]:
    """Generate one TrainingSet per season, deterministically from cfg.seed.

    All seasons share the waypoint loop; the feature of an image at place p
    in season s is place_signal*u_p + season_drift*w_s + noise*eps with
    fixed seeded unit vectors u_p, w_s and per-image Gaussian eps. Row i is
    image i, and each place's images_per_place images are consecutive rows.
    A season draws one standard-normal block from its own stream: row i is
    image i's x, y and heading jitter (absent when pose_jitter is 0), then
    its eps.
    """
    master = np.random.default_rng(cfg.seed)
    signals = cfg.place_signal * _unit_vectors(master, cfg.n_places, cfg.feature_dim)
    drifts = cfg.season_drift * _unit_vectors(master, cfg.n_seasons, cfg.feature_dim)
    p, m, f = cfg.n_places, cfg.images_per_place, cfg.feature_dim
    j = 3 if cfg.pose_jitter > 0 else 0
    jitter = (cfg.pose_jitter, cfg.pose_jitter, 0.1 * cfg.pose_jitter)
    waypoints = _loop_waypoints(cfg)

    def season(s: int, drift: np.ndarray) -> TrainingSet:
        block = np.random.default_rng((cfg.seed, 7919, s)).standard_normal((p * m, j + f))
        eps = block.reshape(p, m, j + f)[:, :, j:]  # a view: the writes below land in block
        with np.errstate(over="ignore", invalid="ignore"):  # TrainingSet refuses the infinities
            # 0.0 + scale * z is the arithmetic of Generator.normal(0.0, scale)
            poses = np.repeat(waypoints, m, axis=0) + (0.0 + block[:, :3] * jitter if j else 0.0)
            eps *= cfg.noise
            for rows, signal in zip(eps, signals):
                rows += signal + drift
            feats = eps.astype(np.float32).reshape(p * m, f)
        del block, eps, rows  # free the draws before TrainingSet copies the columns
        return TrainingSet(season_id=s + 1, label=f"synth-season-{s + 1}",
                           timestamps=np.arange(p * m, dtype=np.int64) * 1_000_000,
                           poses=poses, features=feats)

    return [season(s, drift) for s, drift in enumerate(drifts)]
