"""Dataset ingestion (pose CSV + feature files, JSON manifests) and the
deterministic synthetic season-drift generator used for desk-scale runs."""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MappedImage, TrainingSet, Viewpoint

FEATURE_MAGIC = b"FVEC"
FEATURE_VERSION = 1
FEATURE_HEADER = struct.Struct("<4sIII")  # magic, version, dim, count

LOOSE_WINDOW_S = 0.5


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class DatasetBundle:
    """Paths of one season's pose and feature files."""

    poses_path: Path
    features_path: Path
    label: str
    season_id: int


def load_poses(path) -> list[tuple[int, Viewpoint]]:
    """Parse a pose CSV into (timestamp_us, viewpoint) pairs.

    Accepts `timestamp,x,y,theta` rows or NCLT-style ground truth
    (`utime,x,y,z,roll,pitch,yaw`, yaw used as theta). Timestamps must be
    strictly increasing; headings are normalized.
    """
    out: list[tuple[int, Viewpoint]] = []
    prev_ts = None
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
        if prev_ts is not None and ts_us <= prev_ts:
            raise DataError(f"{path}:{lineno}: non-monotone timestamp {ts_us}")
        prev_ts = ts_us
        out.append((ts_us, Viewpoint(x, y, theta)))
    if not out:
        raise DataError(f"{path}: no pose rows")
    return out


def write_poses(path, poses: list[tuple[int, Viewpoint]]) -> None:
    lines = [f"{ts},{vp.x!r},{vp.y!r},{vp.theta!r}" for ts, vp in poses]
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
    """Load the binary f32 feature format (CSV fallback) as a (n, F) array."""
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
        payload = blob[FEATURE_HEADER.size:]
        expected = 4 * dim * count
        if len(payload) != expected:
            raise DataError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
        return np.frombuffer(payload, dtype="<f4").reshape(count, dim).copy()
    # CSV fallback: one comma-separated row per feature vector.
    rows = []
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
    if not rows:
        raise DataError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float32)


def associate(poses: list[tuple[int, Viewpoint]], features: np.ndarray, *,
              season_id: int = 1, label: str = "", mode: str = "strict",
              feature_times: list[int] | None = None,
              window: float = LOOSE_WINDOW_S) -> TrainingSet:
    """Join poses and features into a TrainingSet.

    Strict mode pairs positionally and requires equal counts; loose mode
    matches each feature to the nearest pose timestamp within `window`
    seconds (feature_times required, microseconds).
    """
    feats = np.asarray(features)
    if mode == "strict":
        if len(poses) != len(feats):
            raise DataError(f"count mismatch: {len(poses)} poses vs {len(feats)} features")
        pairs = list(zip(poses, feats))
    elif mode == "loose":
        if feature_times is None or len(feature_times) != len(feats):
            raise DataError("loose mode needs one timestamp per feature")
        window_us = int(window * 1e6)
        pose_times = [ts for ts, _ in poses]
        pairs = []
        prev_idx = -1
        for ft, vec in zip(feature_times, feats):
            pos = bisect_left(pose_times, ft)
            best = None
            for cand in (pos - 1, pos):
                if 0 <= cand < len(pose_times):
                    if best is None or abs(pose_times[cand] - ft) < abs(pose_times[best] - ft):
                        best = cand
            if best is None or abs(pose_times[best] - ft) > window_us:
                raise DataError(f"unmatched feature at t={ft} (window {window} s)")
            if best <= prev_idx:
                raise DataError(f"ambiguous association near t={ft}: pose reused")
            prev_idx = best
            pairs.append((poses[best], vec))
    else:
        raise ValueError(f"unknown association mode {mode!r}")
    images = tuple(
        MappedImage(id=i, timestamp=ts, viewpoint=vp, feature=np.asarray(vec))
        for i, ((ts, vp), vec) in enumerate(pairs)
    )
    try:
        return TrainingSet(season_id=season_id, label=label, images=images)
    except ValueError as exc:
        raise DataError(f"season {season_id}: {exc}") from exc


def load_manifest(path) -> tuple[int, list[DatasetBundle]]:
    """Read a dataset manifest: feature dimension plus one entry per season.

    Paths inside the manifest are resolved relative to its directory.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        f_dim = int(doc["feature_dim"])
        entries = doc["seasons"]
        bundles = [
            DatasetBundle(
                poses_path=path.parent / e["poses"],
                features_path=path.parent / e["features"],
                label=str(e.get("label", "")),
                season_id=int(e["season_id"]),
            )
            for e in entries
        ]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: manifest missing field: {exc}") from exc
    except (ValueError, OverflowError) as exc:  # int() of "abc", NaN or infinity
        raise DataError(f"{path}: malformed manifest field: {exc}") from exc
    if f_dim < 1:
        raise DataError(f"{path}: feature_dim must be >= 1, got {f_dim}")
    if not bundles:
        raise DataError(f"{path}: manifest lists no seasons")
    bundles.sort(key=lambda b: b.season_id)
    return f_dim, bundles


def load_bundle(bundle: DatasetBundle, f_dim: int | None = None) -> TrainingSet:
    poses = load_poses(bundle.poses_path)
    feats = load_features(bundle.features_path, f_dim)
    return associate(poses, feats, season_id=bundle.season_id, label=bundle.label)


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
        if min(self.n_places, self.images_per_place, self.feature_dim, self.n_seasons) < 1:
            raise ValueError("counts must be >= 1")
        if self.loop_length <= 0:
            raise ValueError("loop_length must be positive")
        if min(self.place_signal, self.season_drift, self.noise, self.pose_jitter) < 0:
            raise ValueError("magnitudes must be non-negative")

    @property
    def place_spacing(self) -> float:
        """Euclidean distance between consecutive place waypoints."""
        return self.loop_length / self.n_places


def _unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _loop_waypoints(cfg: SynthConfig) -> list[Viewpoint]:
    # Regular polygon whose side equals the place spacing, so consecutive
    # waypoints are exactly loop_length / n_places apart.
    n = cfg.n_places
    if n == 1:
        return [Viewpoint(0.0, 0.0, 0.0)]
    radius = cfg.place_spacing / (2.0 * math.sin(math.pi / n))
    pts = [(radius * math.cos(2 * math.pi * p / n), radius * math.sin(2 * math.pi * p / n))
           for p in range(n)]
    out = []
    for p, (x, y) in enumerate(pts):
        nx, ny = pts[(p + 1) % n]
        out.append(Viewpoint(x, y, math.atan2(ny - y, nx - x)))
    return out


def synth_generate(cfg: SynthConfig) -> list[TrainingSet]:
    """Generate one TrainingSet per season, deterministically from cfg.seed.

    All seasons share the waypoint loop; the feature of an image at place p
    in season s is place_signal*u_p + season_drift*w_s + noise*eps with
    fixed seeded unit vectors u_p, w_s and per-image Gaussian eps.
    """
    master = np.random.default_rng(cfg.seed)
    place_vecs = _unit_vectors(master, cfg.n_places, cfg.feature_dim)
    season_vecs = _unit_vectors(master, cfg.n_seasons, cfg.feature_dim)
    waypoints = _loop_waypoints(cfg)
    seasons = []
    for s in range(cfg.n_seasons):
        rng = np.random.default_rng((cfg.seed, 7919, s))
        images = []
        idx = 0
        for p, wp in enumerate(waypoints):
            for _ in range(cfg.images_per_place):
                if cfg.pose_jitter > 0:
                    dx, dy = rng.normal(0.0, cfg.pose_jitter, size=2)
                    dth = rng.normal(0.0, 0.1 * cfg.pose_jitter)
                else:
                    dx = dy = dth = 0.0
                feat = (
                    cfg.place_signal * place_vecs[p]
                    + cfg.season_drift * season_vecs[s]
                    + cfg.noise * rng.standard_normal(cfg.feature_dim)
                )
                images.append(
                    MappedImage(
                        id=idx,
                        timestamp=idx * 1_000_000,
                        viewpoint=Viewpoint(wp.x + dx, wp.y + dy, wp.theta + dth),
                        feature=feat.astype(np.float32),
                    )
                )
                idx += 1
        seasons.append(
            TrainingSet(season_id=s + 1, label=f"synth-season-{s + 1}", images=tuple(images))
        )
    return seasons
