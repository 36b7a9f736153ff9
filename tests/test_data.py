import json
import math
import struct

import numpy as np
import pytest

from seasonvpc import (
    DataError,
    SynthConfig,
    associate,
    load_bundle,
    load_features,
    load_manifest,
    load_poses,
    synth_generate,
    write_features,
    write_poses,
)


def test_load_poses_basic(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("0,0,0,0\n1,1,0,0\n")
    timestamps, poses = load_poses(p)
    assert timestamps.dtype == np.int64 and timestamps.tolist() == [0, 1]
    assert poses.dtype == np.float64 and poses.tolist() == [[0, 0, 0], [1, 0, 0]]


def test_load_poses_normalizes_theta(tmp_path):
    # headings are normalized when the loaded columns become a season
    p = tmp_path / "poses.csv"
    p.write_text("0,0,0,7.0\n")
    train = associate(*load_poses(p), np.ones((1, 2)))
    theta = train.poses[0, 2]
    assert -math.pi < theta <= math.pi
    assert theta == pytest.approx(7.0 - 2 * math.pi)


def test_load_poses_rejects_decreasing_timestamps(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("5,0,0,0\n4,1,0,0\n")
    with pytest.raises(DataError):
        load_poses(p)


def test_load_poses_nclt_columns(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_text("1000,2.0,3.0,0.5,0.01,0.02,1.5\n2000,2.5,3.0,0.5,0.0,0.0,1.6\n")
    timestamps, poses = load_poses(p)
    assert timestamps[0] == 1000
    assert poses[0, 0] == 2.0 and poses[0, 2] == pytest.approx(1.5)


def test_load_poses_rejects_malformed(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("1,2,3\n")
    with pytest.raises(DataError):
        load_poses(p)


def test_non_utf8_text_inputs_are_data_errors(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"0,0,0,0\n# caf\xe9\n")
    with pytest.raises(DataError):
        load_poses(p)
    with pytest.raises(DataError):
        load_manifest(p)


def test_manifest_nested_too_deep_is_data_error(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("[" * 100_000)  # json raises RecursionError, not JSONDecodeError
    with pytest.raises(DataError, match="invalid JSON"):
        load_manifest(p)


def test_nul_byte_in_path_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_poses(tmp_path / "p\0.csv")
    with pytest.raises(DataError):
        load_features(tmp_path / "f\0.bin")


def test_poses_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    timestamps = np.arange(10) * 1000
    poses = np.array([(rng.normal(), rng.normal(), rng.uniform(-3, 3)) for _ in range(10)])
    path = tmp_path / "rt.csv"
    write_poses(path, timestamps, poses)
    loaded_ts, loaded = load_poses(path)
    np.testing.assert_array_equal(loaded_ts, timestamps)
    np.testing.assert_array_equal(loaded, poses)


def test_features_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(5, 4)).astype(np.float32)
    path = tmp_path / "f.bin"
    write_features(path, arr)
    loaded = load_features(path, 4)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, arr)


def test_features_binary_header_example(tmp_path):
    path = tmp_path / "f.bin"
    payload = np.arange(8, dtype="<f4").tobytes()
    path.write_bytes(struct.pack("<4sIII", b"FVEC", 1, 4, 2) + payload)
    loaded = load_features(path, 4)
    assert loaded.shape == (2, 4)
    np.testing.assert_allclose(loaded, np.arange(8).reshape(2, 4))


def test_features_truncated_payload(tmp_path):
    path = tmp_path / "f.bin"
    payload = np.arange(6, dtype="<f4").tobytes()  # 2 rows of 4 promised, 1.5 given
    path.write_bytes(struct.pack("<4sIII", b"FVEC", 1, 4, 2) + payload)
    with pytest.raises(DataError):
        load_features(path, 4)


def test_features_header_mismatch(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(struct.pack("<4sIII", b"FVEC", 1, 4, 0))
    with pytest.raises(DataError):
        load_features(path, 8)
    path.write_bytes(struct.pack("<4sIII", b"FVEC", 9, 4, 0))
    with pytest.raises(DataError):
        load_features(path, 4)


def test_features_zero_dimension_rejected(tmp_path):
    p = tmp_path / "f.bin"
    write_features(p, np.zeros((3, 0)))
    with pytest.raises(DataError, match="dimension"):
        load_features(p)


def test_features_csv_fallback(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n")
    loaded = load_features(path, 4)
    np.testing.assert_allclose(loaded, [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_features_csv_value_outside_float32_is_data_error(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n# comment\n3,1e300\n")
    with pytest.raises(DataError, match=r"f\.csv:3: value 1e\+300 is outside the float32 range"):
        load_features(path, 2)
    path.write_text("1,-1e39\n")
    with pytest.raises(DataError, match="float32 range"):
        load_features(path, 2)
    largest = float(np.finfo(np.float32).max)
    path.write_text(f"{largest!r},{-largest!r},1e-60\n")
    assert load_features(path, 3).tolist() == [[largest, -largest, 0.0]]


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(3, 5)).astype(np.float32)
    path = tmp_path / "f.csv"
    write_features(path, arr)
    loaded = load_features(path, 5)
    np.testing.assert_allclose(loaded, arr, atol=1e-6)


def _poses(n, dt_us=1_000_000):
    poses = np.zeros((n, 3))
    poses[:, 0] = np.arange(n)
    return np.arange(n) * dt_us, poses


def test_associate_strict():
    feats = np.eye(3, dtype=np.float32)
    train = associate(*_poses(3), feats, season_id=2, label="s")
    assert train.season_id == 2
    assert [img.id for img in train.images] == [0, 1, 2]
    with pytest.raises(DataError):
        associate(*_poses(4), feats)


def test_manifest_roundtrip(tmp_path):
    cfg = SynthConfig(n_places=4, loop_length=80.0, images_per_place=2, feature_dim=6,
                      n_seasons=2, seed=3)
    seasons = synth_generate(cfg)
    entries = []
    for t in seasons:
        write_poses(tmp_path / f"s{t.season_id}_poses.csv", t.timestamps, t.poses)
        write_features(tmp_path / f"s{t.season_id}_feats.bin", t.features)
        entries.append({
            "poses": f"s{t.season_id}_poses.csv",
            "features": f"s{t.season_id}_feats.bin",
            "label": t.label,
            "season_id": t.season_id,
        })
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"feature_dim": 6, "seasons": entries}))
    f_dim, bundles = load_manifest(manifest)
    assert f_dim == 6 and len(bundles) == 2
    loaded = load_bundle(bundles[0], f_dim)
    for column in ("timestamps", "poses", "features"):
        np.testing.assert_array_equal(getattr(loaded, column), getattr(seasons[0], column))


def test_manifest_missing_file(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"feature_dim": 2, "seasons": [
        {"poses": "nope.csv", "features": "nope.bin", "label": "x", "season_id": 1},
    ]}))
    _, bundles = load_manifest(manifest)
    with pytest.raises(DataError):
        load_bundle(bundles[0], 2)


def test_synth_no_drift_no_noise_features_repeat_across_seasons():
    cfg = SynthConfig(n_places=5, loop_length=100.0, images_per_place=2, feature_dim=8,
                      season_drift=0.0, noise=0.0, n_seasons=3, seed=4)
    seasons = synth_generate(cfg)
    for t in seasons[1:]:
        np.testing.assert_array_equal(t.features, seasons[0].features)


def test_synth_deterministic():
    cfg = SynthConfig(n_places=5, loop_length=100.0, images_per_place=2, feature_dim=8,
                      n_seasons=2, seed=5)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    for ta, tb in zip(a, b):
        for column in ("timestamps", "poses", "features"):
            np.testing.assert_array_equal(getattr(ta, column), getattr(tb, column))


def test_synth_seasons_differ_only_by_drift_vector_when_noiseless():
    cfg = SynthConfig(n_places=6, loop_length=120.0, images_per_place=3, feature_dim=10,
                      season_drift=0.7, noise=0.0, n_seasons=3, seed=6)
    seasons = synth_generate(cfg)
    f = [t.features.astype(np.float64) for t in seasons]
    # the per-image difference between two seasons is one constant vector
    for s in (1, 2):
        diff = f[s] - f[0]
        np.testing.assert_allclose(diff, np.broadcast_to(diff[0], diff.shape), atol=1e-6)


def test_synth_place_signal_dominates_noise():
    cfg = SynthConfig(n_places=10, loop_length=200.0, images_per_place=4, feature_dim=16,
                      place_signal=1.0, season_drift=0.0, noise=0.02, n_seasons=1, seed=7)
    (season,) = synth_generate(cfg)
    feats = season.features.astype(np.float64)
    labels = np.repeat(np.arange(10), 4)
    centroids = np.stack([feats[labels == p].mean(axis=0) for p in range(10)])
    d2 = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert (np.argmin(d2, axis=1) == labels).mean() >= 0.99


def test_synth_place_spacing_is_euclidean_hop():
    cfg = SynthConfig(n_places=12, loop_length=240.0, images_per_place=1, pose_jitter=0.0,
                      n_seasons=1, seed=8)
    (season,) = synth_generate(cfg)
    (x0, y0, _), (x1, y1, _) = season.poses[:2].tolist()
    hop = math.hypot(x1 - x0, y1 - y0)
    assert hop == pytest.approx(cfg.place_spacing)
