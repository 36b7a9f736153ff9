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
    viewpoint_distance,
    write_features,
    write_poses,
)


def test_load_poses_basic(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("0,0,0,0\n1,1,0,0\n")
    poses = load_poses(p)
    assert len(poses) == 2
    assert viewpoint_distance(poses[0][1], poses[1][1]) == pytest.approx(1.0)


def test_load_poses_normalizes_theta(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("0,0,0,7.0\n")
    (_, vp), = load_poses(p)
    assert -math.pi < vp.theta <= math.pi
    assert vp.theta == pytest.approx(7.0 - 2 * math.pi)


def test_load_poses_rejects_decreasing_timestamps(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("5,0,0,0\n4,1,0,0\n")
    with pytest.raises(DataError):
        load_poses(p)


def test_load_poses_nclt_columns(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_text("1000,2.0,3.0,0.5,0.01,0.02,1.5\n2000,2.5,3.0,0.5,0.0,0.0,1.6\n")
    poses = load_poses(p)
    assert poses[0][0] == 1000
    assert poses[0][1].x == 2.0 and poses[0][1].theta == pytest.approx(1.5)


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
    from seasonvpc import Viewpoint
    rng = np.random.default_rng(0)
    poses = [
        (i * 1000, Viewpoint(float(rng.normal()), float(rng.normal()),
                             float(rng.uniform(-3, 3))))
        for i in range(10)
    ]
    path = tmp_path / "rt.csv"
    write_poses(path, poses)
    loaded = load_poses(path)
    assert loaded == poses


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


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(3, 5)).astype(np.float32)
    path = tmp_path / "f.csv"
    write_features(path, arr)
    loaded = load_features(path, 5)
    np.testing.assert_allclose(loaded, arr, atol=1e-6)


def _poses(n, dt_us=1_000_000):
    from seasonvpc import Viewpoint
    return [(i * dt_us, Viewpoint(float(i), 0.0)) for i in range(n)]


def test_associate_strict():
    feats = np.eye(3, dtype=np.float32)
    train = associate(_poses(3), feats, season_id=2, label="s")
    assert train.season_id == 2
    assert [img.id for img in train.images] == [0, 1, 2]
    with pytest.raises(DataError):
        associate(_poses(4), feats)


def test_associate_loose_within_window():
    feats = np.eye(3, dtype=np.float32)
    times = [400_000, 1_400_000, 2_400_000]  # 0.4 s after each pose
    train = associate(_poses(3), feats, mode="loose", feature_times=times)
    assert [img.timestamp for img in train.images] == [0, 1_000_000, 2_000_000]


def test_associate_loose_gap_fails():
    feats = np.eye(2, dtype=np.float32)
    times = [400_000, 9_000_000]  # second feature 1+ s from any pose
    with pytest.raises(DataError):
        associate(_poses(3), feats, mode="loose", feature_times=times)


def test_manifest_roundtrip(tmp_path):
    cfg = SynthConfig(n_places=4, loop_length=80.0, images_per_place=2, feature_dim=6,
                      n_seasons=2, seed=3)
    seasons = synth_generate(cfg)
    entries = []
    for t in seasons:
        poses = [(img.timestamp, img.viewpoint) for img in t.images]
        feats = np.stack([img.feature for img in t.images])
        write_poses(tmp_path / f"s{t.season_id}_poses.csv", poses)
        write_features(tmp_path / f"s{t.season_id}_feats.bin", feats)
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
    assert len(loaded.images) == len(seasons[0].images)
    np.testing.assert_array_equal(
        np.stack([img.feature for img in loaded.images]),
        np.stack([img.feature for img in seasons[0].images]),
    )


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
    f1 = np.stack([img.feature for img in seasons[0].images])
    for t in seasons[1:]:
        np.testing.assert_array_equal(np.stack([img.feature for img in t.images]), f1)


def test_synth_deterministic():
    cfg = SynthConfig(n_places=5, loop_length=100.0, images_per_place=2, feature_dim=8,
                      n_seasons=2, seed=5)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    for ta, tb in zip(a, b):
        assert [img.timestamp for img in ta.images] == [img.timestamp for img in tb.images]
        np.testing.assert_array_equal(
            np.stack([img.feature for img in ta.images]),
            np.stack([img.feature for img in tb.images]),
        )
        assert [img.viewpoint for img in ta.images] == [img.viewpoint for img in tb.images]


def test_synth_seasons_differ_only_by_drift_vector_when_noiseless():
    cfg = SynthConfig(n_places=6, loop_length=120.0, images_per_place=3, feature_dim=10,
                      season_drift=0.7, noise=0.0, n_seasons=3, seed=6)
    seasons = synth_generate(cfg)
    f = [np.stack([img.feature for img in t.images]).astype(np.float64) for t in seasons]
    # the per-image difference between two seasons is one constant vector
    for s in (1, 2):
        diff = f[s] - f[0]
        np.testing.assert_allclose(diff, np.broadcast_to(diff[0], diff.shape), atol=1e-6)


def test_synth_place_signal_dominates_noise():
    cfg = SynthConfig(n_places=10, loop_length=200.0, images_per_place=4, feature_dim=16,
                      place_signal=1.0, season_drift=0.0, noise=0.02, n_seasons=1, seed=7)
    (season,) = synth_generate(cfg)
    feats = np.stack([img.feature for img in season.images]).astype(np.float64)
    labels = np.repeat(np.arange(10), 4)
    centroids = np.stack([feats[labels == p].mean(axis=0) for p in range(10)])
    d2 = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert (np.argmin(d2, axis=1) == labels).mean() >= 0.99


def test_synth_place_spacing_is_euclidean_hop():
    cfg = SynthConfig(n_places=12, loop_length=240.0, images_per_place=1, pose_jitter=0.0,
                      n_seasons=1, seed=8)
    (season,) = synth_generate(cfg)
    hop = viewpoint_distance(season.images[0].viewpoint, season.images[1].viewpoint)
    assert hop == pytest.approx(cfg.place_spacing)
