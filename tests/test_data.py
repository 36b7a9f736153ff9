import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

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
    with pytest.raises(DataError, match="season 1: count mismatch: 4 images vs 3 feature rows"):
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


@pytest.mark.parametrize("field", ["feature_dim", "season_id"])
@pytest.mark.parametrize("value", [32.9, 2.0, True, "3"])
def test_manifest_integer_field_of_another_type_is_data_error(tmp_path, field, value):
    doc = {"feature_dim": 2, "seasons": [
        {"poses": "p.csv", "features": "f.bin", "label": "x", "season_id": 1},
    ]}
    (doc if field == "feature_dim" else doc["seasons"][0])[field] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{field} must be an integer, got {value!r}"):
        load_manifest(manifest)


ENTRY = {"poses": "p.csv", "features": "f.bin", "label": "x", "season_id": 1}
BAD_FIELDS = {
    "poses_number": ({"feature_dim": 2, "seasons": [{**ENTRY, "poses": 3}]},
                     "season entry 0: poses must be a path string, got 3"),
    "features_list": ({"feature_dim": 2, "seasons": [{**ENTRY, "features": ["f.bin"]}]},
                      "season entry 0: features must be a path string, got ['f.bin']"),
    "seasons_string": ({"feature_dim": 2, "seasons": "abc"},
                       "seasons must be a list of season entries, got 'abc'"),
    "seasons_object": ({"feature_dim": 2, "seasons": {"poses": "p.csv"}},
                       "seasons must be a list of season entries, got {'poses': 'p.csv'}"),
    "entry_number": ({"feature_dim": 2, "seasons": [ENTRY, 5]},
                     "season entry 1 must be an object, got 5"),
    "top_level_list": ([{"feature_dim": 2, "seasons": [ENTRY]}],
                       "malformed manifest: must be a JSON object, got [{"),
    "top_level_null": (None, "malformed manifest: must be a JSON object, got None"),
    "poses_missing": ({"feature_dim": 2, "seasons": [ENTRY, {"features": "f.bin"}]},
                      "manifest missing field: season entry 1: 'poses'"),
    "seasons_missing": ({"feature_dim": 2}, "manifest missing field: 'seasons'"),
}


@pytest.mark.parametrize("doc, message", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_manifest_field_missing_or_of_the_wrong_type_is_named(tmp_path, doc, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_manifest(manifest)
    assert message in str(info.value)


@pytest.mark.parametrize("label, read", [(5, "5"), (None, "None"), (..., "")])
def test_manifest_label_is_lenient(tmp_path, label, read):
    entry = {k: v for k, v in ENTRY.items() if k != "label"}
    if label is not ...:
        entry["label"] = label
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"feature_dim": 2, "seasons": [entry]}))
    assert load_manifest(manifest)[1][0].label == read


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


# SHA-256 of each generated season's timestamps, poses and features (dtype,
# shape and bytes of each, in that order), recorded while the generator still
# drew its seasons image by image. Criterion 11's spec generates missions + 1
# seasons from its synth section and top-level seed.
SYNTH_CONFIGS = {
    "default": SynthConfig(),
    "no_jitter": SynthConfig(pose_jitter=0.0),
    "one_place": SynthConfig(n_places=1),
    "one_feature_no_noise": SynthConfig(feature_dim=1, noise=0.0),
    "one_image_per_place_one_season": SynthConfig(images_per_place=1, n_seasons=1),
    "criterion_11": SynthConfig(n_places=8, loop_length=160.0, images_per_place=3,
                                feature_dim=16, n_seasons=5, seed=11),
}
SYNTH_DIGESTS = {
    "default": (
        "a93467eb47acaa6c221cedaa2d28203f8568cae84e0b5483530aef02128dfb71",
        "93a7f7f5521d140d991ea332365747cd6fd56706f804ec4f74854c0f70433085",
        "d45839d52c2b73ab9146d57392a64024208b8ce00aee3bdfcec3d6b1b712319d",
        "dca190d30599c8e664d1827d0a3a686da48f42b24d9915798441f88f95926b77",
        "4fd8f54cd8ee48365dff9cfffb1fc8baa1703ae4022c0008c56317f893d0c31e",
    ),
    "no_jitter": (
        "f139bcfb139358b06b3e7b97dff17dccbf77f2a4d84056200297aa5ef7e16dc1",
        "6a9cf6cd28233b8ea7dafaf7e33f27af2034d7abe6e5e534088853730995220e",
        "0dad26768da36330f648885995a78fb25b7d01d240422df149da9587fdd9c9bc",
        "f44a0e0e5de6ccfb32b8bb071e70553b7bece1365dae045b32bedfc6371a2b79",
        "0eb3fe42fa264e75d4ec96ddb8ee7d5dc74162df62835da823ff706bba04e8dd",
    ),
    "one_place": (
        "3b3428e7f338b71540d566de753cd6d880db72d99be665ec6bcf032d6c8d4e8a",
        "93d2c5b6dfdb1c60f4da40e15dc92edb3e51961f07168918af6f3e0f41cf8fb7",
        "4d55c78d7f8f1f01bd2abf33b5935db44119fc6a3e9ee0144c141b9de0e8c2b9",
        "5b5507ceae86ec8978b3fe637d8f19228fdc57f84a47e7ac913e60d81a06266e",
        "85973554eb626e61e3975f92cd335091b7b6c9c98941cbb5af3873f530989c63",
    ),
    "one_feature_no_noise": (
        "a482c01d75e838e6ae5e34a1a263bed3843b55108d26db47e6d9aa49acc772b0",
        "4777f265d75cdfc4a70c925c58c1f6653165c0ccb5d97d3b9f329456028d2d40",
        "c88bdb1edcc1ef40028a0cd6367beff8e3921d1ea462b97e3971826fb6987338",
        "193018d025a6edb615848f19d965ebcb5734c02a4373c983d70e2daccc1967d7",
        "19bfcb1b5064207e26928baca1a0ce28b64a9fe59432e4888e3398a3a6e9f58b",
    ),
    "one_image_per_place_one_season": (
        "cf6fce50b0b3d01b509f08e988922fdceb66a3594367a50ca46333b243ac5457",
    ),
    "criterion_11": (
        "e7ecd98f6b59108a3b89743db03a02f3a4323cd6d93934548541501aed562c71",
        "666fe19677d51b6f362d51401f1f99323280755c27c754c6be03559310a752f7",
        "9c51d9d3c3859f9eda651ffbc90a61c7ba0b3c2e982037e0ad917265607720d2",
        "7b93e90871d5ed3c14dc30f8604ee1d03f6c1a426bafa149f8d125250cbd1dd3",
        "45da9f558375ae96750bee45a6d842ea79e8edb5770908cd2c1bba42e6083135",
    ),
}


def _season_digest(season) -> str:
    h = hashlib.sha256()
    for a in (season.timestamps, season.poses, season.features):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", SYNTH_CONFIGS)
def test_synth_seasons_match_the_pinned_digests(name):
    got = tuple(_season_digest(t) for t in synth_generate(SYNTH_CONFIGS[name]))
    assert got == SYNTH_DIGESTS[name]


def test_importing_data_leaves_concurrent_futures_unloaded():
    # A fresh interpreter's import, as the benchmark times set-up: loading
    # concurrent.futures alone costs about 10 ms.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH", "")]))}
    code = ("import sys; from seasonvpc import data; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
