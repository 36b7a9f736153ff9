import math

import numpy as np
import pytest

from seasonvpc import (
    PartitionConfig,
    build_partition,
    incremental_margins,
    kmeans,
    l2_normalize,
    membership_labels,
    partition_by_location,
    partition_incremental,
    partition_location_appearance,
    path_length,
)
from seasonvpc.report import partition_csv

from conftest import line_training_set, season_from_xy


def _random_trajectory(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 60))
    steps = rng.uniform(0.0, 9.0, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
    return season_from_xy(np.cumsum(steps, axis=0), label=f"rand{seed}")


def _class_ranges_contiguous(partition, n_images):
    covered = []
    for cls in partition.classes:
        ids = cls.members.tolist()
        assert ids == list(range(ids[0], ids[-1] + 1))
        covered.extend(ids)
    assert covered == list(range(n_images))


def test_location_partition_line_example(line7):
    p = partition_by_location(line7, 18.0)
    assert [c.members.tolist() for c in p.classes] == [[0, 1, 2, 3, 4, 5], [6]]
    kf = [c.keyframe_id for c in p.summary(line7).classes]
    assert kf == [0, 6]


def test_location_partition_single_image():
    p = partition_by_location(line_training_set(1), 18.0)
    assert len(p.classes) == 1


def test_location_partition_no_travel_single_class():
    train = season_from_xy(np.full((9, 2), 5.0), label="still")
    p = partition_by_location(train, 18.0)
    assert len(p.classes) == 1
    assert len(p.classes[0].members) == 9


def test_location_partition_boundary_lengths_property():
    # non-final classes span [t_d, t_d + max_step) of travel, measured from
    # the class's first image to the next class's first image
    t_d = 18.0
    for seed in range(100):
        train = _random_trajectory(seed)
        p = partition_by_location(train, t_d)
        _class_ranges_contiguous(p, len(train))
        starts = [int(c.members[0]) for c in p.classes]
        steps = [path_length(train, i, i + 1) for i in range(len(train) - 1)]
        max_step = max(steps) if steps else 0.0
        for a, b in zip(starts, starts[1:]):
            span = path_length(train, a, b)
            assert t_d <= span < t_d + max_step + 1e-9


def test_l2_normalize():
    np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])
    unit = np.array([0.0, 1.0])
    np.testing.assert_allclose(l2_normalize(unit), unit)
    with pytest.raises(ValueError):
        l2_normalize(np.zeros(4))


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 2))
    asg = kmeans(x, 6, seed=0)
    assert sorted(asg.labels.tolist()) == list(range(6))
    assert asg.inertia_history[-1] == pytest.approx(0.0, abs=1e-18)


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_blob_purity_and_monotone_distortion():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(0, 0.5, size=(40, 3)) + np.array([25.0, 0.0, 0.0])
        b = rng.normal(0, 0.5, size=(40, 3)) + np.array([-25.0, 0.0, 0.0])
        asg = kmeans(np.concatenate([a, b]), 2, seed=seed)
        hist = asg.inertia_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
        la, lb = asg.labels[:40], asg.labels[40:]
        purity = max(
            ((la == 0).mean() + (lb == 1).mean()) / 2,
            ((la == 1).mean() + (lb == 0).mean()) / 2,
        )
        assert purity >= 0.99


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 4))
    a = kmeans(x, 4, seed=11)
    b = kmeans(x, 4, seed=11)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_location_appearance_k1_degenerates_to_location(line7):
    cfg = PartitionConfig(method="location-appearance", t_d=18.0, k=1)
    pa = partition_location_appearance(line7, cfg)
    pl = partition_by_location(line7, 18.0)
    assert [c.members.tolist() for c in pa.classes] == \
        [c.members.tolist() for c in pl.classes]


def test_location_appearance_constant_features_k1(line7):
    flat = line_training_set(7, feature=lambda i: [1.0, 1.0])
    cfg = PartitionConfig(method="location-appearance", t_d=18.0, k=1)
    pa = partition_location_appearance(flat, cfg)
    assert [c.members.tolist() for c in pa.classes] == [[0, 1, 2, 3, 4, 5], [6]]


def test_location_appearance_default_k_never_exceeds_the_images(line7):
    # t_d 0.5 m asks for ceil(7 * 3 / 0.5 / 4) = 11 appearance clusters.
    cfg = PartitionConfig(method="location-appearance", t_d=0.5)
    pa = partition_location_appearance(line7, cfg)
    assert [c.members.tolist() for c in pa.classes] == [[i] for i in range(7)]


def test_location_appearance_interleaved_blobs_split_independently():
    # images 2 m apart; features alternate between two far-apart blobs, so
    # k-means separates even/odd and each side splits by trajectory travel
    def feat(i):
        base = [50.0, 0.0] if i % 2 == 0 else [-50.0, 0.0]
        return [base[0] + 0.01 * i, base[1]]

    train = line_training_set(8, spacing=2.0, feature=feat)
    cfg = PartitionConfig(method="location-appearance", t_d=6.0, k=2, seed=0)
    p = partition_location_appearance(train, cfg)
    assert [c.members.tolist() for c in p.classes] == [[0, 2], [1, 3], [4, 6], [5, 7]]


def _pair(x1=0.0, theta1=0.0, feature1=(1.0, 0.0), label="pair"):
    """Two images: one at the origin facing +x with feature (1, 0), one at
    (x1, 0) with heading theta1 and feature feature1."""
    return season_from_xy([(0.0, 0.0), (x1, 0.0)], theta=[0.0, theta1],
                          features=np.array([(1.0, 0.0), feature1]), label=label)


def test_incremental_first_and_identical_images():
    train = _pair(label="dup")
    p = partition_incremental(train, PartitionConfig(method="incremental"))
    assert len(p.classes) == 1
    assert p.classes[0].members.tolist() == [0, 1]


def test_incremental_position_threshold_creates_new_class():
    train = _pair(x1=31.0, label="far")
    p = partition_incremental(train, PartitionConfig(method="incremental"))
    assert len(p.classes) == 2
    # exactly 30 m is outside the strict '< 30' acceptance region too
    p30 = partition_incremental(_pair(x1=30.0, label="edge"),
                                PartitionConfig(method="incremental"))
    assert len(p30.classes) == 2


def test_incremental_angle_and_feature_thresholds():
    train = _pair(x1=1.0, theta1=math.pi / 4, label="turn")
    assert len(partition_incremental(train, PartitionConfig(method="incremental")).classes) == 2

    # normalized distance sqrt(2) > 0.8
    train2 = _pair(x1=1.0, feature1=(0.0, 1.0), label="feat")
    assert len(partition_incremental(train2, PartitionConfig(method="incremental")).classes) == 2


def test_incremental_margins_respect_thresholds():
    rng = np.random.default_rng(2)
    xy, theta, feats = [], [], []
    x = 0.0
    for _ in range(60):
        x += rng.uniform(0.5, 8.0)
        feats.append(rng.normal(size=4) + 4.0)
        xy.append((x, rng.normal(0, 2.0)))
        theta.append(rng.normal(0, 0.2))
    train = season_from_xy(xy, theta=theta, features=np.array(feats))
    cfg = PartitionConfig(method="incremental")
    p = partition_incremental(train, cfg)
    rows = incremental_margins(train, p)
    n_non_keyframe = len(train) - len(p.classes)
    assert len(rows) == n_non_keyframe
    for r in rows:
        assert r["pos_dist"] < cfg.pos_max
        assert r["ang_diff"] < cfg.ang_max
        assert r["feat_dist"] < cfg.feat_max


@pytest.mark.parametrize("method", ["location", "location-appearance", "incremental"])
def test_every_method_is_a_partition(method):
    xy = _random_trajectory(42, n=50).poses[:, :2]
    # give images informative features so all methods are exercised
    feats = np.column_stack([xy[:, 0] / 10.0, np.ones(50)])
    train = season_from_xy(xy, features=feats, label="p")
    p = build_partition(train, PartitionConfig(method=method, seed=3))
    labels = membership_labels(p, len(train))  # raises on holes/overlap
    assert labels.shape == (50,)
    assert [c.class_id for c in p.classes] == list(range(len(p.classes)))


def test_partition_determinism_byte_for_byte():
    xy = _random_trajectory(9, n=40).poses[:, :2]
    feats = np.array([(math.sin(i), math.cos(i)) for i in range(40)])
    train = season_from_xy(xy, features=feats, label="d")
    for method in ("location", "location-appearance", "incremental"):
        cfg = PartitionConfig(method=method, seed=21)
        a = partition_csv(build_partition(train, cfg))
        b = partition_csv(build_partition(train, cfg))
        assert a.encode() == b.encode()
