import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seasonvpc import (
    ClusterAssignment,
    PartitionConfig,
    SynthConfig,
    build_partition,
    incremental_margins,
    kmeans,
    l2_normalize,
    membership_labels,
    partition_by_location,
    partition_incremental,
    partition_location_appearance,
    path_length,
    synth_generate,
)
from seasonvpc.report import partition_csv

import partition_oracle
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
    kf = p.summary(line7).keyframe_ids.tolist()
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


def test_kmeans_reseeds_a_cluster_that_starts_empty():
    # When both initial centroids are drawn from the 20 identical points,
    # every point joins the first (ties go to the lower id) and the second
    # starts empty; it is re-seeded on the farthest point, the odd one out.
    x = np.array([[0.0, 0.0]] * 20 + [[1.0, 0.0]])
    started_empty = 0
    for seed in range(5):
        asg = kmeans(x, 2, seed=seed)
        h = asg.inertia_history
        assert all(b <= a for a, b in zip(h, h[1:]))
        assert h[-1] == 0.0 and np.bincount(asg.labels).tolist() in ([20, 1], [1, 20])
        started_empty += h[0] > 0
    assert started_empty


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
    for train in [line7, *(_random_trajectory(seed) for seed in range(100))]:
        pa = partition_location_appearance(train, cfg)
        pl = partition_by_location(train, 18.0)
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


@st.composite
def travel_cases(draw):
    """A season of 1-40 images with steps of up to 9 m per axis (zero steps
    included), a t_d from below one step to above the whole walk (or a sum
    of steps exactly, so travel can reach it with equality), and an
    appearance cluster per image among k, some clusters empty."""
    n = draw(st.integers(1, 40))
    step = st.sampled_from([0.0, 0.5, 3.0]) | st.floats(-9.0, 9.0)
    xy = np.cumsum(draw(st.lists(st.tuples(step, step), min_size=n, max_size=n)), axis=0)
    t_d = draw(st.sampled_from([0.5, 3.0, 6.0]) | st.floats(1e-6, 0.4) | st.floats(0.4, 30.0)
               | st.floats(500.0, 1e6))
    k = draw(st.integers(1, n + 3))
    clusters = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return season_from_xy(xy), t_d, k, clusters


@given(travel_cases())
def test_the_label_column_equals_the_group_lists(case):
    train, t_d, k, clusters = case
    assert partition_by_location(train, t_d).labels.tolist() == \
        partition_oracle.location_labels(train, t_d)
    fixed = ClusterAssignment(labels=np.array(clusters), centroids=np.zeros((k, 1)))
    cfg = PartitionConfig(method="location-appearance", t_d=t_d, k=k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("seasonvpc.placedef.kmeans", lambda *args, **kwargs: fixed)
        labels = partition_location_appearance(train, cfg).labels.tolist()
    assert labels == partition_oracle.location_appearance_labels(train, clusters, t_d)


@given(st.integers(1, 12), st.data())
def test_kmeans_equals_the_label_mask_oracle(n, data):
    # Few distinct rows, so clusters start or fall empty.
    distinct = data.draw(st.integers(1, n))
    rows = np.array(data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                       min_size=distinct, max_size=distinct)), dtype=float)
    x = rows[data.draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))]
    k, iters, seed = data.draw(st.integers(1, n)), data.draw(st.integers(1, 8)), \
        data.draw(st.integers(0, 2**32))
    got = kmeans(x, k, iters=iters, seed=seed)
    labels, centroids, history = partition_oracle.kmeans(x, k, iters, seed)
    assert np.array_equal(got.labels, labels) and np.array_equal(got.centroids, centroids)
    assert got.inertia_history == history


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
    labels = membership_labels(p, len(train))  # the partition refused gaps when built
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


# SHA-256 of partition.csv for each (method, t_d, k) on season 2 of a jittered
# synthetic loop (72 images), recorded before UPD1 and UPD2 shared one travel
# splitter. UPD3's angle and feature thresholds are widened to 1.0 so that it
# merges images. A change to the travel rule or to a method's grouping shows.
PINNED_PARTITIONS = {
    ("location", 18.0, None): "9f0da2a02f0b0c02aa02388f8fd08e7a638e6d94ae2da1286e6179441ab2d9e8",
    ("location", 5.0, None): "8b3917db1f7124d9b5b23c93b2364a9b89881ae316cc80856fa1ed756d94e569",
    ("location-appearance", 18.0, None):
        "460033ec34132a05c45a3256b63aa3180d6edfaac4e0146823237449eaa4dfc8",
    ("location-appearance", 6.0, 5):
        "97e70e42a29269db956c625a87348325d14436b4114f50c3b99a81258bc9261f",
    ("location-appearance", 30.0, 3):
        "78b8ffbc588915b3c9c27757a20564a17ee36fd1a638f6daf8deccd5e3359c45",
    ("incremental", 18.0, None): "3111ce8e59f6703001e24c352e392a0872597db011b049a5bfcf1e5afe0c9543",
}


def test_partition_csv_of_every_method_is_pinned():
    train = synth_generate(SynthConfig(n_places=12, images_per_place=6, pose_jitter=4.0,
                                       n_seasons=2, seed=4))[1]
    digests = {}
    for method, t_d, k in PINNED_PARTITIONS:
        cfg = PartitionConfig(method=method, t_d=t_d, k=k, seed=2, ang_max=1.0, feat_max=1.0)
        csv = partition_csv(build_partition(train, cfg))
        digests[method, t_d, k] = hashlib.sha256(csv.encode()).hexdigest()
    assert digests == PINNED_PARTITIONS
