import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seasonvpc import (
    PartitionConfig,
    PlaceClass,
    PlacePartition,
    RetrainHistory,
    TrainingSet,
    Viewpoint,
    angle_difference,
    build_partition,
    membership_labels,
    normalize_angle,
    ones_count,
    path_length,
    viewpoint_distance,
)

from conftest import line_training_set, season_from_xy

finite_angle = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_ones_count_examples():
    assert ones_count(RetrainHistory(())) == 0
    assert ones_count(RetrainHistory((1, 0, 1, 1))) == 3
    assert ones_count(RetrainHistory((0, 0, 0, 0))) == 0


def test_ones_count_plus_zeros_is_length():
    for bits in [(1, 0, 1), (0,), (), (1, 1, 1, 1)]:
        h = RetrainHistory(bits)
        zeros = sum(1 for b in bits if b == 0)
        assert ones_count(h) + zeros == len(h)


def test_history_bits_validated():
    with pytest.raises(ValueError):
        RetrainHistory((0, 2))


def test_viewpoint_distance_examples():
    assert viewpoint_distance(Viewpoint(0, 0), Viewpoint(3, 4)) == 5.0
    assert viewpoint_distance(Viewpoint(1.5, -2.0), Viewpoint(1.5, -2.0)) == 0.0
    # exactly at the incremental-clustering position threshold boundary
    assert viewpoint_distance(Viewpoint(0, 0), Viewpoint(30, 0)) == 30.0


@given(coord, coord, coord, coord, coord, coord)
def test_viewpoint_distance_is_a_metric(ax, ay, bx, by, cx, cy):
    a, b, c = Viewpoint(ax, ay), Viewpoint(bx, by), Viewpoint(cx, cy)
    assert viewpoint_distance(a, b) == viewpoint_distance(b, a)
    assert viewpoint_distance(a, a) == 0.0
    scale = max(1.0, viewpoint_distance(a, b), viewpoint_distance(b, c))
    assert viewpoint_distance(a, c) <= viewpoint_distance(a, b) + viewpoint_distance(b, c) + 1e-9 * scale


def test_viewpoint_rejects_non_finite():
    with pytest.raises(ValueError):
        Viewpoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Viewpoint(0.0, float("inf"))


def test_angle_difference_examples():
    assert angle_difference(0.0, math.pi / 6) == pytest.approx(math.pi / 6)
    assert angle_difference(math.pi - 0.01, -math.pi + 0.01) == pytest.approx(0.02)
    assert angle_difference(1.234, 1.234) == 0.0


@given(finite_angle, finite_angle)
def test_angle_difference_range_and_symmetry(a, b):
    d = angle_difference(a, b)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(angle_difference(b, a), abs=1e-12)


@given(finite_angle)
def test_normalize_angle_idempotent_and_in_range(theta):
    t = normalize_angle(theta)
    assert -math.pi < t <= math.pi
    assert normalize_angle(t) == t


def test_normalize_angle_boundary():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


def test_path_length_examples(line7):
    assert path_length(line7, 0, 0) == 0.0
    assert path_length(line7, 0, 6) == pytest.approx(18.0)
    with pytest.raises(ValueError):
        path_length(line7, 4, 2)
    with pytest.raises(ValueError):
        path_length(line7, 0, 7)


def _jittered_walk(seed=7, n=20):
    rng = np.random.default_rng(seed)
    return season_from_xy(np.cumsum(rng.normal(0, 2, size=(n, 2)), axis=0), label="jitter")


def test_path_length_additive_over_concatenated_ranges():
    train = _jittered_walk()
    for k in (0, 3, 10, 19):
        lhs = path_length(train, 0, k) + path_length(train, k, 19)
        assert lhs == pytest.approx(path_length(train, 0, 19), rel=1e-12)


def test_path_length_is_the_sequential_hypot_sum():
    train = _jittered_walk(seed=3, n=50)
    xy = [(img.viewpoint.x, img.viewpoint.y) for img in train.images]
    for a, b in ((0, 49), (5, 6), (7, 31), (12, 12)):
        want = 0.0
        for (x0, y0), (x1, y1) in zip(xy[a:b], xy[a + 1:b + 1]):
            want += math.hypot(x0 - x1, y0 - y1)
        assert path_length(train, a, b) == want  # exactly, not approximately


def _season(n=3, **columns):
    doc = dict(timestamps=np.arange(n) * 1_000_000, poses=np.zeros((n, 3)),
               features=np.ones((n, 2)))
    doc.update(columns)
    return TrainingSet(season_id=1, label="s", **doc)


def test_training_set_validates_order_and_ids():
    # an image's id is its row: the columns must have one row per image
    good = line_training_set(3)
    assert good.features.shape == (3, 1) and len(good) == 3
    with pytest.raises(ValueError, match="strictly increasing"):
        _season(timestamps=[0, 5, 5])
    with pytest.raises(ValueError, match="no images"):
        _season(n=0)
    with pytest.raises(ValueError, match="non-finite feature at index 1"):
        _season(features=[[1.0, 1.0], [1.0, np.inf], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        _season(poses=[[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="poses"):
        _season(poses=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="feature dimension"):
        _season(features=np.ones(3))
    with pytest.raises(ValueError, match="season_id"):
        TrainingSet(season_id=0, label="s", timestamps=[0], poses=[[0.0, 0.0, 0.0]],
                    features=[[1.0]])


def test_training_set_normalizes_headings_and_builds_rows():
    train = _season(poses=[[0.0, 0.0, 7.0], [1.0, 2.0, -math.pi], [3.0, 4.0, 0.5]])
    assert train.poses[:, 2].tolist() == [normalize_angle(7.0), math.pi, 0.5]
    rows = train.images
    assert [r.id for r in rows] == [0, 1, 2]
    assert [r.timestamp for r in rows] == [0, 1_000_000, 2_000_000]
    assert rows[1].viewpoint == Viewpoint(1.0, 2.0, math.pi)
    assert rows[2].feature.tolist() == [1.0, 1.0]
    assert len(rows) == 3 and rows[-1].id == 2 and [r.id for r in rows[1:]] == [1, 2]
    with pytest.raises(IndexError):
        rows[3]


def test_season_arrays_are_read_only_copies():
    feats = np.ones((3, 2))
    train = _season(features=feats)
    feats[0, 0] = 5.0  # the caller's array stays the caller's
    assert train.features[0, 0] == 1.0
    for column in (train.timestamps, train.poses, train.features):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        train.images[0].feature[0] = 0.0
    part = build_partition(line_training_set(7), PartitionConfig())
    with pytest.raises(ValueError, match="read-only"):
        part.classes[0].members[0] = 3


def _partition(*members):
    return PlacePartition(classes=tuple(PlaceClass(c, m) for c, m in enumerate(members)),
                          source_season=1, method="location")


def test_membership_labels_is_the_label_array():
    assert membership_labels(_partition([0, 2], [1, 3, 4]), 5).tolist() == [0, 1, 0, 1, 1]


def test_membership_labels_rejects_bad_members():
    with pytest.raises(ValueError, match="member id 5 outside dataset of 5"):
        membership_labels(_partition([0, 1, 2], [3, 4, 5]), 5)
    with pytest.raises(ValueError, match="member id -1 outside"):
        membership_labels(_partition([-1, 0, 1], [2, 3, 4]), 5)
    with pytest.raises(ValueError, match="image 2 assigned to more than one class"):
        membership_labels(_partition([0, 1, 2], [2, 3, 4]), 5)
    with pytest.raises(ValueError, match="image 3 not assigned to any class"):
        membership_labels(_partition([0, 1, 2], [4]), 5)


def test_place_class_members_are_ascending_and_non_empty():
    with pytest.raises(ValueError, match="at least one member"):
        PlaceClass(0, [])
    with pytest.raises(ValueError, match="ascending"):
        PlaceClass(0, [2, 1])
    with pytest.raises(ValueError, match="ascending"):
        PlaceClass(0, [1, 1])


def test_partition_summary_reads_keyframe_and_centroid_from_the_season(line7):
    part = build_partition(line7, PartitionConfig())  # t_d 18 m: images 0-5, then 6
    first, last = part.summary(line7).classes
    assert (first.keyframe_id, first.keyframe_timestamp, first.size) == (0, 0, 6)
    assert first.keyframe_viewpoint == Viewpoint(0.0, 0.0, 0.0)
    assert (first.representative.x, first.representative.y) == (7.5, 0.0)
    assert (last.keyframe_id, last.keyframe_timestamp, last.size) == (6, 6_000_000, 1)
    assert last.representative == Viewpoint(18.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="season"):
        part.summary(line_training_set(7, season_id=2))
