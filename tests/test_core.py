import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seasonvpc import (
    ClassifierRecord,
    PartitionConfig,
    PartitionSummary,
    PlacePartition,
    RetrainHistory,
    SynthConfig,
    TrainingSet,
    Viewpoint,
    angle_difference,
    build_partition,
    init_model,
    membership_labels,
    normalize_angle,
    ones_count,
    path_length,
    synth_generate,
    viewpoint_distance,
)
from seasonvpc import core
from seasonvpc.core import CLASS_RECORD
from seasonvpc.placedef import PARTITION_METHODS

from conftest import line_training_set, neumaier_sum, season_from_xy

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
    with pytest.raises(ValueError, match=r"features must be a 2-D array, one row per image, "
                                         r"got \(3,\)"):
        _season(features=np.ones(3))
    with pytest.raises(ValueError, match="count mismatch: 3 images vs 2 feature rows"):
        _season(features=np.zeros((2, 4)))
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


def test_a_row_read_from_a_view_is_built_once(built_rows):
    train = _season(n=4)
    rows = train.images
    assert len(rows) == 4 and built_rows == []
    assert rows[1] is rows[1] and rows[-1] is rows[3] and rows[-4] is rows[0]
    assert len(built_rows) == 3
    assert [r.id for r in rows[::-1]] == [3, 2, 1, 0] and rows[1:3] == [rows[1], rows[2]]
    assert len(built_rows) == 4
    for bad in (4, -5):
        with pytest.raises(IndexError):
            rows[bad]
    assert train.images[0] is not rows[0]  # each view builds its own rows


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


def _partition(labels):
    return PlacePartition(labels, source_season=1, method="location")


def test_membership_labels_is_the_label_array():
    assert membership_labels(_partition([0, 1, 0, 1, 1]), 5).tolist() == [0, 1, 0, 1, 1]


def test_membership_labels_rejects_bad_members():
    # gapped and negative labels: test_labels_that_are_not_a_dense_column_are_refused
    with pytest.raises(ValueError, match="non-empty"):
        _partition([])
    with pytest.raises(ValueError, match="partition of 5 images for a season of 6"):
        membership_labels(_partition([0, 1, 0, 1, 1]), 6)


@st.composite
def dense_labels(draw):
    """Labels of K classes in any order, each class used at least once."""
    k = draw(st.integers(1, 8))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=24))
    return draw(st.permutations(list(range(k)) + extra))


@given(dense_labels())
def test_classes_split_the_label_column_by_id(labels):
    part = _partition(labels)
    assert [c.class_id for c in part.classes] == list(range(max(labels) + 1))
    covered = np.concatenate([c.members for c in part.classes])
    assert sorted(covered.tolist()) == list(range(len(labels)))
    for c in part.classes:
        assert c.members.tolist() == [i for i, cid in enumerate(labels) if cid == c.class_id]
        assert not c.members.flags.writeable
    assert not part.labels.flags.writeable
    assert membership_labels(part, len(labels)).tolist() == labels


@given(dense_labels(), st.data())
def test_labels_that_are_not_a_dense_column_are_refused(labels, data):
    cut = data.draw(st.integers(0, max(labels)))
    i = data.draw(st.integers(0, len(labels) - 1))
    gapped = [cid + (cid >= cut) for cid in labels]  # no image in class `cut`
    negative = labels[:i] + [data.draw(st.integers(-5, -1))] + labels[i + 1:]
    for bad in (gapped, negative):
        with pytest.raises(ValueError, match="class ids must be dense"):
            _partition(bad)
    with pytest.raises(ValueError, match="non-empty"):
        _partition(np.array(labels).reshape(1, -1))


def test_partition_summary_reads_keyframe_and_centroid_from_the_season(line7):
    part = build_partition(line7, PartitionConfig())  # t_d 18 m: images 0-5, then 6
    s = part.summary(line7)
    assert s.keyframe_ids.tolist() == [0, 6]
    assert s.keyframe_timestamps.tolist() == [0, 6_000_000]
    assert s.sizes.tolist() == [6, 1]
    assert s.keyframe_poses[0].tolist() == [0.0, 0.0, 0.0]
    assert s.representatives[0, :2].tolist() == [7.5, 0.0]
    assert s.representatives[1].tolist() == [18.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="season"):
        part.summary(line_training_set(7, season_id=2))
    with pytest.raises(ValueError, match="partition of 7 images for a season of 8"):
        part.summary(line_training_set(8))


def _summary_oracle(part, train):
    """What `summary` stores per class, each sum an explicit loop over the
    class's members in row order: (keyframe id, size, x, y, heading)."""
    rows = []
    for cls in part.classes:
        members = cls.members.tolist()
        sx = sy = ss = 0.0
        for i in members:
            x, y, theta = train.poses[i].tolist()
            sx += x
            sy += y
            ss += math.sin(theta)
        rows.append((members[0], len(members), sx / len(members), sy / len(members),
                     normalize_angle(math.atan2(ss, 0))))
    return rows


def _summary_rows(s):
    return list(zip(s.keyframe_ids.tolist(), s.sizes.tolist(),
                    *s.representatives.T.tolist()))


def test_summary_sums_in_row_order_whatever_the_builtin_sum(monkeypatch):
    # CPython 3.12's compensated sum gives 1/3 for this class's mean x; a
    # sum in row order gives 0.
    monkeypatch.setattr(core, "sum", neumaier_sum, raising=False)
    train = season_from_xy([(1e16, 0.0), (1.0, 0.0), (-1e16, 0.0), (5.0, 1.0)],
                           theta=[0.5, -1.0, 0.25, -0.5])
    part = _partition([0, 0, 0, 1])
    assert _summary_rows(part.summary(train)) == _summary_oracle(part, train)
    assert part.summary(train).representatives[0, :2].tolist() == [0.0, 0.0]
    for seed in (0, 1):
        seasons = synth_generate(SynthConfig(seed=seed))
        for method in PARTITION_METHODS:
            for train in seasons[:4]:
                part = build_partition(train, PartitionConfig(method=method, seed=seed))
                assert _summary_rows(part.summary(train)) == _summary_oracle(part, train)


def _summary(keyframe_pose=(0.0, 0.0, 0.0), representative=(1.0, 0.0, math.pi)):
    rows = np.array([(0, 0, 0, keyframe_pose, representative, 1)], CLASS_RECORD)
    return PartitionSummary(rows, source_season=1, method="location")


@pytest.mark.parametrize("column", ["keyframe_pose", "representative"])
def test_partition_summary_refuses_non_finite_poses_and_headings_outside_pi(column):
    _summary(**{column: (0.0, 0.0, math.pi)})
    with pytest.raises(ValueError, match="non-finite pose"):
        _summary(**{column: (math.nan, 0.0, 0.0)})
    for heading in (4.0, -math.pi):
        with pytest.raises(ValueError, match="heading outside"):
            _summary(**{column: (0.0, 0.0, heading)})


def test_partition_summary_refuses_rows_of_another_dtype_and_empty_classes():
    # np.zeros(1) as CLASS_RECORD would be one all-zero record of size 0
    for rows in (np.zeros(1), [(0, 0, 0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1)]):
        with pytest.raises(ValueError, match="must be CLASS_RECORD records"):
            PartitionSummary(rows, source_season=1, method="location")
    rows = _summary().rows.copy()
    rows["sizes"] = 0
    with pytest.raises(ValueError, match="class of size 0"):
        PartitionSummary(rows, source_season=1, method="location")


def test_classifier_record_refuses_a_non_finite_parameter_and_a_class_count_mismatch():
    history = RetrainHistory((1,))
    model = replace(init_model(3, 2, 1), final_loss=0.0)
    ClassifierRecord(history, _summary(), model)
    model.b2[0] = math.nan
    with pytest.raises(ValueError, match="non-finite model parameter"):
        ClassifierRecord(history, _summary(), model)
    with pytest.raises(ValueError, match="partition of 1 classes for a model of 2"):
        ClassifierRecord(history, _summary(), replace(init_model(3, 2, 2), final_loss=0.0))


@pytest.mark.parametrize("final_loss, seed", [(None, 0), (0.5, None), (0.5, -1), (0.5, 2**63)],
                         ids=["no_final_loss", "no_seed", "seed_negative", "seed_past_int64"])
def test_classifier_record_refuses_a_model_without_its_final_loss_and_int64_seed(final_loss,
                                                                                  seed):
    model = replace(init_model(3, 2, 1), final_loss=final_loss, seed=seed)
    with pytest.raises(ValueError, match="a final_loss and a seed in 0..9223372036854775807"):
        ClassifierRecord(RetrainHistory((1,)), _summary(), model)
    largest = replace(model, final_loss=0.5, seed=2**63 - 1)
    ClassifierRecord(RetrainHistory((1,)), _summary(), largest)
