"""The state file's bytes, pinned on a hand-built ensemble, and the typed
errors for packed partition class records and presence bytes."""

import hashlib
import math

import numpy as np
import pytest

from seasonvpc import (
    ClassifierRecord,
    EnsembleState,
    PartitionSummary,
    RetrainHistory,
    load_state,
    save_state,
    states_equal,
)
from seasonvpc import cli
from seasonvpc.classify import ModelParams
from seasonvpc.core import CLASS_RECORD
from seasonvpc.missions import _HEADER, StateFormatError

# SHA-256 of the file `_pinned_state()` saves to, recorded before partition
# summaries became columnar. A change of the state layout must show here.
PINNED_SHA256 = "d71e27bae8b852c0fe7515f5b3882c6620e4d2853bf8ad1a38d042c9b5d7fc3d"
PINNED_SIZE = 770


def _model(k, final_loss, seed):
    w1 = np.array([[0.5, -1.25, 2.0], [0.0, 3.0e-3, -7.5]])
    b1 = np.array([0.25, -0.125])
    w2 = np.arange(2 * k, dtype=float).reshape(k, 2) / 8 - 0.5
    b2 = np.linspace(-1.0, 1.0, k)
    return ModelParams(w1, b1, w2, b2, final_loss=final_loss, seed=seed)


def _pinned_state():
    """Two slots: a 3-class partition with a heading of exactly pi and a
    negative one, and a model with final_loss and seed; a 2-class partition
    and a model with neither."""
    three = PartitionSummary(
        keyframe_ids=[0, 4, 9], keyframe_timestamps=[-5, 4_000_000, 9_000_000],
        keyframe_poses=[(0.0, 1.5, math.pi), (10.0, -2.0, -1.25), (20.5, 0.0, 0.0)],
        representatives=[(2.5, 1.75, math.pi / 2), (11.0, -2.5, -math.pi / 2),
                         (20.25, 0.125, 0.0)],
        sizes=[4, 5, 1], source_season=2, method="incremental")
    two = PartitionSummary(
        keyframe_ids=[0, 3], keyframe_timestamps=[0, 3_000_000],
        keyframe_poses=[(1.0, 2.0, 0.5), (4.0, 8.0, -3.0)],
        representatives=[(1.5, 2.5, math.pi / 2), (5.0, 9.0, 0.0)],
        sizes=[3, 2], source_season=1, method="location")
    return EnsembleState(mission=2, capacity=2, classifiers=(
        ClassifierRecord(RetrainHistory((1, 1)), three, _model(3, 0.375, 7)),
        ClassifierRecord(RetrainHistory((1, 0)), two, _model(2, None, None)),
    ))


def test_state_bytes_match_the_pinned_digest(tmp_path):
    path = tmp_path / "state.svpc"
    state = _pinned_state()
    save_state(state, path)
    blob = path.read_bytes()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (PINNED_SIZE, PINNED_SHA256)
    loaded = load_state(path)
    assert states_equal(loaded, state)
    for a, b in zip(loaded.classifiers, state.classifiers):
        assert a.partition == b.partition
    assert loaded.classifiers[0].partition.keyframe_poses[0, 2] == math.pi


# Payload offset of slot 0's first class record: counts (20), history length
# and bits (6), model flag and dimensions (13), 17 float64 parameters (136),
# loss and seed (18), partition flag and header (10).
FIRST_CLASS = 20 + 6 + 13 + 8 * 17 + 18 + 10


def _crafted(tmp_path, offset, data):
    """The pinned state with payload bytes at `offset` replaced and the
    checksum re-sealed, so only the record parser can object."""
    path = tmp_path / "state.svpc"
    save_state(_pinned_state(), path)
    blob = bytearray(path.read_bytes())
    start = _HEADER.size + offset
    blob[start:start + len(data)] = data
    blob[16:_HEADER.size] = hashlib.sha256(bytes(blob[_HEADER.size:])).digest()
    path.write_bytes(bytes(blob))
    return path


def _field(cls, name, component=0):
    """Payload offset of a field of slot 0's class record `cls`."""
    offset = CLASS_RECORD.fields[name][1]
    return FIRST_CLASS + cls * CLASS_RECORD.itemsize + offset + 8 * component


def test_first_class_offset_points_at_the_first_record(tmp_path):
    path = tmp_path / "state.svpc"
    save_state(_pinned_state(), path)
    payload = path.read_bytes()[_HEADER.size:]
    rows = np.frombuffer(payload, CLASS_RECORD, count=3, offset=FIRST_CLASS)
    assert rows["keyframe_ids"].tolist() == [0, 4, 9]
    assert rows["keyframe_poses"][0, 2] == math.pi


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, component", [("keyframe_poses", 0), ("representatives", 1),
                                             ("representatives", 2)])
def test_non_finite_pose_is_format_error(tmp_path, value, name, component):
    path = _crafted(tmp_path, _field(2, name, component), np.float64(value).tobytes())
    with pytest.raises(StateFormatError, match="non-finite pose"):
        load_state(path)


# Payload offsets of slot 0's first model parameter (w1[0, 0]) and of slot
# 1's last (b2[-1]): each follows its slot's history, model flag and dimensions.
W1_0 = 20 + 6 + 13
B2_1 = FIRST_CLASS + 3 * CLASS_RECORD.itemsize + 6 + 13 + 8 * 13


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("offset", [W1_0, B2_1], ids=["w1_0", "b2_1"])
def test_non_finite_model_parameter_is_format_error(tmp_path, value, offset):
    path = _crafted(tmp_path, offset, np.float64(value).tobytes())
    with pytest.raises(StateFormatError, match="non-finite model parameter"):
        load_state(path)


@pytest.mark.parametrize("heading", [-math.pi, math.nextafter(math.pi, math.inf), 4.0, -7.0])
@pytest.mark.parametrize("name", ["keyframe_poses", "representatives"])
def test_heading_outside_half_open_pi_interval_is_format_error(tmp_path, heading, name):
    path = _crafted(tmp_path, _field(1, name, 2), np.float64(heading).tobytes())
    with pytest.raises(StateFormatError, match="heading outside"):
        load_state(path)


def test_class_count_disagreeing_with_the_model_is_format_error(tmp_path):
    # the partition header's class count, just before the first record
    path = _crafted(tmp_path, FIRST_CLASS - 4, np.uint32(2).tobytes())
    with pytest.raises(StateFormatError, match="partition of 2 classes for a model of 3"):
        load_state(path)


def test_class_ids_out_of_order_are_format_error(tmp_path):
    path = _crafted(tmp_path, _field(1, "class_id"), np.uint32(2).tobytes())
    with pytest.raises(StateFormatError, match="class ids"):
        load_state(path)


# Payload offsets of the presence bytes: slot 0's model flag follows the
# counts and its history; its final_loss and seed bytes follow the model's
# dimensions and parameters, each 9 bytes long; its partition flag follows.
# Slot 1 starts after slot 0's three class records; its model has 14
# parameters, no final_loss and no seed.
MODEL_0 = 20 + 6
LOSS_0 = MODEL_0 + 13 + 8 * 17
SLOT_1 = FIRST_CLASS + 3 * CLASS_RECORD.itemsize
MODEL_1 = SLOT_1 + 6
LOSS_1 = MODEL_1 + 13 + 8 * 14


@pytest.mark.parametrize("offset, name", [
    (MODEL_0, "model"), (LOSS_0, "final_loss"), (LOSS_0 + 9, "seed"),
    (LOSS_0 + 18, "partition"), (MODEL_1, "model"), (LOSS_1, "final_loss"),
    (LOSS_1 + 9, "seed"), (LOSS_1 + 18, "partition"),
], ids=["model_0", "loss_0", "seed_0", "partition_0", "model_1", "loss_1", "seed_1",
        "partition_1"])
def test_presence_byte_other_than_0_or_1_is_format_error(tmp_path, offset, name):
    path = _crafted(tmp_path, offset, b"\x02")
    with pytest.raises(StateFormatError, match=f"{name} presence byte is 2, not 0 or 1"):
        load_state(path)


@pytest.mark.parametrize("offset, value, name", [
    (LOSS_1 + 1, np.float64(-0.0), "final_loss"),
    (LOSS_1 + 1, np.float64(0.5), "final_loss"),
    (LOSS_1 + 10, np.int64(7), "seed"),
], ids=["loss_negative_zero", "loss", "seed"])
def test_absent_field_with_non_zero_value_bytes_is_format_error(tmp_path, offset, value, name):
    path = _crafted(tmp_path, offset, value.tobytes())
    with pytest.raises(StateFormatError, match=f"absent {name} has non-zero value bytes"):
        load_state(path)


def test_state_format_error_exits_2_through_the_cli(tmp_path, monkeypatch, capsys):
    def failing(spec, out):
        raise StateFormatError("state.svpc: checksum mismatch")

    monkeypatch.setattr(cli, "run_experiment", failing)
    assert cli.main(["run", "--out", str(tmp_path / "out")]) == 2
    assert "checksum mismatch" in capsys.readouterr().err
