"""The state file's bytes, pinned on a hand-built ensemble, and the typed
errors for packed partition class records and presence bytes. Every slot
holds a trained model with its final_loss and seed, and a partition, so each
of its four presence bytes is 1."""

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

# SHA-256 of the file `_pinned_state()` saves to, recorded with the codec
# that still read final_loss and seed as optional fields. A change of the
# state layout must show here.
PINNED_SHA256 = "192ecbb9cb33c5d70054f47a37121faa9b7d751957cc1d87206f2f2aa758ec49"
PINNED_SIZE = 770


def _model(k, final_loss, seed):
    w1 = np.array([[0.5, -1.25, 2.0], [0.0, 3.0e-3, -7.5]])
    b1 = np.array([0.25, -0.125])
    w2 = np.arange(2 * k, dtype=float).reshape(k, 2) / 8 - 0.5
    b2 = np.linspace(-1.0, 1.0, k)
    return ModelParams(w1, b1, w2, b2, final_loss=final_loss, seed=seed)


def _pinned_state():
    """Two slots: a 3-class partition with a heading of exactly pi and a
    negative one; a 2-class partition. Each model has its final_loss and
    seed."""
    three = PartitionSummary(np.array([
        (0, 0, -5, (0.0, 1.5, math.pi), (2.5, 1.75, math.pi / 2), 4),
        (1, 4, 4_000_000, (10.0, -2.0, -1.25), (11.0, -2.5, -math.pi / 2), 5),
        (2, 9, 9_000_000, (20.5, 0.0, 0.0), (20.25, 0.125, 0.0), 1),
    ], CLASS_RECORD), source_season=2, method="incremental")
    two = PartitionSummary(np.array([
        (0, 0, 0, (1.0, 2.0, 0.5), (1.5, 2.5, math.pi / 2), 3),
        (1, 3, 3_000_000, (4.0, 8.0, -3.0), (5.0, 9.0, 0.0), 2),
    ], CLASS_RECORD), source_season=1, method="location")
    return EnsembleState(mission=2, capacity=2, classifiers=(
        ClassifierRecord(RetrainHistory((1, 1)), three, _model(3, 0.375, 7)),
        ClassifierRecord(RetrainHistory((1, 0)), two, _model(2, 0.5, 3)),
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
    assert rows.tobytes() == _pinned_state().classifiers[0].partition.rows.tobytes()


def test_a_loaded_summary_owns_read_only_rows(tmp_path):
    path = tmp_path / "state.svpc"
    save_state(_pinned_state(), path)
    for rec in load_state(path).classifiers:
        rows = rec.partition.rows
        assert rows.dtype == CLASS_RECORD
        assert not rows.flags.writeable
        assert rows.flags.owndata  # not a view of the file's bytes
        assert not rec.partition.sizes.flags.writeable


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


def test_class_ids_are_checked_by_the_summary_type(tmp_path):
    path = _crafted(tmp_path, _field(2, "class_id"), np.uint32(1).tobytes())
    with pytest.raises(StateFormatError, match="invalid record: .*class ids 0..K-1 in order"):
        load_state(path)
    rows = _pinned_state().classifiers[0].partition.rows.copy()
    rows["class_id"] = [0, 2, 1]
    with pytest.raises(ValueError, match="class ids"):
        PartitionSummary(rows, source_season=2, method="incremental")


# Payload offsets of the presence bytes: slot 0's model flag follows the
# counts and its history; its final_loss and seed bytes follow the model's
# dimensions and parameters, each 9 bytes long; its partition flag follows.
# Slot 1 starts after slot 0's three class records; its model has 14
# parameters.
MODEL_0 = 20 + 6
LOSS_0 = MODEL_0 + 13 + 8 * 17
SLOT_1 = FIRST_CLASS + 3 * CLASS_RECORD.itemsize
MODEL_1 = SLOT_1 + 6
LOSS_1 = MODEL_1 + 13 + 8 * 14


PRESENCE_BYTES = {
    "model_0": (MODEL_0, "model"), "loss_0": (LOSS_0, "final_loss"),
    "seed_0": (LOSS_0 + 9, "seed"), "partition_0": (LOSS_0 + 18, "partition"),
    "model_1": (MODEL_1, "model"), "loss_1": (LOSS_1, "final_loss"),
    "seed_1": (LOSS_1 + 9, "seed"), "partition_1": (LOSS_1 + 18, "partition"),
}


@pytest.mark.parametrize("offset, name", PRESENCE_BYTES.values(), ids=PRESENCE_BYTES)
def test_presence_byte_other_than_0_or_1_is_format_error(tmp_path, offset, name):
    path = _crafted(tmp_path, offset, b"\x02")
    with pytest.raises(StateFormatError, match=f"{name} presence byte is 2, not 1"):
        load_state(path)


@pytest.mark.parametrize("offset, name", PRESENCE_BYTES.values(), ids=PRESENCE_BYTES)
def test_slot_without_a_model_or_partition_is_format_error(tmp_path, offset, name):
    # A presence byte of 0 would leave the slot without that field: every
    # slot holds a trained model, its final_loss and seed, and a partition.
    path = _crafted(tmp_path, offset, b"\x00")
    with pytest.raises(StateFormatError, match=f"{name} presence byte is 0, not 1"):
        load_state(path)


# The capacity follows the mission in the payload's counts; a seed follows
# its presence byte.
@pytest.mark.parametrize("offset, data, message", [
    (_field(1, "sizes"), np.uint32(0), "class of size 0"),
    (8, np.uint64(0), "capacity must be >= 1"),
    (LOSS_1 + 10, np.int64(-1),
     "a slot's model needs a final_loss and a seed in 0..9223372036854775807, got 0.5 and -1"),
], ids=["class_size_0", "capacity_0", "seed_negative"])
def test_value_a_core_type_refuses_is_an_invalid_record(tmp_path, offset, data, message):
    path = _crafted(tmp_path, offset, data.tobytes())
    with pytest.raises(StateFormatError, match=f"invalid record: {message}"):
        load_state(path)


def test_unknown_partition_method_code_is_format_error(tmp_path):
    # the method code sits between the source season and the class count
    path = _crafted(tmp_path, FIRST_CLASS - 5, b"\x03")
    with pytest.raises(StateFormatError, match="unknown partition method code 3"):
        load_state(path)


def test_header_length_other_than_the_payload_is_format_error(tmp_path):
    path = tmp_path / "state.svpc"
    save_state(_pinned_state(), path)
    blob = bytearray(path.read_bytes())
    blob[8:16] = np.uint64(PINNED_SIZE - _HEADER.size + 1).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(StateFormatError, match=f"payload length {PINNED_SIZE - _HEADER.size} "
                                               f"!= header {PINNED_SIZE - _HEADER.size + 1}"):
        load_state(path)


def test_state_format_error_exits_2_through_the_cli(tmp_path, monkeypatch, capsys):
    def failing(spec, out):
        raise StateFormatError("state.svpc: checksum mismatch")

    monkeypatch.setattr(cli, "run_experiment", failing)
    assert cli.main(["run", "--out", str(tmp_path / "out")]) == 2
    assert "checksum mismatch" in capsys.readouterr().err
