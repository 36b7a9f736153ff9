"""Property tests for the input parsers: whatever bytes arrive, a parser
returns a value or raises its typed error (DataError / StateFormatError /
UsageError), never a bare ValueError, OverflowError, struct.error or similar."""

import copy
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from seasonvpc import (
    DataError,
    MissionConfig,
    StrategyConfig,
    SynthConfig,
    TrainConfig,
    initial_state,
    load_features,
    load_manifest,
    load_poses,
    load_state,
    run_adaptation,
    save_state,
    synth_generate,
)
from seasonvpc.cli import ExperimentSpec, UsageError, load_experiment_spec
from seasonvpc.data import FEATURE_HEADER, FEATURE_MAGIC
from seasonvpc.missions import _HEADER, STATE_MAGIC, STATE_VERSION, StateFormatError

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Tokens a hostile or corrupted numeric field may hold.
NUMBER_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e19", "-1e19",
                     "9223372036854775807.0", "", " ", "abc", "0x10", "1_0", "--1"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def _csv_text(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(NUMBER_TOKENS, min_size=1, max_size=8), min_size=1, max_size=6)
    .map(lambda rows: _csv_text(rows).encode()),
)


def _write(tmp_path_factory, name, blob):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(blob)
    return path


@FUZZ
@given(blob=CSV_BYTES)
def test_load_poses_raises_only_data_error(tmp_path_factory, blob):
    path = _write(tmp_path_factory, "poses.csv", blob)
    try:
        timestamps, poses = load_poses(path)
    except DataError:
        return
    assert len(timestamps) and timestamps.dtype == np.int64
    assert poses.shape == (len(timestamps), 3) and np.isfinite(poses).all()


FEATURE_BYTES = st.one_of(
    CSV_BYTES,
    st.builds(
        lambda version, dim, count, payload: FEATURE_HEADER.pack(
            FEATURE_MAGIC, version, dim, count) + payload,
        st.sampled_from([1, 1, 1, 0, 2, 2**32 - 1]),
        st.one_of(st.integers(0, 4), st.just(2**32 - 1)),
        st.one_of(st.integers(0, 4), st.just(2**32 - 1)),
        st.binary(max_size=80),
    ),
    st.binary(max_size=20).map(lambda b: FEATURE_MAGIC + b),
)


# A CSV value past the float32 range is a DataError; numpy must not warn
# about (and silently make inf of) an overflowing cast.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(blob=FEATURE_BYTES, f_dim=st.one_of(st.none(), st.integers(1, 4)))
def test_load_features_raises_only_data_error(tmp_path_factory, blob, f_dim):
    path = _write(tmp_path_factory, "features.bin", blob)
    try:
        feats = load_features(path, f_dim)
    except DataError:
        return
    assert feats.ndim == 2 and feats.shape[1] >= 1
    assert f_dim is None or feats.shape[1] == f_dim


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=10,
)
SEASON_ENTRY = st.fixed_dictionaries(
    {},
    optional={"poses": JSON_VALUES | st.just("p.csv"), "features": JSON_VALUES | st.just("f.bin"),
              "label": JSON_VALUES, "season_id": JSON_VALUES | st.integers(-2, 3)},
)
MANIFEST_DOC = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {},
        optional={"feature_dim": JSON_VALUES | st.integers(-2, 4),
                  "seasons": st.lists(SEASON_ENTRY | JSON_VALUES, max_size=3) | JSON_VALUES},
    ),
)
MANIFEST_BYTES = st.one_of(
    MANIFEST_DOC.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=100),
)


@FUZZ
@given(blob=MANIFEST_BYTES)
def test_load_manifest_raises_only_data_error(tmp_path_factory, blob):
    path = _write(tmp_path_factory, "manifest.json", blob)
    try:
        f_dim, bundles = load_manifest(path)
    except DataError:
        return
    assert f_dim >= 1 and bundles
    assert [b.season_id for b in bundles] == sorted(b.season_id for b in bundles)


@pytest.fixture(scope="module")
def state_payload(tmp_path_factory):
    """Payload of a small real two-mission state: one slot trained and then
    fine-tuned, one freshly trained, each with its partition summary."""
    seasons = synth_generate(SynthConfig(n_places=3, loop_length=60.0, images_per_place=2,
                                         feature_dim=3, n_seasons=2, seed=1))
    cfg = MissionConfig(strategy=StrategyConfig("ST1"), capacity=2,
                        train=TrainConfig(epochs=1, hidden=2))
    state = initial_state(2)
    for season in seasons:
        state = run_adaptation(state, season, cfg)
    path = tmp_path_factory.mktemp("state") / "state.svpc"
    save_state(state, path)
    return path.read_bytes()[_HEADER.size:]


def _sealed(payload: bytes) -> bytes:
    """A header with the payload's true length and checksum, so only the
    record parser can object."""
    return _HEADER.pack(STATE_MAGIC, STATE_VERSION, len(payload),
                        hashlib.sha256(payload).digest()) + payload


@st.composite
def mutated_payloads(draw, payload):
    blob = bytearray(payload)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob) - 1))
        edit = draw(st.sampled_from(["byte", "word", "truncate", "insert"]))
        if edit == "byte":
            blob[pos] = draw(st.integers(0, 255))
        elif edit == "word":
            blob[pos:pos + 4] = draw(st.sampled_from(
                [b"\xff\xff\xff\xff", b"\x00\x00\x00\x00", b"\x02\x00\x00\x00",
                 b"\x00\x00\xf8\x7f", b"\x00\x00\xf0\x7f"]))
        elif edit == "truncate":
            del blob[pos:]
            if not blob:
                break
        else:
            blob[pos:pos] = draw(st.binary(min_size=1, max_size=16))
    return bytes(blob)


@FUZZ
@given(data=st.data())
def test_load_state_raises_only_state_format_error(tmp_path_factory, state_payload, data):
    blob = data.draw(st.one_of(
        mutated_payloads(state_payload).map(_sealed),
        st.binary(max_size=80).map(_sealed),
        st.binary(max_size=120),
    ))
    path = _write(tmp_path_factory, "state.svpc", blob)
    try:
        state = load_state(path)
    except StateFormatError:
        return
    save_state(state, path)  # a state that loads saves back to the same bytes
    assert path.read_bytes() == blob


@pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_load_state_refuses_a_non_finite_final_loss(tmp_path, state_payload, loss, slot):
    # Each slot's final_loss follows its presence byte, as a little-endian
    # double; the payload is sealed again with its new checksum.
    path = tmp_path / "state.svpc"
    path.write_bytes(_sealed(state_payload))
    stored = struct.pack("<Bd", 1, load_state(path).classifiers[slot].model.final_loss)
    assert state_payload.count(stored) == 1
    path.write_bytes(_sealed(state_payload.replace(stored, struct.pack("<Bd", 1, loss))))
    with pytest.raises(StateFormatError, match="invalid record: a slot's model needs a finite "
                                               "final_loss"):
        load_state(path)


# Every key a spec may hold, each with a valid value.
VALID_SPEC = {
    "missions": 3, "seed": 1, "manifest": "m.json", "protocol": "fixed-test",
    "synth": {"n_places": 8, "loop_length": 160.0, "images_per_place": 3, "feature_dim": 16,
              "place_signal": 1.0, "season_drift": 0.6, "noise": 0.2, "pose_jitter": 0.25},
    "strategy": {"kind": "ST3", "n_bar": 1, "k_bar": 2, "st3_filter": False},
    "partition": {"method": "location-appearance", "t_d": 18.0, "k": 3, "kmeans_iters": 5,
                  "pos_max": 30.0, "ang_max": 0.5, "feat_max": 0.8},
    "train": {"learning_rate": 0.5, "epochs": 4, "batch_size": 8, "hidden": 16,
              "weight_scale": 0.1},
    "fusion_x": 5, "capacity": 3, "error_thresholds": [10.0, 20.0], "mode": "topx",
}
SPEC_FIELD_VALUES = st.one_of(
    JSON_VALUES,
    st.sampled_from([0, -1, 1, 2.5, 1e400, -1e400, 10**400, "ST1", "location", "10",
                     [], [1], [10, "a"], {}]),
)


@st.composite
def mutated_specs(draw):
    """VALID_SPEC with one key of one section (or of the top level)
    replaced, added or removed."""
    doc = copy.deepcopy(VALID_SPEC)
    section = draw(st.sampled_from([None, "synth", "strategy", "partition", "train"]))
    target = doc if section is None else doc[section]
    key = draw(st.sampled_from(sorted(target) + ["seed", "n_seasons", "bogus"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(SPEC_FIELD_VALUES)
    return doc


@FUZZ
@given(blob=st.one_of(st.one_of(JSON_VALUES, mutated_specs()).map(
    lambda doc: json.dumps(doc).encode()), st.binary(max_size=60)))
def test_load_experiment_spec_raises_only_usage_or_data_error(tmp_path_factory, blob):
    path = _write(tmp_path_factory, "spec.json", blob)
    try:
        spec = load_experiment_spec(str(path))
    except (UsageError, DataError):
        return
    assert isinstance(spec, ExperimentSpec)


def test_valid_spec_builds(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(VALID_SPEC))
    spec = load_experiment_spec(str(path))
    assert spec.mission.train.seed == spec.synth.seed == spec.mission.partition.seed == 1
    assert spec.manifest == str(tmp_path / "m.json")
