import errno
import hashlib
import io

import numpy as np
import pytest

from seasonvpc import (
    MissionConfig,
    PartitionConfig,
    StrategyConfig,
    SynthConfig,
    TrainConfig,
    initial_state,
    load_state,
    models_equal,
    ones_count,
    queries_from_set,
    run_adaptation,
    run_vpc,
    save_state,
    states_equal,
    success_ratio,
    synth_generate,
)
from seasonvpc import missions
from seasonvpc.missions import StateFormatError


def _synth(n_seasons=5, seed=0, **kw):
    kw.setdefault("images_per_place", 3)
    cfg = SynthConfig(n_places=8, loop_length=160.0, feature_dim=16,
                      n_seasons=n_seasons, seed=seed, **kw)
    return synth_generate(cfg)


def _mc(strategy, capacity=4, epochs=15):
    return MissionConfig(
        strategy=strategy,
        partition=PartitionConfig(),
        train=TrainConfig(learning_rate=0.5, epochs=epochs, seed=0),
        capacity=capacity,
        error_thresholds=(10.0, 20.0),
    )


def test_initial_state_is_base_only():
    state = initial_state(4)
    assert state.mission == 0
    assert len(state.classifiers) == 1
    assert state.classifiers[0].model is None
    assert state.classifiers[0].partition is None


def test_adaptation_mission_one_st1():
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"))
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    assert state.mission == 1
    assert len(state.classifiers) == 1
    rec = state.classifiers[0]
    assert rec.history.bits == (1,)
    assert rec.model is not None
    assert rec.model.n_classes == len(rec.partition.classes)
    assert rec.partition.source_season == 1


def test_adaptation_rejects_wrong_season():
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"))
    with pytest.raises(ValueError):
        run_adaptation(initial_state(4), seasons[1], cfg)


def test_adaptation_four_missions_st2_each_slot_tuned_once():
    seasons = _synth(5)
    cfg = _mc(StrategyConfig("ST2", n_bar=1))
    state = initial_state(4)
    for i in range(4):
        state = run_adaptation(state, seasons[i], cfg)
    assert [c.history.as_string() for c in state.classifiers] == \
        ["1000", "0100", "0010", "0001"]
    for slot, rec in enumerate(state.classifiers):
        assert ones_count(rec.history) == 1
        assert rec.partition.source_season == slot + 1  # trained in season order


def test_idle_slots_keep_model_bit_identical():
    seasons = _synth(3)
    cfg = _mc(StrategyConfig("ST2", n_bar=1))
    s1 = run_adaptation(initial_state(4), seasons[0], cfg)
    s2 = run_adaptation(s1, seasons[1], cfg)
    # slot 0 sat out mission 2: history 10, same model object content
    assert s2.classifiers[0].history.as_string() == "10"
    assert models_equal(s2.classifiers[0].model, s1.classifiers[0].model)
    assert s2.classifiers[0].partition == s1.classifiers[0].partition


def test_oplus_chain_history_bookkeeping():
    # a slot spawned at mission 3 and retrained at mission 4 carries [0,0,1,1]
    seasons = _synth(5)
    cfg = _mc(StrategyConfig("ST1"), epochs=4)
    state = initial_state(4)
    for i in range(4):
        state = run_adaptation(state, seasons[i], cfg)
    histories = [c.history.as_string() for c in state.classifiers]
    assert "0011" in histories
    rec = state.classifiers[histories.index("0011")]
    assert rec.partition.source_season == 4  # last fine-tuned on season 4


def test_run_vpc_single_classifier_matches_direct_ranking():
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"), capacity=1)
    state = run_adaptation(initial_state(1), seasons[0], cfg)
    queries = queries_from_set(seasons[1])[:5]
    results = run_vpc(state, queries, cfg)
    from seasonvpc import predict, top_x
    rec = state.classifiers[0]
    for q, res in zip(queries, results):
        probs = predict(rec.model, np.asarray(q.feature, float)[None, :])
        direct = [(0, c, float(probs[0, c]), rec.partition.classes[c].representative)
                  for c in top_x(probs, cfg.fusion_x)[0].tolist()]
        assert [(c.source_classifier, c.class_id, c.probability, c.location)
                for c in res.ranked] == direct


def test_run_vpc_duplicate_classifiers_duplicate_candidates():
    # capacity 2, ST1: mission 1 trains slot 0 only; mission 2 trains both on
    # the same data; slots may produce overlapping top lists and fusion must
    # keep both copies
    seasons = _synth(3)
    cfg = _mc(StrategyConfig("ST1"), capacity=2)
    state = run_adaptation(initial_state(2), seasons[0], cfg)
    state = run_adaptation(state, seasons[1], cfg)
    queries = queries_from_set(seasons[2])[:3]
    results = run_vpc(state, queries, cfg)
    for res in results:
        slots = {c.source_classifier for c in res.ranked}
        assert slots == {0, 1}


def test_run_vpc_requires_adaptation_and_queries_can_be_empty():
    cfg = _mc(StrategyConfig("ST1"))
    with pytest.raises(ValueError):
        run_vpc(initial_state(4), [], cfg)
    seasons = _synth(2)
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    assert run_vpc(state, [], cfg) == []


def test_run_vpc_st3_filter_restricts_to_best_matching_slot():
    seasons = _synth(4)
    cfg = _mc(StrategyConfig("ST3", k_bar=1))
    state = initial_state(4)
    for i in range(3):
        state = run_adaptation(state, seasons[i], cfg)
    queries = queries_from_set(seasons[3])[:4]
    results = run_vpc(state, queries, cfg)
    for res in results:
        assert {c.source_classifier for c in res.ranked} == {0}
    # with the filter off all trained slots contribute
    no_filter = _mc(StrategyConfig("ST3", k_bar=1, st3_filter=False))
    results2 = run_vpc(state, queries, no_filter)
    assert any(len({c.source_classifier for c in r.ranked}) > 1 for r in results2)


def test_run_vpc_is_pure_and_deterministic():
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"))
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    queries = queries_from_set(seasons[1])
    a = run_vpc(state, queries, cfg)
    b = run_vpc(state, queries, cfg)
    assert a == b


def test_success_ratio_modes_and_monotonicity():
    seasons = _synth(3)
    cfg = _mc(StrategyConfig("ST2", n_bar=1))
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    state = run_adaptation(state, seasons[1], cfg)
    queries = queries_from_set(seasons[2])
    results = run_vpc(state, queries, cfg)
    r10 = success_ratio(results, queries, 10.0)
    r20 = success_ratio(results, queries, 20.0)
    assert 0.0 <= r10 <= r20 <= 1.0
    assert success_ratio(results, queries, 20.0, "topx") >= r20
    with pytest.raises(ValueError):
        success_ratio([], [], 10.0)
    with pytest.raises(ValueError):
        success_ratio(results, queries, 10.0, "rank2")


def test_success_ratio_exact_and_hopeless_cases():
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"))
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    queries = queries_from_set(seasons[1])
    results = run_vpc(state, queries, cfg)
    assert success_ratio(results, queries, 1e9) == 1.0
    assert success_ratio(results, queries, 1e-9) == 0.0


def _four_mission_state(seed=0, **synth_kw):
    seasons = _synth(5, seed=seed, **synth_kw)
    cfg = _mc(StrategyConfig("ST2", n_bar=1), epochs=6)
    state = initial_state(4)
    for i in range(4):
        state = run_adaptation(state, seasons[i], cfg)
    return state


def test_state_roundtrip_bitwise(tmp_path):
    state = _four_mission_state()
    path = tmp_path / "state.svpc"
    save_state(state, path)
    loaded = load_state(path)
    assert states_equal(state, loaded)
    for a, b in zip(state.classifiers, loaded.classifiers):
        assert a.history == b.history
        assert models_equal(a.model, b.model)
        assert a.model.final_loss == b.model.final_loss
        assert a.model.seed == b.model.seed
        assert a.partition == b.partition


def test_state_tamper_detected(tmp_path):
    state = _four_mission_state()
    path = tmp_path / "state.svpc"
    save_state(state, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(StateFormatError):
        load_state(path)


def test_state_bad_magic_and_version(tmp_path):
    state = _four_mission_state()
    path = tmp_path / "state.svpc"
    save_state(state, path)
    blob = bytearray(path.read_bytes())
    good = bytes(blob)
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(StateFormatError):
        load_state(path)
    blob = bytearray(good)
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(StateFormatError):
        load_state(path)


def _rewrite_payload(path, offset, data):
    """Overwrite payload bytes and re-seal the checksum, so only the record
    parser can object."""
    blob = bytearray(path.read_bytes())
    header = 48  # magic, version, payload length, sha256
    blob[header + offset:header + offset + len(data)] = data
    blob[16:header] = hashlib.sha256(bytes(blob[header:])).digest()
    path.write_bytes(bytes(blob))


def test_state_crafted_history_bit_is_format_error(tmp_path):
    path = tmp_path / "state.svpc"
    save_state(_four_mission_state(), path)
    _rewrite_payload(path, 24, b"\x02")  # first bit of slot 0's history
    with pytest.raises(StateFormatError, match="history bits"):
        load_state(path)


def test_state_crafted_model_dimensions_are_format_error(tmp_path):
    path = tmp_path / "state.svpc"
    save_state(_four_mission_state(), path)
    # slot 0: 4 history bits at 24..27, model flag at 28, then f_dim, hidden
    _rewrite_payload(path, 29, b"\xff" * 8)
    with pytest.raises(StateFormatError):
        load_state(path)
    _rewrite_payload(path, 29, b"\x00" * 4)
    with pytest.raises(StateFormatError):
        load_state(path)


class _DiskFull(io.BufferedWriter):
    """A file that stores half of what it is given, then fails."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_save_state_failing_write_keeps_previous_state(tmp_path, monkeypatch):
    path = tmp_path / "state.svpc"
    previous = _four_mission_state()
    save_state(previous, path)
    before = path.read_bytes()
    monkeypatch.setattr(missions, "open", lambda file, mode: _DiskFull(io.FileIO(file, mode)),
                        raising=False)
    with pytest.raises(OSError):
        save_state(_four_mission_state(seed=1), path)
    assert path.read_bytes() == before
    assert states_equal(load_state(path), previous)
    assert [p.name for p in tmp_path.iterdir()] == ["state.svpc"]


def test_capacity_bounded_so_slot_seeds_stay_distinct():
    strategy = StrategyConfig("ST1")
    assert MissionConfig(strategy=strategy, capacity=100).capacity == 100
    with pytest.raises(ValueError):
        MissionConfig(strategy=strategy, capacity=101)


def test_state_size_independent_of_dataset_length(tmp_path):
    # doubling every season's image count must not change the stored size:
    # the state carries models and partition metadata, never training data
    a = _four_mission_state(seed=3, pose_jitter=0.0, images_per_place=3)
    b = _four_mission_state(seed=3, pose_jitter=0.0, images_per_place=6)
    pa, pb = tmp_path / "a.svpc", tmp_path / "b.svpc"
    save_state(a, pa)
    save_state(b, pb)
    ka = [len(c.partition.classes) for c in a.classifiers]
    kb = [len(c.partition.classes) for c in b.classifiers]
    assert ka == kb  # same workspace, same class structure
    assert pa.stat().st_size == pb.stat().st_size
    # member counts did double, confirming the datasets really differ
    assert all(
        cb.size == 2 * ca.size
        for ra, rb in zip(a.classifiers, b.classifiers)
        for ca, cb in zip(ra.partition.classes, rb.partition.classes)
    )


def test_state_size_bound(tmp_path):
    state = _four_mission_state()
    path = tmp_path / "state.svpc"
    save_state(state, path)
    header = 48
    per_model = 0
    per_partition = 0
    for rec in state.classifiers:
        m = rec.model
        # dims (12) + flag (1) + loss flag/value (9) + seed flag/value (9)
        per_model = max(per_model,
                        8 * (m.w1.size + m.b1.size + m.w2.size + m.b2.size) + 12 + 1 + 9 + 9)
        per_partition = max(per_partition, 9 + len(rec.partition.classes) * 72 + 1)
    bound = header + 20 + state.capacity * (4 + state.mission + per_model + per_partition)
    assert path.stat().st_size <= bound
