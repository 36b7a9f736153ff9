import errno
import hashlib
import io
import logging
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seasonvpc import (
    ClassifierRecord,
    EnsembleState,
    MappedImage,
    MissionConfig,
    PartitionConfig,
    PartitionSummary,
    Ranking,
    StrategyConfig,
    SynthConfig,
    TrainConfig,
    TrainingSet,
    Viewpoint,
    init_model,
    initial_state,
    load_state,
    ones_count,
    queries_from_set,
    run_adaptation,
    run_vpc,
    save_state,
    states_equal,
    success_ratio,
    synth_generate,
    viewpoint_distance,
)
from seasonvpc import missions
from seasonvpc.core import CLASS_RECORD
from seasonvpc.missions import SINGLETON_WARN_FRACTION, StateFormatError
from seasonvpc.placedef import PARTITION_METHODS

from conftest import history, same_params
from loop_oracle import run_reference


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
    assert state.classifiers == ()


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


def test_adaptation_refuses_a_config_of_another_capacity():
    # before, missions 1 and 2 ran and mission 3 failed building its state
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"), capacity=2)
    with pytest.raises(ValueError, match="state capacity 4 != config capacity 2"):
        run_adaptation(initial_state(4), seasons[0], cfg)


def test_mission_config_refuses_a_repeated_threshold():
    for thresholds, named in (((10.0, 10.0), "10.0"), ((10, 20.0, 10.0), "10.0"),
                              ((20.0, 10.0, 10), "10")):
        with pytest.raises(ValueError, match=f"error threshold {named} is given twice"):
            MissionConfig(strategy=StrategyConfig("ST1"), error_thresholds=thresholds)


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
    assert same_params(s2.classifiers[0].model, s1.classifiers[0].model)
    assert s2.classifiers[0].partition == s1.classifiers[0].partition


# SHA-256 of the state below, taken before a mission that retrains no slot
# stopped partitioning its season.
FROZEN_SHA256 = "a0291fb9dcaf894944ee9991414e6cf8a7f522959257073f13bca116fecc5137"


def test_a_mission_that_retrains_no_slot_partitions_nothing(tmp_path, monkeypatch):
    # ST2 n_bar=1 at capacity 1 trains its one slot in mission 1, then never
    calls = []
    build = missions.build_partition
    monkeypatch.setattr(missions, "build_partition",
                        lambda *args: calls.append(args) or build(*args))
    seasons = _synth(5)
    cfg = _mc(StrategyConfig("ST2", n_bar=1), capacity=1, epochs=6)
    state = initial_state(1)
    for season in seasons[:4]:
        state = run_adaptation(state, season, cfg)
    assert [c.history.as_string() for c in state.classifiers] == ["1000"]
    assert len(calls) == 1
    save_state(state, tmp_path / "state.svpc")
    assert hashlib.sha256((tmp_path / "state.svpc").read_bytes()).hexdigest() == FROZEN_SHA256


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
        direct = [(0, c, float(probs[0, c]),
                   Viewpoint(*rec.partition.representatives[c].tolist()))
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


@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_a_season_view_and_its_rows_rank_and_score_alike(method):
    """run_vpc and success_ratio read a season's columns and a list of
    its rows to the same bits, for 1 to 4 slots and float64 or float32
    features."""
    seasons = _synth(5)
    cfg = replace(_mc(StrategyConfig("ST1"), epochs=5), partition=PartitionConfig(method=method))
    state = initial_state(4)
    for i in range(1, 5):
        state = run_adaptation(state, seasons[i - 1], cfg)
        assert len(state.classifiers) == i
        test = seasons[i]
        narrow = TrainingSet(test.season_id, test.label, test.timestamps, test.poses,
                             test.features.astype(np.float32))
        for season in (test, narrow):
            view = queries_from_set(season)
            rows = list(view)
            batch, by_row = run_vpc(state, view, cfg), run_vpc(state, rows, cfg)
            for name in ("slots", "classes", "probabilities", "poses"):
                a, b = getattr(batch, name), getattr(by_row, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            for err in (0.5, 2.0, 10.0, 20.0):
                for mode in missions.SUCCESS_MODES:
                    assert (success_ratio(batch, view, err, mode)
                            == success_ratio(batch, rows, err, mode)), (err, mode)


def test_the_batch_path_builds_no_row(built_rows):
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"), epochs=2)
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    queries = queries_from_set(seasons[1])
    assert queries is seasons[1] and seasons[1].images is seasons[1]
    ranking = run_vpc(state, queries, cfg)
    for mode in missions.SUCCESS_MODES:
        success_ratio(ranking, queries, 10.0, mode)
    assert built_rows == []
    run_vpc(state, [queries[0]], cfg)  # a locate call's row is counted
    assert len(built_rows) == 1


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


def test_success_ratio_refuses_thresholds_mission_config_refuses():
    seasons = _synth(2)
    cfg = _mc(StrategyConfig("ST1"))
    state = run_adaptation(initial_state(4), seasons[0], cfg)
    queries = queries_from_set(seasons[1])
    results = run_vpc(state, queries, cfg)
    for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0, 0, True):
        with pytest.raises(ValueError):
            MissionConfig(strategy=StrategyConfig("ST1"), error_thresholds=(bad,))
        for mode in ("rank1", "topx"):
            with pytest.raises(ValueError, match="error must be"):
                success_ratio(results, queries, bad, mode)
    assert success_ratio(results, queries, np.float64(1e9)) == 1.0
    assert success_ratio(results, queries, 10**9) == 1.0


def _reference_ratio(ranking, queries, error, mode):
    """success_ratio over the candidates as FusedResults, one distance each."""
    hits = 0
    for res, q in zip(ranking, queries):
        cands = res.ranked[:1] if mode == "rank1" else res.ranked
        hits += any(viewpoint_distance(c.location, q.viewpoint) < error for c in cands)
    return hits / len(queries)


def test_success_ratio_equals_per_candidate_reference_at_the_threshold():
    rng = np.random.default_rng(5)
    moved = 0
    for _ in range(40):
        n, x = int(rng.integers(1, 30)), int(rng.integers(1, 11))
        poses = rng.normal(0.0, 20.0, size=(n, x, 3))
        poses[..., 2] = rng.uniform(-np.pi, np.pi, size=(n, x))
        ranking = Ranking(slots=np.zeros((n, x), np.int64),
                          classes=np.tile(np.arange(x), (n, 1)),
                          probabilities=np.full((n, x), 1.0 / x), poses=poses)
        queries = [MappedImage(id=i, timestamp=i, feature=np.zeros(1),
                               viewpoint=Viewpoint(*rng.normal(0.0, 20.0, size=2)))
                   for i in range(n)]
        dist = np.array([[viewpoint_distance(c.location, q.viewpoint) for c in res.ranked]
                         for res, q in zip(ranking, queries)])
        # thresholds exactly at a rank-1 or any candidate's distance, and one
        # ulp either side of it
        for d in [*rng.choice(dist[:, 0], size=2), *rng.choice(dist.ravel(), size=2)]:
            for mode in ("rank1", "topx"):
                ratios = []
                for error in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)):
                    ratios.append(success_ratio(ranking, queries, error, mode))
                    assert ratios[-1] == _reference_ratio(ranking, queries, error, mode)
                moved += ratios[1] < ratios[2]
    assert moved >= 100  # the thresholds did split candidates


def test_run_season_saves_every_season_it_runs(tmp_path):
    seasons = _synth(5)
    cfg = replace(_mc(StrategyConfig("ST2", n_bar=1), epochs=6), error_thresholds=(20.0, 10.0))
    path = tmp_path / "state.svpc"
    state = initial_state(4)
    for i in range(1, 5):
        before = state
        state, ranking, ratios = missions.run_season(state, seasons[i - 1], seasons[i], cfg, path)
        assert state.mission == i
        loaded = load_state(path)
        assert loaded.mission == i and states_equal(loaded, state)
        # the same step, taken by hand
        adapted = run_adaptation(before, seasons[i - 1], cfg)
        queries = queries_from_set(seasons[i])
        assert states_equal(adapted, state)
        assert ranking == run_vpc(adapted, queries, cfg)
        assert list(ratios) == [20.0, 10.0]
        for err, ratio in ratios.items():
            assert type(ratio) is float
            assert ratio == success_ratio(ranking, queries, err)
    assert [p.name for p in tmp_path.iterdir()] == ["state.svpc"]


LOOP_STRATEGIES = st.one_of(
    st.just(StrategyConfig("ST1")),
    st.builds(lambda n: StrategyConfig("ST2", n_bar=n), st.integers(1, 3)),
    st.builds(lambda k, f: StrategyConfig("ST3", k_bar=k, st3_filter=f),
              st.integers(1, 3), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(strategy=LOOP_STRATEGIES, capacity=st.integers(1, 4), n_missions=st.integers(1, 5),
       upd=st.sampled_from(PARTITION_METHODS), k=st.none() | st.integers(1, 3),
       fusion_x=st.integers(1, 12), mode=st.sampled_from(missions.SUCCESS_MODES),
       thresholds=st.lists(st.sampled_from([5.0, 10.0, 20.0, 35.5]), min_size=1, max_size=3,
                           unique=True),
       places=st.integers(2, 6), per_place=st.integers(1, 4), f_dim=st.integers(2, 8),
       epochs=st.integers(1, 3), learning_rate=st.sampled_from([0.05, 0.5]),
       batch_size=st.sampled_from([3, 32]), seed=st.integers(0, 1000))
def test_the_season_loop_equals_the_loop_oracle(strategy, capacity, n_missions, upd, k, fusion_x,
                                                mode, thresholds, places, per_place, f_dim,
                                                epochs, learning_rate, batch_size, seed):
    # Every mission of the package's season step, state, ranking and ratios,
    # bit for bit against the loop written from the per-stage oracles.
    seasons = synth_generate(SynthConfig(n_places=places, loop_length=20.0 * places,
                                         images_per_place=per_place, feature_dim=f_dim,
                                         n_seasons=n_missions + 1, seed=seed))
    cfg = MissionConfig(
        strategy=strategy,
        partition=PartitionConfig(method=upd, k=None if k is None else min(k, places * per_place),
                                  seed=seed),
        train=TrainConfig(learning_rate=learning_rate, epochs=epochs, batch_size=batch_size,
                          hidden=4, seed=seed),
        fusion_x=fusion_x, capacity=capacity, error_thresholds=tuple(thresholds),
        success_mode=mode)
    state = initial_state(capacity)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (want_state, want_rows, want_ratios) in enumerate(run_reference(seasons, cfg), 1):
            state, ranking, ratios = missions.run_season(state, seasons[i - 1], seasons[i], cfg,
                                                         Path(tmp) / "state.svpc")
            assert states_equal(state, want_state), i
            assert ranking == want_rows, i
            assert ratios == want_ratios, i


def test_adaptation_warns_once_when_most_classes_are_singletons(caplog):
    season = synth_generate(SynthConfig())[0]
    cfg = MissionConfig(strategy=StrategyConfig("ST1"), capacity=1,
                        partition=PartitionConfig(method="incremental"),
                        train=TrainConfig(epochs=1))
    with caplog.at_level(logging.WARNING, logger="seasonvpc"):
        state = run_adaptation(initial_state(1), season, cfg)
    sizes = state.classifiers[0].partition.sizes
    singletons = int(np.sum(sizes == 1))
    assert singletons > SINGLETON_WARN_FRACTION * len(sizes)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert f"{singletons} of {len(sizes)} place classes" in caplog.records[0].getMessage()
    caplog.clear()
    upd1 = MissionConfig(strategy=StrategyConfig("ST1"), capacity=1, train=TrainConfig(epochs=1))
    with caplog.at_level(logging.WARNING, logger="seasonvpc"):
        run_adaptation(initial_state(1), season, upd1)
    assert caplog.records == []


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
        assert same_params(a.model, b.model)
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


def desk_state(seed: int) -> EnsembleState:
    """A mission-4 state of desk size: four slots of 4096 features, 64
    hidden units and 100 classes, about 8.6 MB on disk."""
    k = 100
    rows = np.zeros(k, CLASS_RECORD)
    rows["class_id"] = rows["keyframe_ids"] = np.arange(k)
    rows["keyframe_timestamps"] = np.arange(k) * 1_000_000
    rows["representatives"] = 1.0
    rows["sizes"] = 5
    summary = PartitionSummary(rows, source_season=1, method="location")
    return EnsembleState(mission=4, capacity=4, classifiers=tuple(
        ClassifierRecord(history(bits), summary,
                         replace(init_model(4096, 64, k, seed=10 * seed + slot), final_loss=0.0))
        for slot, bits in enumerate(("1000", "0100", "0010", "0001"))))


# Saves desk_state(0) and desk_state(1) in turn to argv[1] until killed,
# after printing one line once the first save is done.
_SAVE_FOREVER = """
import sys
from seasonvpc import save_state
from test_missions import desk_state
states = [desk_state(0), desk_state(1)]
save_state(states[0], sys.argv[1])
print("saved", flush=True)
i = 1
while True:
    save_state(states[i % 2], sys.argv[1])
    i += 1
"""


def test_importing_the_package_leaves_out_the_cli_and_logging():
    # A cold `import seasonvpc` is most of accept-sweep's setup_s. With
    # -X importtime on a 2-CPU Xeon host, cumulative: logging 3.1-5.1 ms,
    # argparse 2.8-3.1 ms, seasonvpc.cli with seasonvpc.report 15.0-15.2 ms,
    # against setup_s medians of 0.127-0.146 s. So the package imports none
    # of them; run_adaptation imports logging only when it has a warning.
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, seasonvpc; print(*(m for m in ('logging', 'argparse', 'seasonvpc.cli', "
            "'seasonvpc.report') if m in sys.modules))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


def test_importing_the_package_loads_neither_logging_nor_concurrent_futures():
    # Two imports are deferred to the call that needs them: run_adaptation's
    # warning imports logging, and a split predict batch imports
    # concurrent.futures, which imports logging itself (5.4-10.1 ms with
    # -X importtime after numpy, 2-CPU Xeon host). A cold `import seasonvpc`
    # pays for neither.
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, seasonvpc; print(*(m for m in ('logging', 'concurrent.futures') "
            "if m in sys.modules))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


def test_state_file_survives_a_kill_during_save(tmp_path):
    # A process killed in save_state leaves the path holding one whole state:
    # the one it held before, or the one being written. It may also leave
    # its temporary file (.state.svpc.<pid>.tmp) beside it, which the next
    # save_state to the path removes, as its writer no longer runs.
    path = tmp_path / "state.svpc"
    states = [desk_state(0), desk_state(1)]
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))}
    for delay in (0.0, 0.003, 0.007, 0.012, 0.018, 0.025, 0.033, 0.047):
        child = subprocess.Popen([sys.executable, "-c", _SAVE_FOREVER, str(path)], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "saved\n", child.stderr.read()
            time.sleep(delay)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
            child.stdout.close()
            child.stderr.close()
        loaded = load_state(path)
        assert any(states_equal(loaded, state) for state in states), delay
    save_state(states[0], path)
    assert list(tmp_path.glob(".state.svpc.*.tmp")) == []


def test_save_removes_only_the_temporary_files_of_writers_that_no_longer_run(tmp_path):
    path = tmp_path / "state.svpc"
    gone = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    kept = [tmp_path / f".state.svpc.{os.getppid()}.tmp",  # a running writer's
            tmp_path / ".state.svpc.x1.tmp", tmp_path / ".other.svpc.999999999.tmp",
            tmp_path / f".state.svpc.{10**30}.tmp"]
    for orphan in [tmp_path / f".state.svpc.{int(gone.stdout)}.tmp", *kept]:
        orphan.write_bytes(b"partial")
    save_state(desk_state(0), path)
    assert sorted(tmp_path.iterdir()) == sorted([path, *kept])


def test_mission_config_refuses_an_unknown_success_mode():
    with pytest.raises(ValueError, match="success_mode must be rank1 or topx"):
        MissionConfig(strategy=StrategyConfig("ST1"), success_mode="rank2")


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
        np.array_equal(rb.partition.sizes, 2 * ra.partition.sizes)
        for ra, rb in zip(a.classifiers, b.classifiers)
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
