"""The batched VPC path against the per-query reference, and its invariance
to batch size."""

import numpy as np
import pytest

from seasonvpc import (
    ClassifierRecord,
    EnsembleState,
    MissionConfig,
    PartitionSummary,
    RetrainHistory,
    StrategyConfig,
    TrainingSet,
    init_model,
    queries_from_set,
    run_vpc,
)

from seasonvpc.classify import BLOCK_BYTES, predict
from seasonvpc.fusion import PARTIAL_WIDTH
from seasonvpc.missions import active_slots

from conftest import run_at_one_blas_thread
from vpc_oracle import predict_one, run_vpc_reference


def _partition(rng, k):
    representatives = np.zeros((k, 3))
    representatives[:, :2] = rng.normal(0.0, 50.0, size=(k, 2))
    return PartitionSummary(keyframe_ids=np.arange(k), keyframe_timestamps=np.arange(k),
                            keyframe_poses=np.zeros((k, 3)), representatives=representatives,
                            sizes=np.ones(k), source_season=1, method="location")


def _model_with_ties(rng, f_dim, k, seed):
    """A random model whose zeroed head rows share a bias: those classes get
    exactly equal probabilities. weight_scale 0 makes every class tie."""
    m = init_model(f_dim, 6, k, seed=seed, weight_scale=float(rng.choice([0.0, 0.5, 2.0])))
    tied = rng.random(k) < 0.4
    m.w2[tied] = 0.0
    m.b2[tied] = float(rng.choice([0.0, 0.3]))
    return m


def _random_state(rng, f_dim):
    n_slots = int(rng.integers(1, 5))
    mission = n_slots + int(rng.integers(0, 3))
    records = []
    for slot in range(n_slots):
        bits = rng.integers(0, 2, size=mission)
        if slot == 0 or rng.random() < 0.8:
            if records and records[-1].model is not None and rng.random() < 0.3:
                prev = records[-1]  # same model and class count: ties across slots
                model, partition = prev.model, _partition(rng, prev.model.n_classes)
            else:
                k = int(rng.integers(1, 301))
                model, partition = _model_with_ties(rng, f_dim, k, seed=slot), _partition(rng, k)
        else:
            model, partition = None, None
        records.append(ClassifierRecord(history=RetrainHistory(tuple(int(b) for b in bits)),
                                        partition=partition, model=model))
    return EnsembleState(mission=mission, classifiers=tuple(records), capacity=n_slots)


def _queries(rng, n, f_dim):
    test_set = TrainingSet(season_id=1, label="q", timestamps=np.arange(n),
                           poses=np.zeros((n, 3)), features=rng.normal(size=(n, f_dim)))
    return queries_from_set(test_set)


def _key(result):
    return [(c.source_classifier, c.class_id, c.probability, c.location) for c in result.ranked]


def test_batched_vpc_matches_per_query_reference():
    rng = np.random.default_rng(0)
    f_dim = 8
    partial = 0
    for _ in range(300):
        state = _random_state(rng, f_dim)
        if rng.random() < 0.5:
            strategy = StrategyConfig("ST3", k_bar=int(rng.integers(1, state.mission + 1)))
        else:
            strategy = StrategyConfig("ST1")
        cfg = MissionConfig(strategy=strategy, fusion_x=int(rng.integers(1, 13)))
        queries = _queries(rng, int(rng.integers(1, 41)), f_dim)
        got = run_vpc(state, queries, cfg)
        want = run_vpc_reference(state, queries, cfg)
        assert [_key(r) for r in got] == [_key(r) for r in want]
        width = sum(state.classifiers[j].model.n_classes for j in active_slots(state, strategy))
        partial += len(queries) >= 2 and width >= PARTIAL_WIDTH * cfg.fusion_x
    assert partial >= 100  # top_x ranked these batches by selection


GRID_F = (1024, 1500, 2048, 3000, 4096, 8192)
GRID_H = (5, 16, 17, 37, 64, 70, 128)
GRID_N = (1, 2, 3, 50)


def _grid():
    """A model and max(GRID_N) query rows for every (F, H) of the grid; the
    larger w1 exceed BLOCK_BYTES and are multiplied in row blocks."""
    for f_dim in GRID_F:
        for hidden in GRID_H:
            yield (init_model(f_dim, hidden, 9, seed=f_dim + hidden),
                   np.random.default_rng(hidden).normal(size=(max(GRID_N), f_dim)))


def check_predict_matches_oracle():
    """predict equals the per-row oracle bit for bit on every grid shape and
    batch size. Holds with one OpenBLAS thread on x86-64, where the 16-row
    group was found; a threaded BLAS may split a block's product across
    threads unlike the whole matrix's."""
    for m, x in _grid():
        want = np.array([predict_one(m, row) for row in x])
        for n in GRID_N:
            assert np.array_equal(predict(m, x[:n]), want[:n]), (m.feature_dim, m.hidden, n)


def test_predict_matches_per_row_oracle_at_one_blas_thread():
    blocked = {(m.feature_dim, m.hidden) for m, _ in _grid() if m.w1.nbytes > BLOCK_BYTES}
    # Two 32-row blocks at 4096 x 64, and a merged tail: 16 + 1 rows at 8192 x 17.
    assert {(4096, 64), (8192, 17), (8192, 70), (1500, 128)} <= blocked
    assert (4096, 17) not in blocked
    run_at_one_blas_thread(check_predict_matches_oracle)


def test_predict_is_batch_invariant_at_default_blas_threads():
    for m, x in _grid():
        batch = predict(m, x)
        for n in GRID_N:
            assert np.array_equal(predict(m, x[:n]), batch[:n]), (m.feature_dim, m.hidden, n)
        for i in (7, 31, 49):
            assert np.array_equal(predict(m, x[i:i + 1]), batch[i:i + 1])
        assert np.array_equal(predict(m, x[5:17]), batch[5:17])


def _wide_state(f_dim, seed):
    rng = np.random.default_rng(seed)
    records = []
    for slot, k in enumerate((50, 7)):
        bits = (1, 0) if slot == 0 else (0, 1)
        records.append(ClassifierRecord(history=RetrainHistory(bits), partition=_partition(rng, k),
                                        model=init_model(f_dim, 64, k, seed=seed + slot,
                                                         weight_scale=0.05)))
    return EnsembleState(mission=2, classifiers=tuple(records), capacity=2)


@pytest.mark.parametrize("f_dim", [512, 4096])
def test_single_query_answer_equals_batch_answer(f_dim):
    state = _wide_state(f_dim, seed=f_dim)
    cfg = MissionConfig(strategy=StrategyConfig("ST1"))
    queries = _queries(np.random.default_rng(1), 40, f_dim)
    batch = run_vpc(state, queries, cfg)
    for i, q in enumerate(queries):
        assert run_vpc(state, [q], cfg)[0] == batch[i]
    assert run_vpc(state, queries[5:17], cfg) == batch[5:17]


def test_nan_model_raises_instead_of_answering_from_other_slots():
    state = _wide_state(16, seed=3)
    state.classifiers[1].model.w1[0, 0] = np.nan
    cfg = MissionConfig(strategy=StrategyConfig("ST1"))
    queries = _queries(np.random.default_rng(2), 3, 16)
    with pytest.raises(ValueError):
        run_vpc(state, queries, cfg)


def test_class_count_mismatch_and_empty_queries():
    state = _wide_state(16, seed=4)
    cfg = MissionConfig(strategy=StrategyConfig("ST1"))
    assert run_vpc(state, [], cfg) == []
    m = state.classifiers[0].model
    m.w2, m.b2 = m.w2[:-1], m.b2[:-1]  # model no longer matches its partition
    with pytest.raises(ValueError):
        run_vpc(state, _queries(np.random.default_rng(5), 2, 16), cfg)


def test_feature_dimension_mismatch_raises():
    state = _wide_state(16, seed=6)
    cfg = MissionConfig(strategy=StrategyConfig("ST1"))
    with pytest.raises(ValueError):
        run_vpc(state, _queries(np.random.default_rng(7), 2, 15), cfg)
