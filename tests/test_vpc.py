"""The batched VPC path against the per-query reference, and its invariance
to batch size."""

import gc
import os
import sys
import threading
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from seasonvpc import (
    ClassifierRecord,
    EnsembleState,
    MissionConfig,
    PartitionSummary,
    RetrainHistory,
    Schedule,
    StrategyConfig,
    TrainingSet,
    init_model,
    load_state,
    queries_from_set,
    run_vpc,
    save_state,
    st3_fusion_filter,
    states_equal,
)

from seasonvpc import classify
from seasonvpc.classify import BLOCK_BYTES, SPLIT_WORK, ModelStack, _row_blocks, predict
from seasonvpc.core import CLASS_RECORD
from seasonvpc.fusion import PARTIAL_WIDTH
from seasonvpc.missions import active_slots, vpc_plan

from conftest import history, run_at_one_blas_thread
from vpc_oracle import predict_one, run_vpc_reference


def _partition(rng, k):
    rows = np.zeros(k, CLASS_RECORD)
    rows["class_id"] = rows["keyframe_ids"] = rows["keyframe_timestamps"] = np.arange(k)
    rows["representatives"][:, :2] = rng.normal(0.0, 50.0, size=(k, 2))
    rows["sizes"] = 1
    return PartitionSummary(rows, source_season=1, method="location")


def _trained(m):
    """`m` with the final_loss that a record's model carries."""
    return replace(m, final_loss=0.0)


def _model_with_ties(rng, f_dim, k, seed):
    """A random model whose zeroed head rows share a bias: those classes get
    exactly equal probabilities. weight_scale 0 makes every class tie."""
    m = init_model(f_dim, 6, k, seed=seed, weight_scale=float(rng.choice([0.0, 0.5, 2.0])))
    tied = rng.random(k) < 0.4
    m.w2[tied] = 0.0
    m.b2[tied] = float(rng.choice([0.0, 0.3]))
    return _trained(m)


def _random_state(rng, f_dim):
    n_slots = int(rng.integers(1, 5))
    mission = n_slots + int(rng.integers(0, 3))
    records = []
    for slot in range(n_slots):
        bits = rng.integers(0, 2, size=mission)
        if records and rng.random() < 0.3:
            prev = records[-1]  # same model and class count: ties across slots
            model, partition = prev.model, _partition(rng, prev.model.n_classes)
        else:
            k = int(rng.integers(1, 301))
            model, partition = _model_with_ties(rng, f_dim, k, seed=slot), _partition(rng, k)
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
        shape = (len(queries), min(cfg.fusion_x, width))
        for column, dtype, column_shape in ((got.slots, np.int64, shape),
                                            (got.classes, np.int64, shape),
                                            (got.probabilities, np.float64, shape),
                                            (got.poses, np.float64, shape + (3,))):
            assert (column.dtype, column.shape) == (dtype, column_shape)
        partial += len(queries) >= 2 and width >= PARTIAL_WIDTH * cfg.fusion_x
    assert partial >= 100  # top_x ranked these batches by selection


@contextmanager
def worker_rows(split_work=SPLIT_WORK, cpus=2):
    """Runs predict as on a host with `cpus` CPUs (None: this host's) and
    the work threshold `split_work`; yields a list that gets, for each batch
    split, the row count of the half its worker thread runs."""
    rows = []
    saved = classify._split_rows, classify.SPLIT_WORK, classify._cpus
    split_rows = saved[0]

    def counted(stack, x, z1, logits):
        rows.append(len(x) - len(x) // 2)
        split_rows(stack, x, z1, logits)
    classify._split_rows, classify.SPLIT_WORK = counted, split_work
    if cpus is not None:
        classify._cpus = lambda: cpus
    try:
        yield rows
    finally:
        classify._split_rows, classify.SPLIT_WORK, classify._cpus = saved


def _desk_batch(n=64):
    """desk-4096-loc's four-slot span-layout stack and an n-row batch."""
    stack = ModelStack([init_model(4096, 64, 100, seed=s) for s in range(4)])
    return stack, np.random.default_rng(n).normal(size=(n, 4096))


def _splits(stack, n):
    """Whether a batch of n rows splits when every batch may."""
    return stack.w1t is None and n >= 2


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
    batch size, and so does every span-layout batch split between two
    threads. Holds with one OpenBLAS thread on x86-64, where the 16-row
    group was found; a threaded BLAS may split a block's product across
    threads unlike the whole matrix's."""
    splits = want_splits = 0
    for m, x in _grid():
        want = np.array([predict_one(m, row) for row in x])
        for n in GRID_N:
            assert np.array_equal(predict(m, x[:n]), want[:n]), (m.feature_dim, m.hidden, n)
            with worker_rows(split_work=0) as split:
                assert np.array_equal(predict(m, x[:n]), want[:n]), (m.feature_dim, m.hidden, n)
            splits += len(split)
            want_splits += _splits(ModelStack([m]), n)
    assert splits == want_splits >= 40


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
    # desk-4096-loc's stack: 64 rows split at the default work threshold
    stack, x = _desk_batch()
    with worker_rows() as split:
        batch = predict(stack, x)
    assert split == [32]
    for i, row in enumerate(x):
        assert np.array_equal(predict(stack, row[None]), batch[i:i + 1]), i


STACK_H = (5, 16, 17, 64)
STACK_K = (1, 2, 20, 300)
STACK_F = (8, 32, 4076, 4096)
# Per F, the (H, K) of four models of one shape. At 4076 x (16, 20) two of
# them fill BLOCK_BYTES exactly, and three are one 16-row group past it.
SHARED = {8: (17, 1), 32: (64, 20), 4076: (16, 20), 4096: (5, 300)}
STACK_N = (0, *GRID_N)


def _stack_grid():
    """Per F of STACK_F: stacks of 1-4 models, and max(GRID_N) query rows.

    Mixed stacks pair each H of STACK_H with a K of STACK_K, so their class
    spans differ; uniform ones give every H 20 classes, the case softmaxed
    as one (n * S, K) view; shared ones give every model SHARED[F], the
    stacked layout while their weights fit in BLOCK_BYTES. Some stacks hold
    one model twice."""
    for f_dim in STACK_F:
        rng = np.random.default_rng(f_dim)

        def model(hidden, k):
            m = init_model(f_dim, hidden, k, seed=int(rng.integers(1 << 30)), weight_scale=0.3)
            m.b1[:] = rng.normal(size=hidden)
            m.b2[:] = rng.normal(size=k)
            return m
        mixed = [model(h, k) for h, k in zip(STACK_H, STACK_K)]
        uniform = [model(h, 20) for h in STACK_H]
        shared = [model(*SHARED[f_dim]) for _ in range(4)]
        stacks = [mixed[:1], mixed[3:], mixed[:2], mixed[1:], mixed, mixed[::-1],
                  [mixed[2], mixed[0], mixed[2]], [mixed[3], mixed[3]],
                  uniform[:1], uniform[2:], uniform, [uniform[1], uniform[3], uniform[1]],
                  shared[:1], shared[:2], shared[:3], shared, [shared[2], shared[0], shared[2]]]
        yield stacks, rng.normal(size=(max(GRID_N), f_dim))


def check_stack_matches_per_model_oracle():
    """A stack's probability rows equal each model's per-row oracle
    probabilities side by side, bit for bit, on every grid stack and batch
    size, in either layout, and with every span-layout batch split between
    two threads. The same BLAS condition as check_predict_matches_oracle."""
    splits = want_splits = 0
    for stacks, x in _stack_grid():
        for models in stacks:
            want = np.hstack([[predict_one(m, row) for row in x] for m in models])
            stack = ModelStack(models)
            for n in STACK_N:
                with worker_rows(split_work=0) as split:
                    forced = predict(stack, x[:n])
                for got in (predict(stack, x[:n]), forced):
                    assert got.shape == (n, stack.n_classes)
                    assert np.array_equal(got, want[:n]), (
                        [(m.feature_dim, m.hidden, m.n_classes) for m in models], n)
                splits += len(split)
                want_splits += _splits(stack, n)
    assert splits == want_splits >= 40


def test_stack_matches_per_model_oracle_at_one_blas_thread():
    stacks = [models for grid, _x in _stack_grid() for models in grid]
    assert {len(models) for models in stacks} == {1, 2, 3, 4}
    # 4096 x 64 runs two row blocks inside a stack
    assert any(len(_row_blocks(m.hidden, m.feature_dim)) == 2 for models in stacks
               for m in models)
    widths = {ModelStack(models).width for models in stacks}
    assert None in widths and 20 in widths
    # both layouts, the stacked one at S 2-4
    stacked = {len(models) for models in stacks if ModelStack(models).w1t is not None}
    assert stacked == {2, 3, 4}
    assert any(ModelStack(models).w1t is None for models in stacks)
    run_at_one_blas_thread(check_stack_matches_per_model_oracle)


class WorkerFailed(Exception):
    pass


def test_a_worker_that_raises_makes_predict_raise_and_leaves_no_thread(monkeypatch):
    stack, x = _desk_batch()
    span_rows = classify._span_rows

    def failing(stack, x, z1, logits):
        if threading.current_thread() is not threading.main_thread():
            raise WorkerFailed
        span_rows(stack, x, z1, logits)
    monkeypatch.setattr(classify, "_span_rows", failing)
    monkeypatch.setattr(classify, "_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(WorkerFailed):
        predict(stack, x)
    assert threading.active_count() == threads


def test_callers_errstate_holds_in_both_halves():
    # two models of different class counts: the span layout; only the
    # worker's half overflows
    stack = ModelStack([init_model(8, 6, 3, seed=1, weight_scale=1.0),
                        init_model(8, 6, 4, seed=2, weight_scale=1.0)])
    x = np.ones((4, 8))
    x[2:] = 1e308
    with worker_rows(split_work=0) as split:
        with pytest.warns(RuntimeWarning):
            predict(stack, x)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            probs = predict(stack, x)
    assert split == [2, 2]
    assert np.isfinite(probs[:2]).all() and np.isnan(probs[2:]).all()


def test_concurrent_split_batches_keep_their_rows():
    # More callers than CPUs, each splitting its batches, with the
    # interpreter switching threads as often as it can: a row written by the
    # wrong thread, or a half left unwritten, changes some caller's answer.
    stack = ModelStack([init_model(64, 32, k, seed=k) for k in (5, 9, 7)])
    batches = [np.random.default_rng(i).normal(size=(8 + i, 64)) for i in range(6)]
    want = [np.vstack([predict(stack, row[None]) for row in x]) for x in batches]
    got = {}

    def caller(i):
        for _ in range(20):
            got.setdefault(i, []).append(predict(stack, batches[i]))
    interval = sys.getswitchinterval()
    with worker_rows(split_work=0) as split:
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(split) == 20 * len(batches)
    for i, x in enumerate(batches):
        assert len(got[i]) == 20
        assert all(np.array_equal(g, want[i]) for g in got[i]), i


@pytest.mark.parametrize("one_cpu", ["affinity", "cpu_count"])
def test_a_one_cpu_process_does_not_split(monkeypatch, one_cpu):
    stack, x = _desk_batch()
    with worker_rows() as split:
        want = predict(stack, x)
    assert split == [32]
    if one_cpu == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:  # a platform without the affinity call
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with worker_rows(cpus=None) as split:
        got = predict(stack, x)
    assert split == []
    assert np.array_equal(got, want)


def _stack_of(models):
    """The VPC plan's stack of a state whose slots hold `models`, all active."""
    rng = np.random.default_rng(len(models))
    s = len(models)
    state = EnsembleState(mission=s, capacity=s, classifiers=tuple(
        ClassifierRecord(RetrainHistory(tuple(int(i == j) for i in range(s))),
                         _partition(rng, m.n_classes), _trained(m)) for j, m in enumerate(models)))
    return vpc_plan(state, StrategyConfig("ST1")).stack


def test_stack_layout_is_chosen_by_shape():
    # accept-sweep's final ensemble: one copy of its weights, within BLOCK_BYTES
    accept = [init_model(32, 64, 20, seed=s) for s in range(4)]
    stack = _stack_of(accept)
    assert stack.w1t.shape == (4, 1, 32, 64) and stack.w2t.shape == (4, 64, 20)
    assert stack.w1t.nbytes + stack.w2t.nbytes <= BLOCK_BYTES
    # one slot: spans holding views of its w1 and w2
    one = _stack_of(accept[:1])
    ((w1t, *_),), ((w2t, *_),) = one.body, one.heads
    assert one.w1t is None
    assert np.shares_memory(w1t, accept[0].w1) and np.shares_memory(w2t, accept[0].w2)
    # at 4076 x (16, 20) two slots fill BLOCK_BYTES; three are one row group past it
    shared = [init_model(4076, 16, 20, seed=s) for s in range(3)]
    assert _stack_of(shared[:2]).w1t is not None and _stack_of(shared).w1t is None
    # w1s within BLOCK_BYTES, but not with the w2s: copying them would pass it
    assert _stack_of([init_model(8, 64, 1000, seed=s) for s in range(4)]).w1t is None
    # desk-4096-loc's: spans holding views of every w1 and w2, no weight copy
    desk = [init_model(4096, 64, 100, seed=s) for s in range(4)]
    for models in (desk, desk[:1]):
        stack = _stack_of(models)
        assert stack.w1t is None and stack.width == 100
        weights = [w for m in models for w in (m.w1, m.w2)]
        assert all(any(np.shares_memory(view, w) for w in weights)
                   for view, *_ in stack.body + stack.heads)
    # mixed class counts, as `run --upd incremental` leaves them: spans
    mixed = _stack_of([init_model(32, 64, k, seed=k) for k in (91, 90, 95, 87)])
    assert mixed.w1t is None and mixed.width is None


def _wide_state(f_dim, seed):
    rng = np.random.default_rng(seed)
    records = []
    for slot, k in enumerate((50, 7)):
        bits = (1, 0) if slot == 0 else (0, 1)
        records.append(ClassifierRecord(history=RetrainHistory(bits), partition=_partition(rng, k),
                                        model=_trained(init_model(f_dim, 64, k, seed=seed + slot,
                                                                  weight_scale=0.05))))
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


def test_feature_dimension_mismatch_raises():
    state = _wide_state(16, seed=6)
    cfg = MissionConfig(strategy=StrategyConfig("ST1"))
    with pytest.raises(ValueError):
        run_vpc(state, _queries(np.random.default_rng(7), 2, 15), cfg)


def test_slots_of_different_feature_dimensions_are_refused_at_plan_build():
    rng = np.random.default_rng(8)
    state = EnsembleState(mission=2, capacity=2, classifiers=tuple(
        ClassifierRecord(RetrainHistory(bits), _partition(rng, 4),
                         _trained(init_model(f, 6, 4, seed=f)))
        for f, bits in ((16, (1, 0)), (15, (0, 1)))))
    cfg = MissionConfig(strategy=StrategyConfig("ST1"))
    with pytest.raises(ValueError, match="model 0: 16, model 1: 15"):
        ModelStack([rec.model for rec in state.classifiers])
    with pytest.raises(ValueError, match="slot 0: 16, slot 1: 15"):
        vpc_plan(state, cfg.strategy)
    for f_dim in (16, 15):
        with pytest.raises(ValueError, match="slot 0: 16, slot 1: 15"):
            run_vpc(state, _queries(rng, 2, f_dim), cfg)


# --- the per-state VPC plan ---------------------------------------------

PLAN_CONFIGS = [MissionConfig(strategy=s, fusion_x=x) for s, x in (
    (StrategyConfig("ST2", n_bar=1), 10),
    (StrategyConfig("ST3", k_bar=1), 4),
    (StrategyConfig("ST3", k_bar=4), 10),
    (StrategyConfig("ST3", k_bar=1, st3_filter=False), 7),
    (StrategyConfig("ST3", k_bar=4, st3_filter=False), 10),
)]


def _scheduled_state(seed, f_dim=8):
    """Four trained slots whose histories make the ST3 filter keep slot 0
    at k_bar 1 and slot 3 at k_bar 4."""
    rng = np.random.default_rng(seed)
    records = []
    for slot, bits in enumerate(("1000", "0100", "0011", "0001")):
        k = int(rng.integers(1, 40))
        records.append(ClassifierRecord(history=history(bits),
                                        partition=_partition(rng, k),
                                        model=_model_with_ties(rng, f_dim, k, seed=seed + slot)))
    return EnsembleState(mission=4, classifiers=tuple(records), capacity=4)


def test_plan_answers_repeated_queries_as_the_oracle_does():
    state = _scheduled_state(seed=11)
    queries = _queries(np.random.default_rng(12), 30, 8)
    want = {id(cfg): [_key(r) for r in run_vpc_reference(state, queries, cfg)]
            for cfg in PLAN_CONFIGS}
    assert [active_slots(state, cfg.strategy) for cfg in PLAN_CONFIGS] == [
        [0, 1, 2, 3], [0], [3], [0, 1, 2, 3], [0, 1, 2, 3]]
    subsets = [slice(0, 1), slice(29, 30), slice(3, 11), slice(0, 30), slice(5, 6)]
    for _round in range(3):
        for cfg in PLAN_CONFIGS:  # alternating strategies over one state
            for part in subsets:
                got = run_vpc(state, queries[part], cfg)
                assert [_key(r) for r in got] == want[id(cfg)][part], (cfg.strategy, part)
    for cfg in PLAN_CONFIGS:
        assert vpc_plan(state, cfg.strategy) is vpc_plan(state, cfg.strategy)
        column_slots = vpc_plan(state, cfg.strategy).column_slots
        assert np.unique(column_slots).tolist() == active_slots(state, cfg.strategy)


def test_two_states_queried_alternately_keep_their_own_answers():
    a, b = _scheduled_state(seed=21), _scheduled_state(seed=22)
    queries = _queries(np.random.default_rng(23), 12, 8)
    cfg = PLAN_CONFIGS[0]
    want = {id(s): [_key(r) for r in run_vpc_reference(s, queries, cfg)] for s in (a, b)}
    assert want[id(a)] != want[id(b)]
    for _round in range(3):
        for s in (a, b):
            assert [_key(r) for r in run_vpc(s, queries, cfg)] == want[id(s)]
            assert _key(run_vpc(s, queries[4:5], cfg)[0]) == want[id(s)][4]


def test_plan_leaves_state_bytes_and_equality_alone(tmp_path):
    state = _scheduled_state(seed=31)
    save_state(state, tmp_path / "before.svpc")
    before = load_state(tmp_path / "before.svpc")
    assert states_equal(state, before)
    for cfg in PLAN_CONFIGS:
        run_vpc(state, _queries(np.random.default_rng(32), 5, 8), cfg)
    save_state(state, tmp_path / "after.svpc")
    assert (tmp_path / "after.svpc").read_bytes() == (tmp_path / "before.svpc").read_bytes()
    assert states_equal(state, before) and states_equal(before, state)


def test_plan_is_freed_with_its_state():
    state = _scheduled_state(seed=41)
    run_vpc(state, _queries(np.random.default_rng(42), 2, 8), PLAN_CONFIGS[0])
    plan = weakref.ref(vpc_plan(state, PLAN_CONFIGS[0].strategy))
    del state
    gc.collect()
    assert plan() is None


def test_plan_lays_out_the_active_slots_columns():
    """The ST3 filter leaves slots 1 and 3, each with one column per class;
    slots 0 and 2 have none."""
    rng = np.random.default_rng(51)
    a, b = _partition(rng, 2), _partition(rng, 3)
    other = ClassifierRecord(RetrainHistory((1, 1, 0, 0)), _partition(rng, 4),
                             _trained(init_model(8, 6, 4, seed=0)))
    state = EnsembleState(mission=4, capacity=4, classifiers=(
        other, ClassifierRecord(RetrainHistory((0, 0, 0, 1)), a,
                                _trained(init_model(8, 6, 2, seed=1))),
        other, ClassifierRecord(RetrainHistory((0, 0, 0, 1)), b,
                                _trained(init_model(8, 6, 3, seed=3)))))
    plan = vpc_plan(state, StrategyConfig("ST3", k_bar=4))
    assert active_slots(state, StrategyConfig("ST3", k_bar=4)) == [1, 3]
    assert plan.column_slots.tolist() == [1, 1, 3, 3, 3]
    assert plan.column_classes.tolist() == [0, 1, 0, 1, 2]
    assert np.array_equal(plan.column_poses,
                          np.concatenate([a.representatives, b.representatives]))
    assert plan.column_slots.dtype == plan.column_classes.dtype == np.int64
    for column in (plan.column_slots, plan.column_classes, plan.column_poses):
        assert not column.flags.writeable


def test_plan_fuses_every_slot_when_no_slot_was_fine_tuned_once():
    """No history holds exactly one 1-bit, so the ST3 filter chooses none
    and every slot is fused."""
    rng = np.random.default_rng(52)
    state = EnsembleState(mission=4, capacity=4, classifiers=tuple(
        ClassifierRecord(RetrainHistory(bits), _partition(rng, 2),
                         _trained(init_model(8, 6, 2, seed=slot)))
        for slot, bits in enumerate(((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 1)))))
    strategy = StrategyConfig("ST3", k_bar=4)
    assert st3_fusion_filter(Schedule(tuple(c.history for c in state.classifiers)), 4) == ()
    assert active_slots(state, strategy) == [0, 1, 2, 3]
    assert vpc_plan(state, strategy).column_slots.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
