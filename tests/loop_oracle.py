"""Reference season loop: the package's missions 1..n, written plainly from
the per-stage oracles.

Mission i trains on season i and ranks and scores season i + 1, as `run`
does under the next-season protocol. Each mission schedules by exhaustive
enumeration (`sched_oracle`), defines the season's places from group lists
(`partition_oracle`, with UPD3's keyframe loop restated here), summarizes
each class by adding its members in row order, its first member the
keyframe, trains the spawned slot and fine-tunes the others whose bit is 1
with the per-step loop (`sgd_oracle`) at the slot-seed rule, ranks each
query slot by slot and merges the lists (`vpc_oracle`) over the slots the
ST3 fusion filter, restated here, leaves, and scores each query's
candidates with `viewpoint_distance` (`math.hypot`).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from seasonvpc import (ClassifierRecord, EnsembleState, PartitionSummary, Schedule,
                       StrategyConfig, angle_difference, score, viewpoint_distance)
from seasonvpc.core import CLASS_RECORD

import partition_oracle
import sched_oracle
import sgd_oracle
import vpc_oracle


def slot_seed(train_cfg, mission: int, slot: int) -> int:
    """The training seed of `slot` in `mission`: one stream per (mission,
    slot) while slots stay below 100, the largest capacity."""
    return train_cfg.seed + 100 * mission + slot


def incremental_labels(train, cfg) -> list[int]:
    """UPD3: each image joins the class of the spatially nearest keyframe
    (the first on a tie) when position, heading and L2-normalized feature
    are all within the thresholds of that keyframe; otherwise it founds a
    new class and is its keyframe."""
    keyframes = []  # (viewpoint, normalized feature) per class
    labels = []
    for image in train:
        f = np.asarray(image.feature, dtype=np.float64)
        f = f / float(np.linalg.norm(f))
        label = len(keyframes)
        if keyframes:
            dists = [viewpoint_distance(image.viewpoint, kv) for kv, _ in keyframes]
            nearest = dists.index(min(dists))
            kv, kf = keyframes[nearest]
            if (dists[nearest] < cfg.pos_max
                    and angle_difference(image.viewpoint.theta, kv.theta) < cfg.ang_max
                    and float(np.linalg.norm(f - kf)) < cfg.feat_max):
                label = nearest
        if label == len(keyframes):
            keyframes.append((image.viewpoint, f))
        labels.append(label)
    return labels


def place_labels(train, cfg) -> list[int]:
    """The class of each image of `train` under the partition config `cfg`."""
    if cfg.method == "location":
        return partition_oracle.location_labels(train, cfg.t_d)
    if cfg.method == "location-appearance":
        n = len(train)
        k = cfg.k if cfg.k is not None else max(1, math.ceil(min(n, n * 3.0 / cfg.t_d / 4.0)))
        clusters = partition_oracle.kmeans(np.asarray(train.features, dtype=np.float64), k,
                                           cfg.kmeans_iters, cfg.seed)[0]
        return partition_oracle.location_appearance_labels(train, clusters.tolist(), cfg.t_d)
    return incremental_labels(train, cfg)


def summary(train, labels: list[int], method: str) -> PartitionSummary:
    """Per class: its first member as keyframe, its member count, and the
    centroid of its members' x and y, each summed in row order from 0.0,
    with heading atan2(sum of the members' sines, 0)."""
    rows = np.zeros(max(labels) + 1, CLASS_RECORD)
    for c in range(len(rows)):
        members = [train[i] for i, label in enumerate(labels) if label == c]
        x = y = sines = 0.0
        for image in members:
            x += image.viewpoint.x
            y += image.viewpoint.y
            sines += math.sin(image.viewpoint.theta)
        kf = members[0]
        rows[c] = (c, kf.id, kf.timestamp, (kf.viewpoint.x, kf.viewpoint.y, kf.viewpoint.theta),
                   (x / len(members), y / len(members), math.atan2(sines, 0.0)), len(members))
    return PartitionSummary(rows, train.season_id, method)


def adapt(state: EnsembleState, train, cfg) -> EnsembleState:
    """One adaptation mission on the season `train`."""
    i = state.mission + 1
    previous = Schedule(tuple(rec.history for rec in state.classifiers))
    decision = sched_oracle.next_schedule_bruteforce(cfg.strategy, previous, i, cfg.capacity)
    histories = decision.schedule.histories
    if any(h.last_bit() for h in histories):
        labels = place_labels(train, cfg.partition)
        classes = summary(train, labels, cfg.partition.method)
        x, y, k = np.asarray(train.features, dtype=np.float64), np.array(labels), max(labels) + 1
    records = []
    for slot, history in enumerate(histories):
        if not history.last_bit():  # sits out: same model and partition
            records.append(replace(state.classifiers[slot], history=history))
            continue
        train_cfg = replace(cfg.train, seed=slot_seed(cfg.train, i, slot))
        if slot == decision.spawned_slot:
            model = sgd_oracle.train_reference(x, y, k, train_cfg)
        else:
            model = sgd_oracle.fine_tune_reference(state.classifiers[slot].model, x, y, k,
                                                   train_cfg)
        records.append(ClassifierRecord(history, classes, model))
    return EnsembleState(mission=i, classifiers=tuple(records), capacity=state.capacity)


def fused_slots(state: EnsembleState, strategy: StrategyConfig) -> list[int]:
    """Every slot; under ST3 with its filter, only the slots fine-tuned
    exactly once whose ST3 score is the largest (within 1e-12 relative),
    unless no slot was fine-tuned exactly once."""
    slots = list(range(len(state.classifiers)))
    if strategy.kind != "ST3" or not strategy.st3_filter:
        return slots
    once = {j: score(strategy, Schedule((state.classifiers[j].history,)), state.mission)
            for j in slots if sum(state.classifiers[j].history.bits) == 1}
    if not once:
        return slots
    top = max(once.values())
    return [j for j, v in once.items() if math.isclose(v, top, rel_tol=1e-12, abs_tol=0.0)]


def rank(state: EnsembleState, queries, cfg) -> list:
    """Each query's FusedResult: every fused slot's top x, merged."""
    slots = fused_slots(state, cfg.strategy)
    results = []
    for q in queries:
        feature = np.asarray(q.feature, dtype=np.float64)
        lists = [vpc_oracle.top_x_one(vpc_oracle.predict_one(state.classifiers[j].model, feature),
                                      state.classifiers[j].partition, cfg.fusion_x, slot=j)
                 for j in slots]
        results.append(vpc_oracle.fuse_lists(lists, cfg.fusion_x))
    return results


def ratio(results, queries, error: float, mode: str) -> float:
    """The share of queries with a hit: the rank-1 candidate (mode "rank1")
    or any candidate within `error` meters of the query's viewpoint."""
    hits = 0
    for res, q in zip(results, queries):
        candidates = res.ranked[:1] if mode == "rank1" else res.ranked
        hits += any(viewpoint_distance(c.location, q.viewpoint) < error for c in candidates)
    return hits / len(queries)


def run_reference(seasons, cfg) -> list[tuple[EnsembleState, list, dict[float, float]]]:
    """Per mission 1..len(seasons) - 1: the state after adapting on its
    season, the FusedResults of the next season's images, and the success
    ratio at each of cfg.error_thresholds."""
    state = EnsembleState(mission=0, classifiers=(), capacity=cfg.capacity)
    out = []
    for train, test in zip(seasons, seasons[1:]):
        state = adapt(state, train, cfg)
        results = rank(state, test, cfg)
        out.append((state, results, {err: ratio(results, test, err, cfg.success_mode)
                                     for err in cfg.error_thresholds}))
    return out
