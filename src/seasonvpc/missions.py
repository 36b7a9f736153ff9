"""The alternating exploration/adaptation loop: per-season retraining of the
ensemble, VPC evaluation through fusion, success-ratio scoring, and the
persistent state container (models + partition metadata, never raw data)."""

from __future__ import annotations

import hashlib
import math
import numbers
import os
from dataclasses import dataclass, replace
from pathlib import Path
from struct import Struct
from typing import Sequence

import numpy as np

from .classify import (DivergenceError, ModelStack, TrainConfig, fine_tune, model_from_flat,
                       predict, train)
from .core import (
    CLASS_RECORD,
    ClassifierRecord,
    EnsembleState,
    MappedImage,
    PartitionSummary,
    RetrainHistory,
    SeasonRows,
    TrainingSet,
    _read_only,
    membership_labels,
    require_integers,
)
# fuse is not called here; it stays importable from this module next to the
# other layer functions, which perfbench/spans.py patches by name.
from .fusion import Ranking, fuse, top_x  # noqa: F401
from .placedef import PARTITION_METHODS, PartitionConfig, build_partition
from .sched import Schedule, StrategyConfig, next_schedule, st3_fusion_filter

STATE_MAGIC = b"SVPC"
STATE_VERSION = 1
_HEADER = Struct("<4sIQ32s")  # magic, version, payload length, sha256

# Slots per ensemble; _slot_seed keeps seeds distinct only up to this many.
MAX_CAPACITY = 100
SUCCESS_MODES = ("rank1", "topx")
# run_adaptation warns when more than this share of a new partition's classes
# hold a single image: each of them trains its class on one example.
SINGLETON_WARN_FRACTION = 0.5


class StateFormatError(Exception):
    """Unreadable, tampered, or wrong-version state file."""


def _is_threshold(error) -> bool:
    """Whether `error` can be a success threshold: a positive, finite real
    number, and not a bool."""
    return (isinstance(error, numbers.Real) and not isinstance(error, bool)
            and math.isfinite(error) and error > 0)


@dataclass(frozen=True)
class MissionConfig:
    strategy: StrategyConfig
    partition: PartitionConfig = PartitionConfig()
    train: TrainConfig = TrainConfig()
    fusion_x: int = 10
    capacity: int = 4
    error_thresholds: tuple[float, ...] = (10.0, 20.0)
    success_mode: str = "rank1"

    def __post_init__(self) -> None:
        require_integers(self, "fusion_x", "capacity")
        if self.fusion_x < 1 or self.capacity < 1:
            raise ValueError("fusion_x and capacity must be >= 1")
        if self.capacity > MAX_CAPACITY:
            raise ValueError(f"capacity must be <= {MAX_CAPACITY}")
        thresholds = self.error_thresholds
        if not isinstance(thresholds, (list, tuple)) or not thresholds or not all(
                map(_is_threshold, thresholds)):
            raise ValueError("error_thresholds must be positive and finite numbers")
        repeated = [t for i, t in enumerate(thresholds) if float(t) in map(float, thresholds[:i])]
        if repeated:
            raise ValueError(f"error threshold {repeated[0]!r} is given twice")
        object.__setattr__(self, "error_thresholds", tuple(thresholds))
        if self.success_mode not in SUCCESS_MODES:
            raise ValueError("success_mode must be rank1 or topx")


def queries_from_set(test_set: TrainingSet) -> SeasonRows:
    """A test season as global-localization queries: its row view, each row
    carrying a feature vector and a mapped (ground-truth) viewpoint."""
    return test_set.images


# The queries' features and ground-truth x, y: a season view's columns, or
# read row by row from MappedImage rows (a locate call's [row], a slice).
def _query_features(queries: Sequence[MappedImage]) -> np.ndarray:
    if isinstance(queries, SeasonRows):
        return queries.season.features
    return np.array([q.feature for q in queries], dtype=np.float64)


def _query_xy(queries: Sequence[MappedImage]) -> np.ndarray:
    if isinstance(queries, SeasonRows):
        return queries.season.poses[:, :2]
    return np.array([(q.viewpoint.x, q.viewpoint.y) for q in queries])


def initial_state(capacity: int) -> EnsembleState:
    """Mission-0 ensemble: no slot yet; mission 1 trains the first."""
    return EnsembleState(mission=0, classifiers=(), capacity=capacity)


def _slot_seed(cfg: TrainConfig, mission: int, slot: int) -> int:
    # Distinct deterministic stream per (mission, slot) so coincidentally
    # identical retrains still produce diverse ensemble members; distinct
    # because slot < MAX_CAPACITY.
    return cfg.seed + MAX_CAPACITY * mission + slot


def run_adaptation(state: EnsembleState, d: TrainingSet, cfg: MissionConfig) -> EnsembleState:
    """One adaptation mission: schedule, partition the new season once, then
    fine-tune each slot whose new bit is 1 and train the one it spawns, which
    every valid strategy trains. A mission with no new bit 1 does not
    partition the season. The training set is not retained in the result."""
    if d.season_id != state.mission + 1:
        raise ValueError(f"season {d.season_id} does not follow mission {state.mission}")
    if state.capacity != cfg.capacity:
        raise ValueError(f"state capacity {state.capacity} != config capacity {cfg.capacity}")
    i = state.mission + 1
    previous = Schedule(tuple(c.history for c in state.classifiers))
    decision = next_schedule(cfg.strategy, previous, i, cfg.capacity)
    spawned = decision.spawned_slot
    if any(h.last_bit() for h in decision.schedule.histories):
        partition = build_partition(d, cfg.partition)
        features = d.features.astype(np.float64)
        labels = membership_labels(partition, len(d))
        summary = partition.summary(d)
        n_classes = len(summary.sizes)
        singletons = np.count_nonzero(summary.sizes == 1)
        if singletons > SINGLETON_WARN_FRACTION * n_classes:
            # Imported only when there is something to log: the import costs
            # ~9 ms and 0.5 MB, 5% of accept-sweep's setup_s and 1.4% of its
            # peak_rss_mb.
            import logging

            logging.getLogger(__name__).warning(
                "season %d: %d of %d place classes (%s) hold a single image",
                d.season_id, singletons, n_classes, partition.method)

    records = []
    for slot, history in enumerate(decision.schedule.histories):
        if history.last_bit() == 0:
            records.append(replace(state.classifiers[slot], history=history))
            continue
        slot_cfg = replace(cfg.train, seed=_slot_seed(cfg.train, i, slot))
        try:
            model = (train(features, labels, n_classes, slot_cfg) if slot == spawned else
                     fine_tune(state.classifiers[slot].model, features, labels, n_classes,
                               slot_cfg))
        except DivergenceError as exc:
            raise DivergenceError(f"season {d.season_id}, slot {slot}: {exc}") from None
        records.append(ClassifierRecord(history=history, partition=summary, model=model))
    return EnsembleState(mission=i, classifiers=tuple(records), capacity=state.capacity)


def active_slots(state: EnsembleState, strategy: StrategyConfig) -> list[int]:
    """Slots that participate in fusion: every slot, narrowed by the ST3
    filter when enabled and it chooses any."""
    if strategy.kind == "ST3" and strategy.st3_filter:
        chosen = st3_fusion_filter(Schedule(tuple(c.history for c in state.classifiers)),
                                   strategy.k_bar)
        if chosen:
            return list(chosen)
    return list(range(len(state.classifiers)))


@dataclass(frozen=True, eq=False)
class VPCPlan:
    """What `run_vpc` reads of a state under one strategy: the active slots,
    their models as one `ModelStack`, and what each column of the stack's
    probability rows stands for: its slot and its class within that slot,
    (C,) int64, and the class's representative pose, (C, 3) float64. The
    column arrays are read-only."""

    slots: tuple[int, ...]
    stack: ModelStack
    column_slots: np.ndarray
    column_classes: np.ndarray
    column_poses: np.ndarray


def vpc_plan(state: EnsembleState, strategy: StrategyConfig) -> VPCPlan:
    """The state's VPC plan under `strategy`, built on first use.

    The plan is kept in the state's own `__dict__`, next to its fields, so
    it is freed with the state, and it takes no part in `states_equal` or
    `save_state`. It is built first and then stored with `setdefault`, as
    is the state's plan dict: readers that race store equal plans and all
    return the first.
    """
    plans = vars(state).get("_vpc_plans")
    plan = None if plans is None else plans.get(strategy)
    if plan is None:
        slots = active_slots(state, strategy)
        records = [state.classifiers[j] for j in slots]
        try:
            stack = ModelStack([rec.model for rec in records])
        except ValueError:  # its one refusal, naming positions: name the slots
            raise ValueError("active slots take features of different dimensions: " + ", ".join(
                f"slot {j}: {rec.model.feature_dim}" for j, rec in zip(slots, records))) from None
        widths = [rec.model.n_classes for rec in records]
        plan = vars(state).setdefault("_vpc_plans", {}).setdefault(strategy, VPCPlan(
            tuple(slots), stack,
            _read_only(np.repeat(np.array(slots, dtype=np.int64), widths)),
            _read_only(np.concatenate([np.arange(k, dtype=np.int64) for k in widths])),
            _read_only(np.concatenate([rec.partition.representatives for rec in records]))))
    return plan


def run_vpc(state: EnsembleState, queries: Sequence[MappedImage],
            cfg: MissionConfig) -> Ranking:
    """Classify every query through the ensemble and fuse the ranked lists.

    One forward pass over all queries through the active slots'
    `ModelStack`, then one ranking of its probability rows, gathered from
    the state's `vpc_plan` into a columnar `Ranking` (the poses with
    `np.take` along the plan's rows); a season view's feature column goes
    to `predict` as it is. Each query's row is identical to ranking each
    slot's classes and fusing the lists (`fuse`), and does not depend on
    the other queries in the batch. Pure with respect to the state's
    fields; deterministic.
    """
    if state.mission < 1:
        raise ValueError("VPC needs at least one adaptation mission")
    plan = vpc_plan(state, cfg.strategy)
    if not queries:
        return Ranking.empty()
    probs = predict(plan.stack, _query_features(queries))
    order = top_x(probs, cfg.fusion_x)
    return Ranking(slots=plan.column_slots[order], classes=plan.column_classes[order],
                   probabilities=probs[np.arange(len(order))[:, None], order],
                   poses=np.take(plan.column_poses, order, axis=0))


def success_ratio(results: Ranking, queries: Sequence[MappedImage],
                  error: float, mode: str = "rank1") -> float:
    """Fraction of queries whose predicted place lies within `error` meters
    of ground truth (rank-1 candidate, or any candidate for mode "topx"),
    read from a season view's x and y pose columns."""
    if not len(results) or len(results) != len(queries):
        raise ValueError("results and queries must be non-empty and aligned")
    if mode not in SUCCESS_MODES:
        raise ValueError("mode must be rank1 or topx")
    if not _is_threshold(error):
        raise ValueError(f"error must be a positive and finite number, got {error!r}")
    truth = _query_xy(queries)
    xy = results.poses[:, :1, :2] if mode == "rank1" else results.poses[..., :2]
    d = xy - truth[:, None, :]
    # math.hypot as core.viewpoint_distance takes it: np.hypot differs in
    # the last bit on some inputs, which can move a ratio.
    dist = list(map(math.hypot, d[..., 0].ravel().tolist(), d[..., 1].ravel().tolist()))
    hits = np.count_nonzero((np.reshape(dist, d.shape[:2]) < error).any(axis=1))
    return int(hits) / len(results)


def run_season(state: EnsembleState, train: TrainingSet, test: TrainingSet, cfg: MissionConfig,
               state_path) -> tuple[EnsembleState, Ranking, dict[float, float]]:
    """One season step: adapt on `train`, rank every image of `test`, score
    the ranking at each of `cfg.error_thresholds` and save the new state to
    `state_path`. Returns the state, the ranking and the ratios keyed by
    threshold, in config order. Each step is looked up on this module when
    it runs, so a wrapper installed on `seasonvpc.missions` sees it."""
    state = run_adaptation(state, train, cfg)
    queries = queries_from_set(test)
    ranking = run_vpc(state, queries, cfg)
    ratios = {err: success_ratio(ranking, queries, err, cfg.success_mode)
              for err in cfg.error_thresholds}
    save_state(state, state_path)
    return state, ranking, ratios


# --- state persistence -------------------------------------------------
#
# Fixed-width little-endian binary: the byte size depends only on structural
# counts (capacity, mission, class counts, model dimensions), never on the
# amount of data each season contained.

# A slot: history length and bits, _MODEL, the model's parameters, _TAIL, the
# partition's class records. Each flag (presence byte) is 1: no field is optional.
_COUNTS = Struct("<QQI")  # mission, capacity, records
_U32 = Struct("<I")
_MODEL = Struct("<BIII")  # flag, feature_dim, hidden, n_classes
_TAIL = Struct("<BdBqBIBI")  # flag, final_loss, flag, seed, flag, source_season, method, classes
_U8 = np.dtype("u1")
_F64 = np.dtype("<f8")


def _serialize(state: EnsembleState) -> bytes:
    parts = [_COUNTS.pack(state.mission, state.capacity, len(state.classifiers))]
    for rec in state.classifiers:
        parts.append(_U32.pack(len(rec.history)))
        parts.append(bytes(rec.history.bits))
        m, p = rec.model, rec.partition
        parts.append(_MODEL.pack(1, m.feature_dim, m.hidden, m.n_classes))
        # Each array itself when it is already contiguous little-endian
        # float64: bytes.join copies it once, with no intermediate bytes.
        parts.extend(np.ascontiguousarray(a, dtype=_F64) for a in (m.w1, m.b1, m.w2, m.b2))
        parts.append(_TAIL.pack(1, m.final_loss, 1, m.seed, 1, p.source_season,
                                PARTITION_METHODS.index(p.method), len(p.rows)))
        parts.append(p.rows)
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes | memoryview):
        self.blob = blob
        self.pos = 0

    def _advance(self, n: int) -> int:
        """The offset of the next n bytes, which must be there."""
        if self.pos + n > len(self.blob):
            raise StateFormatError("truncated state payload")
        self.pos += n
        return self.pos - n

    def take(self, s: Struct) -> tuple:
        return s.unpack_from(self.blob, self._advance(s.size))

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        """A read-only view of the next `count` items of `dtype`."""
        return np.frombuffer(self.blob, dtype, count, self._advance(dtype.itemsize * count))


def _present(**flags: int) -> None:
    for name, b in flags.items():
        if b != 1:
            raise StateFormatError(f"{name} presence byte is {b}, not 1")


def _deserialize(blob: bytes | memoryview) -> EnsembleState:
    r = _Reader(blob)
    mission, capacity, n_records = r.take(_COUNTS)
    records = []
    for _ in range(n_records):
        (hist_len,) = r.take(_U32)
        history = RetrainHistory(tuple(r.array(_U8, hist_len).tolist()))
        has_model, f_dim, hidden, n_classes = r.take(_MODEL)
        _present(model=has_model)
        if min(f_dim, hidden, n_classes) < 1:
            raise StateFormatError("model dimensions must be >= 1")
        # w1, b1, w2, b2 back to back. Python ints: a product of crafted u32
        # dimensions cannot wrap, and array() checks the length before
        # anything is allocated.
        params = r.array(_F64, hidden * f_dim + hidden + n_classes * hidden + n_classes)
        (has_loss, loss, has_seed, seed, has_partition, source_season, method_code,
         n_classes_p) = r.take(_TAIL)
        _present(final_loss=has_loss, seed=has_seed, partition=has_partition)
        model = model_from_flat(params, f_dim, hidden, n_classes, final_loss=loss, seed=seed)
        if method_code >= len(PARTITION_METHODS):
            raise StateFormatError(f"unknown partition method code {method_code}")
        partition = PartitionSummary(r.array(CLASS_RECORD, n_classes_p), source_season,
                                     PARTITION_METHODS[method_code])
        records.append(ClassifierRecord(history=history, partition=partition, model=model))
    if r.pos != len(blob):
        raise StateFormatError("trailing bytes in state payload")
    return EnsembleState(mission=mission, classifiers=tuple(records), capacity=capacity)


def save_state(state: EnsembleState, path) -> None:
    """Write the ensemble to a checksummed, versioned binary container.

    The bytes go to a temporary file beside `path`, `.{name}.<pid>.tmp`,
    reach the disk (fsync), and then replace `path` in one rename: a crash or
    a failed write leaves the previous state file whole. After the rename,
    the temporary files of writers that no longer run (their pid is gone on
    this host) are removed; a running writer's file is left alone.
    """
    payload = _serialize(state)
    header = _HEADER.pack(STATE_MAGIC, STATE_VERSION, len(payload),
                          hashlib.sha256(payload).digest())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    prefix = f".{path.name}."
    for orphan in path.parent.iterdir():
        pid = orphan.name[len(prefix):-len(".tmp")]
        if orphan.name.startswith(prefix) and orphan.name.endswith(".tmp") and pid.isdecimal():
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:  # its writer was killed mid-save
                orphan.unlink(missing_ok=True)
            except (OSError, OverflowError):  # running under another user, or no pid
                pass


def load_state(path) -> EnsembleState:
    """Read a state file, verifying magic, version, length and checksum."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise StateFormatError(f"{path}: file shorter than header")
    magic, version, length, digest = _HEADER.unpack_from(blob)
    if magic != STATE_MAGIC:
        raise StateFormatError(f"{path}: bad magic {magic!r}")
    if version != STATE_VERSION:
        raise StateFormatError(f"{path}: unsupported version {version}")
    payload = memoryview(blob)[_HEADER.size:]
    if len(payload) != length:
        raise StateFormatError(f"{path}: payload length {len(payload)} != header {length}")
    if hashlib.sha256(payload).digest() != digest:
        raise StateFormatError(f"{path}: checksum mismatch")
    try:
        return _deserialize(payload)
    except ValueError as exc:  # a record core's types refuse, e.g. a heading of 4
        raise StateFormatError(f"{path}: invalid record: {exc}") from exc


def states_equal(a: EnsembleState, b: EnsembleState) -> bool:
    """Bitwise equality of two ensemble states."""
    return _serialize(a) == _serialize(b)
