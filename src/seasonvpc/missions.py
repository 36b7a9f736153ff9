"""The alternating exploration/adaptation loop: per-season retraining of the
ensemble, VPC evaluation through fusion, success-ratio scoring, and the
persistent state container (models + partition metadata, never raw data)."""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import TrainConfig, fine_tune, model_from_flat, predict, train
from .core import (
    ClassifierRecord,
    ClassSummary,
    EnsembleState,
    MappedImage,
    PartitionSummary,
    RetrainHistory,
    TrainingSet,
    Viewpoint,
    membership_labels,
    require_integers,
    viewpoint_distance,
)
# fuse is not called here; it stays importable from this module next to the
# other layer functions, which perfbench/spans.py patches by name.
from .fusion import FusedResult, fuse, fused_results, top_x  # noqa: F401
from .placedef import PartitionConfig, build_partition
from .sched import Schedule, StrategyConfig, next_schedule, st3_fusion_filter

STATE_MAGIC = b"SVPC"
STATE_VERSION = 1
_HEADER = struct.Struct("<4sIQ32s")  # magic, version, payload length, sha256

# Slots per ensemble; _slot_seed keeps seeds distinct only up to this many.
MAX_CAPACITY = 100
SUCCESS_MODES = ("rank1", "topx")

PARTITION_METHOD_CODES = {"location": 0, "location-appearance": 1, "incremental": 2}
_METHOD_BY_CODE = {v: k for k, v in PARTITION_METHOD_CODES.items()}


class StateFormatError(Exception):
    """Unreadable, tampered, or wrong-version state file."""


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
                isinstance(t, numbers.Real) and math.isfinite(t) and t > 0 for t in thresholds):
            raise ValueError("error_thresholds must be positive and finite numbers")
        object.__setattr__(self, "error_thresholds", tuple(thresholds))
        if self.success_mode not in SUCCESS_MODES:
            raise ValueError("success_mode must be rank1 or topx")


def queries_from_set(test_set: TrainingSet) -> list[MappedImage]:
    """A test season's rows as global-localization queries: each carries its
    feature vector and its mapped (ground-truth) viewpoint."""
    return list(test_set.images)


def initial_state(capacity: int) -> EnsembleState:
    """Mission-0 ensemble: the lone base classifier, never fine-tuned."""
    base = ClassifierRecord(history=RetrainHistory(), partition=None, model=None)
    return EnsembleState(mission=0, classifiers=(base,), capacity=capacity)


def _slot_seed(cfg: TrainConfig, mission: int, slot: int) -> int:
    # Distinct deterministic stream per (mission, slot) so coincidentally
    # identical retrains still produce diverse ensemble members; distinct
    # because slot < MAX_CAPACITY.
    return cfg.seed + MAX_CAPACITY * mission + slot


def run_adaptation(state: EnsembleState, d: TrainingSet, cfg: MissionConfig) -> EnsembleState:
    """One adaptation mission: schedule, partition the new season once, then
    fine-tune (or freshly train, for base-derived slots) every slot whose new
    bit is 1. The training set itself is not retained in the result."""
    if d.season_id != state.mission + 1:
        raise ValueError(f"season {d.season_id} does not follow mission {state.mission}")
    i = state.mission + 1
    previous = Schedule(()) if state.mission == 0 else Schedule(
        tuple(c.history for c in state.classifiers)
    )
    decision = next_schedule(cfg.strategy, previous, i, cfg.capacity)
    partition = build_partition(d, cfg.partition)
    features = d.features.astype(np.float64)
    labels = membership_labels(partition, len(d))
    summary = partition.summary(d)
    n_classes = len(partition.classes)

    records = []
    for slot, history in enumerate(decision.schedule.histories):
        old = state.classifiers[slot] if slot < len(previous.histories) else None
        if history.last_bit() == 0:
            records.append(
                ClassifierRecord(
                    history=history,
                    partition=old.partition if old else None,
                    model=old.model if old else None,
                )
            )
            continue
        slot_cfg = replace(cfg.train, seed=_slot_seed(cfg.train, i, slot))
        if old is None or old.model is None:
            model = train(features, labels, n_classes, slot_cfg)
        else:
            model = fine_tune(old.model, features, labels, n_classes, slot_cfg)
        records.append(ClassifierRecord(history=history, partition=summary, model=model))
    return EnsembleState(mission=i, classifiers=tuple(records), capacity=state.capacity)


def active_slots(state: EnsembleState, strategy: StrategyConfig) -> list[int]:
    """Slots that participate in fusion: trained ones, narrowed by the ST3
    filter when enabled (base-only slots have no partition to predict over)."""
    trained = [j for j, c in enumerate(state.classifiers) if c.model is not None]
    if strategy.kind == "ST3" and strategy.st3_filter:
        schedule = Schedule(tuple(c.history for c in state.classifiers))
        chosen = set(st3_fusion_filter(schedule, strategy.k_bar))
        filtered = [j for j in trained if j in chosen]
        if filtered:
            return filtered
    return trained


def run_vpc(state: EnsembleState, queries: Sequence[MappedImage],
            cfg: MissionConfig) -> list[FusedResult]:
    """Classify every query through the ensemble and fuse the ranked lists.

    One forward pass per active slot over all queries, then one ranking of
    the slot-concatenated probability rows. Each query's result is identical
    to ranking each slot's classes and fusing the lists (`fuse`), and does
    not depend on the other queries in the batch. Pure with respect to the
    state; deterministic.
    """
    if state.mission < 1:
        raise ValueError("VPC needs at least one adaptation mission")
    slots = active_slots(state, cfg.strategy)
    if not slots:
        raise ValueError("no trained classifiers available for VPC")
    if not queries:
        return []
    features = np.stack([q.feature for q in queries], dtype=np.float64)
    records = [state.classifiers[j] for j in slots]
    probs = np.concatenate([predict(rec.model, features) for rec in records], axis=1)
    return fused_results(probs, top_x(probs, cfg.fusion_x), slots,
                         [rec.partition for rec in records])


def success_ratio(results: Sequence[FusedResult], queries: Sequence[MappedImage],
                  error: float, mode: str = "rank1") -> float:
    """Fraction of queries whose predicted place lies within `error` meters
    of ground truth (rank-1 candidate, or any candidate for mode "topx")."""
    if not results or len(results) != len(queries):
        raise ValueError("results and queries must be non-empty and aligned")
    if mode not in SUCCESS_MODES:
        raise ValueError("mode must be rank1 or topx")
    hits = 0
    for res, q in zip(results, queries):
        cands = res.ranked[:1] if mode == "rank1" else res.ranked
        if any(viewpoint_distance(c.location, q.viewpoint) < error for c in cands):
            hits += 1
    return hits / len(results)


# --- state persistence -------------------------------------------------
#
# Fixed-width little-endian binary: the byte size depends only on structural
# counts (capacity, mission, class counts, model dimensions), never on the
# amount of data each season contained.


def _pack_viewpoint(vp: Viewpoint) -> bytes:
    return struct.pack("<3d", vp.x, vp.y, vp.theta)


def _pack_array(a: np.ndarray) -> np.ndarray:
    # The array itself when it is already contiguous little-endian float64:
    # bytes.join copies it once, with no intermediate bytes object.
    return np.ascontiguousarray(a, dtype="<f8")


def _serialize(state: EnsembleState) -> bytes:
    parts = [struct.pack("<QQI", state.mission, state.capacity, len(state.classifiers))]
    for rec in state.classifiers:
        parts.append(struct.pack("<I", len(rec.history)))
        parts.append(bytes(rec.history.bits))
        if rec.model is None:
            parts.append(struct.pack("<B", 0))
        else:
            m = rec.model
            parts.append(struct.pack("<B", 1))
            parts.append(struct.pack("<III", m.feature_dim, m.hidden, m.n_classes))
            parts.extend(_pack_array(a) for a in (m.w1, m.b1, m.w2, m.b2))
            has_loss = m.final_loss is not None
            parts.append(struct.pack("<Bd", int(has_loss), m.final_loss if has_loss else 0.0))
            has_seed = m.seed is not None
            parts.append(struct.pack("<Bq", int(has_seed), m.seed if has_seed else 0))
        if rec.partition is None:
            parts.append(struct.pack("<B", 0))
        else:
            p = rec.partition
            parts.append(struct.pack("<B", 1))
            parts.append(
                struct.pack("<IBI", p.source_season, PARTITION_METHOD_CODES[p.method],
                            len(p.classes))
            )
            for cls in p.classes:
                parts.append(struct.pack("<Iqq", cls.class_id, cls.keyframe_id,
                                         cls.keyframe_timestamp))
                parts.append(_pack_viewpoint(cls.keyframe_viewpoint))
                parts.append(_pack_viewpoint(cls.representative))
                parts.append(struct.pack("<I", cls.size))
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes | memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, fmt: str):
        s = struct.Struct(fmt)
        if self.pos + s.size > len(self.blob):
            raise StateFormatError("truncated state payload")
        vals = s.unpack_from(self.blob, self.pos)
        self.pos += s.size
        return vals

    def raw(self, n: int) -> bytes | memoryview:
        if self.pos + n > len(self.blob):
            raise StateFormatError("truncated state payload")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def floats(self, count: int) -> np.ndarray:
        """A read-only view of the next `count` little-endian float64 values."""
        if self.pos + 8 * count > len(self.blob):
            raise StateFormatError("truncated state payload")
        out = np.frombuffer(self.blob, dtype="<f8", count=count, offset=self.pos)
        self.pos += 8 * count
        return out

    def viewpoint(self) -> Viewpoint:
        x, y, theta = self.take("<3d")
        return Viewpoint(x, y, theta)


def _deserialize(blob: bytes | memoryview) -> EnsembleState:
    r = _Reader(blob)
    mission, capacity, n_records = r.take("<QQI")
    records = []
    for _ in range(n_records):
        (hist_len,) = r.take("<I")
        bits = tuple(r.raw(hist_len))
        history = RetrainHistory(bits)
        (has_model,) = r.take("<B")
        model = None
        if has_model:
            f_dim, hidden, n_classes = r.take("<III")
            if min(f_dim, hidden, n_classes) < 1:
                raise StateFormatError("model dimensions must be >= 1")
            # w1, b1, w2, b2 back to back. Python ints: a product of crafted
            # u32 dimensions cannot wrap, and floats() checks the length
            # before anything is allocated.
            params = r.floats(hidden * f_dim + hidden + n_classes * hidden + n_classes)
            has_loss, loss = r.take("<Bd")
            has_seed, seed = r.take("<Bq")
            model = model_from_flat(params, f_dim, hidden, n_classes,
                                    final_loss=loss if has_loss else None,
                                    seed=seed if has_seed else None)
        (has_partition,) = r.take("<B")
        partition = None
        if has_partition:
            source_season, method_code, n_classes_p = r.take("<IBI")
            if method_code not in _METHOD_BY_CODE:
                raise StateFormatError(f"unknown partition method code {method_code}")
            classes = []
            for _ in range(n_classes_p):
                class_id, kf_id, kf_ts = r.take("<Iqq")
                kf_vp = r.viewpoint()
                rep = r.viewpoint()
                (size,) = r.take("<I")
                classes.append(
                    ClassSummary(
                        class_id=class_id,
                        keyframe_id=kf_id,
                        keyframe_timestamp=kf_ts,
                        keyframe_viewpoint=kf_vp,
                        representative=rep,
                        size=size,
                    )
                )
            partition = PartitionSummary(
                classes=tuple(classes),
                source_season=source_season,
                method=_METHOD_BY_CODE[method_code],
            )
        records.append(ClassifierRecord(history=history, partition=partition, model=model))
    if r.pos != len(blob):
        raise StateFormatError("trailing bytes in state payload")
    return EnsembleState(mission=mission, classifiers=tuple(records), capacity=capacity)


def save_state(state: EnsembleState, path) -> None:
    """Write the ensemble to a checksummed, versioned binary container.

    The bytes go to a temporary file beside `path`, reach the disk (fsync),
    and then replace `path` in one rename: a crash or a failed write leaves
    the previous state file whole.
    """
    payload = _serialize(state)
    header = _HEADER.pack(STATE_MAGIC, STATE_VERSION, len(payload),
                          hashlib.sha256(payload).digest())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header + payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    except ValueError as exc:  # a record the domain types reject, e.g. a history bit of 2
        raise StateFormatError(f"{path}: invalid record: {exc}") from exc


def states_equal(a: EnsembleState, b: EnsembleState) -> bool:
    """Bitwise equality of two ensemble states."""
    return _serialize(a) == _serialize(b)
