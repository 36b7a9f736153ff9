"""Retraining-schedule selection over ensemble bit-string histories.

Evolution model: the ensemble grows one slot per mission up to a fixed
capacity. Each mission every surviving slot either fine-tunes on the new
season's data (bit 1) or sits out (bit 0), and while below capacity one
fresh slot spawns, trained on the new season (bit 1 under every valid
strategy). A strategy scores whole schedules; all three objectives
decompose per slot, so a per-slot greedy argmax equals exhaustive
enumeration (the brute-force oracle in tests/sched_oracle.py checks this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RetrainHistory, ones_count, require_integers

STRATEGY_KINDS = ("ST1", "ST2", "ST3")


@dataclass(frozen=True)
class StrategyConfig:
    """Which scheduling objective to maximize, plus its parameter.

    ST2 targets n_bar trainings per slot, its birth included (n_bar >= 1);
    ST3 prefers single fine-tunes near training set k_bar and, when
    st3_filter is set, restricts fusion to the best-matching single-fine-tuned slot.
    """

    kind: str
    n_bar: int | None = None
    k_bar: int | None = None
    st3_filter: bool = True

    def __post_init__(self) -> None:
        require_integers(self, "n_bar", "k_bar")
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not isinstance(self.st3_filter, bool):
            raise TypeError(f"st3_filter must be true or false, got {self.st3_filter!r}")
        if self.kind == "ST2":
            if self.n_bar is None or self.n_bar < 1:
                raise ValueError("ST2 requires n_bar >= 1")
        if self.kind == "ST3":
            if self.k_bar is None or self.k_bar < 1:
                raise ValueError("ST3 requires k_bar >= 1")

    def label(self) -> str:
        if self.kind == "ST2":
            return f"ST2(nbar={self.n_bar})"
        if self.kind == "ST3":
            return f"ST3(kbar={self.k_bar})"
        return "ST1"


@dataclass(frozen=True)
class Schedule:
    """One history per ensemble slot, all of equal length (the mission index)."""

    histories: tuple[RetrainHistory, ...] = ()

    def __post_init__(self) -> None:
        lengths = {len(h) for h in self.histories}
        if len(lengths) > 1:
            raise ValueError("slot histories must share one length")

    @property
    def mission(self) -> int:
        return len(self.histories[0]) if self.histories else 0

    def bit_strings(self) -> list[str]:
        return [h.as_string() for h in self.histories]


@dataclass(frozen=True)
class ScheduleDecision:
    """A chosen schedule for mission i, and the slot spawned in it, if any."""

    schedule: Schedule
    spawned_slot: int | None


def weight_vector(k_bar: int, i: int) -> np.ndarray:
    """Training-set affinity weights: element j (1-based) is exp(-|k_bar - j|)."""
    if not 1 <= k_bar <= i:
        raise ValueError(f"k_bar {k_bar} out of range [1, {i}]")
    return np.exp(-np.abs(k_bar - np.arange(1, i + 1, dtype=float)))


def slot_score(strategy: StrategyConfig, history: RetrainHistory, i: int) -> float:
    """One slot's contribution to the schedule objective at mission i."""
    if len(history) != i:
        raise ValueError(f"history length {len(history)} != mission {i}")
    n = ones_count(history)
    if strategy.kind == "ST1":
        return history.last_bit() + n / (1.0 + i)
    if strategy.kind == "ST2":
        return -abs(n - strategy.n_bar) + n / (1.0 + i)
    # ST3: only single-fine-tuned histories score; k_bar beyond the current
    # mission is clamped to the newest season until season k_bar exists.
    if n != 1:
        return 0.0
    w = weight_vector(min(strategy.k_bar, i), i)
    return float(np.dot(np.asarray(history.bits, dtype=float), w))


def score(strategy: StrategyConfig, schedule: Schedule, i: int) -> float:
    """Objective value of a whole schedule at mission i."""
    return sum(slot_score(strategy, h, i) for h in schedule.histories)


def _best_bit(strategy: StrategyConfig, history: RetrainHistory, i: int) -> int:
    s0 = slot_score(strategy, history.extended(0), i)
    s1 = slot_score(strategy, history.extended(1), i)
    return 1 if s1 > s0 else 0  # ties keep the lexicographically smaller bit


def next_schedule(strategy: StrategyConfig, previous: Schedule, i: int,
                  capacity: int) -> ScheduleDecision:
    """Greedy per-slot argmax over the feasible extensions of `previous`.

    Valid because every strategy objective is a sum of independent per-slot
    terms; ties break to the lexicographically smallest concatenated bit
    string, i.e. bit 0 wherever a slot is indifferent.
    """
    if i != previous.mission + 1:
        raise ValueError(f"mission {i} does not extend a schedule at {previous.mission}")
    new_histories = [h.extended(_best_bit(strategy, h, i)) for h in previous.histories]
    spawned = None
    if len(previous.histories) < capacity:
        base = RetrainHistory((0,) * (i - 1))
        spawned = len(new_histories)
        new_histories.append(base.extended(_best_bit(strategy, base, i)))
    return ScheduleDecision(schedule=Schedule(tuple(new_histories)), spawned_slot=spawned)


def evolve_schedule(strategy: StrategyConfig, n_missions: int, capacity: int) -> Schedule:
    """Run the scheduler from scratch for n_missions and return the final grid."""
    if n_missions < 1:
        raise ValueError("n_missions must be >= 1")
    schedule = Schedule(())
    for i in range(1, n_missions + 1):
        schedule = next_schedule(strategy, schedule, i, capacity).schedule
    return schedule


def st3_fusion_filter(schedule: Schedule, k_bar: int) -> tuple[int, ...]:
    """Slots with exactly one 1-bit whose histories best match the k_bar
    affinity weights; empty when no slot was fine-tuned exactly once."""
    i = schedule.mission
    st3 = StrategyConfig("ST3", k_bar=k_bar)
    scored = [(idx, slot_score(st3, h, i))
              for idx, h in enumerate(schedule.histories) if ones_count(h) == 1]
    if not scored:
        return ()
    top = max(v for _, v in scored)
    return tuple(idx for idx, v in scored if math.isclose(v, top, rel_tol=1e-12, abs_tol=0.0))
