"""Exhaustive-enumeration oracle for the schedulers in `seasonvpc.sched`.

Enumerates every schedule reachable in one mission and keeps the best by
score, ties to the lexicographically smallest concatenated bit string. The
greedy `next_schedule` must choose the same schedule.
"""

import itertools

from seasonvpc.core import RetrainHistory
from seasonvpc.sched import Schedule, ScheduleDecision, StrategyConfig, score

# Enumeration guard for the brute-force oracle: 2^(slots+1) candidates.
BRUTEFORCE_MAX_MISSION = 12


def feasible_extensions(previous: Schedule, capacity: int) -> list[Schedule]:
    """All schedules reachable from `previous` in one mission.

    Every surviving slot appends a bit; below capacity one new slot spawns
    from the base classifier (history all-zero so far) and appends a bit.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    i = previous.mission + 1
    slots = list(previous.histories)
    spawn = len(slots) < capacity
    n_bits = len(slots) + (1 if spawn else 0)
    out = []
    for bits in itertools.product((0, 1), repeat=n_bits):
        hs = [h.extended(b) for h, b in zip(slots, bits)]
        if spawn:
            hs.append(RetrainHistory((0,) * (i - 1)).extended(bits[-1]))
        out.append(Schedule(tuple(hs)))
    return out


def next_schedule_bruteforce(strategy: StrategyConfig, previous: Schedule, i: int,
                             capacity: int) -> ScheduleDecision:
    """Exhaustive-enumeration oracle with the same contract as next_schedule."""
    if i > BRUTEFORCE_MAX_MISSION:
        raise ValueError(f"enumeration bound exceeded: mission {i} > {BRUTEFORCE_MAX_MISSION}")
    if i != previous.mission + 1:
        raise ValueError(f"mission {i} does not extend a schedule at {previous.mission}")
    candidates = feasible_extensions(previous, capacity)
    best = None
    best_key = None
    for cand in candidates:
        concat = tuple(b for h in cand.histories for b in h.bits)
        key = (-score(strategy, cand, i), concat)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    spawned = len(previous.histories) if len(previous.histories) < capacity else None
    return ScheduleDecision(schedule=best, spawned_slot=spawned)
