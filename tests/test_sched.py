import math

import numpy as np
import pytest

from seasonvpc import (
    RetrainHistory,
    Schedule,
    StrategyConfig,
    evolve_schedule,
    next_schedule,
    ones_count,
    score,
    st3_fusion_filter,
    weight_vector,
)
from seasonvpc.missions import MAX_CAPACITY
from seasonvpc.sched import slot_score

from conftest import history
from sched_oracle import feasible_extensions, next_schedule_bruteforce


def _schedule(*rows: str) -> Schedule:
    """The schedule whose slots have the bit strings `rows`."""
    return Schedule(tuple(map(history, rows)))

ST1 = StrategyConfig("ST1")


def ST2(n):
    return StrategyConfig("ST2", n_bar=n)


def ST3(k):
    return StrategyConfig("ST3", k_bar=k)


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig("ST4")
    with pytest.raises(ValueError):
        StrategyConfig("ST2")
    with pytest.raises(ValueError, match=r"ST2 requires n_bar >= 1"):
        StrategyConfig("ST2", n_bar=0)
    with pytest.raises(ValueError):
        StrategyConfig("ST3", k_bar=0)


def test_weight_vector_examples():
    e = math.e
    np.testing.assert_allclose(weight_vector(1, 4), [1, 1 / e, 1 / e**2, 1 / e**3])
    np.testing.assert_allclose(weight_vector(2, 4), [1 / e, 1, 1 / e, 1 / e**2])
    for j in range(1, 5):
        assert weight_vector(j, 4)[j - 1] == 1.0
    with pytest.raises(ValueError):
        weight_vector(5, 4)
    with pytest.raises(ValueError):
        weight_vector(0, 3)


def test_score_hand_evaluations():
    s = _schedule("11", "01")
    assert score(ST1, s, 2) == pytest.approx((1 + 2 / 3) + (1 + 1 / 3))
    s2 = _schedule("10", "01")
    assert score(ST2(1), s2, 2) == pytest.approx(2 / 3)
    s3 = _schedule("1000")
    assert score(ST3(1), s3, 4) == pytest.approx(1.0)


def test_score_length_mismatch():
    with pytest.raises(ValueError):
        score(ST1, _schedule("10"), 3)


def test_score_decomposes_per_slot():
    rng = np.random.default_rng(0)
    strategies = [ST1, ST2(1), ST2(2), ST2(3), ST3(1), ST3(2)]
    for _ in range(1000):
        i = int(rng.integers(1, 7))
        n_slots = int(rng.integers(1, 5))
        hists = tuple(RetrainHistory(tuple(rng.integers(0, 2, size=i).tolist()))
                      for _ in range(n_slots))
        schedule = Schedule(hists)
        strat = strategies[rng.integers(0, len(strategies))]
        total = score(strat, schedule, i)
        assert total == pytest.approx(sum(slot_score(strat, h, i) for h in hists))


def test_feasible_extensions_examples():
    # mission 1 from the empty schedule: spawn only
    exts = feasible_extensions(Schedule(()), capacity=4)
    assert sorted(tuple(s.bit_strings()) for s in exts) == [("0",), ("1",)]
    # one existing slot, room to spawn: four combinations
    exts = feasible_extensions(_schedule("1"), capacity=4)
    assert sorted(tuple(s.bit_strings()) for s in exts) == [
        ("10", "00"), ("10", "01"), ("11", "00"), ("11", "01"),
    ]
    # saturated: only the existing slot extends
    exts = feasible_extensions(_schedule("1"), capacity=1)
    assert sorted(tuple(s.bit_strings()) for s in exts) == [("10",), ("11",)]


def test_next_schedule_four_mission_patterns():
    assert evolve_schedule(ST2(1), 4, 4).bit_strings() == ["1000", "0100", "0010", "0001"]
    assert evolve_schedule(ST1, 4, 4).bit_strings() == ["1111", "0111", "0011", "0001"]
    for k in (1, 2, 3, 4):
        assert evolve_schedule(ST3(k), 4, 4).bit_strings() == ["1000", "0100", "0010", "0001"]


def test_next_schedule_other_parameter_patterns():
    assert evolve_schedule(ST2(2), 4, 4).bit_strings() == ["1100", "0110", "0011", "0001"]
    assert evolve_schedule(ST2(3), 4, 4).bit_strings() == ["1110", "0111", "0011", "0001"]


def test_bruteforce_mission_one_cases():
    d = next_schedule_bruteforce(ST1, Schedule(()), 1, 4)
    assert d.schedule.bit_strings() == ["1"]
    assert d.spawned_slot == 0 and d.schedule.histories[0].last_bit() == 1


def test_every_valid_strategy_trains_the_slot_it_spawns():
    # A state holds only trained slots, so the slot a mission spawns must
    # get bit 1. A slot spawns only below capacity <= MAX_CAPACITY, so at
    # mission i <= MAX_CAPACITY; k_bar past every such mission is clamped.
    strategies = [ST1, *map(ST2, range(1, 6)), *map(ST3, range(1, MAX_CAPACITY + 2))]
    for i in range(1, MAX_CAPACITY + 1):
        previous = Schedule((RetrainHistory((1,) + (0,) * (i - 2)),) if i > 1 else ())
        for strat in strategies:
            d = next_schedule(strat, previous, i, 2)
            spawned = d.schedule.histories[d.spawned_slot]
            assert spawned.last_bit() == 1, (strat.label(), i)


def test_bruteforce_enumeration_bound():
    with pytest.raises(ValueError):
        next_schedule_bruteforce(ST1, Schedule(()), 13, 1)


def test_mission_index_must_extend_previous():
    with pytest.raises(ValueError):
        next_schedule(ST1, _schedule("10"), 4, 4)


def _sweep_strategies(i):
    out = [ST1, ST2(1), ST2(2), ST2(3)]
    out.extend(ST3(k) for k in range(1, i + 1))
    return out


def test_oracle_equivalence_sweep():
    # all strategies/parameters, capacities 1..4, missions 1..6
    for capacity in range(1, 5):
        chains = {}
        for i in range(1, 7):
            for strat in _sweep_strategies(i):
                key = (strat.kind, strat.n_bar, strat.k_bar)
                prev = chains.get(key, Schedule(()))
                if prev.mission != i - 1:
                    prev = evolve_schedule(strat, i - 1, capacity) if i > 1 else Schedule(())
                greedy = next_schedule(strat, prev, i, capacity)
                brute = next_schedule_bruteforce(strat, prev, i, capacity)
                assert greedy.schedule == brute.schedule, (strat, capacity, i)
                assert score(strat, greedy.schedule, i) == pytest.approx(
                    score(strat, brute.schedule, i))
                chains[key] = greedy.schedule


def test_feasibility_closure_and_monotone_history():
    for strat in (ST1, ST2(1), ST2(2), ST3(2)):
        prev = Schedule(())
        for i in range(1, 7):
            decision = next_schedule(strat, prev, i, 4)
            assert decision.schedule in feasible_extensions(prev, 4)
            for old, new in zip(prev.histories, decision.schedule.histories):
                assert new.bits[:-1] == old.bits  # only a suffix bit is gained
            prev = decision.schedule


def test_st1_always_retrains_every_slot():
    prev = Schedule(())
    for i in range(1, 7):
        decision = next_schedule(ST1, prev, i, 3)
        assert all(h.last_bit() == 1 for h in decision.schedule.histories)
        prev = decision.schedule


def test_st2_nbar1_single_fine_tune_per_slot():
    for capacity in (1, 2, 4):
        final = evolve_schedule(ST2(1), 6, capacity)
        assert all(ones_count(h) == 1 for h in final.histories)


def test_st3_fusion_filter_examples():
    diag = _schedule("1000", "0100", "0010", "0001")
    assert st3_fusion_filter(diag, 1) == (0,)
    assert st3_fusion_filter(diag, 3) == (2,)
    none_single = _schedule("1100", "0011")
    assert st3_fusion_filter(none_single, 1) == ()


def test_st3_fusion_filter_k_beyond_mission_clamps_to_newest():
    two = _schedule("10", "01")
    assert st3_fusion_filter(two, 4) == (1,)
