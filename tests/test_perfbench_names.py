"""The benchmark under perfbench/ calls and patches package functions by
name, and reads a few attributes of what they return. A rename or deletion
in the package must fail here, in tier 1, not only when the benchmark runs."""

import importlib
from pathlib import Path

import seasonvpc
from seasonvpc import (
    MissionConfig,
    PartitionConfig,
    StrategyConfig,
    SynthConfig,
    TrainConfig,
    build_partition,
    data,
    initial_state,
    missions,
    run_adaptation,
    synth_generate,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(monkeypatch, name):
    # run.py is not imported: it sets BLAS thread variables on import.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_perfbench_names_resolve_on_the_package(monkeypatch):
    spans = _perfbench_module(monkeypatch, "spans")
    loop = _perfbench_module(monkeypatch, "loop")
    modules = {"data": data, "missions": missions}
    # spans.py wraps each layer function at the name missions looks it up under
    for attr in spans.MISSIONS_LAYERS:
        assert callable(getattr(missions, attr, None)), f"seasonvpc.missions.{attr}"
    # loop.py calls each of these on the module named by its span
    for attr, span in loop.DIRECT_CALLS.items():
        module = span.split(".")[0]
        assert callable(getattr(modules[module], attr, None)), f"seasonvpc.{module}.{attr}"
    for attr in ("MissionConfig", "StrategyConfig", "PartitionConfig", "TrainConfig",
                 "initial_state", "states_equal"):
        assert callable(getattr(seasonvpc, attr, None)), f"seasonvpc.{attr}"


def test_perfbench_reads_the_season_shapes_it_needs(monkeypatch):
    spans = _perfbench_module(monkeypatch, "spans")
    loop = _perfbench_module(monkeypatch, "loop")
    train, test = synth_generate(SynthConfig(n_places=4, loop_length=80.0, images_per_place=2,
                                             feature_dim=5, n_seasons=2, seed=1))
    # loop.py counts a season's queries as len(season.images)
    assert len(test.images) == 8
    # the locate calls send one query row at a time; each answer must equal
    # the row of the batch answer
    cfg = MissionConfig(strategy=StrategyConfig("ST1"), capacity=1,
                        train=TrainConfig(epochs=2, hidden=4))
    state = run_adaptation(initial_state(1), train, cfg)
    queries = missions.queries_from_set(test)
    batch = missions.run_vpc(state, queries, cfg)
    for i in range(len(queries)):
        single = missions.run_vpc(state, [queries[i]], cfg)
        assert loop.ranking_key(single[0]) == loop.ranking_key(batch[i])
    # spans.py counts classes and singletons from len(c.members)
    part = build_partition(train, PartitionConfig(method="incremental"))
    sizes = [len(c.members) for c in part.classes]
    assert sum(sizes) == len(train)
    assert spans._count_partition(None, part) == {"classes": len(sizes),
                                                  "singletons": sizes.count(1)}
