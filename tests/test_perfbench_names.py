"""The benchmark under perfbench/ calls and patches package functions by
name, and reads a few attributes of what they return. A rename or deletion
in the package must fail here, in tier 1, not only when the benchmark runs."""

import importlib
import os
import subprocess
import sys
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
from seasonvpc.placedef import PARTITION_METHODS

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
    # spans.py counts classes and singletons from len(c.members), under
    # every method the benchmark may partition by
    for method in PARTITION_METHODS:
        part = build_partition(train, PartitionConfig(method=method))
        sizes = [len(c.members) for c in part.classes]
        assert sum(sizes) == len(train)
        assert spans._count_partition(None, part) == {"classes": len(sizes),
                                                      "singletons": sizes.count(1)}, method


def test_traced_training_spans_carry_their_counts(monkeypatch):
    # spans.py unpacks train's and fine_tune's positional arguments to count
    # their SGD steps and flops; a signature change must fail here.
    spans = _perfbench_module(monkeypatch, "spans")
    seasons = synth_generate(SynthConfig(n_places=4, loop_length=80.0, images_per_place=2,
                                         feature_dim=5, n_seasons=3, seed=1))
    cfg = MissionConfig(strategy=StrategyConfig("ST1"), capacity=1,
                        train=TrainConfig(epochs=2, hidden=4))
    tracer = spans.Tracer()
    with tracer.patched(missions):
        state = run_adaptation(initial_state(1), seasons[0], cfg)
        run_adaptation(state, seasons[1], cfg)
    counts = {name: c for _sid, _parent, _trace, _rep, name, _start, _end, c in tracer.spans}
    for name in ("classify.train", "classify.fine_tune"):
        assert counts[name]["sgd_steps"] > 0 and counts[name]["gflop"] > 0, name


def test_the_input_generator_loads_no_package_module(tmp_path):
    # perfbench/gen.py writes the benchmark's inputs with its own generator.
    # While neither importing it nor writing a workload loads seasonvpc, no
    # change to the package's generator can move the benchmark's inputs. The
    # package is importable in the child, so an import of it would show.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(PERFBENCH), str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]))}
    code = ("import sys, gen; from pathlib import Path; "
            "gen.write_workload(Path(sys.argv[1]), gen.WORKLOADS['smoke'], 0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'seasonvpc'))")
    child = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
    assert any(tmp_path.iterdir())


def test_perfbench_smoke_passes():
    # The whole benchmark on its tiny workload, traced and untraced: it reads
    # run_vpc's rankings, the states and the partitions through the API.
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (f"stdout (tail):\n{proc.stdout[-2000:]}\n"
                                  f"stderr (tail):\n{proc.stderr[-2000:]}")


def test_every_run_vpc_calls_the_traced_names(monkeypatch):
    # spans.py times predict and top_x by patching them on seasonvpc.missions;
    # run_vpc must look both up there on every call, whether or not the
    # state's VPC plan is already built, or the traced classify.predict_* and
    # fusion.top_x_* metrics read zero without any error. One predict call
    # runs every active slot; spans.py counts its flops from the shape
    # attributes of its first argument.
    seasons = synth_generate(SynthConfig(n_places=4, loop_length=80.0, images_per_place=2,
                                         feature_dim=5, n_seasons=4, seed=2))
    cfg = MissionConfig(strategy=StrategyConfig("ST2", n_bar=1), capacity=3,
                        train=TrainConfig(epochs=2, hidden=4))
    state = initial_state(3)
    for season in seasons[:-1]:
        state = run_adaptation(state, season, cfg)
    queries = missions.queries_from_set(seasons[-1])
    calls = {"predict": 0, "top_x": 0}
    predicted = []

    def counted(name):
        fn = getattr(missions, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "predict":
                predicted.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(missions, name, counted(name))
    slots = missions.active_slots(state, cfg.strategy)
    assert len(slots) == 3
    for batch in (queries, queries[:1], queries, queries[2:5], queries[:1]):
        before = dict(calls)
        missions.run_vpc(state, batch, cfg)
        assert calls["predict"] - before["predict"] == 1
        assert calls["top_x"] - before["top_x"] == 1
    models = [state.classifiers[j].model for j in slots]
    for stack in predicted:
        assert stack.feature_dim == 5
        assert stack.hidden == sum(m.hidden for m in models)
        assert stack.n_classes == sum(m.n_classes for m in models)


def test_run_season_calls_the_season_step_by_its_traced_names(monkeypatch, tmp_path):
    # A benchmark that drives run_season patches the step's functions on
    # seasonvpc.missions; run_season must look each one up there.
    train, test = synth_generate(SynthConfig(n_places=4, loop_length=80.0, images_per_place=2,
                                             feature_dim=5, n_seasons=2, seed=1))
    cfg = MissionConfig(strategy=StrategyConfig("ST1"), capacity=1,
                        train=TrainConfig(epochs=2, hidden=4), error_thresholds=(10.0, 20.0, 30.0))
    calls = dict.fromkeys(("run_adaptation", "queries_from_set", "run_vpc", "success_ratio",
                           "save_state"), 0)

    def counted(name):
        fn = getattr(missions, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(missions, name, counted(name))
    missions.run_season(initial_state(1), train, test, cfg, tmp_path / "state.svpc")
    assert calls == {"run_adaptation": 1, "queries_from_set": 1, "run_vpc": 1,
                     "success_ratio": 3, "save_state": 1}
