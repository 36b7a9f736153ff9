"""The benchmark under perfbench/ calls and patches package functions by
name. A rename or deletion in the package must fail here, in tier 1, not
only when the benchmark runs."""

import importlib
from pathlib import Path

import seasonvpc
from seasonvpc import data, missions

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
