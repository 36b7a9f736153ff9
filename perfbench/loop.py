"""The measured season loop and locate phase, driven through the package's
public functions the way the acceptance fixture drives them."""

from __future__ import annotations

import hashlib
import math
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

from workloads import Workload, dataset_seed

# The benchmark's direct calls into the package -> span name.
DIRECT_CALLS = {
    "load_manifest": "data.load_manifest",
    "load_bundle": "data.load_bundle",
    "run_adaptation": "missions.run_adaptation",
    "queries_from_set": "missions.queries_from_set",
    "run_vpc": "missions.run_vpc",
    "success_ratio": "missions.success_ratio",
    "save_state": "missions.save_state",
    "load_state": "missions.load_state",
}

_CANDIDATE = struct.Struct("<IIdddd")


@dataclass(frozen=True)
class Lib:
    """The package functions the benchmark calls, plain or traced."""

    load_manifest: object
    load_bundle: object
    run_adaptation: object
    queries_from_set: object
    run_vpc: object
    success_ratio: object
    save_state: object
    load_state: object


def plain_lib(v) -> Lib:
    modules = {"data": v.data, "missions": v.missions}
    return Lib(**{attr: getattr(modules[name.split(".")[0]], attr)
                  for attr, name in DIRECT_CALLS.items()})


def traced_lib(v, tracer) -> Lib:
    plain = plain_lib(v)
    return Lib(**{f.name: tracer.wrap(DIRECT_CALLS[f.name], getattr(plain, f.name))
                  for f in fields(Lib)})


@dataclass
class Ops:
    """Attempted and failed operations, by kind."""

    missions: list = field(default_factory=lambda: [0, 0])
    queries: list = field(default_factory=lambda: [0, 0])
    locate: list = field(default_factory=lambda: [0, 0])

    def add(self, other: "Ops") -> None:
        for mine, theirs in ((self.missions, other.missions), (self.queries, other.queries),
                             (self.locate, other.locate)):
            mine[0] += theirs[0]
            mine[1] += theirs[1]

    @property
    def attempted(self) -> int:
        return self.missions[0] + self.queries[0] + self.locate[0]

    @property
    def failed(self) -> int:
        return self.missions[1] + self.queries[1] + self.locate[1]


@dataclass
class Rep:
    """One repetition of the whole season loop and its locate calls."""

    # Per mission, in loop order.
    run_s: list = field(default_factory=list)
    adapt_s: list = field(default_factory=list)
    vpc_s: list = field(default_factory=list)
    vpc_queries: int = 0
    ratios: list = field(default_factory=list)
    states_equal: bool = True
    locate_matches_batch: bool = True
    locate_ms: list = field(default_factory=list)
    locate_queries: int = 0
    ops: Ops = field(default_factory=Ops)
    rankings_sha256: str = ""
    state_sha256: str = ""

    @property
    def success_rank1(self) -> float:
        return math.fsum(self.ratios) / len(self.ratios) if self.ratios else 0.0


def load_datasets(lib: Lib, manifests: list[Path], tracer=None) -> list[list]:
    out = []
    for manifest in manifests:
        if tracer:
            tracer.new_trace("setup")
        f_dim, bundles = lib.load_manifest(manifest)
        out.append([lib.load_bundle(b, f_dim) for b in bundles])
    return out


def mission_config(v, wl: Workload, arm, train_seed: int):
    return v.MissionConfig(
        strategy=v.StrategyConfig(arm.kind, n_bar=arm.n_bar),
        partition=v.PartitionConfig(method=wl.partition, t_d=wl.t_d),
        train=v.TrainConfig(learning_rate=wl.learning_rate, epochs=wl.epochs, seed=train_seed),
        fusion_x=wl.fusion_x,
        capacity=arm.capacity,
        error_thresholds=(wl.error,),
        success_mode="rank1",
    )


def ranking_key(result) -> tuple:
    return tuple((c.source_classifier, c.class_id, c.probability,
                  c.location.x, c.location.y, c.location.theta) for c in result.ranked)


def _hash_rankings(h, results) -> None:
    for res in results:
        h.update(struct.pack("<I", len(res.ranked)))
        for key in ranking_key(res):
            h.update(_CANDIDATE.pack(*key))


@dataclass(frozen=True)
class Final:
    """The ensemble the locate calls query, and its batch answers."""

    state: object
    cfg: object
    queries: list
    results: list


def final_ensemble(v, lib: Lib, wl: Workload, datasets: list[list], workload_seed: int) -> Final:
    """The final ensemble of the first arm on the last dataset, built before
    anything is timed (which also does numpy's and BLAS's lazy set-up), so
    that every repetition can spread its locate calls between its missions.
    Each repetition checks that it ends with the same batch answers."""
    arm, seasons = wl.arms[0], datasets[-1]
    cfg = mission_config(v, wl, arm, dataset_seed(workload_seed, len(datasets) - 1))
    state = v.initial_state(arm.capacity)
    for i in range(1, len(seasons)):
        state = lib.run_adaptation(state, seasons[i - 1], cfg)
    queries = lib.queries_from_set(seasons[-1])
    return Final(state, cfg, queries, lib.run_vpc(state, queries, cfg))


def run_rep(v, lib: Lib, wl: Workload, datasets: list[list], workload_seed: int,
            workdir: Path, final: Final, tracer=None) -> Rep:
    """Run every arm over every dataset. The locate calls to `final` are
    split into one slot before each mission and one after the last, so
    they are spread over the repetition's time as the missions are."""
    rep = Rep()
    rankings, states = hashlib.sha256(), hashlib.sha256()
    state_path = workdir / "state.svpc"
    n_missions = len(wl.arms) * sum(len(seasons) - 1 for seasons in datasets)
    locator = Locator(lib, rep, final, wl, n_missions + 1, tracer)
    mission = 0
    for arm_idx, arm in enumerate(wl.arms):
        for k, seasons in enumerate(datasets):
            cfg = mission_config(v, wl, arm, dataset_seed(workload_seed, k))
            rep.ops.missions[0] += len(seasons) - 1
            rep.ops.queries[0] += sum(len(s.images) for s in seasons[1:])
            state = v.initial_state(arm.capacity)
            first = mission
            mission += len(seasons) - 1
            for i in range(1, len(seasons)):
                locator.run_slots(first + i)
                if tracer:
                    tracer.new_trace("mission")
                try:
                    t0 = time.perf_counter()
                    adapted = lib.run_adaptation(state, seasons[i - 1], cfg)
                    t1 = time.perf_counter()
                    queries = lib.queries_from_set(seasons[i])
                    t2 = time.perf_counter()
                    results = lib.run_vpc(adapted, queries, cfg)
                    t3 = time.perf_counter()
                    ratio = lib.success_ratio(results, queries, wl.error, "rank1")
                    lib.save_state(adapted, state_path)
                    loaded = lib.load_state(state_path)
                    t4 = time.perf_counter()
                except Exception:
                    # The chain of states is broken: this mission and every
                    # later one of the chain count as failed.
                    traceback.print_exc(file=sys.stderr)
                    rep.ops.missions[1] += len(seasons) - i
                    rep.ops.queries[1] += sum(len(s.images) for s in seasons[i:])
                    if arm_idx == 0 and k == len(datasets) - 1:
                        rep.locate_matches_batch = False
                    break
                rep.run_s.append(t4 - t0)
                rep.adapt_s.append(t1 - t0)
                rep.vpc_s.append(t3 - t2)
                rep.vpc_queries += len(queries)
                rep.ratios.append(ratio)
                rep.states_equal &= v.states_equal(loaded, adapted)
                states.update(state_path.read_bytes())
                _hash_rankings(rankings, results)
                state = loaded
            else:
                if arm_idx == 0 and k == len(datasets) - 1:
                    rep.locate_matches_batch &= (
                        [ranking_key(r) for r in results]
                        == [ranking_key(r) for r in final.results])
    locator.run_slots(n_missions + 1)
    rep.rankings_sha256 = rankings.hexdigest()
    rep.state_sha256 = states.hexdigest()
    return rep


class Locator:
    """Closed loop, one client: the final ensemble answers one test-season
    image per run_vpc call, cycling through the first rep.locate_queries of
    them, in slots of consecutive calls. Each answer must equal the batch
    answer; rep.locate_ms[c] is the latency of call c, inf if it failed."""

    def __init__(self, lib: Lib, rep: Rep, final: Final, wl: Workload, n_slots: int,
                 tracer=None):
        self.lib, self.rep, self.final, self.tracer = lib, rep, final, tracer
        rep.locate_queries = min(wl.locate_queries, len(final.queries))
        self.bounds = [s * wl.locate_calls // n_slots for s in range(n_slots + 1)]
        self.done = 0
        rep.ops.locate[0] += wl.locate_calls

    def run_slots(self, upto: int) -> None:
        """Run every slot before slot `upto` that has not run yet."""
        if self.done >= upto:
            return
        lo, hi = self.bounds[self.done], self.bounds[upto]
        self.done = upto
        lib, rep, final = self.lib, self.rep, self.final
        for c in range(lo, hi):
            idx = c % rep.locate_queries
            if self.tracer:
                self.tracer.new_trace("query")
            try:
                t0 = time.perf_counter()
                res = lib.run_vpc(final.state, [final.queries[idx]], final.cfg)
                t1 = time.perf_counter()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rep.ops.locate[1] += 1
                rep.locate_ms.append(math.inf)
                continue
            rep.locate_ms.append((t1 - t0) * 1e3)
            if ranking_key(res[0]) != ranking_key(final.results[idx]):
                rep.locate_matches_batch = False
