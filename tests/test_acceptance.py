"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the lines.
"""

import json
import time

import numpy as np
import pytest

import seasonvpc as vpc
from seasonvpc.cli import main as cli_main
from seasonvpc.sched import slot_score

from sched_oracle import next_schedule_bruteforce

# Frozen synthetic benchmark for the directional criteria: within-season
# accuracy of a single classifier sits near 0.9 at this noise level, and the
# error threshold equals one place spacing (400 m loop / 20 places = 20 m).
BENCH = dict(n_places=20, loop_length=400.0, images_per_place=5, feature_dim=32,
             place_signal=1.0, season_drift=0.8, noise=0.21, pose_jitter=0.25,
             n_seasons=5)
BENCH_EPOCHS = 60
BENCH_LR = 0.5
BENCH_ERROR = 20.0  # one place spacing
BENCH_SEEDS = range(10)


def _report(num: int, name: str, t0: float, limit: float, failures: list):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < limit
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s / limit {limit:g}s]")
    assert not failures, failures[:5]
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeded {limit}s"


def test_criterion_1_schedule_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for capacity in range(1, 5):
        strategies = [vpc.StrategyConfig("ST1")]
        strategies += [vpc.StrategyConfig("ST2", n_bar=n) for n in (1, 2, 3)]
        strategies += [vpc.StrategyConfig("ST3", k_bar=k) for k in range(1, 7)]
        for strat in strategies:
            prev = vpc.Schedule(())
            for i in range(1, 7):
                if strat.kind == "ST3" and strat.k_bar > i:
                    # k_bar ranges over 1..i; larger targets start at their season
                    prev = vpc.next_schedule(strat, prev, i, capacity).schedule
                    continue
                greedy = vpc.next_schedule(strat, prev, i, capacity)
                brute = next_schedule_bruteforce(strat, prev, i, capacity)
                if greedy.schedule != brute.schedule:
                    failures.append((strat.label(), capacity, i,
                                     greedy.schedule.bit_strings(),
                                     brute.schedule.bit_strings()))
                gs = vpc.score(strat, greedy.schedule, i)
                bs = vpc.score(strat, brute.schedule, i)
                if gs != pytest.approx(bs):
                    failures.append((strat.label(), capacity, i, gs, bs))
                prev = greedy.schedule
    _report(1, "schedule oracle equivalence", t0, 5.0, failures)


def test_criterion_2_reference_schedules():
    t0 = time.perf_counter()
    failures = []
    st2 = vpc.evolve_schedule(vpc.StrategyConfig("ST2", n_bar=1), 4, 4).bit_strings()
    if st2 != ["1000", "0100", "0010", "0001"]:
        failures.append(("ST2 nbar=1", st2))
    st1 = vpc.evolve_schedule(vpc.StrategyConfig("ST1"), 4, 4).bit_strings()
    if st1 != ["1111", "0111", "0011", "0001"]:
        failures.append(("ST1", st1))
    _report(2, "four-mission reference schedules", t0, 5.0, failures)


def _random_trajectory(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    steps = rng.uniform(0.0, 9.0, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
    xy = np.cumsum(steps, axis=0)
    return vpc.TrainingSet(season_id=1, label=f"r{seed}", timestamps=np.arange(n) * 1_000_000,
                           poses=np.column_stack([xy, np.zeros(n)]),
                           features=np.zeros((n, 1)))


def test_criterion_3_location_partition_properties():
    t0 = time.perf_counter()
    failures = []
    t_d = 18.0
    for seed in range(100):
        train = _random_trajectory(seed)
        part = vpc.partition_by_location(train, t_d)
        covered = []
        for cls in part.classes:
            ids = [int(m) for m in cls.members]
            if ids != list(range(ids[0], ids[-1] + 1)):
                failures.append((seed, "non-contiguous class", ids))
            covered.extend(ids)
        if covered != list(range(len(train.images))):
            failures.append((seed, "not a partition"))
        steps = [vpc.path_length(train, i, i + 1)
                 for i in range(len(train.images) - 1)]
        max_step = max(steps) if steps else 0.0
        starts = [int(cls.members[0]) for cls in part.classes]
        for a, b in zip(starts, starts[1:]):
            span = vpc.path_length(train, a, b)
            if not (t_d <= span < t_d + max_step + 1e-9):
                failures.append((seed, "span out of range", span, max_step))
    _report(3, "UPD1 class spans in [t_d, t_d + max_step)", t0, 2.0, failures)


def test_criterion_4_incremental_thresholds_post_hoc():
    t0 = time.perf_counter()
    failures = []
    cfg = vpc.PartitionConfig(method="incremental")
    for seed in range(5):
        rng = np.random.default_rng(seed)
        poses, feats = [], []
        x = y = 0.0
        heading = 0.0
        for i in range(120):
            x += rng.uniform(0.0, 7.0)
            y += rng.normal(0.0, 2.0)
            heading += rng.normal(0.0, 0.15)
            poses.append((x, y, heading))
            feats.append(rng.normal(size=6) + 3.0)
        train = vpc.TrainingSet(season_id=1, label=f"w{seed}",
                                timestamps=np.arange(120) * 1_000_000, poses=poses,
                                features=feats)
        part = vpc.partition_incremental(train, cfg)
        rows = vpc.incremental_margins(train, part)
        if len(rows) != len(train.images) - len(part.classes):
            failures.append((seed, "log row count"))
        for r in rows:
            if not (r["pos_dist"] < cfg.pos_max
                    and r["ang_diff"] < cfg.ang_max
                    and r["feat_dist"] < cfg.feat_max):
                failures.append((seed, r))
    _report(4, "UPD3 members satisfied all thresholds", t0, 2.0, failures)


def test_criterion_5_kmeans_distortion_and_purity():
    t0 = time.perf_counter()
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        a = rng.normal(0, 0.5, size=(40, 3)) + np.array([25.0, 0.0, 0.0])
        b = rng.normal(0, 0.5, size=(40, 3)) + np.array([-25.0, 0.0, 0.0])
        asg = vpc.kmeans(np.concatenate([a, b]), 2, seed=seed)
        hist = asg.inertia_history
        if not all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1)):
            failures.append((seed, "distortion increased", hist))
        la, lb = asg.labels[:40], asg.labels[40:]
        purity = max(((la == 0).mean() + (lb == 1).mean()) / 2,
                     ((la == 1).mean() + (lb == 0).mean()) / 2)
        if purity < 0.99:
            failures.append((seed, "purity", purity))
    _report(5, "k-means monotone distortion + blob purity", t0, 5.0, failures)


def _numeric_gradient(m, x, y, eps=1e-4):
    out = {}
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(m, name)
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = vpc.loss_and_gradient(m, x, y)
            arr[idx] = orig - eps
            lm, _ = vpc.loss_and_gradient(m, x, y)
            arr[idx] = orig
            num[idx] = (lp - lm) / (2 * eps)
        out[name] = num
    return out


def test_criterion_6_gradient_check():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = vpc.init_model(5, 4, 3, seed=seed, weight_scale=0.5)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        _, g = vpc.loss_and_gradient(m, x, y)
        num = _numeric_gradient(m, x, y)
        for name in ("w1", "b1", "w2", "b2"):
            a, n = getattr(g, name), num[name]
            rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(rel.max()))
    if worst >= 1e-4:
        failures.append(("max relative error", worst))
    print(f"  gradient check worst relative error: {worst:.2e}")
    _report(6, "analytic gradients vs central differences", t0, 10.0, failures)


def test_criterion_7_fusion_identity_and_merge():
    t0 = time.perf_counter()
    failures = []

    def cand(slot, cid, prob):
        return vpc.GlobalCandidate(source_classifier=slot, class_id=cid, probability=prob,
                                   location=vpc.Viewpoint(float(cid), 0.0))

    single = [cand(0, 0, 0.6), cand(0, 2, 0.3), cand(0, 1, 0.1)]
    if list(vpc.fuse([single], 3).ranked) != single:
        failures.append("single-classifier identity")
    merged = vpc.fuse([[cand(0, 0, 0.9)], [cand(1, 0, 0.8), cand(1, 1, 0.7)]], 2)
    if [(c.source_classifier, c.class_id) for c in merged.ranked] != [(0, 0), (1, 0)]:
        failures.append(("merge A/B", merged.ranked))
    tie = vpc.fuse([[cand(1, 3, 0.5)], [cand(0, 2, 0.5)], [cand(0, 1, 0.8)]], 3)
    if [(c.source_classifier, c.class_id) for c in tie.ranked] != [(0, 1), (0, 2), (1, 3)]:
        failures.append(("tie order", tie.ranked))

    rng = np.random.default_rng(0)
    for _ in range(1000):
        lists = []
        for slot in range(int(rng.integers(1, 5))):
            k = int(rng.integers(1, 6))
            probs = rng.dirichlet(np.ones(k))
            lists.append([cand(slot, cid, float(p)) for cid, p in enumerate(probs)])
        fused = vpc.fuse(lists, int(rng.integers(1, 8)))
        probs = [c.probability for c in fused.ranked]
        if any(a < b for a, b in zip(probs, probs[1:])):
            failures.append(("non-increasing violated", probs))
            break
    _report(7, "fusion identity, merges, monotone output", t0, 2.0, failures)


def _run_missions(strategy, capacity, seed, images_per_place, pose_jitter,
                  epochs=6, n_places=8, loop_length=160.0, feature_dim=16):
    cfg = vpc.SynthConfig(n_places=n_places, loop_length=loop_length,
                          images_per_place=images_per_place, feature_dim=feature_dim,
                          n_seasons=5, seed=seed, pose_jitter=pose_jitter)
    seasons = vpc.synth_generate(cfg)
    mc = vpc.MissionConfig(strategy=strategy, capacity=capacity,
                           train=vpc.TrainConfig(learning_rate=0.5, epochs=epochs, seed=seed))
    state = vpc.initial_state(capacity)
    for i in range(4):
        state = vpc.run_adaptation(state, seasons[i], mc)
    return state


def test_criterion_8_state_size_independent_of_dataset_length(tmp_path):
    t0 = time.perf_counter()
    failures = []
    strat = vpc.StrategyConfig("ST2", n_bar=1)
    small = _run_missions(strat, 4, seed=3, images_per_place=3, pose_jitter=0.0)
    doubled = _run_missions(strat, 4, seed=3, images_per_place=6, pose_jitter=0.0)
    ka = [len(c.partition.classes) for c in small.classifiers]
    kb = [len(c.partition.classes) for c in doubled.classifiers]
    if ka != kb:
        failures.append(("class counts changed", ka, kb))
    pa, pb = tmp_path / "a.svpc", tmp_path / "b.svpc"
    vpc.save_state(small, pa)
    vpc.save_state(doubled, pb)
    size_a, size_b = pa.stat().st_size, pb.stat().st_size
    header = 48
    if abs(size_a - size_b) > header:
        failures.append(("size drifted with dataset length", size_a, size_b))
    print(f"  state size: {size_a} bytes vs {size_b} bytes after doubling the data")
    _report(8, "state size independent of dataset length", t0, 30.0, failures)


@pytest.fixture(scope="module")
def benchmark_ratios():
    def arm(strategy, capacity):
        per_seed = []
        for seed in BENCH_SEEDS:
            seasons = vpc.synth_generate(vpc.SynthConfig(seed=seed, **BENCH))
            mc = vpc.MissionConfig(
                strategy=strategy, capacity=capacity,
                train=vpc.TrainConfig(learning_rate=BENCH_LR, epochs=BENCH_EPOCHS, seed=seed),
                error_thresholds=(BENCH_ERROR,),
            )
            state = vpc.initial_state(capacity)
            ratios = []
            for i in range(1, 5):
                state = vpc.run_adaptation(state, seasons[i - 1], mc)
                queries = vpc.queries_from_set(seasons[i])
                results = vpc.run_vpc(state, queries, mc)
                ratios.append(vpc.success_ratio(results, queries, BENCH_ERROR))
            per_seed.append(np.mean(ratios))
        return float(np.mean(per_seed))

    return {
        "ensemble": arm(vpc.StrategyConfig("ST2", n_bar=1), 4),
        "always_retrain_single": arm(vpc.StrategyConfig("ST1"), 1),
        "no_retrain": arm(vpc.StrategyConfig("ST2", n_bar=1), 1),
    }


def test_criterion_9_ensemble_comparable_or_better(benchmark_ratios):
    t0 = time.perf_counter()
    failures = []
    ens = benchmark_ratios["ensemble"]
    single = benchmark_ratios["always_retrain_single"]
    print(f"  ensemble {ens:.4f} vs always-retrain single {single:.4f} "
          f"(margin {ens - single:+.4f}, need >= -0.02)")
    if ens < single - 0.02:
        failures.append((ens, single))
    _report(9, "ensemble >= always-retrain single - 2pp", t0, 180.0, failures)


def test_criterion_10_scheduling_is_crucial(benchmark_ratios):
    t0 = time.perf_counter()
    failures = []
    ens = benchmark_ratios["ensemble"]
    stale = benchmark_ratios["no_retrain"]
    print(f"  scheduled ensemble {ens:.4f} vs no-retrain {stale:.4f} "
          f"(margin {ens - stale:+.4f}, need >= +0.05)")
    if not (ens > stale and ens - stale >= 0.05):
        failures.append((ens, stale))
    _report(10, "scheduled strategy beats no-retrain by >= 5pp", t0, 180.0, failures)


def test_criterion_11_cmd_run_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    spec = {
        "missions": 4,
        "seed": 11,
        "synth": {"n_places": 8, "loop_length": 160.0, "images_per_place": 3,
                  "feature_dim": 16},
        "strategy": {"kind": "ST2", "n_bar": 1},
        "train": {"learning_rate": 0.5, "epochs": 8},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        code = cli_main(["run", "--spec", str(spec_path), "--out", str(out)])
        if code != 0:
            failures.append(("exit code", code))
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    if names1 != names2:
        failures.append(("file sets differ", names1, names2))
    for name in names1:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            failures.append(("bytes differ", name))
    _report(11, "cmd_run byte-identical under fixed seed", t0, 180.0, failures)
