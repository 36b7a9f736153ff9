"""Season-loop benchmark for seasonvpc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates its inputs
from --seed (perfbench/gen.py, in a child process), times set-up in fresh
child interpreters (perfbench/setup_child.py) spread over the run, and
repeats the whole season loop while another repetition fits in --seconds,
at least MIN_REPS times. Every mission calls run_adaptation, run_vpc,
success_ratio, save_state and load_state. Between its missions each
repetition runs the locate calls: a closed loop with one client that sends
one run_vpc call at a time to the final ensemble, built once before timing
starts.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, derived from spans
recorded around the package's functions (perfbench/spans.py) and written to
.perfbench_out/. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
provenance, operation counts, digests and the correctness gate.
"""

from __future__ import annotations

import os

# Fixed BLAS/OpenMP thread count, set before numpy loads anywhere (child
# processes inherit it). One thread keeps the figures steady on a shared
# 2-CPU machine; the small minibatch GEMMs gain little from a second one.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import loop  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "adapt_s": "s",
    "vpc_qps": "queries/s",
    "locate_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# Printed with every untraced result, but kept out of the bounded metrics.
# success_rank1 is deterministic per seed and the gate requires it to equal
# its recorded reference exactly (a stricter guard than a bound); its spread
# across seeds is data variance. failed_frac is 0 when all is well. The
# p99 of 1000 sub-millisecond calls moves with the host's slow spells by
# more than the largest bound allowed.
UNBOUNDED_UNITS = {"locate_ms_p99": "ms", "success_rank1": "ratio", "failed_frac": "ratio"}

PER_LAYER_UNITS = {
    "data.load_bundle_s": "s",
    "data.bytes_read": "bytes",
    "placedef.build_partition_s": "s",
    "placedef.classes": "count",
    "placedef.singleton_frac": "ratio",
    "classify.train_s": "s",
    "classify.fine_tune_s": "s",
    "classify.sgd_steps": "count",
    "classify.train_gflop": "GFLOP",
    "classify.predict_s": "s",
    "classify.predict_calls": "count",
    "classify.predict_gflop": "GFLOP",
    "fusion.top_x_s": "s",
    "fusion.top_x_calls": "count",
    "fusion.fuse_s": "s",
    "sched.next_schedule_s": "s",
    "core.membership_labels_s": "s",
    "missions.adapt_self_s": "s",
    "missions.vpc_self_s": "s",
    "missions.save_state_s": "s",
    "missions.load_state_s": "s",
    "missions.state_bytes": "bytes",
    "missions.success_ratio_s": "s",
    "trace.overhead_s": "s",
}

# Counts derived from shapes, configs, file sizes and returned partitions
# rather than measured.
COMPUTED = ["data.bytes_read", "placedef.classes", "placedef.singleton_frac",
            "classify.sgd_steps", "classify.train_gflop", "classify.predict_gflop",
            "missions.state_bytes"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def generate(wl: Workload, seed: int, out: Path) -> list[Path]:
    stdout = run_child([str(HERE / "gen.py"), "--workload", wl.name, "--seed", str(seed),
                        "--out", str(out)])
    return [Path(line) for line in stdout.split()]


def measure_setup(manifests: list[Path]) -> float:
    """One set-up in a fresh child interpreter."""
    line = run_child([str(HERE / "setup_child.py"), str(SRC), *map(str, manifests)])
    doc = json.loads(line.strip().splitlines()[-1])
    if not Path(doc["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"set-up imported {doc['module']}, not the checkout's package")
    return doc["setup_s"]


def import_package():
    sys.path.insert(0, str(SRC))
    import seasonvpc

    if not Path(seasonvpc.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported {seasonvpc.__file__}, not the checkout's package")
    return seasonvpc


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "workload_seed": seed,
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: q = 0.99 of 1000 samples leaves 10 above."""
    idx = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def best_total(reps: list[loop.Rep], field: str) -> float:
    """Sum over the loop's missions of each mission's best time across the
    repetitions. Every repetition runs the same missions on the same
    inputs. A shared 2-CPU host can alternate between a fast mode and one
    up to ~1.9x slower for seconds to minutes at a time; a mean or median
    over a run moves with the share of slow time, while a mission's best
    time, taken from samples spread over the run, stays steadier."""
    per_rep = [getattr(r, field) for r in reps]
    return math.fsum(min(times) for times in zip(*per_rep))


def end_to_end(reps: list[loop.Rep], setup_times: list[float]) -> dict:
    """run_s, adapt_s and vpc_qps use best_total; setup_s is the median of
    its child runs. Every repetition makes the same locate calls, spread
    over its missions, cycling through the same test images. In the same
    spirit as best_total, locate_ms_p50 is the median over those images of
    each one's best latency over all its calls in all repetitions, which
    keeps it steady even when most of a run falls in a slow spell of the
    host; locate_ms_p99, which needs more samples, is taken over the call
    positions, each at its best over the repetitions. Values stay finite
    when operations failed (the result is then marked incorrect), so the
    output remains valid JSON."""
    n_queries = reps[0].locate_queries
    best_calls = [min(times) for times in zip(*(r.locate_ms for r in reps))]
    best_queries = [min(best_calls[q::n_queries]) for q in range(n_queries)]

    def best_percentile(values: list[float], q: float) -> float:
        finite = sorted(t for t in values if math.isfinite(t))
        return percentile(finite, q) if finite else 0.0

    vpc_s = best_total(reps, "vpc_s")
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": best_total(reps, "run_s"),
        "adapt_s": best_total(reps, "adapt_s"),
        "vpc_qps": reps[0].vpc_queries / vpc_s if vpc_s else 0.0,
        "locate_ms_p50": best_percentile(best_queries, 0.50),
        "locate_ms_p99": best_percentile(best_calls, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rep_spans: list[tuple], rep: loop.Rep) -> tuple[dict, float]:
    """Per-layer metrics of one traced repetition, and the share of its
    run_s that the loop's top-level spans cover."""
    agg = spans.summarize(rep_spans)

    def get(name: str, key: str = "time") -> float:
        return agg[name][key] if name in agg else 0.0

    classes = get("placedef.build_partition", "classes")
    covered = sum(end - start for _s, parent, trace, _r, name, start, end, _c in rep_spans
                  if parent is None and trace.startswith("mission"))
    metrics = {
        "data.load_bundle_s": get("data.load_bundle"),
        "data.bytes_read": get("data.load_bundle", "bytes") + get("data.load_manifest", "bytes"),
        "placedef.build_partition_s": get("placedef.build_partition"),
        "placedef.classes": classes,
        "placedef.singleton_frac": (get("placedef.build_partition", "singletons") / classes
                                    if classes else 0.0),
        "classify.train_s": get("classify.train"),
        "classify.fine_tune_s": get("classify.fine_tune"),
        "classify.sgd_steps": (get("classify.train", "sgd_steps")
                               + get("classify.fine_tune", "sgd_steps")),
        "classify.train_gflop": get("classify.train", "gflop") + get("classify.fine_tune", "gflop"),
        "classify.predict_s": get("classify.predict"),
        "classify.predict_calls": get("classify.predict", "calls"),
        "classify.predict_gflop": get("classify.predict", "gflop"),
        "fusion.top_x_s": get("fusion.top_x"),
        "fusion.top_x_calls": get("fusion.top_x", "calls"),
        "fusion.fuse_s": get("fusion.fuse"),
        "sched.next_schedule_s": get("sched.next_schedule"),
        "core.membership_labels_s": get("core.membership_labels"),
        "missions.adapt_self_s": get("missions.run_adaptation", "self"),
        "missions.vpc_self_s": get("missions.run_vpc", "self"),
        "missions.save_state_s": get("missions.save_state"),
        "missions.load_state_s": get("missions.load_state"),
        "missions.state_bytes": get("missions.save_state", "bytes"),
        "missions.success_ratio_s": get("missions.success_ratio"),
    }
    run_s = sum(rep.run_s)
    return metrics, covered / run_s if run_s else 0.0


def gate(wl: Workload, seed: int, reps: list[loop.Rep]) -> dict:
    """Correctness checks; `digest_changed` is reported, not failed on."""
    first = reps[0]
    ref = json.loads((HERE / "reference.json").read_text()).get(wl.name, {}).get(str(seed))
    out = {
        "states_equal_after_every_save": all(r.states_equal for r in reps),
        "repetitions_agree": all(
            (r.ratios, r.rankings_sha256, r.state_sha256)
            == (first.ratios, first.rankings_sha256, first.state_sha256) for r in reps),
        "locate_matches_batch": all(r.locate_matches_batch for r in reps),
        "reference": "recorded" if ref else "not recorded for this seed",
        "success_rank1_matches_reference": ref is None
        or ref["success_rank1"] == first.success_rank1,
        "digest_changed": ref is not None and (
            ref["rankings_sha256"], ref["state_sha256"]
        ) != (first.rankings_sha256, first.state_sha256),
    }
    out["passed"] = all(out[k] for k in ("states_equal_after_every_save", "repetitions_agree",
                                         "locate_matches_batch",
                                         "success_rank1_matches_reference"))
    return out


def measure(v, wl: Workload, seed: int, seconds: float, trace: bool, manifests: list[Path],
            workdir: Path, setup_times: list[float]) -> tuple[list, list, spans.Tracer | None]:
    """Repeat the loop while another repetition fits in `seconds`, at least
    MIN_REPS times (in trace mode: untraced and traced repetitions alternate).
    One set-up is timed after each repetition, so that the set-up samples
    spread over the run as the loop's do, and more at the end until there
    are SETUP_REPEATS."""
    plain = loop.plain_lib(v)
    datasets = loop.load_datasets(plain, manifests)
    final = loop.final_ensemble(v, plain, wl, datasets, seed)
    tracer = spans.Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(loop.run_rep(v, plain, wl, datasets, seed, workdir, final))
        if trace:
            tracer.rep += 1
            lib = loop.traced_lib(v, tracer)
            datasets = loop.load_datasets(lib, manifests, tracer)
            with tracer.patched(v.missions):
                traced.append(loop.run_rep(v, lib, wl, datasets, seed, workdir, final,
                                           tracer))
        setup_times.append(measure_setup(manifests))
        now = time.perf_counter()
        if len(untraced) >= MIN_REPS and now - start + (now - t0) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(manifests))
    return untraced, traced, tracer


def main() -> int:
    ap = argparse.ArgumentParser(description="seasonvpc season-loop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    if not (SRC / "seasonvpc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        manifests = generate(wl, args.seed, workdir / "data")
        setup_times = [measure_setup(manifests)]
        v = import_package()
        import numpy as np

        untraced, traced, tracer = measure(v, wl, args.seed, args.seconds, bool(args.trace),
                                           manifests, workdir, setup_times)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    reps = untraced + traced
    ops = loop.Ops()
    for r in reps:
        ops.add(r.ops)
    checks = gate(wl, args.seed, reps)
    details = {
        "workload": wl.name,
        "trace": args.trace,
        "provenance": provenance(np, args.seed),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "locate_calls_per_repetition": wl.locate_calls,
        "locate_queries": untraced[0].locate_queries,
        "setup_samples_s": setup_times,
        "ops": {"missions": ops.missions, "batch_queries": ops.queries, "locate": ops.locate},
        "failed_frac": ops.failed / ops.attempted,
        "success_rank1": untraced[0].success_rank1,
        "rankings_sha256": untraced[0].rankings_sha256,
        "state_sha256": untraced[0].state_sha256,
        "gate": checks,
    }
    if args.trace:
        layer_runs, coverage = [], []
        for i, rep in enumerate(traced, start=1):
            m, cov = per_layer([s for s in tracer.spans if s[3] == i], rep)
            layer_runs.append(m)
            coverage.append(cov)
        # Best traced repetition per metric, as for the end-to-end timings;
        # the counts are the same in every repetition.
        metrics = {name: min(m[name] for m in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead_s"] = (best_total(traced, "run_s")
                                       - best_total(untraced, "run_s"))
        units = PER_LAYER_UNITS
        details["trace_coverage_of_run_s"] = coverage
        details["computed"] = COMPUTED
        span_file = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        details["spans_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = end_to_end(untraced, setup_times)
        details["locate_ms_p99"] = metrics.pop("locate_ms_p99")
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    if not args.trace:
        for name, unit in UNBOUNDED_UNITS.items():
            print(f"{name:32s} {details[name]:16.6f} {unit}")
        n_queries = untraced[0].locate_queries
        print(f"locate_ms_p50 over {n_queries} queries, each at its best of at least "
              f"{wl.locate_calls // n_queries * len(untraced)} calls; locate_ms_p99 over "
              f"{wl.locate_calls} call positions, each at its best of {len(untraced)} "
              f"repetitions")
    print(json.dumps(details))
    print(json.dumps({
        "correct": checks["passed"] and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
