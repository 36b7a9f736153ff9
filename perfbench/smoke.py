"""Smoke test of the benchmark itself on the tiny `smoke` workload.

    python3 perfbench/smoke.py

Checks that an untraced run emits every end-to-end metric of BENCHMARK.json
and prints locate_ms_p99, success_rank1 and failed_frac, and that a traced
run emits every per-layer metric, each with the unit listed there;
that the correctness gate passes against the recorded reference with no
failed operation; that the traced run's top-level spans cover its run_s;
and that a directory holding only BENCHMARK.json and perfbench/ makes the
benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, trace: int) -> list[str]:
    proc = bench(ROOT, trace)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"trace {trace}: correct={result['correct']} failed={result['failed']} "
                      f"gate={details['gate']}")
    if details["gate"]["reference"] != "recorded" or details["gate"]["digest_changed"]:
        errors.append(f"trace {trace}: reference check {details['gate']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"trace {trace}: metrics {got} != {wanted}")
    printed = " ".join(lines[:-2])
    unbounded = () if trace else ("locate_ms_p99", "success_rank1", "failed_frac")
    errors += [f"{name} not printed" for name in unbounded if name not in printed]
    if trace and min(details["trace_coverage_of_run_s"]) < 0.9:
        errors.append(f"spans cover too little of run_s: {details['trace_coverage_of_run_s']}")
    return errors


def check_without_source() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_run(spec, 0) + check_run(spec, 1) + check_without_source()
    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
