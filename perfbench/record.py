"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py --workload desk-4096-loc --seeds 0-19

For each seed, runs the season loop once and stores its success_rank1 and
the SHA-256 digests of the fused rankings and of every saved state in
perfbench/reference.json. Re-record only when a change to the package is
meant to change outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil

import run  # pins BLAS threads before numpy loads
import loop
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=seed_range, required=True, help="N or LO-HI")
    args = ap.parse_args()
    wl = dataclasses.replace(WORKLOADS[args.workload], locate_calls=1)
    v = run.import_package()
    path = run.HERE / "reference.json"
    for seed in args.seeds:
        workdir = run.ROOT / ".perfbench_work" / f"record-{wl.name}-{seed}"
        try:
            manifests = run.generate(wl, seed, workdir / "data")
            plain = loop.plain_lib(v)
            datasets = loop.load_datasets(plain, manifests)
            final = loop.final_ensemble(v, plain, wl, datasets, seed)
            rep = loop.run_rep(v, plain, wl, datasets, seed, workdir, final)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if rep.ops.failed:
            raise SystemExit(f"seed {seed}: {rep.ops.failed} operations failed")
        entry = {"success_rank1": rep.success_rank1, "rankings_sha256": rep.rankings_sha256,
                 "state_sha256": rep.state_sha256}
        refs = json.loads(path.read_text())
        refs.setdefault(wl.name, {})[str(seed)] = entry
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(wl.name, seed, entry, flush=True)


if __name__ == "__main__":
    main()
