"""Seeded input generator for the season-loop benchmark.

Writes, per dataset, one pose CSV and one FVEC feature file per season plus
a JSON manifest, so the package under test receives only files. The model
mirrors the package's synthetic benchmark (a polygonal loop of places,
per-place signal, per-season drift, i.i.d. noise) but is implemented here
on purpose: the inputs must not move when the package changes.

    python3 perfbench/gen.py --workload desk-4096-loc --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import struct
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

FEATURE_HEADER = struct.Struct("<4sIII")  # magic, version, dim, count


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _waypoints(wl: Workload) -> np.ndarray:
    """(P, 3) x, y, heading of a regular polygon whose side is the spacing."""
    p = np.arange(wl.n_places)
    radius = (wl.loop_length / wl.n_places) / (2.0 * math.sin(math.pi / wl.n_places))
    ang = 2.0 * math.pi * p / wl.n_places
    x, y = radius * np.cos(ang), radius * np.sin(ang)
    heading = np.arctan2(np.roll(y, -1) - y, np.roll(x, -1) - x)
    return np.stack([x, y, heading], axis=1)


def write_dataset(out: Path, wl: Workload, workload_seed: int, k: int) -> Path:
    """Generate dataset k of a workload into `out`; return its manifest path."""
    out.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence([workload_seed, k])
    shared, *per_season = root.spawn(1 + wl.n_seasons)
    master = np.random.default_rng(shared)
    place_vecs = _unit_rows(master, wl.n_places, wl.feature_dim)
    season_vecs = _unit_rows(master, wl.n_seasons, wl.feature_dim)
    wp = np.repeat(_waypoints(wl), wl.images_per_place, axis=0)
    place_of = np.repeat(np.arange(wl.n_places), wl.images_per_place)
    n = wl.images_per_season
    entries = []
    for s, seq in enumerate(per_season):
        rng = np.random.default_rng(seq)
        dxy = rng.normal(0.0, wl.pose_jitter, size=(n, 2))
        dth = rng.normal(0.0, 0.1 * wl.pose_jitter, size=n)
        feats = (wl.place_signal * place_vecs[place_of]
                 + wl.season_drift * season_vecs[s]
                 + wl.noise * rng.standard_normal((n, wl.feature_dim)))
        poses = f"s{s + 1}.csv"
        fvec = f"s{s + 1}.fvec"
        rows = (f"{i * 1_000_000},{x!r},{y!r},{t!r}"
                for i, (x, y, t) in enumerate(zip((wp[:, 0] + dxy[:, 0]).tolist(),
                                                   (wp[:, 1] + dxy[:, 1]).tolist(),
                                                   (wp[:, 2] + dth).tolist())))
        (out / poses).write_text("\n".join(rows) + "\n")
        arr = np.ascontiguousarray(feats, dtype="<f4")
        (out / fvec).write_bytes(FEATURE_HEADER.pack(b"FVEC", 1, wl.feature_dim, n)
                                 + arr.tobytes())
        entries.append({"poses": poses, "features": fvec,
                        "label": f"season-{s + 1}", "season_id": s + 1})
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"feature_dim": wl.feature_dim, "seasons": entries}))
    return manifest


def write_workload(out: Path, wl: Workload, workload_seed: int) -> list[Path]:
    return [write_dataset(out / f"d{k}", wl, workload_seed, k) for k in range(wl.n_datasets)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    for path in write_workload(args.out, WORKLOADS[args.workload], args.seed):
        print(path)


if __name__ == "__main__":
    main()
