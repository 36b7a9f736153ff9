"""Workload definitions for the season-loop benchmark.

Every workload uses fusion X = 10, a 20 m error threshold (one place
spacing) and, for travel-distance partitions, T_d = 18 m. Plain data only:
this module is imported by the input generator, which must not import the
package under test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Arm:
    """One scheduling configuration: ST1, or ST2 with target n_bar."""

    kind: str
    n_bar: int | None
    capacity: int


@dataclass(frozen=True)
class Workload:
    name: str
    n_datasets: int        # independent datasets, each with its own seed
    n_seasons: int         # n_seasons - 1 missions; the last season is test-only
    n_places: int
    images_per_place: int
    feature_dim: int
    loop_length: float
    noise: float
    partition: str         # "location" (UPD1) or "incremental" (UPD3)
    epochs: int
    arms: tuple[Arm, ...]
    learning_rate: float = 0.5
    season_drift: float = 0.8
    place_signal: float = 1.0
    pose_jitter: float = 0.25
    t_d: float = 18.0
    error: float = 20.0
    fusion_x: int = 10
    locate_calls: int = 1000
    # The locate calls cycle through the first locate_queries test images,
    # so each is asked locate_calls / locate_queries times per repetition.
    locate_queries: int = 100

    @property
    def images_per_season(self) -> int:
        return self.n_places * self.images_per_place


ENSEMBLE = Arm("ST2", 1, 4)

WORKLOADS = {
    # The acceptance comparison (criteria 9/10) at its own size: every matrix
    # is tiny, so per-call Python overhead in missions, classify and fusion
    # dominates. 10 datasets x 3 arms x 4 missions = 120 missions.
    "accept-sweep": Workload(
        name="accept-sweep", n_datasets=10, n_seasons=5, n_places=20,
        images_per_place=5, feature_dim=32, loop_length=400.0, noise=0.21,
        partition="location", epochs=60,
        arms=(ENSEMBLE, Arm("ST1", None, 1), Arm("ST2", 1, 1)),
    ),
    # BLAS-bound: training GEMMs and the 4096-d forward pass per query
    # dominate, and an 8 MB feature file per season dominates set-up. UPD1
    # gives K = 100. With 5 images per place the rank-1 ratio is ~0.11 at
    # noise 0.1 and ~0.42 at 0.05; noise 0.04 puts it near 0.58, well inside
    # (0, 1), so lost accuracy shows.
    "desk-4096-loc": Workload(
        name="desk-4096-loc", n_datasets=1, n_seasons=5, n_places=100,
        images_per_place=5, feature_dim=4096, loop_length=2000.0, noise=0.04,
        partition="location", epochs=10, arms=(ENSEMBLE,),
    ),
    # The large-class regime of unsupervised place definition: UPD3 makes
    # one class per image (K ~ 1000), so the per-query sort over K in
    # fusion.top_x and placedef's per-image keyframe scan dominate. Noise
    # >= 0.045 keeps K near N (0.03 collapses it to the 100 places); at 0.06
    # the rank-1 ratio is ~0.07, since 10 epochs barely fit singleton
    # classes; the exact per-seed check still guards it. Runnable by hand,
    # but not listed in BENCHMARK.json: on a shared 2-CPU host that slows
    # down for minutes at a time, its timings moved by up to 1.6x between
    # 35 s runs (vpc_qps quartiles 36% apart), past the largest bound.
    "desk-512-incr": Workload(
        name="desk-512-incr", n_datasets=1, n_seasons=3, n_places=100,
        images_per_place=10, feature_dim=512, loop_length=2000.0, noise=0.06,
        partition="incremental", epochs=10, arms=(ENSEMBLE,),
    ),
    # Tiny input for perfbench/smoke.py; not listed in BENCHMARK.json.
    "smoke": Workload(
        name="smoke", n_datasets=2, n_seasons=3, n_places=6,
        images_per_place=3, feature_dim=8, loop_length=120.0, noise=0.21,
        partition="location", epochs=3, arms=(ENSEMBLE, Arm("ST1", None, 1)),
        locate_calls=100,
    ),
}


def dataset_seed(workload_seed: int, k: int) -> int:
    """Training seed of dataset k under one workload seed."""
    return 1000 * workload_seed + k
