"""Command-line front end: run season-loop experiments end to end, partition
single datasets, and print/export schedule grids.

Exit codes: 0 success, 1 usage error or diverged training, 2 data or file error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import report
from .classify import DivergenceError, TrainConfig
from .core import MAX_SEED, TrainingSet, require_integers
from .data import DataError, SynthConfig, load_bundle, load_manifest, read_json, synth_generate
from .missions import (SUCCESS_MODES, MissionConfig, StateFormatError, _slot_seed, initial_state,
                       run_season)
from .placedef import PARTITION_METHODS, PartitionConfig, build_partition, incremental_margins
from .sched import STRATEGY_KINDS, Schedule, StrategyConfig, evolve_schedule

log = logging.getLogger("seasonvpc")

PROTOCOLS = ("next-season", "fixed-test")


class UsageError(Exception):
    """Bad flags, bad spec values, or inconsistent parameters."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a subcommand needs beyond its MissionConfig: how many missions,
    the data source, the protocol, and the one seed of synthesis, k-means and training."""

    mission: MissionConfig
    missions: int = 4
    seed: int = 0
    synth: SynthConfig = SynthConfig()
    manifest: str | None = None
    protocol: str = "next-season"

    def __post_init__(self) -> None:
        require_integers(self, "missions")
        if self.missions < 1:
            raise ValueError("need at least one mission (two seasons)")
        if self.manifest is not None and not isinstance(self.manifest, str):
            raise TypeError(f"manifest must be a path string, got {self.manifest!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")


# Without --spec, `run` uses this document: the TrainConfig defaults underfit
# the synthetic demo's feature scale, so it trains harder.
_DEMO_SPEC = {"train": {"learning_rate": 0.5, "epochs": 60}}
_SECTIONS = ("strategy", "partition", "train", "synth")
_DEFAULT_STRATEGY = {"kind": "ST2", "n_bar": 1}  # a strategy section overrides its keys
# Top-level spec keys passed to MissionConfig, by its field names.
_MISSION_KEYS = {"fusion_x": "fusion_x", "capacity": "capacity",
                 "error_thresholds": "error_thresholds", "mode": "success_mode"}
# Each subcommand flag and the spec key it overrides: (section, key), None the top level.
_FLAGS = {"seed": (None, "seed"), "missions": (None, "missions"),
          "strategy": ("strategy", "kind"), "nbar": ("strategy", "n_bar"),
          "kbar": ("strategy", "k_bar"), "upd": ("partition", "method"),
          "td": ("partition", "t_d"), "k": ("partition", "k"), "x": (None, "fusion_x"),
          "capacity": (None, "capacity"), "error": (None, "error_thresholds"),
          "mode": (None, "mode"), "protocol": (None, "protocol"),
          "manifest": (None, "manifest")}


def _build_spec(doc, args: argparse.Namespace | None = None, where: str = "flags",
               base: Path | None = None) -> ExperimentSpec:
    """The one ExperimentSpec for a spec document with `args`' flags written
    over it. Every bad value is a UsageError; a relative manifest path in the
    document is resolved against `base`."""
    if not isinstance(doc, dict):
        raise UsageError(f"{where}: a spec must be a JSON object")
    doc = dict(doc)
    for name in _SECTIONS:
        if not isinstance(doc.get(name, {}), dict):
            raise UsageError(f"{where}: {name} must be a JSON object")
        doc[name] = dict(doc.get(name, {}))
    doc["strategy"] = {**_DEFAULT_STRATEGY, **doc["strategy"]}
    if base is not None and isinstance(doc.get("manifest"), str):
        doc["manifest"] = str(base / doc["manifest"])
    for flag, (section, key) in _FLAGS.items():
        if getattr(args, flag, None) is not None:
            (doc[section] if section else doc)[key] = getattr(args, flag)
    for section, key in (("partition", "seed"), ("train", "seed"), ("synth", "seed"),
                         ("synth", "n_seasons")):
        if key in doc[section]:
            raise UsageError(f"{where}: {section}.{key} is not a spec key: the top-level "
                             "seed and missions set the seeds and the season count")
    sections = {name: doc.pop(name) for name in _SECTIONS}
    seed = doc.get("seed", ExperimentSpec.seed)
    if isinstance(seed, int) and seed < 0:  # each config below would name its own fields
        raise UsageError(f"{where}: seed must be >= 0, got {seed}")
    try:
        mission = MissionConfig(
            strategy=StrategyConfig(**sections["strategy"]),
            partition=PartitionConfig(**sections["partition"], seed=seed),
            train=TrainConfig(**sections["train"], seed=seed),
            **{field: doc.pop(key) for key, field in _MISSION_KEYS.items() if key in doc},
        )
        return ExperimentSpec(mission, synth=SynthConfig(**sections["synth"], seed=seed), **doc)
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
        raise UsageError(f"{where}: bad config value: {exc}") from exc


def load_experiment_spec(path: str | None, args: argparse.Namespace | None = None
                         ) -> ExperimentSpec:
    """Build the ExperimentSpec of a spec file (the demo spec when `path` is
    None) with `args`' flags applied on top."""
    if path is None:
        return _build_spec(_DEMO_SPEC, args)
    return _build_spec(read_json(path, "spec file"), args, path, Path(path).parent)


def _check_kbar(strategy: StrategyConfig, n_missions: int) -> None:
    if strategy.kind == "ST3" and strategy.k_bar > n_missions:
        raise UsageError(f"k_bar {strategy.k_bar} exceeds the number of missions {n_missions}")


def _check_partition(partition: PartitionConfig, seasons) -> None:
    """Refuse the seasons `partition` cannot split: k-means needs at least k
    images in each, and incremental clustering compares L2-normalized
    features, which an all-zero row does not have."""
    n = min(len(s) for s in seasons)
    if partition.method == "location-appearance" and partition.k is not None and partition.k > n:
        raise UsageError(f"partition k={partition.k} exceeds the {n} images of a season")
    if partition.method == "incremental":
        for season in seasons:
            nonzero = season.features.any(axis=1)
            if not nonzero.all():
                raise DataError(f"season {season.season_id}: feature row {int(nonzero.argmin())} "
                                "is all zero; incremental place definition needs a non-zero "
                                "feature vector in every row")


def _load_seasons(spec: ExperimentSpec) -> list[TrainingSet]:
    """Training seasons 1..missions plus one extra season used as test data."""
    if spec.manifest is not None:
        f_dim, bundles = load_manifest(spec.manifest)
        seasons = [load_bundle(b, f_dim) for b in bundles]
        if len(seasons) < 2:
            raise DataError(f"{spec.manifest}: cross-season runs need at least two seasons")
        if [t.season_id for t in seasons] != list(range(1, len(seasons) + 1)):
            raise DataError(f"{spec.manifest}: season_ids must be contiguous starting at 1")
        return seasons
    try:
        return synth_generate(replace(spec.synth, n_seasons=spec.missions + 1))
    except ValueError as exc:
        raise UsageError(f"synth: {exc}: loop_length and pose_jitter must keep the poses "
                         "finite, and place_signal, season_drift and noise the features within "
                         "float32") from exc


def run_experiment(spec: ExperimentSpec, out_dir: Path) -> dict:
    """Execute missions 1..n, evaluate VPC per protocol, write all reports."""
    cfg, label = spec.mission, spec.mission.strategy.label()
    seasons = _load_seasons(spec)
    n_missions = min(spec.missions, len(seasons) - 1)
    _check_kbar(cfg.strategy, n_missions)
    _check_partition(cfg.partition, seasons[:n_missions])
    largest = _slot_seed(cfg.train, n_missions, cfg.capacity - 1)
    if largest > MAX_SEED:  # a state file could not store that slot's seed
        raise UsageError(f"seed {spec.seed} is too large: {n_missions} missions at capacity "
                         f"{cfg.capacity} allow seeds up to {MAX_SEED - largest + spec.seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    state = initial_state(cfg.capacity)
    rows: list[dict] = []
    per_mission = []
    for i in range(1, n_missions + 1):
        test_set = seasons[i] if spec.protocol == "next-season" else seasons[-1]
        state, _, by_error = run_season(state, seasons[i - 1], test_set, cfg,
                                        out_dir / "state.svpc")
        rows += [{"mission": i, "strategy": label, "upd": cfg.partition.method, "error": err,
                  "mode": cfg.success_mode, "success_ratio": by_error[err]}
                 for err in cfg.error_thresholds]
        ratios = {report.threshold_label(err): ratio for err, ratio in by_error.items()}
        per_mission.append(
            {
                "mission": i,
                "train_label": seasons[i - 1].label,
                "test_label": test_set.label,
                "n_classifiers": len(state.classifiers),
                "histories": [c.history.as_string() for c in state.classifiers],
                "success": ratios,
            }
        )
        log.info("mission %d: %s", i, " ".join(f"{k}m={v:.3f}" for k, v in ratios.items()))
    schedule = Schedule(tuple(c.history for c in state.classifiers))
    (out_dir / "results.csv").write_text(report.results_csv(rows))
    (out_dir / "schedule.csv").write_text(report.schedule_csv(schedule))
    (out_dir / "schedule.svg").write_text(report.schedule_svg(schedule, title=label))
    (out_dir / "success.svg").write_text(
        report.success_svg(rows, title=f"{label} upd:{cfg.partition.method}"))
    summary = {
        "strategy": label,
        "upd": cfg.partition.method,
        "protocol": spec.protocol,
        "mode": cfg.success_mode,
        "seed": spec.seed,
        "missions": per_mission,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def cmd_run(args: argparse.Namespace) -> None:
    summary = run_experiment(load_experiment_spec(args.spec, args), Path(args.out))
    print(f"wrote reports for {len(summary['missions'])} missions to {args.out}")


def cmd_placedef(args: argparse.Namespace) -> None:
    spec = _build_spec({}, args)
    cfg = spec.mission.partition
    if args.season is not None and spec.manifest is None:
        raise UsageError("--season picks a season of --manifest, which is not given")
    if spec.manifest is not None:
        f_dim, bundles = load_manifest(spec.manifest)
        wanted = args.season if args.season is not None else bundles[0].season_id
        matches = [b for b in bundles if b.season_id == wanted]
        if not matches:
            raise DataError(f"{spec.manifest}: no season {wanted}")
        train = load_bundle(matches[0], f_dim)
    else:
        train = synth_generate(spec.synth)[0]
    _check_partition(cfg, [train])
    partition = build_partition(train, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "partition.csv").write_text(report.partition_csv(partition))
    (out_dir / "partition.svg").write_text(report.partition_svg(train, partition))
    if cfg.method == "incremental":
        rows = incremental_margins(train, partition)
        (out_dir / "insertions.csv").write_text(report.margins_csv(rows))
    print(f"{len(partition.classes)} place classes over {len(train)} images "
          f"({cfg.method}) -> {out_dir}")


def cmd_schedule(args: argparse.Namespace) -> None:
    spec = _build_spec({}, args)
    strategy = spec.mission.strategy
    _check_kbar(strategy, spec.missions)
    schedule = evolve_schedule(strategy, spec.missions, spec.mission.capacity)
    print(strategy.label())
    print(report.schedule_text(schedule))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "schedule.csv").write_text(report.schedule_csv(schedule))
        (out_dir / "schedule.svg").write_text(report.schedule_svg(schedule, title=strategy.label()))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


_REPORT_DOC = """\
report files written by `run`:
  results.csv    mission,strategy,upd,error,mode,success_ratio
  schedule.csv   slot,history               (one bit string per ensemble slot)
  schedule.svg   colored fine-tuning grid   (rows: slots, columns: seasons)
  success.svg    success ratio vs mission id, one curve per error threshold
  summary.json   configuration echo plus per-mission metrics
  state.svpc     checksummed binary ensemble state (models + class metadata),
                 rewritten after every mission: a run that fails keeps the
                 last finished mission's state and writes no other report

written by `placedef`:
  partition.csv  image_id,class_id
  partition.svg  trajectory overlay colored by place class
  insertions.csv image_id,class_id,pos_dist,ang_diff,feat_dist (incremental only)

exit codes: 0 success, 1 usage error or diverged training, 2 data error or a file that
            cannot be read or written (e.g. --out naming a file), 3 internal error
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seasonvpc",
                     description="Season-loop ensemble place-classifier experiments",
                     epilog=_REPORT_DOC,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    # The flags two subcommands share, each declared once.
    place_flags = argparse.ArgumentParser(add_help=False)
    place_flags.add_argument("--seed", type=int)
    place_flags.add_argument("--upd", choices=PARTITION_METHODS)
    place_flags.add_argument("--td", type=float)
    schedule_flags = argparse.ArgumentParser(add_help=False)
    schedule_flags.add_argument("--strategy", choices=STRATEGY_KINDS)
    schedule_flags.add_argument("--nbar", type=int)
    schedule_flags.add_argument("--kbar", type=int)
    schedule_flags.add_argument("--missions", type=int)
    schedule_flags.add_argument("--capacity", type=int)

    run_p = sub.add_parser("run", help="run a full multi-season experiment",
                           parents=[place_flags, schedule_flags])
    run_p.add_argument("--spec", help="experiment spec JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--x", type=int, help="fusion list length")
    run_p.add_argument("--error", type=float, nargs="+", help="error thresholds in meters")
    run_p.add_argument("--mode", choices=SUCCESS_MODES)
    run_p.add_argument("--protocol", choices=PROTOCOLS)
    run_p.set_defaults(func=cmd_run)

    pd_p = sub.add_parser("placedef", help="partition one season into place classes",
                          parents=[place_flags])
    pd_p.add_argument("--manifest", help="dataset manifest JSON (default: synthetic demo)")
    pd_p.add_argument("--season", type=int, help="season id within --manifest, which it needs")
    pd_p.add_argument("--k", type=int)
    pd_p.add_argument("--out", required=True)
    pd_p.set_defaults(func=cmd_placedef)

    sc_p = sub.add_parser("schedule", help="print/export a retraining schedule grid",
                          parents=[schedule_flags])
    sc_p.add_argument("--out")
    sc_p.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        args.func(args)
        return 0
    except (UsageError, DivergenceError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, StateFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program itself
        log.exception("internal error")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
