"""Command-line front end: run season-loop experiments end to end, partition
single datasets, and print/export schedule grids.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import report
from .classify import TrainConfig
from .core import TrainingSet
from .data import DataError, SynthConfig, load_bundle, load_manifest, synth_generate
from .missions import (
    MissionConfig,
    initial_state,
    queries_from_set,
    run_adaptation,
    run_vpc,
    save_state,
    success_ratio,
)
from .placedef import PartitionConfig, build_partition, incremental_margins
from .sched import Schedule, StrategyConfig, evolve_schedule

log = logging.getLogger("seasonvpc")

PROTOCOLS = ("next-season", "fixed-test")


class UsageError(Exception):
    """Bad flags, bad spec values, or inconsistent parameters."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one `run` needs: data source, mission config, protocol."""

    missions: int = 4
    seed: int = 0
    synth: SynthConfig | None = None
    manifest: str | None = None
    strategy: StrategyConfig = StrategyConfig(kind="ST2", n_bar=1)
    partition: PartitionConfig = PartitionConfig()
    train: TrainConfig = TrainConfig()
    fusion_x: int = 10
    capacity: int = 4
    error_thresholds: tuple[float, ...] = (10.0, 20.0)
    mode: str = "rank1"
    protocol: str = "next-season"

    def __post_init__(self) -> None:
        if self.missions < 1:
            raise UsageError("need at least one mission (two seasons)")
        if self.protocol not in PROTOCOLS:
            raise UsageError(f"unknown protocol {self.protocol!r}")


def _strategy_from_doc(doc: dict) -> StrategyConfig:
    try:
        return StrategyConfig(
            kind=doc.get("kind", "ST2"),
            n_bar=doc.get("n_bar"),
            k_bar=doc.get("k_bar"),
            st3_filter=doc.get("st3_filter", True),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def load_experiment_spec(path: str | None) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON file (or defaults when absent)."""
    if path is None:
        # built-in synthetic demo; the conservative TrainConfig defaults
        # underfit the demo's feature scale, so pick a stronger setting here
        return ExperimentSpec(synth=None, train=TrainConfig(learning_rate=0.5, epochs=60))
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        spec = ExperimentSpec(
            missions=int(doc.get("missions", 4)),
            seed=int(doc.get("seed", 0)),
            synth=SynthConfig(**doc["synth"]) if "synth" in doc else None,
            manifest=doc.get("manifest"),
            strategy=_strategy_from_doc(doc.get("strategy", {"kind": "ST2", "n_bar": 1})),
            partition=PartitionConfig(**doc.get("partition", {})),
            train=TrainConfig(**doc.get("train", {})),
            fusion_x=int(doc.get("fusion_x", 10)),
            capacity=int(doc.get("capacity", 4)),
            error_thresholds=tuple(doc.get("error_thresholds", (10.0, 20.0))),
            mode=doc.get("mode", "rank1"),
            protocol=doc.get("protocol", "next-season"),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad spec value: {exc}") from exc
    if spec.manifest is not None:
        # Manifest paths are relative to the spec file.
        spec = replace(spec, manifest=str((Path(path).parent / spec.manifest)))
    return spec


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    try:
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if args.strategy or args.nbar is not None or args.kbar is not None:
            kind = args.strategy or spec.strategy.kind
            n_bar = args.nbar if args.nbar is not None else spec.strategy.n_bar
            k_bar = args.kbar if args.kbar is not None else spec.strategy.k_bar
            spec = replace(
                spec,
                strategy=StrategyConfig(kind=kind, n_bar=n_bar, k_bar=k_bar,
                                        st3_filter=spec.strategy.st3_filter),
            )
        part = spec.partition
        if args.upd:
            part = replace(part, method=args.upd)
        if args.td is not None:
            part = replace(part, t_d=args.td)
        if part is not spec.partition:
            spec = replace(spec, partition=part)
        if args.x is not None:
            spec = replace(spec, fusion_x=args.x)
        if args.capacity is not None:
            spec = replace(spec, capacity=args.capacity)
        if args.error:
            spec = replace(spec, error_thresholds=tuple(args.error))
        if args.mode:
            spec = replace(spec, mode=args.mode)
        if args.protocol:
            spec = replace(spec, protocol=args.protocol)
        if args.missions is not None:
            spec = replace(spec, missions=args.missions)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return spec


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
    synth = spec.synth if spec.synth is not None else SynthConfig()
    synth = replace(synth, n_seasons=spec.missions + 1, seed=spec.seed)
    return synth_generate(synth)


def run_experiment(spec: ExperimentSpec, out_dir: Path) -> dict:
    """Execute missions 1..n, evaluate VPC per protocol, write all reports."""
    seasons = _load_seasons(spec)
    n_missions = min(spec.missions, len(seasons) - 1)
    if spec.strategy.kind == "ST3" and spec.strategy.k_bar > n_missions:
        raise UsageError(
            f"k_bar {spec.strategy.k_bar} exceeds the number of missions {n_missions}"
        )
    try:
        cfg = MissionConfig(
            strategy=spec.strategy,
            partition=spec.partition,
            train=replace(spec.train, seed=spec.seed),
            fusion_x=spec.fusion_x,
            capacity=spec.capacity,
            error_thresholds=spec.error_thresholds,
            success_mode=spec.mode,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    state = initial_state(cfg.capacity)
    rows: list[dict] = []
    series: dict[str, list[tuple[int, float]]] = {
        f"error={t:g}m": [] for t in cfg.error_thresholds
    }
    per_mission = []
    for i in range(1, n_missions + 1):
        state = run_adaptation(state, seasons[i - 1], cfg)
        test_set = seasons[i] if spec.protocol == "next-season" else seasons[-1]
        queries = queries_from_set(test_set)
        results = run_vpc(state, queries, cfg)
        ratios = {}
        for err in cfg.error_thresholds:
            ratio = success_ratio(results, queries, err, cfg.success_mode)
            ratios[f"{err:g}"] = ratio
            series[f"error={err:g}m"].append((i, ratio))
            rows.append(
                {
                    "mission": i,
                    "strategy": spec.strategy.label(),
                    "upd": spec.partition.method,
                    "error": err,
                    "mode": cfg.success_mode,
                    "success_ratio": ratio,
                }
            )
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
    report.write_text(out_dir / "results.csv", report.results_csv(rows))
    report.write_text(out_dir / "schedule.csv", report.schedule_csv(schedule))
    report.write_text(out_dir / "schedule.svg",
                      report.schedule_svg(schedule, title=spec.strategy.label()))
    report.write_text(
        out_dir / "success.svg",
        report.success_svg(series, title=f"{spec.strategy.label()} upd:{spec.partition.method}"),
    )
    save_state(state, out_dir / "state.svpc")
    summary = {
        "strategy": spec.strategy.label(),
        "upd": spec.partition.method,
        "protocol": spec.protocol,
        "mode": spec.mode,
        "seed": spec.seed,
        "missions": per_mission,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _load_single_dataset(args: argparse.Namespace) -> TrainingSet:
    if args.manifest:
        f_dim, bundles = load_manifest(args.manifest)
        wanted = args.season if args.season is not None else bundles[0].season_id
        for b in bundles:
            if b.season_id == wanted:
                return load_bundle(b, f_dim)
        raise DataError(f"{args.manifest}: no season {wanted}")
    synth = SynthConfig(seed=args.seed if args.seed is not None else 0)
    return synth_generate(synth)[0]


def cmd_run(args: argparse.Namespace) -> None:
    spec = _apply_overrides(load_experiment_spec(args.spec), args)
    summary = run_experiment(spec, Path(args.out))
    print(f"wrote reports for {len(summary['missions'])} missions to {args.out}")


def cmd_placedef(args: argparse.Namespace) -> None:
    train = _load_single_dataset(args)
    try:
        cfg = PartitionConfig(
            method=args.upd,
            t_d=args.td if args.td is not None else 18.0,
            k=args.k,
            seed=args.seed if args.seed is not None else 0,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    partition = build_partition(train, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_text(out_dir / "partition.csv", report.partition_csv(partition))
    report.write_text(out_dir / "partition.svg", report.partition_svg(train, partition))
    if cfg.method == "incremental":
        rows = incremental_margins(train, partition)
        report.write_text(out_dir / "insertions.csv", report.margins_csv(rows))
    print(f"{len(partition.classes)} place classes over {len(train)} images "
          f"({cfg.method}) -> {out_dir}")


def cmd_schedule(args: argparse.Namespace) -> None:
    try:
        strategy = StrategyConfig(kind=args.strategy or "ST1", n_bar=args.nbar, k_bar=args.kbar)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    missions = args.missions if args.missions is not None else 4
    capacity = args.capacity if args.capacity is not None else 4
    if missions < 1:
        raise UsageError("need at least one mission")
    if strategy.kind == "ST3" and strategy.k_bar > missions:
        raise UsageError(f"k_bar {strategy.k_bar} exceeds the number of missions {missions}")
    schedule = evolve_schedule(strategy, missions, capacity)
    print(strategy.label())
    print(report.schedule_text(schedule))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_text(out_dir / "schedule.csv", report.schedule_csv(schedule))
        report.write_text(out_dir / "schedule.svg",
                          report.schedule_svg(schedule, title=strategy.label()))


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
  state.svpc     checksummed binary ensemble state (models + class metadata)

written by `placedef`:
  partition.csv  image_id,class_id
  partition.svg  trajectory overlay colored by place class
  insertions.csv image_id,class_id,pos_dist,ang_diff,feat_dist (incremental only)

exit codes: 0 success, 1 usage error, 2 data error, 3 internal error
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seasonvpc",
                     description="Season-loop ensemble place-classifier experiments",
                     epilog=_REPORT_DOC,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a full multi-season experiment")
    run_p.add_argument("--spec", help="experiment spec JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--missions", type=int)
    run_p.add_argument("--strategy", choices=("ST1", "ST2", "ST3"))
    run_p.add_argument("--nbar", type=int)
    run_p.add_argument("--kbar", type=int)
    run_p.add_argument("--upd", choices=("location", "location-appearance", "incremental"))
    run_p.add_argument("--td", type=float)
    run_p.add_argument("--x", type=int, help="fusion list length")
    run_p.add_argument("--capacity", type=int)
    run_p.add_argument("--error", type=float, nargs="+", help="error thresholds in meters")
    run_p.add_argument("--mode", choices=("rank1", "topx"))
    run_p.add_argument("--protocol", choices=PROTOCOLS)
    run_p.set_defaults(func=cmd_run)

    pd_p = sub.add_parser("placedef", help="partition one season into place classes")
    pd_p.add_argument("--manifest", help="dataset manifest JSON (default: synthetic demo)")
    pd_p.add_argument("--season", type=int, help="season id within the manifest")
    pd_p.add_argument("--upd", default="location",
                      choices=("location", "location-appearance", "incremental"))
    pd_p.add_argument("--td", type=float)
    pd_p.add_argument("--k", type=int)
    pd_p.add_argument("--seed", type=int)
    pd_p.add_argument("--out", required=True)
    pd_p.set_defaults(func=cmd_placedef)

    sc_p = sub.add_parser("schedule", help="print/export a retraining schedule grid")
    sc_p.add_argument("--strategy", choices=("ST1", "ST2", "ST3"), required=True)
    sc_p.add_argument("--nbar", type=int)
    sc_p.add_argument("--kbar", type=int)
    sc_p.add_argument("--missions", type=int)
    sc_p.add_argument("--capacity", type=int)
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
