import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seasonvpc import DivergenceError, load_state, missions, states_equal
from seasonvpc.cli import main
from seasonvpc.placedef import PARTITION_METHODS


def _spec_file(tmp_path, **overrides):
    doc = {
        "missions": 4,
        "seed": 0,
        "synth": {
            "n_places": 8,
            "loop_length": 160.0,
            "images_per_place": 3,
            "feature_dim": 16,
            "season_drift": 0.6,
            "noise": 0.2,
        },
        "strategy": {"kind": "ST2", "n_bar": 1},
        "train": {"learning_rate": 0.5, "epochs": 8},
        "error_thresholds": [10.0, 20.0],
    }
    doc.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def _read_all(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_run_writes_reports_with_expected_row_count(tmp_path, capsys):
    spec = _spec_file(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "mission,strategy,upd,error,mode,success_ratio"
    assert len(results) - 1 == 4 * 2  # missions x thresholds
    for name in ("schedule.csv", "schedule.svg", "success.svg", "summary.json", "state.svpc"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["strategy"] == "ST2(nbar=1)"
    assert [m["histories"] for m in summary["missions"]][-1] == \
        ["1000", "0100", "0010", "0001"]


def test_run_missing_manifest_exits_2_and_names_path(tmp_path, capsys):
    spec = _spec_file(tmp_path, manifest="missing_manifest.json")
    del_spec = json.loads(spec.read_text())
    del del_spec["synth"]
    spec.write_text(json.dumps(del_spec))
    code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "missing_manifest.json" in capsys.readouterr().err


def test_run_deterministic_outputs(tmp_path):
    spec = _spec_file(tmp_path, missions=2)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--spec", str(spec), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["run", "--spec", str(spec), "--out", str(out2), "--seed", "7"]) == 0
    assert _read_all(out1) == _read_all(out2)


def test_run_flag_overrides_reach_report(tmp_path):
    spec = _spec_file(tmp_path, missions=2)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out),
                 "--strategy", "ST1", "--error", "15", "--mode", "topx"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) - 1 == 2
    assert all(",ST1,location,15," in line for line in lines[1:])
    assert all(line.split(",")[4] == "topx" for line in lines[1:])


def test_run_on_a_one_place_loop_places_every_query(tmp_path):
    # one place is one waypoint, not a polygon: every image is within 10 m
    spec = _spec_file(tmp_path, missions=2)
    doc = json.loads(spec.read_text())
    doc["synth"]["n_places"] = 1
    spec.write_text(json.dumps(doc))
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
    assert {row.split(",")[-1] for row in rows} == {"1.0"}


def test_fixed_test_protocol_scores_every_mission_on_the_last_season(tmp_path):
    # The protocol picks only the test season: training, and so the state,
    # is the same, and in the last mission both protocols test season 5.
    outs = {p: tmp_path / p for p in ("next-season", "fixed-test")}
    for protocol, out in outs.items():
        assert main(["run", "--seed", "0", "--missions", "4", "--protocol", protocol,
                     "--out", str(out)]) == 0
    fixed, nxt = (json.loads((outs[p] / "summary.json").read_text())["missions"]
                  for p in ("fixed-test", "next-season"))
    assert [m["test_label"] for m in fixed] == ["synth-season-5"] * 4
    assert (outs["fixed-test"] / "state.svpc").read_bytes() == \
        (outs["next-season"] / "state.svpc").read_bytes()
    assert fixed[-1]["success"] == nxt[-1]["success"]


def test_placedef_location_and_incremental(tmp_path):
    out = tmp_path / "pd"
    assert main(["placedef", "--upd", "location", "--td", "18", "--out", str(out),
                 "--seed", "0"]) == 0
    csv_lines = (out / "partition.csv").read_text().splitlines()
    assert csv_lines[0] == "image_id,class_id"
    assert (out / "partition.svg").read_text().startswith("<svg")
    # contiguous color runs: class ids are non-decreasing along the sequence
    ids = [int(line.split(",")[1]) for line in csv_lines[1:]]
    assert ids == sorted(ids)

    out2 = tmp_path / "pd_inc"
    assert main(["placedef", "--upd", "incremental", "--out", str(out2), "--seed", "0"]) == 0
    assert (out2 / "insertions.csv").exists()
    header = (out2 / "insertions.csv").read_text().splitlines()[0]
    assert header == "image_id,class_id,pos_dist,ang_diff,feat_dist"


@pytest.mark.parametrize("command", ["placedef", "run"])
def test_tiny_td_under_location_appearance_gives_one_class_per_image(tmp_path, command):
    # 1e-308 m asks for an infinite number of appearance clusters
    flags = ["--upd", "location-appearance", "--td", "1e-308", "--out", str(tmp_path)]
    assert main([command, *flags, *(["--missions", "1"] if command == "run" else [])]) == 0
    if command == "placedef":
        rows = (tmp_path / "partition.csv").read_text().splitlines()[1:]
        assert [row.split(",") for row in rows] == [[str(i), str(i)] for i in range(len(rows))]
    else:
        partition = load_state(tmp_path / "state.svpc").classifiers[0].partition
        assert partition.sizes.tolist() == [1] * len(partition.sizes)


def test_placedef_missing_manifest_is_data_error(tmp_path, capsys):
    code = main(["placedef", "--manifest", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_placedef_season_without_manifest_is_usage_error(tmp_path, capsys):
    # before, it partitioned synthetic season 1 whatever the season asked
    assert main(["placedef", "--season", "3", "--out", str(tmp_path / "pd")]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--season" in err and "--manifest" in err
    assert not (tmp_path / "pd").exists()


def test_placedef_season_missing_from_the_manifest_is_data_error(tmp_path, capsys):
    manifest = _two_season_manifest(tmp_path)
    code = main(["placedef", "--manifest", str(manifest), "--season", "9",
                 "--out", str(tmp_path / "pd")])
    assert code == 2
    assert f"{manifest}: no season 9" in capsys.readouterr().err


def test_schedule_grid_output(tmp_path, capsys):
    out = tmp_path / "sch"
    assert main(["schedule", "--strategy", "ST2", "--nbar", "1", "--missions", "4",
                 "--capacity", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "slot 0: 1 0 0 0" in printed
    assert (out / "schedule.csv").read_text().splitlines()[1:] == \
        ["0,1000", "1,0100", "2,0010", "3,0001"]
    assert main(["schedule", "--strategy", "ST1", "--missions", "4"]) == 0
    printed = capsys.readouterr().out
    assert "slot 0: 1 1 1 1" in printed
    assert "slot 3: 0 0 0 1" in printed


def test_schedule_st3_kbar_out_of_range_is_usage_error(capsys):
    code = main(["schedule", "--strategy", "ST3", "--kbar", "5", "--missions", "4"])
    assert code == 1
    assert "k_bar" in capsys.readouterr().err


def test_run_st3_kbar_out_of_range_is_usage_error(tmp_path, capsys):
    spec = _spec_file(tmp_path, missions=2)
    code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out"),
                 "--strategy", "ST3", "--kbar", "9"])
    assert code == 1
    assert "k_bar" in capsys.readouterr().err


def test_placedef_empty_dataset_is_data_error(tmp_path, capsys):
    (tmp_path / "poses.csv").write_text("")
    (tmp_path / "feats.csv").write_text("")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"feature_dim": 2, "seasons": [
        {"poses": "poses.csv", "features": "feats.csv", "label": "x", "season_id": 1},
    ]}))
    code = main(["placedef", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no pose rows" in capsys.readouterr().err


def test_bad_flag_is_usage_error(capsys):
    assert main(["run", "--nonsense"]) == 1


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "seasonvpc" in capsys.readouterr().out


def _two_season_manifest(tmp_path, *, manifest_dim=3, file_dim=3, season_2_id=2,
                         first_timestamp="0", nan_feature=False, zero_row=None, n_seasons=2,
                         short_features=False, x_2=None):
    """A manifest of two seasons of four images each, with one field of the
    input replaced; zero_row zeroes that feature row of season 1,
    short_features drops the last feature row of season 2, and x_2 places
    every image of season 2 at that x."""
    from seasonvpc import write_features
    seasons = []
    for sid in range(1, n_seasons + 1):
        xs = [x_2 if x_2 is not None and sid == 2 else 3.0 * t for t in range(4)]
        rows = [f"{t * 1_000_000},{x!r},0.0,0.0" for t, x in enumerate(xs)]
        if sid == 1:
            rows[0] = first_timestamp + rows[0][rows[0].index(","):]
        (tmp_path / f"p{sid}.csv").write_text("\n".join(rows) + "\n")
        feats = np.ones((3 if short_features and sid == 2 else 4, file_dim))
        if nan_feature and sid == 2:
            feats[2, 1] = np.nan
        if zero_row is not None and sid == 1:
            feats[zero_row] = 0.0
        write_features(tmp_path / f"f{sid}.bin", feats)
        seasons.append({"poses": f"p{sid}.csv", "features": f"f{sid}.bin",
                        "label": str(sid), "season_id": season_2_id if sid == 2 else sid})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"feature_dim": manifest_dim, "seasons": seasons}))
    return manifest


def _run_two_season_manifest(tmp_path, *flags, **fields):
    """`seasonvpc run` for one mission over `_two_season_manifest(**fields)`
    with extra `flags`; returns the exit code."""
    manifest = _two_season_manifest(tmp_path, **fields)
    spec = _spec_file(tmp_path, manifest=str(manifest), missions=1)
    doc = json.loads(spec.read_text())
    del doc["synth"]
    spec.write_text(json.dumps(doc))
    return main(["run", "--spec", str(spec), "--out", str(tmp_path / "out"), *flags])


def test_run_nan_feature_in_manifest_is_data_error(tmp_path, capsys, caplog):
    assert _run_two_season_manifest(tmp_path, nan_feature=True) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "non-finite feature" in err
    assert "Traceback" not in err + caplog.text


def test_run_zero_feature_row_under_incremental_is_data_error(tmp_path, capsys, caplog):
    assert _run_two_season_manifest(tmp_path, "--upd", "incremental", zero_row=1) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "season 1: feature row 1 is all zero" in err
    assert "Traceback" not in err + caplog.text
    assert _run_two_season_manifest(tmp_path, "--upd", "location", zero_row=1) == 0


def test_run_poses_whose_sum_overflows_are_data_error(tmp_path, capsys, caplog):
    # each x is finite, but a class centroid's sum of them is not
    assert _run_two_season_manifest(tmp_path, x_2=1e308) == 2
    err = capsys.readouterr().err
    assert "data error: season 2: the sum of |x| or of |y| over the season is not finite" in err
    assert "Traceback" not in err + caplog.text


@pytest.mark.parametrize("field", ["pose_jitter", "loop_length"])
def test_synth_poses_past_float_name_the_pose_fields(tmp_path, capsys, caplog, field):
    assert _main_on_spec(tmp_path, RUN_SPEC, _set("synth", field, 1e308)) == 1
    err = capsys.readouterr().err
    assert "usage error: synth:" in err and "pose_jitter must keep the poses finite" in err
    assert "Traceback" not in err + caplog.text


def test_placedef_zero_feature_row_under_incremental_is_data_error(tmp_path, capsys, caplog):
    manifest = _two_season_manifest(tmp_path, zero_row=2)
    code = main(["placedef", "--manifest", str(manifest), "--upd", "incremental",
                 "--out", str(tmp_path / "pd")])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "season 1: feature row 2 is all zero" in err
    assert "Traceback" not in err + caplog.text
    assert main(["placedef", "--manifest", str(manifest), "--upd", "incremental",
                 "--season", "2", "--out", str(tmp_path / "pd2")]) == 0


@pytest.mark.parametrize("fields, message", [
    (dict(manifest_dim="abc"), "malformed manifest field"),
    (dict(season_2_id="x"), "malformed manifest field"),
    (dict(first_timestamp="inf"), "non-finite pose component"),
    (dict(first_timestamp="1e400"), "non-finite pose component"),
    (dict(first_timestamp="-1e19"), "64-bit range"),
    (dict(manifest_dim=0, file_dim=0), "feature_dim must be >= 1"),
    (dict(short_features=True), "season 2: count mismatch: 4 images vs 3 feature rows"),
], ids=["feature_dim_abc", "season_id_x", "timestamp_inf", "timestamp_1e400",
        "timestamp_past_int64", "feature_dim_0", "feature_file_one_row_short"])
def test_run_malformed_manifest_or_poses_is_data_error(tmp_path, capsys, caplog,
                                                       fields, message):
    assert _run_two_season_manifest(tmp_path, **fields) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err
    assert "Traceback" not in err + caplog.text


@pytest.mark.parametrize("fields, message", [
    (dict(season_2_id=3), "contiguous"),
    (dict(season_2_id=2**32 + 2), "contiguous"),
    (dict(season_2_id=1), "contiguous"),
    (dict(n_seasons=1), "at least two seasons"),
], ids=["season_id_gap", "season_id_past_u32", "season_id_repeated", "one_season"])
def test_run_manifest_season_ids_are_data_errors(tmp_path, capsys, fields, message):
    assert _run_two_season_manifest(tmp_path, **fields) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err and "manifest.json" in err


def _nested_spec(tmp_path, section, field, value):
    spec = _spec_file(tmp_path)
    doc = json.loads(spec.read_text())
    if section is None:
        doc[field] = value
    else:
        doc.setdefault(section, {})[field] = value
    if section == "partition":
        doc["partition"]["method"] = "incremental"
    spec.write_text(json.dumps(doc))  # NaN / Infinity literals, as Python's json reads them
    return spec


NAN, INF = float("nan"), float("inf")


NON_FINITE_SPEC_VALUES = [
    ("train", "learning_rate", NAN),
    ("train", "learning_rate", INF),
    ("train", "weight_scale", INF),
    ("partition", "t_d", NAN),
    ("partition", "pos_max", NAN),
    ("partition", "ang_max", INF),
    ("partition", "feat_max", NAN),
    (None, "error_thresholds", [10.0, NAN]),
    (None, "error_thresholds", [INF]),
    ("synth", "loop_length", INF),
    ("synth", "place_signal", NAN),
    ("synth", "season_drift", NAN),
    ("synth", "noise", NAN),
    ("synth", "pose_jitter", INF),
]


@pytest.mark.parametrize("section, field, value", NON_FINITE_SPEC_VALUES,
                         ids=[f"{s or 'mission'}.{f}={v}" for s, f, v in NON_FINITE_SPEC_VALUES])
def test_run_non_finite_spec_value_is_usage_error(tmp_path, capsys, section, field, value):
    spec = _nested_spec(tmp_path, section, field, value)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "finite" in err


@pytest.mark.parametrize("flags", [["--td", "nan"], ["--td", "inf"], ["--error", "nan"],
                                   ["--error", "10", "inf"]], ids=" ".join)
def test_run_non_finite_flag_is_usage_error(tmp_path, capsys, flags):
    spec = _spec_file(tmp_path, missions=1)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "finite" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_run_diverging_training_is_usage_error(tmp_path, capsys):
    spec = _spec_file(tmp_path, missions=2, train={"learning_rate": 1e300, "epochs": 3})
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage error: season 1, slot 0: training diverged" in err
    assert "train.learning_rate 1e+300" in err


def test_run_failing_in_a_mission_keeps_the_state_before_it(tmp_path, monkeypatch, capsys):
    spec = _spec_file(tmp_path)
    clean = tmp_path / "clean"
    assert main(["run", "--spec", str(spec), "--out", str(clean), "--missions", "2"]) == 0
    adapt = missions.run_adaptation

    def diverge_in_season_3(state, season, cfg):
        if season.season_id == 3:
            raise DivergenceError("training diverged")
        return adapt(state, season, cfg)

    monkeypatch.setattr(missions, "run_adaptation", diverge_in_season_3)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--missions", "4"]) == 1
    assert "usage error: training diverged" in capsys.readouterr().err
    state = load_state(out / "state.svpc")
    assert state.mission == 2
    assert states_equal(state, load_state(clean / "state.svpc"))
    assert sorted(p.name for p in out.iterdir()) == ["state.svpc"]


@pytest.mark.parametrize("mode", ["rank1", "topx"])
@pytest.mark.parametrize("upd", PARTITION_METHODS)
def test_results_csv_success_ratios_are_plain_numbers(tmp_path, monkeypatch, upd, mode):
    ratios = []
    score = missions.success_ratio
    monkeypatch.setattr(missions, "success_ratio",
                        lambda *args: ratios.append(score(*args)) or ratios[-1])
    spec = _spec_file(tmp_path, missions=2)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--upd", upd,
                 "--mode", mode]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == len(ratios) == 2 * 2
    assert [float(row.split(",")[-1]) for row in rows] == ratios
    assert all(type(r) is float for r in ratios)


def test_repeated_error_threshold_is_a_usage_error(tmp_path, capsys):
    spec = _spec_file(tmp_path, missions=2)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--error", "10", "10"]) == 1
    assert "error threshold 10.0 is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_look_alike_error_thresholds_keep_distinct_labels(tmp_path):
    # f"{err:g}" prints both as 1.23457e+06
    spec = _spec_file(tmp_path, missions=2)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out),
                 "--error", "1234567", "1234568"]) == 0
    rows = [row.split(",") for row in (out / "results.csv").read_text().splitlines()[1:]]
    assert len({tuple(row[:4]) for row in rows}) == len(rows) == 4
    assert {row[3] for row in rows} == {"1234567.0", "1234568.0"}
    summary = json.loads((out / "summary.json").read_text())
    assert [sorted(m["success"]) for m in summary["missions"]] == \
        [["1234567.0", "1234568.0"]] * 2
    svg = (out / "success.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "error=1234567.0m" in svg and "error=1234568.0m" in svg


@pytest.mark.parametrize("argv", [["run", "--missions", "1", "--out", "{file}"],
                                  ["placedef", "--out", "{file}/x"],
                                  ["schedule", "--out", "{file}"]],
                         ids=["run", "placedef", "schedule"])
def test_out_on_a_regular_file_is_a_data_error(tmp_path, capsys, caplog, argv):
    file = tmp_path / "file"
    file.write_text("not a directory\n")
    assert main([arg.format(file=file) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err
    assert "Traceback" not in err + caplog.text
    assert file.read_text() == "not a directory\n"


def _main_on_spec(tmp_path, argv, edit=None):
    """`main(argv)` with "SPEC" standing for a small valid spec file that
    `edit(doc)` may rewrite, and an --out directory for run and placedef."""
    spec = _spec_file(tmp_path)
    if edit is not None:
        spec.write_text(json.dumps(edit(json.loads(spec.read_text()))))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    if argv[0] != "schedule":
        argv += ["--out", str(tmp_path / "out")]
    return main(argv)


def _set(section, field, value):
    def edit(doc):
        (doc.setdefault(section, {}) if section else doc)[field] = value
        return doc
    return edit


def _partition(**fields):
    return _set(None, "partition", {"method": "location-appearance", **fields})


RUN_SPEC = ["run", "--spec", "SPEC"]
MALFORMED_INPUTS = {
    "spec_is_array": (RUN_SPEC, lambda doc: [doc]),
    "strategy_is_string": (RUN_SPEC, _set(None, "strategy", "ST1")),
    "error_threshold_is_string": (RUN_SPEC, _set(None, "error_thresholds", [10, "a"])),
    "manifest_is_number": (RUN_SPEC, _set(None, "manifest", 5)),
    "run_seed_negative": ([*RUN_SPEC, "--seed", "-1"], None),
    "placedef_seed_negative": (["placedef", "--seed", "-3"], None),
    "partition_k_above_images": (RUN_SPEC, _partition(k=1000)),
    "placedef_k_above_images": (["placedef", "--upd", "location-appearance", "--k", "1000"],
                                None),
    "schedule_capacity_0": (["schedule", "--strategy", "ST1", "--capacity", "0"], None),
    "train_epochs_fractional": (RUN_SPEC, _set("train", "epochs", 1.5)),
    "train_hidden_fractional": (RUN_SPEC, _set("train", "hidden", 4.5)),
    "synth_n_places_fractional": (RUN_SPEC, _set("synth", "n_places", 4.5)),
    "partition_kmeans_iters_fractional": (RUN_SPEC, _partition(kmeans_iters=2.5)),
    "partition_t_d_past_float": (RUN_SPEC, _set("partition", "t_d", 10**400)),
    "train_learning_rate_past_float": (RUN_SPEC, _set("train", "learning_rate", 10**400)),
    "strategy_never_trains": ([*RUN_SPEC, "--strategy", "ST2", "--nbar", "0"], None),
    "schedule_strategy_never_trains": (["schedule", "--strategy", "ST2", "--nbar", "0"], None),
    "synth_place_signal_past_float32": (RUN_SPEC, _set("synth", "place_signal", 1e300)),
    "synth_noise_past_float32": (RUN_SPEC, _set("synth", "noise", 1e300)),
    "missions_0": (RUN_SPEC, _set(None, "missions", 0)),
    "protocol_weekly": (RUN_SPEC, _set(None, "protocol", "weekly")),
    "train_learning_rate_0": (RUN_SPEC, _set("train", "learning_rate", 0)),
    "train_epochs_negative": (RUN_SPEC, _set("train", "epochs", -1)),
    "partition_t_d_0": (RUN_SPEC, _set("partition", "t_d", 0)),
    "partition_k_0": (RUN_SPEC, _partition(k=0)),
    "partition_kmeans_iters_0": (RUN_SPEC, _partition(kmeans_iters=0)),
    "partition_feat_max_0": (RUN_SPEC, _set("partition", "feat_max", 0)),
    "synth_n_places_0": (RUN_SPEC, _set("synth", "n_places", 0)),
    "synth_loop_length_0": (RUN_SPEC, _set("synth", "loop_length", 0)),
    "synth_noise_negative": (RUN_SPEC, _set("synth", "noise", -1)),
}


@pytest.mark.parametrize("argv, edit", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_config_is_usage_error(tmp_path, capsys, caplog, argv, edit):
    assert _main_on_spec(tmp_path, argv, edit) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "Traceback" not in err + caplog.text


NEGATIVE_SEEDS = {
    "run_flag": (["run", "--seed", "-1"], None),
    "placedef_flag": (["placedef", "--seed", "-1"], None),
    "run_spec": (RUN_SPEC, _set(None, "seed", -2)),
    "run_spec_and_flag": ([*RUN_SPEC, "--seed", "-3"], None),
}


@pytest.mark.parametrize("argv, edit", NEGATIVE_SEEDS.values(), ids=NEGATIVE_SEEDS)
def test_negative_seed_is_refused_by_name(tmp_path, capsys, argv, edit):
    # One seed feeds synthesis, k-means and training; the error names it,
    # not a config field the user did not set.
    assert _main_on_spec(tmp_path, argv, edit) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "seed must be >= 0" in err
    assert "kmeans_iters" not in err
    assert not (tmp_path / "out").exists()


# The largest seed a one-mission run at capacity 4 allows: its last slot's
# seed, seed + 100 * 1 + 3, is the largest a state file stores, 2**63 - 1.
LARGEST_SEED = 2**63 - 1 - 103


def test_seed_whose_slot_seeds_overflow_int64_is_usage_error(tmp_path, capsys, caplog):
    for seed in (LARGEST_SEED + 1, 2**63 - 1):
        assert _main_on_spec(tmp_path, [*RUN_SPEC, "--missions", "1", "--seed", str(seed)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: seed {seed} is too large: 1 missions at capacity 4 allow seeds " \
            f"up to {LARGEST_SEED}" in err
        assert "Traceback" not in err + caplog.text
        assert not (tmp_path / "out").exists()
    assert _main_on_spec(tmp_path, [*RUN_SPEC, "--missions", "1", "--seed", str(LARGEST_SEED)]) == 0
    assert [rec.model.seed for rec in load_state(tmp_path / "out" / "state.svpc").classifiers] \
        == [2**63 - 1 - 3]


IGNORED_SPEC_VALUES = {
    "train.seed": _set("train", "seed", 5),
    "partition.seed": _set("partition", "seed", 2),
    "synth.seed": _set("synth", "seed", 9),
    "synth.n_seasons": _set("synth", "n_seasons", 7),
    "nbar": _set("strategy", "nbar", 2),  # a strategy key StrategyConfig does not have
    "missions": _set(None, "missions", 2.5),
    "capacity": _set(None, "capacity", 2.5),
    "fusion_x": _set(None, "fusion_x", 9.5),
    "seed": _set(None, "seed", 1.5),
    "n_bar": _set("strategy", "n_bar", 1.5),
    "k_bar": _set(None, "strategy", {"kind": "ST3", "k_bar": 1.5}),
    "st3_filter": _set(None, "strategy", {"kind": "ST3", "k_bar": 1, "st3_filter": "false"}),
    "mision": _set(None, "mision", 3),  # a misspelled top-level key
    # JSON booleans, which would pass as 1 and 0
    "capacity must be an integer, got True": _set(None, "capacity", True),
    "epochs must be an integer, got False": _set("train", "epochs", False),
    "t_d must be a real number, got True": _set("partition", "t_d", True),
    "learning_rate must be a real number, got True": _set("train", "learning_rate", True),
    "loop_length must be a real number, got False": _set("synth", "loop_length", False),
    "error_thresholds": _set(None, "error_thresholds", [10.0, True]),
}


@pytest.mark.parametrize("edit", IGNORED_SPEC_VALUES.values(), ids=IGNORED_SPEC_VALUES)
def test_spec_value_that_would_be_ignored_is_refused_by_name(tmp_path, capsys, request, edit):
    assert _main_on_spec(tmp_path, RUN_SPEC, edit) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and request.node.callspec.id in err


def test_placedef_partition_is_the_one_run_trains_on(tmp_path):
    # The top-level seed seeds k-means for both subcommands.
    flags = ["--upd", "location-appearance", "--seed", "3"]
    assert main(["placedef", *flags, "--out", str(tmp_path / "pd")]) == 0
    assert main(["run", *flags, "--missions", "1", "--out", str(tmp_path / "run")]) == 0
    pairs = [tuple(map(int, line.split(",")))
             for line in (tmp_path / "pd" / "partition.csv").read_text().splitlines()[1:]]
    keyframes = {}
    for image, cls in pairs:
        keyframes.setdefault(cls, image)
    partition = load_state(tmp_path / "run" / "state.svpc").classifiers[0].partition
    assert partition.keyframe_ids.tolist() == [keyframes[c] for c in range(len(keyframes))]
    assert partition.sizes.tolist() == np.bincount([cls for _, cls in pairs]).tolist()


# Flags that only configure one subcommand's own input or output; every other
# flag writes a spec key through cli._FLAGS.
LOCAL_FLAGS = {"spec", "out", "season"}


def test_every_flag_is_in_the_flag_table():
    from seasonvpc.cli import _FLAGS, _build_parser
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for parser in subparsers.choices.values() for a in parser._actions
             if a.dest != "help"}
    assert dests - LOCAL_FLAGS <= set(_FLAGS)
    assert set(_FLAGS) <= dests


# SHA-256 of each SVG report of `run` on `_spec_file`'s spec and of `placedef`
# under UPD3 (the method with the most classes, so the most colors).
PINNED_SVGS = {
    "schedule.svg": "87384c4ed3cc6ebc8bb39d0738d390fca613dc5c5333a876eb9f983dc6c6232e",
    "success.svg": "a11a1aa1255f6da7e8e2cac9a904440b63ac617384e7434daaea5d0b747e21c3",
    "partition.svg": "dd226d1e438953cb309b718f6c0327495dacec435764a28f4d292fa6feb5e5f3",
}


def test_svg_reports_are_pinned(tmp_path):
    run_out, pd_out = tmp_path / "run", tmp_path / "pd"
    assert main(["run", "--spec", str(_spec_file(tmp_path)), "--out", str(run_out)]) == 0
    assert main(["placedef", "--upd", "incremental", "--seed", "0", "--out", str(pd_out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for out, name in ((run_out, "schedule.svg"), (run_out, "success.svg"),
                             (pd_out, "partition.svg"))}
    assert got == PINNED_SVGS


STRATEGY_SECTIONS = st.one_of(
    st.just({"kind": "ST1"}),
    st.builds(lambda n: {"kind": "ST2", "n_bar": n}, st.integers(1, 3)),
    st.builds(lambda k, f: {"kind": "ST3", "k_bar": k, "st3_filter": f},
              st.integers(1, 3), st.booleans()),
)
SPEC_DOCS = st.fixed_dictionaries({
    "missions": st.integers(1, 3),
    "seed": st.integers(0, 1000),
    "capacity": st.integers(1, 4),
    "fusion_x": st.integers(1, 12),
    "mode": st.sampled_from(["rank1", "topx"]),
    "error_thresholds": st.lists(st.sampled_from([5.0, 10.0, 20.0, 35.5]), min_size=1,
                                 max_size=3, unique=True),
    "strategy": STRATEGY_SECTIONS,
    "synth": st.builds(lambda p, m, f: {"n_places": p, "loop_length": 20.0 * p,
                                        "images_per_place": m, "feature_dim": f},
                       st.integers(2, 6), st.integers(1, 4), st.integers(2, 8)),
    "train": st.builds(lambda e, lr: {"epochs": e, "learning_rate": lr, "hidden": 4},
                       st.integers(1, 3), st.sampled_from([0.05, 0.5])),
})


@settings(max_examples=100, deadline=None)
@given(doc=SPEC_DOCS, upd=st.sampled_from(sorted(PARTITION_METHODS)))
def test_generated_specs_never_exit_3(doc, upd):
    # Every valid spec either runs or is refused with a typed error: exit 0,
    # 1 (usage) or 2 (data), never 3, an internal error.
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(doc))
        code = main(["run", "--spec", str(spec), "--upd", upd, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
