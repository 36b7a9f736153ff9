"""The season loop's outputs, pinned: `seasonvpc run` on criterion 11's tiny
spec under each place-definition method. The digests cover `results.csv`,
`state.svpc` and the bytes of the final ensemble's `run_vpc` ranking of the
test season, so a change to training, partitioning, fusion order or the
ranking's column gather shows here even when a run still matches itself."""

import hashlib
import json

import numpy as np
import pytest

from seasonvpc import load_state, queries_from_set, run_vpc
from seasonvpc.cli import _load_seasons, load_experiment_spec, main as cli_main

SPEC = {
    "missions": 4,
    "seed": 11,
    "synth": {"n_places": 8, "loop_length": 160.0, "images_per_place": 3, "feature_dim": 16},
    "strategy": {"kind": "ST2", "n_bar": 1},
    "train": {"learning_rate": 0.5, "epochs": 8},
}

# SHA-256 of results.csv, of state.svpc, and of the final ranking's slots,
# classes, probabilities and poses (dtype, shape and bytes of each, in that
# order), recorded before the ranking's columns moved into the VPC plan.
PINNED = {
    "location": ("e36faa86e52d02f28cc86671775d8dc471cfea5e6702a3959913fb8e62da514b",
                 "2ed828a0b53f9ca402a56b023e0d3b17f90ee3334a4e109492254ad603ca1667",
                 "901fbad00ea38e87b7c9c77d13d03323df871bd35c17a1e46465862a6da24181"),
    "location-appearance": ("9dfaecb300e924803cedef13f0d945eefb5cb456fccc27f9d3413a8738460b75",
                            "199497fa3ed521321c36bc2e36d8f982b43112a74eb548957be23b9c679503c7",
                            "901fbad00ea38e87b7c9c77d13d03323df871bd35c17a1e46465862a6da24181"),
    "incremental": ("54e7c3975dc77a43ca6ae411fd9fcb5a59c36224841891403f5855d61c39992c",
                    "11b156ab16e6bfc745c65d4201f1977f848ad8e5da65b54fe62e38467ed11d3a",
                    "0ee4d5179c09242bca95b569333421cba21195edb4289a54971c111c699377d7"),
}


def _ranking_digest(ranking) -> str:
    h = hashlib.sha256()
    for a in (ranking.slots, ranking.classes, ranking.probabilities, ranking.poses):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("upd", sorted(PINNED))
def test_run_outputs_match_the_pinned_digests(tmp_path, upd):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "out"
    assert cli_main(["run", "--spec", str(spec_path), "--out", str(out), "--upd", upd]) == 0
    spec = load_experiment_spec(str(spec_path))
    ranking = run_vpc(load_state(out / "state.svpc"),
                      queries_from_set(_load_seasons(spec)[-1]), spec.mission)
    got = (hashlib.sha256((out / "results.csv").read_bytes()).hexdigest(),
           hashlib.sha256((out / "state.svpc").read_bytes()).hexdigest(),
           _ranking_digest(ranking))
    assert got == PINNED[upd]
