"""In-memory span recorder for the traced benchmark run.

A span is (id, parent id, trace id, name, start, end, counts). Spans of one
mission or one locate query share a trace id. Wrapping happens in the
benchmark only: the package is patched at the names `seasonvpc.missions`
looks its layer functions up under, and restored afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Layer functions as `seasonvpc.missions` imports them -> span name.
MISSIONS_LAYERS = {
    "next_schedule": "sched.next_schedule",
    "build_partition": "placedef.build_partition",
    "membership_labels": "core.membership_labels",
    "train": "classify.train",
    "fine_tune": "classify.fine_tune",
    "predict": "classify.predict",
    "top_x": "fusion.top_x",
    "fuse": "fusion.fuse",
}


def _sgd_counts(n: int, f: int, k: int, cfg) -> dict:
    """Computed (not measured) SGD work of one train/fine_tune call.

    Per minibatch of b rows: forward 2bFH + 2bHK, backward 2bHK (dW2)
    + 2bHK (dA1) + 2bHF (dW1) flops; the final full-batch loss_and_gradient
    adds the same for all n rows.
    """
    h, b = cfg.hidden, cfg.batch_size
    steps = cfg.epochs * -(-n // b)
    rows = cfg.epochs * n + n
    return {"sgd_steps": steps, "gflop": rows * (4 * f * h + 6 * h * k) / 1e9}


def _count_train(args, out) -> dict:
    features, _labels, n_classes, cfg = args
    return _sgd_counts(features.shape[0], features.shape[1], n_classes, cfg)


def _count_fine_tune(args, out) -> dict:
    _model, features, _labels, n_classes, cfg = args
    return _sgd_counts(features.shape[0], features.shape[1], n_classes, cfg)


def _count_predict(args, out) -> dict:
    m = args[0]
    return {"gflop": 2 * m.hidden * (m.feature_dim + m.n_classes) / 1e9}


def _count_partition(args, out) -> dict:
    sizes = [len(c.members) for c in out.classes]
    return {"classes": len(sizes), "singletons": sum(1 for s in sizes if s == 1)}


def _count_bundle(args, out) -> dict:
    b = args[0]
    return {"bytes": b.poses_path.stat().st_size + b.features_path.stat().st_size}


def _count_manifest(args, out) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _count_save(args, out) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


COUNTERS = {
    "classify.train": _count_train,
    "classify.fine_tune": _count_fine_tune,
    "classify.predict": _count_predict,
    "placedef.build_partition": _count_partition,
    "data.load_bundle": _count_bundle,
    "data.load_manifest": _count_manifest,
    "missions.save_state": _count_save,
}


class Tracer:
    """Collects spans of one process in memory; write() dumps them as JSONL."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._traces = 0
        self.trace_id = ""
        self.rep = 0

    def new_trace(self, kind: str) -> None:
        """Start a trace id, e.g. "mission-12", shared by the spans that follow."""
        self._traces += 1
        self.trace_id = f"{kind}-{self._traces}"

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            counts = counter(args, out) if counter else None
            self.spans.append((sid, parent, self.trace_id, self.rep, name, start, end, counts))
            return out

        return traced

    @contextmanager
    def patched(self, missions_module):
        """Route the season loop's layer calls through traced wrappers."""
        saved = {attr: getattr(missions_module, attr) for attr in MISSIONS_LAYERS}
        try:
            for attr, name in MISSIONS_LAYERS.items():
                setattr(missions_module, attr, self.wrap(name, saved[attr]))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(missions_module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "trace", "rep", "name", "start", "end", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[tuple]) -> dict:
    """Per-name totals of one traced repetition: wall time, self time (span
    minus the part its direct children cover), call count and summed counts."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _t, _r, _n, start, end, _c in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for sid, parent, _t, _r, name, start, end, counts in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["time"] += end - start
        agg["self"] += end - start - child_time[sid]
        for key, value in (counts or {}).items():
            agg[key] += value
    return out
