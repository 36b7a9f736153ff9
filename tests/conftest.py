import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seasonvpc import MappedImage, RetrainHistory, TrainingSet

TESTS = Path(__file__).resolve().parent


def run_at_one_blas_thread(check) -> None:
    """Call the module-level function `check` of a module in tests/ in a
    child interpreter whose BLAS runs one thread, as perfbench/run.py pins
    it, and fail with the child's output if it raises. A BLAS library reads
    its thread count once, when it loads, so this cannot be switched inside
    the test process."""
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = f"from {check.__module__} import {check.__name__}; {check.__name__}()"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr


def neumaier_sum(iterable, start=0):
    """The builtin `sum` of CPython 3.12 and later over ints and floats:
    ints add exactly until the first float; from there every item is added
    with Neumaier's compensation, and the compensation is added at the end
    when it is nonzero and finite (`builtin_sum_impl`). CPython 3.11 and
    earlier add the floats plainly, one at a time."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if isinstance(total, float):
            break
    else:
        return total
    c = 0.0
    for x in map(float, items):
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def history(bits: str) -> RetrainHistory:
    """The retrain history written as a bit string, first mission first."""
    return RetrainHistory(tuple(int(c) for c in bits))


def same_params(a, b) -> bool:
    """Whether two models hold bitwise-equal parameter arrays."""
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in ("w1", "b1", "w2", "b2"))


def line_training_set(n: int, spacing: float = 3.0, feature=None, season_id: int = 1):
    """Images on a straight line, `spacing` meters apart, heading +x."""
    feats = [[float(i)] if feature is None else feature(i) for i in range(n)]
    poses = np.zeros((n, 3))
    poses[:, 0] = spacing * np.arange(n)
    return TrainingSet(season_id=season_id, label="line",
                       timestamps=np.arange(n) * 1_000_000, poses=poses,
                       features=np.asarray(feats, dtype=float))


def season_from_xy(xy, features=None, theta=None, label="walk", season_id=1):
    """A season along the (N, 2) positions `xy`, one second apart; features
    default to one zero column, headings to 0."""
    xy = np.asarray(xy, dtype=float)
    n = len(xy)
    poses = np.zeros((n, 3))
    poses[:, :2] = xy
    if theta is not None:
        poses[:, 2] = theta
    feats = np.zeros((n, 1)) if features is None else features
    return TrainingSet(season_id=season_id, label=label, timestamps=np.arange(n) * 1_000_000,
                       poses=poses, features=feats)


@pytest.fixture
def line7():
    return line_training_set(7)


@pytest.fixture
def built_rows(monkeypatch):
    """A list that grows by one for each MappedImage constructed while the
    test runs."""
    built = []
    init = MappedImage.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MappedImage, "__init__", counted)
    return built
