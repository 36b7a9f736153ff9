import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seasonvpc import TrainingSet

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
