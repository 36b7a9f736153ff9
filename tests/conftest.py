import numpy as np
import pytest

from seasonvpc import TrainingSet


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
