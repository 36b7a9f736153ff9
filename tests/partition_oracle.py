"""Group-list oracles for UPD1, UPD2 and their k-means.

The travel split returns each run as a list of member ids, UPD2 sorts the
runs of all clusters by first member, and class i is the i-th list: the
partition `seasonvpc.placedef` builds from the label column directly must
be the same. The k-means oracle finds each cluster by its label mask,
where `seasonvpc.placedef.kmeans` counts every cluster's members at once.
"""

import numpy as np

from seasonvpc.core import step_lengths


def split_by_travel(steps: list[float], member_ids, t_d: float) -> list[list[int]]:
    """The ascending `member_ids` as runs of ~t_d meters of travel: a run
    closes on the member whose arrival pushes accumulated travel to t_d or
    beyond, and that member opens the next run."""
    runs: list[list[int]] = [[member_ids[0]]]
    cum = 0.0
    for prev, cur in zip(member_ids, member_ids[1:]):
        travel = 0.0
        for step in steps[prev:cur]:
            travel += step
        cum += travel
        if cum >= t_d:
            runs.append([cur])
            cum = 0.0
        else:
            runs[-1].append(cur)
    return runs


def labels_of(groups: list[list[int]], n: int) -> list[int]:
    """The label column whose class i holds the ids `groups[i]`."""
    labels = [-1] * n
    for cid, g in enumerate(groups):
        for i in g:
            labels[i] = cid
    return labels


def location_labels(train, t_d: float) -> list[int]:
    """UPD1: one travel split over every image."""
    return labels_of(split_by_travel(step_lengths(train.poses), range(len(train)), t_d),
                     len(train))


def location_appearance_labels(train, clusters, t_d: float) -> list[int]:
    """UPD2 given the appearance cluster of each image: each non-empty
    cluster's members split by travel, the runs ordered by first member."""
    steps = step_lengths(train.poses)
    groups: list[list[int]] = []
    for c in range(max(clusters) + 1):
        member_ids = [i for i, label in enumerate(clusters) if label == c]
        if member_ids:
            groups.extend(split_by_travel(steps, member_ids, t_d))
    groups.sort(key=lambda g: g[0])
    return labels_of(groups, len(train))


def kmeans(x: np.ndarray, k: int, iters: int, seed: int):
    """Seeded Lloyd's k-means finding each cluster by its label mask, 2 * k
    scans per iteration: the labels, centroids and distortion trace."""
    n = len(x)
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()

    def assign(c):
        d2 = np.maximum(
            (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * x @ c.T,
            0.0,
        )
        labels = np.argmin(d2, axis=1)
        return labels, d2[np.arange(n), labels]

    labels, dist2 = assign(centroids)
    history = [float(dist2.sum())]
    for _ in range(iters):
        new_centroids = centroids.copy()
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                new_centroids[c] = x[mask].mean(axis=0)
        empty = [c for c in range(k) if not np.any(labels == c)]
        if empty:
            order = np.argsort(-dist2, kind="stable")
            for c, point in zip(empty, order):
                new_centroids[c] = x[point]
        new_labels, dist2 = assign(new_centroids)
        history.append(float(dist2.sum()))
        centroids = new_centroids
        same = np.array_equal(new_labels, labels)
        labels = new_labels
        if same:
            break
    return labels, centroids, history
